"""Connection-query generation: pop an open site, pick a partner, merge.

Each step pops the head of the open-site queue and scores every compatible
candidate: connection sites from the vocabulary (attach that motif) and the
partial molecule's other open sites (close a ring). Candidates must carry the
same bond order as the focus, which keeps every merge valence-safe. A
pluggable policy supplies the scores; selection is argmax (greedy mode) or a
softmax sample (distributional mode).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import count
from random import Random

import numpy as np

from graphbpe.chem import MolGraph, valence_check
from graphbpe.chem.mol import Atom, failing_aromatic_rings, implicit_hydrogens, make_bond
from graphbpe.errors import (
    EmptyVocabularyError,
    IncompatibleBondError,
    IrreparableValenceError,
    NoCompatibleCandidateError,
    UnknownMotifError,
)
from graphbpe.miner import Candidate, Motif, MotifVocabulary, SiteType
from graphbpe.tokenizer import Trajectory

GREEDY = "greedy"
DISTRIBUTIONAL = "distributional"
DEFAULT_MAX_STEPS = 100

_SEED_MIX = 0x9E3779B97F4A7C15  # odd constant; decorrelates per-molecule streams
_START = "start"  # score-cache key of the start scores; the other keys are site types


class Policy:
    """Scoring contract: one finite score per candidate, independent of the
    other candidates; vocabulary and open-site pools come in separate calls.

    ``context_free=True`` declares that start scores depend only on the
    motifs and vocabulary scores only on the focus site type, so one
    ``generate`` call scores the starts once and each focus site type once.
    """

    temperature: float = 1.0
    context_free: bool = False

    def score_start(self, context, motifs: list[Motif]) -> np.ndarray:
        raise NotImplementedError

    def score_connections(
        self, context, focus: SiteType, candidates: list[Candidate]
    ) -> np.ndarray:
        raise NotImplementedError


class FrequencyPolicy(Policy):
    """Corpus-statistics baseline: log motif frequency for starts, and
    log(1 + attachment count) co-occurrence scores for connections."""

    context_free = True

    def __init__(
        self,
        vocabulary: MotifVocabulary,
        cyclize_weight: float = 1.0,
        temperature: float = 1.0,
    ):
        if cyclize_weight < 0:
            raise ValueError("cyclize_weight must be >= 0")
        if temperature <= 0:
            raise ValueError("temperature must be > 0")
        self.vocabulary = vocabulary
        self.cyclize_weight = cyclize_weight
        self.temperature = temperature

    def score_start(self, context, motifs: list[Motif]) -> np.ndarray:
        return np.array([math.log(m.frequency) for m in motifs], dtype=float)

    def score_connections(
        self, context, focus: SiteType, candidates: list[Candidate]
    ) -> np.ndarray:
        scores = np.empty(len(candidates), dtype=float)
        counts = self.vocabulary.attachment_count
        for i, cand in enumerate(candidates):
            pair = counts(focus, cand.site_type)
            if cand.kind == "vocab":
                scores[i] = math.log1p(pair) + math.log(cand.motif.frequency)
            else:
                scores[i] = math.log1p(self.cyclize_weight * pair)
        return scores


@dataclass
class GenerationState:
    """Partial molecule under assembly plus its FIFO of open sites.

    An open site is a record, not an atom: ``open_sites`` maps an opaque
    site id to (anchor atom, site type), and ``queue`` holds the ids in FIFO
    order. A motif's "*" atoms never enter ``atoms`` or ``bonds``. ``start``,
    ``attach`` and ``cyclize`` are the only assembly moves; each attach or
    cyclize counts one step. ``rng_seed`` is the opaque randomness source
    standing in for a latent vector.
    """

    rng_seed: int
    atoms: list[Atom] = field(default_factory=list)
    bonds: dict[tuple[int, int], str] = field(default_factory=dict)
    queue: deque[int] = field(default_factory=deque)
    open_sites: dict[int, tuple[int, SiteType]] = field(default_factory=dict)
    step_count: int = 0

    def __post_init__(self):
        self.rng = Random(self.rng_seed)
        self._site_ids = count()

    @property
    def terminal(self) -> bool:
        return not self.queue

    def _bond_pair(self, a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def _place_motif(self, motif: Motif) -> dict[int, int]:
        """Copy a motif's atoms other than "*" and their bonds into the
        assembly and open one site per star; returns {star atom: site id}
        in canonical site order."""
        graph = motif.graph
        new_id = {}
        for i, atom in enumerate(graph.atoms):
            if not atom.is_connection_site:
                new_id[i] = len(self.atoms)
                self.atoms.append(atom)
        for bond in graph.bonds:
            if bond.a in new_id and bond.b in new_id:
                self.bonds[new_id[bond.a], new_id[bond.b]] = bond.order
        placed = {}
        for star_atom, site in motif.sites:
            site_id = placed[star_atom] = next(self._site_ids)
            self.open_sites[site_id] = (new_id[graph.neighbors(star_atom)[0][0]], site)
        return placed

    def start(self, motif: Motif) -> None:
        """Place the first motif and enqueue its sites in canonical atom order."""
        self.queue.extend(self._place_motif(motif).values())

    def attach(self, focus: int, motif: Motif, star_atom: int) -> None:
        """Bond a new copy of ``motif`` at its site ``star_atom`` to ``focus``
        and enqueue the copy's other sites."""
        placed = self._place_motif(motif)
        self._merge_sites(focus, placed.pop(star_atom))
        self.queue.extend(placed.values())
        self.step_count += 1

    def cyclize(self, focus: int, site_id: int) -> None:
        """Close a ring by bonding ``focus`` to the queued open site ``site_id``."""
        self.queue.remove(site_id)
        self._merge_sites(focus, site_id)
        self.step_count += 1

    def _merge_sites(self, site_a: int, site_b: int) -> None:
        """Close two open sites with one real bond between their anchors."""
        anchor_a, (_, _, order_a) = self.open_sites[site_a]
        anchor_b, (_, _, order_b) = self.open_sites[site_b]
        if order_a != order_b:
            raise IncompatibleBondError(
                f"cannot merge a {order_a} site with a {order_b} site"
            )
        pair = self._bond_pair(anchor_a, anchor_b)
        if anchor_a == anchor_b or pair in self.bonds:
            raise IncompatibleBondError("merge would duplicate a bond or self-bond")
        del self.open_sites[site_a], self.open_sites[site_b]
        self.bonds[pair] = order_a


def _softmax_sample(scores: np.ndarray, temperature: float, rng: Random) -> int:
    scaled = scores / temperature
    shifted = np.exp(scaled - scaled.max())
    probabilities = shifted / shifted.sum()
    cumulative = np.cumsum(probabilities)
    index = int(np.searchsorted(cumulative, rng.random(), side="right"))
    return min(index, len(scores) - 1)


def _select(
    scores: np.ndarray, mode: str, rng: Random, temperature: float, top_k: int | None
) -> int:
    if not np.all(np.isfinite(scores)):
        raise ValueError("policy produced a non-finite score")
    if mode == GREEDY:
        return int(np.argmax(scores))
    if mode != DISTRIBUTIONAL:
        raise ValueError(f"unknown generation mode {mode!r}")
    if top_k is not None and top_k < len(scores):
        keep = np.sort(np.argsort(-scores, kind="stable")[:top_k])
        picked = _softmax_sample(scores[keep], temperature, rng)
        return int(keep[picked])
    return _softmax_sample(scores, temperature, rng)


def start_generation(
    vocab: MotifVocabulary,
    policy: Policy,
    seed: int,
    mode: str = GREEDY,
    top_k: int | None = None,
    score_cache: dict | None = None,
) -> GenerationState:
    """Pick the first motif and enqueue its sites in canonical atom order.

    A ``context_free`` policy's ordered motifs and start scores are kept in
    ``score_cache`` (``None``: a fresh cache for this call).
    """
    if not len(vocab):
        raise EmptyVocabularyError("cannot generate from an empty vocabulary")
    if score_cache is None or not policy.context_free:
        score_cache = {}
    cached = score_cache.get(_START)
    if cached is None:
        motifs = vocab.ordered_motifs()
        scores = np.asarray(policy.score_start(seed, motifs), dtype=float)
        cached = score_cache[_START] = (motifs, scores)
    motifs, scores = cached
    state = GenerationState(rng_seed=seed)
    state.start(motifs[_select(scores, mode, state.rng, policy.temperature, top_k)])
    return state


def _partial_candidates(state: GenerationState, focus: int) -> list[Candidate]:
    focus_anchor, (_, _, focus_order) = state.open_sites[focus]
    out = []
    for site_id in state.queue:
        anchor, site = state.open_sites[site_id]
        if site[2] != focus_order or anchor == focus_anchor:
            continue
        if state._bond_pair(anchor, focus_anchor) in state.bonds:
            continue
        out.append(Candidate("partial", site, star_atom=site_id))
    return out


def generation_step(
    state: GenerationState,
    vocab: MotifVocabulary,
    policy: Policy,
    mode: str = GREEDY,
    top_k: int | None = None,
    score_cache: dict | None = None,
) -> GenerationState:
    """Resolve one focus site: attach a vocabulary motif or cyclize.

    Candidates are vocabulary sites plus the partial molecule's other open
    sites, restricted to the focus site's bond order. The two pools are
    scored in separate policy calls; a ``context_free`` policy's vocabulary
    scores are kept in ``score_cache`` per focus site type (``None``: a
    fresh cache for this call).
    """
    if state.terminal:
        raise ValueError("generation state is already terminal")
    focus = state.queue.popleft()
    _, focus_type = state.open_sites[focus]
    focus_order = focus_type[2]
    vocab_candidates = vocab.candidates_by_order.get(focus_order, [])
    partial_candidates = _partial_candidates(state, focus)
    candidates = vocab_candidates + partial_candidates
    if not candidates:
        raise NoCompatibleCandidateError(
            f"no candidate shares the focus bond order {focus_order!r}"
        )
    if score_cache is None or not policy.context_free:
        score_cache = {}

    def score(pool: list[Candidate]) -> np.ndarray:
        return np.asarray(
            policy.score_connections(state.rng_seed, focus_type, pool), dtype=float
        )

    scores = score_cache.get(focus_type)
    if scores is None:
        scores = score_cache[focus_type] = score(vocab_candidates)
    if partial_candidates:
        scores = np.concatenate([scores, score(partial_candidates)])
    chosen = candidates[_select(scores, mode, state.rng, policy.temperature, top_k)]
    if chosen.kind == "vocab":
        state.attach(focus, chosen.motif, chosen.star_atom)
    else:
        state.cyclize(focus, chosen.star_atom)
    return state


def _recompute_hydrogens(atoms: list[Atom], mol: MolGraph) -> list[Atom]:
    out = []
    for i, atom in enumerate(atoms):
        if not (atom.bracket or atom.is_connection_site):
            implicit = implicit_hydrogens(
                atom.element, atom.formal_charge, mol.order_sum_x2(i)
            )
            if implicit != atom.implicit_h:
                atom = replace(atom, implicit_h=implicit)
        out.append(atom)
    return out


def repair_aromatic_rings(mol: MolGraph) -> MolGraph:
    """Downgrade invalid aromatic rings to saturated ones.

    Every minimal aromatic ring failing the electron count has its bonds set
    to single; atoms left without aromatic bonds lose the aromatic flag and
    get their implicit hydrogens recomputed.
    """
    atoms = list(mol.atoms)
    bonds = list(mol.bonds)
    current = mol
    while True:
        failing = failing_aromatic_rings(current)
        if not failing:
            break
        ring_atoms, ring_bond_ids = failing[0]
        for bidx in ring_bond_ids:
            bond = bonds[bidx]
            bonds[bidx] = make_bond(bond.a, bond.b, "single")
        for atom_id in ring_atoms:
            # bond orders change, neighbour lists do not
            still_aromatic = any(
                bonds[bidx].order == "aromatic" for _, bidx in mol.neighbors(atom_id)
            )
            if not still_aromatic and atoms[atom_id].aromatic:
                atoms[atom_id] = replace(atoms[atom_id], aromatic=False)
        current = MolGraph(tuple(atoms), tuple(bonds))
    atoms = _recompute_hydrogens(atoms, current)
    return MolGraph(tuple(atoms), tuple(bonds))


def finalize(state: GenerationState) -> MolGraph:
    """The terminal assembly as a MolGraph, invalid aromatic rings repaired."""
    if not state.terminal:
        raise ValueError("cannot finalize: open connection sites remain")
    bonds = (make_bond(a, b, order) for (a, b), order in sorted(state.bonds.items()))
    mol = MolGraph(tuple(state.atoms), tuple(bonds))
    repaired = repair_aromatic_rings(mol)
    if not valence_check(repaired):
        raise IrreparableValenceError(
            "finalized molecule fails the valence check even after repair"
        )
    return repaired


@dataclass
class GenerationReport:
    requested: int = 0
    emitted: int = 0
    aborted: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def record_failure(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1


def molecule_seed(master_seed: int, index: int) -> int:
    return (master_seed * _SEED_MIX + index) % (1 << 63)


def generate(
    vocab: MotifVocabulary,
    policy: Policy,
    n: int,
    mode: str = GREEDY,
    seed: int = 0,
    top_k: int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[list[MolGraph], GenerationReport]:
    """Generate ``n`` molecules; runaway or failed generations are reported,
    never emitted. Per-molecule seeds derive from the master seed by index."""
    if n < 0:
        raise ValueError("n must be >= 0")
    report = GenerationReport(requested=n)
    molecules: list[MolGraph] = []
    cache: dict = {}
    for index in range(n):
        state = start_generation(
            vocab, policy, molecule_seed(seed, index), mode, top_k, score_cache=cache
        )
        try:
            while not state.terminal:
                if state.step_count >= max_steps:
                    report.aborted += 1
                    break
                generation_step(state, vocab, policy, mode, top_k, score_cache=cache)
            else:
                molecules.append(finalize(state))
                report.emitted += 1
        except (NoCompatibleCandidateError, IrreparableValenceError) as exc:
            report.record_failure(type(exc).__name__)
    return molecules, report


def replay_trajectory(trajectory: Trajectory, vocab: MotifVocabulary) -> MolGraph:
    """Execute recorded decisions verbatim through the generation mechanics."""
    if trajectory.start_motif not in vocab:
        raise UnknownMotifError(f"start motif {trajectory.start_motif!r} not in vocabulary")
    state = GenerationState(rng_seed=0)
    state.start(vocab[trajectory.start_motif])
    for step in trajectory.steps:
        if state.terminal:
            raise IncompatibleBondError("trajectory continues past a terminal state")
        focus = state.queue.popleft()
        if step.kind == "attach":
            if step.motif not in vocab:
                raise UnknownMotifError(f"motif {step.motif!r} not in vocabulary")
            motif = vocab[step.motif]
            if step.site not in dict(motif.sites):
                raise IncompatibleBondError(
                    f"atom {step.site} is not a connection site of {step.motif!r}"
                )
            state.attach(focus, motif, step.site)
        elif step.kind == "cyclize":
            if step.target is None or not 0 <= step.target < len(state.queue):
                raise IncompatibleBondError(
                    f"cyclize target {step.target} outside the open-site queue"
                )
            state.cyclize(focus, state.queue[step.target])
        else:
            raise ValueError(f"unknown trajectory step kind {step.kind!r}")
    if not state.terminal:
        raise IncompatibleBondError("trajectory ended with open connection sites")
    return finalize(state)
