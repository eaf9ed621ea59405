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
from dataclasses import dataclass, field
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


class Policy:
    """Scoring contract: finite scores, one shared pool per decision.

    ``context_free=True`` declares that connection scores depend only on the
    focus site type, enabling score-vector caching across molecules.
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

    Consumed "*" atoms are tombstoned rather than deleted; ``finalize``
    compacts the numbering. ``rng_seed`` is the opaque randomness source
    standing in for a latent vector.
    """

    rng_seed: int
    atoms: list[Atom] = field(default_factory=list)
    alive: list[bool] = field(default_factory=list)
    bonds: dict[tuple[int, int], str] = field(default_factory=dict)
    queue: deque[int] = field(default_factory=deque)
    site_type_of: dict[int, SiteType] = field(default_factory=dict)
    anchor_of: dict[int, tuple[int, str]] = field(default_factory=dict)
    step_count: int = 0

    def __post_init__(self):
        self.rng = Random(self.rng_seed)

    @property
    def terminal(self) -> bool:
        return not self.queue

    def _bond_pair(self, a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def place_motif(self, motif: Motif) -> int:
        """Copy a motif instance into the assembly; returns the atom offset."""
        offset = len(self.atoms)
        graph = motif.graph
        self.atoms.extend(graph.atoms)
        self.alive.extend([True] * len(graph.atoms))
        for bond in graph.bonds:
            self.bonds[self._bond_pair(offset + bond.a, offset + bond.b)] = bond.order
        for star_atom, order, class_id in motif.sites:
            star = offset + star_atom
            anchor = offset + graph.neighbors(star_atom)[0][0]
            self.site_type_of[star] = (motif.smiles, class_id, order)
            self.anchor_of[star] = (anchor, order)
        return offset

    def merge_sites(self, star_a: int, star_b: int) -> None:
        """Replace two open "*" sites with one real bond between their anchors."""
        anchor_a, order_a = self.anchor_of[star_a]
        anchor_b, order_b = self.anchor_of[star_b]
        if order_a != order_b:
            raise IncompatibleBondError(
                f"cannot merge a {order_a} site with a {order_b} site"
            )
        pair = self._bond_pair(anchor_a, anchor_b)
        if anchor_a == anchor_b or pair in self.bonds:
            raise IncompatibleBondError("merge would duplicate a bond or self-bond")
        for star in (star_a, star_b):
            anchor, _ = self.anchor_of.pop(star)
            del self.bonds[self._bond_pair(star, anchor)]
            del self.site_type_of[star]
            self.alive[star] = False
        self.bonds[pair] = order_a

    def enqueue_new_sites(self, motif: Motif, offset: int, skip_star: int) -> None:
        for star_atom, _, _ in motif.sites:
            if star_atom != skip_star:
                self.queue.append(offset + star_atom)

    def partial_molgraph(self) -> tuple[MolGraph, dict[int, int]]:
        """Live assembly as a MolGraph plus the assembly-id -> new-id map."""
        mapping = {}
        atoms = []
        for i, atom in enumerate(self.atoms):
            if self.alive[i]:
                mapping[i] = len(atoms)
                atoms.append(atom)
        bonds = tuple(
            make_bond(mapping[a], mapping[b], order)
            for (a, b), order in sorted(self.bonds.items())
        )
        return MolGraph(tuple(atoms), bonds), mapping


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
) -> GenerationState:
    """Pick the first motif and enqueue its sites in canonical atom order."""
    if not len(vocab):
        raise EmptyVocabularyError("cannot generate from an empty vocabulary")
    motifs = vocab.ordered_motifs()
    state = GenerationState(rng_seed=seed)
    scores = np.asarray(policy.score_start(seed, motifs), dtype=float)
    chosen = motifs[_select(scores, mode, state.rng, policy.temperature, top_k)]
    offset = state.place_motif(chosen)
    for star_atom, _, _ in chosen.sites:
        state.queue.append(offset + star_atom)
    return state


def _partial_candidates(state: GenerationState, focus: int) -> list[Candidate]:
    focus_anchor, focus_order = state.anchor_of[focus]
    out = []
    for star in state.queue:
        anchor, order = state.anchor_of[star]
        if order != focus_order or anchor == focus_anchor:
            continue
        if state._bond_pair(anchor, focus_anchor) in state.bonds:
            continue
        out.append(
            Candidate(
                kind="partial",
                site_type=state.site_type_of[star],
                order=order,
                star_atom=star,
            )
        )
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
    sites, restricted to the focus site's bond order.
    """
    if state.terminal:
        raise ValueError("generation state is already terminal")
    focus = state.queue.popleft()
    focus_type = state.site_type_of[focus]
    _, focus_order = state.anchor_of[focus]
    vocab_candidates = vocab.candidates_by_order.get(focus_order, [])
    partial_candidates = _partial_candidates(state, focus)
    candidates = vocab_candidates + partial_candidates
    if not candidates:
        raise NoCompatibleCandidateError(
            f"no candidate shares the focus bond order {focus_order!r}"
        )
    if policy.context_free and score_cache is not None:
        vocab_scores = score_cache.get(focus_type)
        if vocab_scores is None:
            vocab_scores = np.asarray(
                policy.score_connections(state.rng_seed, focus_type, vocab_candidates),
                dtype=float,
            )
            score_cache[focus_type] = vocab_scores
        if partial_candidates:
            partial_scores = np.asarray(
                policy.score_connections(state.rng_seed, focus_type, partial_candidates),
                dtype=float,
            )
            scores = np.concatenate([vocab_scores, partial_scores])
        else:
            scores = vocab_scores
    else:
        scores = np.asarray(
            policy.score_connections(state.rng_seed, focus_type, candidates), dtype=float
        )
    chosen = candidates[_select(scores, mode, state.rng, policy.temperature, top_k)]
    if chosen.kind == "vocab":
        offset = state.place_motif(chosen.motif)
        state.merge_sites(focus, offset + chosen.star_atom)
        state.enqueue_new_sites(chosen.motif, offset, chosen.star_atom)
    else:
        state.queue.remove(chosen.star_atom)
        state.merge_sites(focus, chosen.star_atom)
    state.step_count += 1
    return state


def _recompute_hydrogens(atoms: list[Atom], mol: MolGraph) -> list[Atom]:
    out = []
    for i, atom in enumerate(atoms):
        if atom.bracket or atom.is_connection_site:
            out.append(atom)
            continue
        implicit = implicit_hydrogens(
            atom.element, atom.formal_charge, mol.order_sum_x2(i)
        )
        if implicit != atom.implicit_h:
            atom = Atom(
                element=atom.element,
                formal_charge=atom.formal_charge,
                aromatic=atom.aromatic,
                explicit_h=atom.explicit_h,
                implicit_h=implicit,
                bracket=atom.bracket,
            )
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
        current = MolGraph(tuple(atoms), tuple(bonds))
        for atom_id in ring_atoms:
            still_aromatic = any(
                current.bonds[bidx].order == "aromatic"
                for _, bidx in current.neighbors(atom_id)
            )
            if not still_aromatic and atoms[atom_id].aromatic:
                old = atoms[atom_id]
                atoms[atom_id] = Atom(
                    element=old.element,
                    formal_charge=old.formal_charge,
                    aromatic=False,
                    explicit_h=old.explicit_h,
                    implicit_h=old.implicit_h,
                    bracket=old.bracket,
                )
        current = MolGraph(tuple(atoms), tuple(bonds))
    atoms = _recompute_hydrogens(atoms, current)
    return MolGraph(tuple(atoms), tuple(bonds))


def finalize(state: GenerationState) -> MolGraph:
    """Compact the terminal assembly and repair invalid aromatic rings."""
    if not state.terminal:
        raise ValueError("cannot finalize: open connection sites remain")
    mol, _ = state.partial_molgraph()
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
            vocab, policy, molecule_seed(seed, index), mode, top_k
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
    start = vocab[trajectory.start_motif]
    offset = state.place_motif(start)
    for star_atom, _, _ in start.sites:
        state.queue.append(offset + star_atom)
    for step in trajectory.steps:
        if state.terminal:
            raise IncompatibleBondError("trajectory continues past a terminal state")
        focus = state.queue.popleft()
        if step.kind == "attach":
            if step.motif not in vocab:
                raise UnknownMotifError(f"motif {step.motif!r} not in vocabulary")
            motif = vocab[step.motif]
            if step.site not in {atom_id for atom_id, _, _ in motif.sites}:
                raise IncompatibleBondError(
                    f"atom {step.site} is not a connection site of {step.motif!r}"
                )
            offset = state.place_motif(motif)
            state.merge_sites(focus, offset + step.site)
            state.enqueue_new_sites(motif, offset, step.site)
        elif step.kind == "cyclize":
            if step.target is None or not 0 <= step.target < len(state.queue):
                raise IncompatibleBondError(
                    f"cyclize target {step.target} outside the open-site queue"
                )
            target_star = state.queue[step.target]
            del state.queue[step.target]
            state.merge_sites(focus, target_star)
        else:
            raise ValueError(f"unknown trajectory step kind {step.kind!r}")
        state.step_count += 1
    if not state.terminal:
        raise IncompatibleBondError("trajectory ended with open connection sites")
    return finalize(state)
