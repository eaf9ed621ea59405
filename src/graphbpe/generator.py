"""Connection-query generation: pop an open site, pick a partner, merge.

Each step pops the head of the open-site queue and scores every compatible
candidate: connection sites from the vocabulary (attach that motif) and the
partial molecule's other open sites (close a ring). Candidates must carry the
same bond order as the focus, which keeps every merge valence-safe. A
pluggable policy supplies the scores; selection is argmax (greedy mode) or a
softmax sample (distributional mode).

Generation is driven through one ``GenerationIndex(vocab, policy, mode,
top_k)``: ``start_generation(index, seed)`` starts a molecule,
``generation_step(state, index)`` resolves one open site and
``finalize(state)`` builds the molecule; ``generate`` makes one index per
call and runs that loop. The index checks the selection (``mode`` and
``top_k``) when it is built, decides then how many candidates a head keeps
and whether a pick samples, and reads the policy's temperature, so every
pick it serves uses the same ones.

The generator reads a policy's scores into a list of floats. The index
scores the starts once, each bond order's vocabulary pool once
(``Policy.score_pool``) and each focus site type's observed partners once
(``Policy.score_connections``); every other vocabulary candidate keeps its
pool score. Of a focus type's scores it keeps only the head
(``GenerationIndex._head``): the top ``top_k`` (the argmax in greedy mode),
taken from the partners and the first ``top_k`` non-partners by pool score.
Scores outside the head are not retained, since no later open-site
candidate can bring them back into it. In distributional mode a head also
keeps its unnormalised cumulative softmax, so a step whose focus has no
open-site candidate costs one random draw and a bisect. So does a greedy or
top-k step whose open-site candidates cannot enter the head: the head is
full (one item, or ``top_k``) and none of them scores above its lowest, so
the stable head rule would keep it as it is. Otherwise greedy and top-k
selection apply the head rule to the cached head plus those candidates.
Full-softmax sampling keeps the whole pool as its head and draws once over
the head's stored mass, rescaled to the new maximum, plus the candidates'
mass, so its cost follows the number of candidates and not the size of the
pool.

Every placement copies a motif's ``_Template``: its atoms, local bonds and
sites, built from one parse of its string when the motif is first placed.
``finalize`` finalizes each distinct assembly once and returns the same
immutable ``MolGraph`` for an equal one. A state started from an index
shares the index's templates and finalized molecules; the only other
state, ``replay_trajectory``'s, holds its own. This module caches nothing
at module level.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate, count
from random import Random

from graphbpe.chem import MolGraph, parse_smiles, valence_check
from graphbpe.chem.mol import (
    ORDER_X2,
    Atom,
    failing_aromatic_rings,
    implicit_hydrogens,
    make_bond,
    shared_graph,
    valence_ok,
)
from graphbpe.errors import (
    EmptyVocabularyError,
    IncompatibleBondError,
    IrreparableValenceError,
    NoCompatibleCandidateError,
    UnknownMotifError,
)
from graphbpe.miner import Motif, MotifVocabulary, SiteType
from graphbpe.tokenizer import Trajectory

GREEDY = "greedy"
DISTRIBUTIONAL = "distributional"
DEFAULT_MAX_STEPS = 100

_SEED_MIX = 0x9E3779B97F4A7C15  # odd constant; decorrelates per-molecule streams


@dataclass(frozen=True, slots=True)
class Candidate:
    """One selectable connection: a vocabulary site or an open partial site.

    ``star_atom`` is the star's atom id in the motif graph for a vocabulary
    candidate and the open-site id in the assembly for a partial one.
    """

    kind: str  # "vocab" | "partial"
    site_type: SiteType
    motif: Motif | None = None
    star_atom: int = 0


class Policy:
    """Scoring contract: a sequence of finite floats, one per candidate,
    each independent of the other candidates.

    ``score_start`` scores the motifs, and may depend only on them.
    ``score_pool`` scores a bond order's vocabulary pool, the same for every
    focus. ``score_connections`` scores candidates against a focus site
    type: the focus's observed vocabulary partners in one call, the partial
    molecule's open sites in another. A vocabulary candidate's connection
    score must equal its pool score unless (focus, its site type) is a pair
    in ``vocabulary.attachment_counts``, and may depend only on the focus.
    So one ``generate`` call scores the starts once, each bond order's pool
    once and each focus site type's partners once; only open-site pools are
    scored at every step.
    """

    temperature: float = 1.0

    def score_start(self, context, motifs: list[Motif]) -> Sequence[float]:
        raise NotImplementedError

    def score_pool(self, context, candidates: list[Candidate]) -> Sequence[float]:
        raise NotImplementedError

    def score_connections(
        self, context, focus: SiteType, candidates: list[Candidate]
    ) -> Sequence[float]:
        raise NotImplementedError


class FrequencyPolicy(Policy):
    """Corpus-statistics baseline: log motif frequency for starts and the
    vocabulary pool, plus log(1 + attachment count) for a vocabulary
    connection; an open site scores ``log1p(cyclize_weight * attachment
    count)``. An unobserved pair adds ``log1p(0) == 0``, so a non-partner
    keeps its pool score.
    """

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

    def score_start(self, context, motifs: list[Motif]) -> list[float]:
        return [math.log(m.frequency) for m in motifs]

    def score_pool(self, context, candidates: list[Candidate]) -> list[float]:
        return [math.log(cand.motif.frequency) for cand in candidates]

    def score_connections(
        self, context, focus: SiteType, candidates: list[Candidate]
    ) -> list[float]:
        counts = self.vocabulary.attachment_counts
        scores = []
        for cand in candidates:
            site = cand.site_type
            pair = counts.get((focus, site)) or counts.get((site, focus), 0)
            if cand.kind == "vocab":
                scores.append(math.log1p(pair) + math.log(cand.motif.frequency))
            else:
                scores.append(math.log1p(self.cyclize_weight * pair))
        return scores


@dataclass(frozen=True, slots=True)
class _Template:
    """A motif ready to place: its atoms other than "*"; the bonds between
    them as (a, b, order), a and b their positions in ``atoms``; and per
    site, in canonical site order, (star atom, position of the star's
    anchor, site type)."""

    atoms: tuple[Atom, ...]
    bonds: tuple[tuple[int, int, str], ...]
    sites: tuple[tuple[int, int, SiteType], ...]

    @classmethod
    def of(cls, motif: Motif) -> _Template:
        """The template of ``motif``, from one parse of its string. The
        parse skips the valence check, since ``finalize`` checks the
        assembled molecule."""
        graph = parse_smiles(motif.smiles, validate=False)
        position = {}
        for i, atom in enumerate(graph.atoms):
            if not atom.is_connection_site:
                position[i] = len(position)
        return cls(
            tuple(graph.atoms[i] for i in position),
            tuple((position[bond.a], position[bond.b], bond.order) for bond in graph.bonds
                  if bond.a in position and bond.b in position),
            tuple((star_atom, position[graph.neighbors(star_atom)[0][0]], site)
                  for star_atom, site in motif.sites),
        )


@dataclass
class GenerationState:
    """Partial molecule under assembly plus its FIFO of open sites.

    An open site is a record, not an atom: ``open_sites`` maps an opaque
    site id to (anchor atom, site type), and ``queue`` holds the ids in FIFO
    order. A motif's "*" atoms never enter ``atoms`` or ``bonds``. A state
    comes from ``start_generation`` or ``replay_trajectory``, and ``start``,
    ``attach`` and ``cyclize`` are the only moves that build it; each attach
    or cyclize counts one step. A move bonds the anchors of two sites of one
    bond order (``_merge_sites`` raises otherwise), each in place of its
    star's bond, and a motif's sites are ``motif_sites(smiles)``: so every
    atom keeps the bond-order sum, and the implicit hydrogens, that its
    motif string gave it. Motifs are placed from their ``_Template`` in
    ``templates`` (keyed by motif string), built when a motif is first
    placed. ``finalize`` keeps the ``MolGraph`` of each distinct assembly in
    ``molecules``, and one copy of each of their bond and neighbour tuples
    in ``parts``. A state from ``start_generation`` shares all three with
    its index. ``rng_seed`` is the opaque randomness source standing in for
    a latent vector.
    """

    rng_seed: int
    atoms: list[Atom] = field(default_factory=list)
    bonds: dict[tuple[int, int], str] = field(default_factory=dict)
    queue: deque[int] = field(default_factory=deque)
    open_sites: dict[int, tuple[int, SiteType]] = field(default_factory=dict)
    step_count: int = 0
    templates: dict[str, _Template] = field(default_factory=dict, repr=False, compare=False)
    molecules: dict[tuple, MolGraph] = field(default_factory=dict, repr=False, compare=False)
    parts: dict = field(default_factory=dict, repr=False, compare=False)

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
        template = self.templates.get(motif.smiles)
        if template is None:
            template = self.templates[motif.smiles] = _Template.of(motif)
        offset = len(self.atoms)
        self.atoms.extend(template.atoms)
        for a, b, order in template.bonds:
            self.bonds[a + offset, b + offset] = order
        placed = {}
        for star_atom, anchor, site in template.sites:
            site_id = placed[star_atom] = next(self._site_ids)
            self.open_sites[site_id] = (anchor + offset, site)
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


def _cumulative(scores: list[float], temperature: float) -> tuple[list[float], float]:
    """The softmax of ``scores / temperature``, unnormalised: the running sum
    of ``exp(score / temperature - top)``, and ``top``, the largest scaled
    score."""
    scaled = [score / temperature for score in scores]
    top = max(scaled)
    return list(accumulate(math.exp(x - top) for x in scaled)), top


def _bisect(cumulative: list[float], x: float) -> int:
    """The index whose mass holds ``x``, clipped to the last."""
    return min(bisect_right(cumulative, x), len(cumulative) - 1)


def _finite(scores: Sequence[float]) -> list[float]:
    """``scores`` as a list, checked finite: a finite sum rules out an
    infinite or NaN score, so each score is checked only when it is not."""
    scores = list(scores)
    if not (math.isfinite(sum(scores)) or all(map(math.isfinite, scores))):
        raise ValueError("policy produced a non-finite score")
    return scores


@dataclass
class _Pool:
    """The vocabulary candidates of one bond order, in motif then canonical
    site order; each site type's positions among them; their pool scores;
    and the positions by pool score, highest first, ties in pool order."""

    candidates: list[Candidate]
    positions: dict[SiteType, list[int]]
    scores: list[float]
    ranking: list[int]


# a head: its items, their scores and, in distributional mode, their
# ``_cumulative`` distribution (None in greedy mode or when it is empty)
_Head = tuple[list, list[float], tuple[list[float], float] | None]


class GenerationIndex:
    """What generation reuses across steps and molecules. One index serves
    one vocabulary, one policy, whose scores must not change while it is in
    use, and one selection: ``mode`` and ``top_k`` (``None`` keeps every
    candidate), checked here and kept as ``keep`` and ``sample``, and the
    policy's temperature, read here.

    Per bond order it holds a ``_Pool``, built and scored
    (``Policy.score_pool``) when a focus first needs it. Per site type it
    holds the observed partners, from ``vocabulary.attachment_counts``. In
    ``heads`` it keeps the start head (key ``None``) and each focus site
    type's vocabulary head (see ``_head``). It also holds the ``templates``,
    ``molecules`` and ``parts`` that every state it starts shares (see
    ``GenerationState``). It writes nothing onto the vocabulary.
    """

    def __init__(
        self,
        vocabulary: MotifVocabulary,
        policy: Policy,
        mode: str = GREEDY,
        top_k: int | None = None,
    ):
        if mode not in (GREEDY, DISTRIBUTIONAL):
            raise ValueError(f"unknown generation mode {mode!r}")
        if top_k is not None and not (isinstance(top_k, int) and top_k >= 1):
            raise ValueError("top_k must be an int >= 1")
        self.vocabulary = vocabulary
        self.policy = policy
        # the selection rule: how many candidates a head keeps (None: all)
        # and whether a pick samples from them
        self.keep = 1 if mode == GREEDY else top_k
        self.sample = mode == DISTRIBUTIONAL
        self.temperature = policy.temperature
        self.partners: dict[SiteType, set[SiteType]] = {}
        for a, b in vocabulary.attachment_counts:
            self.partners.setdefault(a, set()).add(b)
            self.partners.setdefault(b, set()).add(a)
        self.pools: dict[str, _Pool] = {}
        self.heads: dict[SiteType | None, _Head] = {}
        self.templates: dict[str, _Template] = {}
        self.molecules: dict[tuple, MolGraph] = {}
        self.parts: dict = {}

    def pool(self, context, order: str) -> _Pool:
        """The ``_Pool`` of bond order ``order``, built on first use."""
        pool = self.pools.get(order)
        if pool is None:
            candidates = [
                Candidate("vocab", site, motif, star_atom)
                for motif in self.vocabulary.ordered_motifs()
                for star_atom, site in motif.sites
                if site[2] == order
            ]
            positions: dict[SiteType, list[int]] = {}
            for i, cand in enumerate(candidates):
                positions.setdefault(cand.site_type, []).append(i)
            scores = _finite(self.policy.score_pool(context, candidates)) if candidates else []
            ranking = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
            pool = self.pools[order] = _Pool(candidates, positions, scores, ranking)
        return pool

    def start_head(self, context) -> _Head:
        head = self.heads.get(None)
        if head is None:
            motifs = self.vocabulary.ordered_motifs()
            head = self.heads[None] = self._head(motifs, self.policy.score_start(context, motifs))
        return head

    def vocabulary_head(self, context, focus: SiteType) -> _Head:
        """The head of ``focus``'s vocabulary pool: the partners' connection
        scores and every other candidate's pool score, put through ``_head``.

        A non-partner's score is its pool score, so the non-partners of the
        top ``top_k`` are among the first ``top_k`` non-partners of the
        ranking (the first one in greedy mode). Only those and the partners
        go into ``_head``, in pool order; with no ``top_k`` every candidate
        does.
        """
        head = self.heads.get(focus)
        if head is not None:
            return head
        pool = self.pool(context, focus[2])
        candidates = pool.candidates
        partner_at = sorted(
            i for site in self.partners.get(focus, ())
            for i in pool.positions.get(site, ())
        )
        partner_scores = self.policy.score_connections(
            context, focus, [candidates[i] for i in partner_at]
        ) if partner_at else []
        need = self.keep
        if need is None or need >= len(candidates) - len(partner_at):
            scores = pool.scores.copy()
            for i, score in zip(partner_at, partner_scores):
                scores[i] = score
            head = self._head(candidates, scores)
        else:
            scores = dict(zip(partner_at, partner_scores))
            for i in pool.ranking:
                if i not in scores:
                    scores[i] = pool.scores[i]
                    need -= 1
                    if not need:
                        break
            keep = sorted(scores)
            head = self._head([candidates[i] for i in keep], [scores[i] for i in keep])
        self.heads[focus] = head
        return head

    def _head(self, pool: list, scores: Sequence[float]) -> _Head:
        """The items of ``pool`` that selection can pick, with their scores,
        in pool order: the stable top ``keep`` (in greedy mode the first
        argmax), and when picks sample, their ``_cumulative`` distribution.

        Items that follow the pool can only push pool items out of the top
        ``keep``, never bring one back, so the rest need not be kept.
        """
        scores = _finite(scores)
        if self.keep is not None and self.keep < len(scores):
            keep = sorted(heapq.nlargest(self.keep, range(len(scores)), key=scores.__getitem__))
            pool, scores = [pool[i] for i in keep], [scores[i] for i in keep]
        if not (self.sample and scores):
            return pool, scores, None
        return pool, scores, _cumulative(scores, self.temperature)

    def _choose(self, head: _Head, extra: list, extra_scores: Sequence[float] | None, rng: Random):
        """The item selection picks from the head's pool followed by ``extra``.

        Greedy mode takes the head's one item; sampling is one draw and a
        bisect of the head's distribution. With ``extra``, greedy and top-k
        picks keep the head when it is full (``keep`` items) and no
        extra scores above its lowest: ``_head``'s stable rule keeps the
        earlier items on a tie, so a fresh head would be this one. Otherwise
        they (and any pick from an empty head) are made the same way from a
        fresh ``_head`` of the head's items followed by ``extra``. A full
        softmax draws once over the head's mass and the extras' mass, both
        taken relative to their joint top score.
        """
        items, scores, distribution = head
        if extra and (self.keep is not None or not items):
            extra_scores = _finite(extra_scores)
            full = len(items) == self.keep
            if not (full and max(extra_scores) <= min(scores)):
                items, scores, distribution = self._head(items + extra, scores + extra_scores)
            extra = []
        if not self.sample:
            return items[0]
        cumulative, top = distribution
        if not extra:
            return items[_bisect(cumulative, rng.random() * cumulative[-1])]
        extra_cumulative, extra_top = _cumulative(_finite(extra_scores), self.temperature)
        joint_top = max(top, extra_top)
        scale = math.exp(top - joint_top)
        extra_scale = math.exp(extra_top - joint_top)
        extra_cumulative = [mass * extra_scale for mass in extra_cumulative]
        pool_mass = cumulative[-1] * scale
        x = rng.random() * (pool_mass + extra_cumulative[-1])
        if x < pool_mass:
            return items[_bisect(cumulative, x / scale)]
        return extra[_bisect(extra_cumulative, x - pool_mass)]


def start_generation(index: GenerationIndex, seed: int) -> GenerationState:
    """Pick the first motif from ``index``'s start head and enqueue its
    sites in canonical atom order. The state shares the index's templates
    and finalized molecules."""
    if not len(index.vocabulary):
        raise EmptyVocabularyError("cannot generate from an empty vocabulary")
    head = index.start_head(seed)
    state = GenerationState(seed, templates=index.templates, molecules=index.molecules,
                            parts=index.parts)
    state.start(index._choose(head, [], None, state.rng))
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


def generation_step(state: GenerationState, index: GenerationIndex) -> GenerationState:
    """Resolve one focus site: attach a vocabulary motif or cyclize.

    Candidates are vocabulary sites plus the partial molecule's other open
    sites, restricted to the focus site's bond order. The vocabulary head is
    kept in ``index``; the open sites are scored in their own
    ``score_connections`` call.
    """
    if state.terminal:
        raise ValueError("generation state is already terminal")
    focus = state.queue.popleft()
    _, focus_type = state.open_sites[focus]
    head = index.vocabulary_head(state.rng_seed, focus_type)
    partial_candidates = _partial_candidates(state, focus)
    # a head keeps at least one candidate of a non-empty pool
    if not (head[0] or partial_candidates):
        raise NoCompatibleCandidateError(
            f"no candidate shares the focus bond order {focus_type[2]!r}"
        )
    partial_scores = (
        index.policy.score_connections(state.rng_seed, focus_type, partial_candidates)
        if partial_candidates else None
    )
    chosen = index._choose(head, partial_candidates, partial_scores, state.rng)
    if chosen.kind == "vocab":
        state.attach(focus, chosen.motif, chosen.star_atom)
    else:
        state.cyclize(focus, chosen.star_atom)
    return state


def repair_aromatic_rings(mol: MolGraph) -> MolGraph:
    """Downgrade invalid aromatic rings to saturated ones.

    Every minimal aromatic ring failing the electron count has its bonds set
    to single, and atoms left without aromatic bonds lose the aromatic flag;
    then each unbracketed atom's implicit hydrogens are set from its bonds.
    When nothing changes, ``mol`` itself is returned.
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
    changed = False
    for i, atom in enumerate(atoms):
        if atom.bracket or atom.is_connection_site:
            continue
        implicit = implicit_hydrogens(atom.element, atom.formal_charge, current.order_sum_x2(i))
        if implicit != atom.implicit_h:
            atoms[i] = replace(atom, implicit_h=implicit)
            changed = True
    return MolGraph(tuple(atoms), tuple(bonds)) if changed else current


def finalize(state: GenerationState) -> MolGraph:
    """The terminal assembly as a MolGraph, invalid aromatic rings repaired.

    The assembly's bonds are distinct pairs ``a < b`` of placed atoms
    (``_place_motif``, ``_merge_sites``), so the graph is built without
    re-checking them, and each atom's bond orders are summed once for the
    valence check. Every atom already holds the hydrogens its bonds need
    (see ``GenerationState``), so only an assembly with a failing aromatic
    ring goes through ``repair_aromatic_rings``. Each distinct
    assembly (its atoms and its sorted bonds) of the states that share
    ``state.molecules`` is finalized once: an equal one gets the same
    immutable ``MolGraph`` back, and the molecules share each equal bond
    and neighbour tuple through ``state.parts``, a table of the kind
    ``parse_smiles`` takes (``graphbpe.chem.mol.shared_graph``). An
    assembly that fails is not kept, so it fails again.
    """
    if not state.terminal:
        raise ValueError("cannot finalize: open connection sites remain")
    atoms, bond_items = key = (tuple(state.atoms), tuple(sorted(state.bonds.items())))
    mol = state.molecules.get(key)
    if mol is not None:
        return mol
    bonds = []
    adjacency: list[list[tuple[int, int]]] = [[] for _ in atoms]
    order_sums = [0] * len(atoms)
    for bidx, ((a, b), order) in enumerate(bond_items):
        bonds.append((a, b, order))
        adjacency[a].append((b, bidx))
        adjacency[b].append((a, bidx))
        order_sums[a] += ORDER_X2[order]
        order_sums[b] += ORDER_X2[order]
    mol = shared_graph(atoms, bonds, adjacency, state.parts)
    if failing_aromatic_rings(mol):
        mol = repair_aromatic_rings(mol)
        valid = valence_check(mol)
    else:
        valid = all(map(valence_ok, atoms, order_sums))
    if not valid:
        raise IrreparableValenceError(
            "finalized molecule fails the valence check even after repair"
        )
    state.molecules[key] = mol
    return mol


@dataclass
class GenerationReport:
    requested: int = 0
    emitted: int = 0
    aborted: int = 0
    failures: dict[str, int] = field(default_factory=dict)


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
    index = GenerationIndex(vocab, policy, mode, top_k)
    report = GenerationReport(requested=n)
    molecules: list[MolGraph] = []
    for i in range(n):
        state = start_generation(index, molecule_seed(seed, i))
        try:
            while not state.terminal:
                if state.step_count >= max_steps:
                    report.aborted += 1
                    break
                generation_step(state, index)
            else:
                molecules.append(finalize(state))
                report.emitted += 1
        except (NoCompatibleCandidateError, IrreparableValenceError) as exc:
            kind = type(exc).__name__
            report.failures[kind] = report.failures.get(kind, 0) + 1
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
