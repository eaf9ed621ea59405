"""Merge-operation learning and connection-aware motif vocabulary construction.

Learning keeps one merging graph per corpus molecule and a ``PatternTally``
over all of them, updated by exact deltas as merges happen. Each iteration
picks the most frequent pattern (ties broken by the lexicographically
smallest pattern string) and merges every edge matching it. The tally writes
a union's pattern string only when its signature (see ``graphbpe.merging``)
is open, and it opens a signature only when that signature could hold the
next pattern. Mining runs in one process, one operation at a time.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from graphbpe.chem import MolGraph, canonical_rank, parse_smiles
from graphbpe.merging import (
    MergeOperation,
    MergingGraph,
    apply_operations,
    extract_motifs,
)

# (motif smiles, site symmetry class, bond order)
SiteType = tuple[str, int, str]


@lru_cache(maxsize=None)
def motif_graph(smiles: str) -> MolGraph:
    return parse_smiles(smiles)


@lru_cache(maxsize=None)
def motif_sites(smiles: str) -> tuple[tuple[int, SiteType], ...]:
    """(star atom id, site type) per connection site, in canonical atom order.

    The class id is the smallest canonical rank among the stars of one
    refinement class, so interchangeable sites share an id and the id is
    stable across isomorphic inputs. This is the one place a ``SiteType``
    is built.
    """
    mol = motif_graph(smiles)
    ranking = canonical_rank(mol)
    stars = sorted(
        (i for i, atom in enumerate(mol.atoms) if atom.is_connection_site),
        key=lambda i: ranking.ranks[i],
    )
    class_id: dict[int, int] = {}  # refinement class -> its first star's rank
    out = []
    for i in stars:
        cid = class_id.setdefault(ranking.symmetry_classes[i], ranking.ranks[i])
        _, bidx = mol.neighbors(i)[0]
        out.append((i, (smiles, cid, mol.bonds[bidx].order)))
    return tuple(out)


@dataclass(frozen=True)
class Motif:
    """A connection-aware vocabulary entry keyed by its canonical string."""

    smiles: str
    frequency: int

    @property
    def graph(self) -> MolGraph:
        return motif_graph(self.smiles)

    @property
    def sites(self) -> tuple[tuple[int, SiteType], ...]:
        """(star atom id, site type), sorted by canonical atom rank."""
        return motif_sites(self.smiles)


@dataclass(frozen=True)
class Candidate:
    """One selectable connection: a vocabulary site or an open partial site.

    ``star_atom`` is the star's atom id in the motif graph for a vocabulary
    candidate and the open-site id in the assembly for a partial one.
    """

    kind: str  # "vocab" | "partial"
    site_type: SiteType
    motif: Motif | None = None
    star_atom: int = 0


class MotifVocabulary:
    """Motifs keyed by canonical string plus site-pair attachment counts."""

    def __init__(
        self,
        motifs: dict[str, Motif],
        attachment_counts: dict[tuple[SiteType, SiteType], int],
    ):
        self.motifs = dict(motifs)
        self.attachment_counts = dict(attachment_counts)

    def __len__(self) -> int:
        return len(self.motifs)

    def __contains__(self, smiles: str) -> bool:
        return smiles in self.motifs

    def __getitem__(self, smiles: str) -> Motif:
        return self.motifs[smiles]

    def ordered_motifs(self) -> list[Motif]:
        return [self.motifs[s] for s in sorted(self.motifs)]

    @cached_property
    def candidates_by_order(self) -> dict[str, list[Candidate]]:
        """Every vocabulary site as a generation candidate, grouped by bond
        order in motif then canonical site order; built once per vocabulary."""
        out: dict[str, list[Candidate]] = {}
        for motif in self.ordered_motifs():
            for star_atom, site in motif.sites:
                out.setdefault(site[2], []).append(Candidate("vocab", site, motif, star_atom))
        return out

    @cached_property
    def partners(self) -> dict[SiteType, dict[SiteType, int]]:
        """Site type -> {partner site type: attachment count}, both ways
        round; only observed pairs are stored. Built once per vocabulary."""
        out: dict[SiteType, dict[SiteType, int]] = {}
        for (a, b), count in self.attachment_counts.items():
            out.setdefault(a, {})[b] = count
            out.setdefault(b, {})[a] = count
        return out

    @classmethod
    def from_counters(
        cls,
        motif_counter: Counter[str],
        attachment_counter: Counter[tuple[SiteType, SiteType]],
    ) -> "MotifVocabulary":
        motifs = {smiles: Motif(smiles, count) for smiles, count in motif_counter.items()}
        return cls(motifs, dict(attachment_counter))


def attachment_key(a: SiteType, b: SiteType) -> tuple[SiteType, SiteType]:
    return (a, b) if a <= b else (b, a)


def count_pair_patterns(states: list[MergingGraph]) -> Counter[str]:
    """Pattern counts over all fragment-pair edges of all merging graphs;
    resolves the pattern of every edge."""
    return Counter(state.pattern(fa, fb) for state in states for fa, fb in state.edges)


def _drop(counter: Counter[str], key: str) -> bool:
    """Take one from ``counter[key]``; True when that removed the key."""
    counter[key] -= 1
    if counter[key]:
        return False
    del counter[key]
    return True


class PatternTally:
    """Corpus-wide edge counts that find the most frequent pattern while
    writing as few pattern strings as possible.

    Each signature in use is closed or open. A closed signature has only its
    edge count, in ``closed``. An open one has its edge count in ``opened``,
    every one of its edges resolved, and its patterns' exact counts in
    ``patterns``. A pattern's count is at most its signature's count, so once
    every closed signature counts less than the best open pattern, that
    pattern (the smallest string among ties) is the corpus-wide argmax; a
    closed signature can then neither win nor tie. ``best`` opens signatures
    until that holds.

    The holder index lists, per signature, the states that gained one of its
    edges; a state that lost them all is pruned when the list is read.
    """

    def __init__(self, states: list[MergingGraph]):
        self.closed: Counter[str] = Counter()
        self.opened: Counter[str] = Counter()
        self.patterns: Counter[str] = Counter()
        self._signature_of: dict[str, str] = {}  # pattern -> its open signature
        self._holders: dict[str, list[MergingGraph]] = {}
        for state in states:
            for signature, pairs in state.by_signature.items():
                self.closed[signature] += len(pairs)
                self._holders.setdefault(signature, []).append(state)

    def holders(self, signature: str) -> list[MergingGraph]:
        """The states that have an edge of ``signature``, each once."""
        live = [
            state for state in dict.fromkeys(self._holders[signature])
            if signature in state.by_signature
        ]
        self._holders[signature] = live
        return live

    def _count(self, state: MergingGraph, pair, signature: str) -> None:
        pattern = state.pattern(*pair)
        self.patterns[pattern] += 1
        self._signature_of[pattern] = signature

    def _open(self, signature: str) -> None:
        self.opened[signature] = self.closed.pop(signature)
        for state in self.holders(signature):
            for pair in list(state.by_signature[signature]):
                self._count(state, pair, signature)

    def best(self) -> tuple[str, int, str] | None:
        """(pattern, count, signature) of the most frequent pattern, ties to
        the smallest string; None when no edge is left."""
        while self.closed:
            best_open = max(self.patterns.values(), default=0)
            top = max(self.closed.values())
            if top < best_open:
                break
            # with nothing open, open the largest signatures first
            threshold = best_open or top
            for signature in [s for s, count in self.closed.items() if count >= threshold]:
                self._open(signature)
        if not self.patterns:
            return None
        count = max(self.patterns.values())
        pattern = min(p for p, value in self.patterns.items() if value == count)
        return pattern, count, self._signature_of[pattern]

    def edge_added(self, state: MergingGraph, pair, signature: str) -> None:
        if signature in self.opened:
            self.opened[signature] += 1
            self._count(state, pair, signature)
        else:
            self.closed[signature] += 1
        holders = self._holders.setdefault(signature, [])
        if not holders or holders[-1] is not state:
            holders.append(state)

    def edge_removed(self, signature: str, pattern: str | None) -> None:
        if signature in self.opened:
            if _drop(self.patterns, pattern):
                del self._signature_of[pattern]
            gone = _drop(self.opened, signature)
        else:
            gone = _drop(self.closed, signature)
        if gone:
            del self._holders[signature]


def site_type(smiles: str, star_atom: int) -> SiteType:
    """The type of the connection site at atom ``star_atom`` of motif ``smiles``."""
    for atom_id, site in motif_sites(smiles):
        if atom_id == star_atom:
            return site
    raise KeyError(f"atom {star_atom} is not a connection site of {smiles}")


def _count_motifs(
    states: list[MergingGraph],
) -> tuple[Counter[str], Counter[tuple[SiteType, SiteType]], int]:
    """Motif counts, attachment counts and the number of fragments."""
    motif_counter: Counter[str] = Counter()
    attach_counter: Counter[tuple[SiteType, SiteType]] = Counter()
    fragment_total = 0
    for state in states:
        frag = extract_motifs(state)
        fragment_total += len(frag.motifs)
        motif_counter.update(frag.motif_strings())
        for link in frag.broken_bonds:
            site_a = site_type(frag.motifs[link.motif_a].smiles, link.star_a)
            site_b = site_type(frag.motifs[link.motif_b].smiles, link.star_b)
            attach_counter[attachment_key(site_a, site_b)] += 1
    return motif_counter, attach_counter, fragment_total


def _learn(states: list[MergingGraph], num_operations: int) -> list[MergeOperation]:
    """Merge the most frequent pattern everywhere, ``num_operations`` times;
    every merge updates the tally as it happens."""
    if num_operations < 0:
        raise ValueError("num_operations must be >= 0")
    tally = PatternTally(states)
    ops: list[MergeOperation] = []
    for rank in range(num_operations):
        best = tally.best()
        if best is None:
            break
        pattern, count, signature = best
        ops.append(MergeOperation(rank, pattern, count))
        holders = [
            state for state in tally.holders(signature)
            if pattern in state.by_signature[signature].values()
        ]
        for state in holders:
            state.apply_operation(pattern, signature, tally)
    return ops


def learn_merging_operations(
    corpus: list[MolGraph], num_operations: int
) -> list[MergeOperation]:
    """Learn up to ``num_operations`` merge operations from the corpus.

    Stops early when no fragment-pair edges remain. Runtime is linear in the
    corpus size for a fixed operation count.
    """
    return _learn([MergingGraph(mol) for mol in corpus], num_operations)


@dataclass(frozen=True)
class MiningResult:
    operations: list[MergeOperation]
    vocabulary: MotifVocabulary
    mean_fragments_per_molecule: float


def mine_corpus(
    corpus: list[MolGraph], num_operations: int, threads: int = 1
) -> MiningResult:
    """Run both phases: learn operations, then collect the motif vocabulary.

    ``threads`` is accepted for existing callers and ignored: mining runs in
    one process.
    """
    states = [MergingGraph(mol) for mol in corpus]
    ops = _learn(states, num_operations)
    motifs, attach, fragment_total = _count_motifs(states)
    vocabulary = MotifVocabulary.from_counters(motifs, attach)
    mean = fragment_total / len(corpus) if corpus else 0.0
    return MiningResult(ops, vocabulary, mean)


def build_motif_vocabulary(
    corpus: list[MolGraph], ops: list[MergeOperation]
) -> MotifVocabulary:
    """Fragment the corpus with ``ops`` and collect connection-aware motifs.

    Every broken bond contributes one "*" site to each side and one
    attachment-table increment for the site-type pair.
    """
    motifs, attach, _ = _count_motifs([apply_operations(mol, ops) for mol in corpus])
    return MotifVocabulary.from_counters(motifs, attach)
