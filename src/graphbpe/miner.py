"""Merge-operation learning and connection-aware motif vocabulary construction.

Learning keeps one merging graph per corpus molecule and a ``PatternTally``
over all of them, updated by exact deltas as merges happen. Each iteration
makes the most frequent pattern (ties to the smallest string) a
``MergeOperation`` and runs ``MergingGraph.apply_operation(op)`` on each
molecule with an edge of its signature. The tally writes a union's pattern
string only when its signature (see ``graphbpe.merging``) is open, and it
opens a signature only when that signature could hold the next pattern:
when it counts more than the best open pattern, or as much and its edges'
strings need not all sort after that pattern. Deep in the operation list
nearly every pick is such a tie, and a bound on each edge's string from its
fragments' ``MergingGraph.frag_lead`` rules many tied signatures out
without a write. Mining runs in one process, one operation at a time.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from graphbpe.chem import MolGraph, canonical_rank, parse_smiles
from graphbpe.merging import (
    MergeOperation,
    MergingGraph,
    SiteTable,
    SiteType,
    apply_operations,
    extract_motifs,
    site_table,
)


def motif_sites(smiles: str) -> SiteTable:
    """(star atom id, site type) per connection site of the parsed motif
    string, in canonical atom order (see ``graphbpe.merging.site_table``).

    Mining takes each motif's table from its instance write instead; this
    parses only strings read from files or given by callers.
    """
    mol = parse_smiles(smiles)
    ranking = canonical_rank(mol)
    stars = [
        (i, mol.bonds[mol.neighbors(i)[0][1]].order)
        for i, atom in enumerate(mol.atoms)
        if atom.is_connection_site
    ]
    return site_table(smiles, stars, ranking.ranks, ranking.symmetry_classes)


@dataclass(frozen=True)
class Motif:
    """A connection-aware vocabulary entry keyed by its canonical string.

    ``sites`` is its site table, (star atom id, site type) sorted by
    canonical atom rank, as ``motif_sites(smiles)`` gives it. It takes no
    part in comparisons.
    """

    smiles: str
    frequency: int
    sites: SiteTable = field(compare=False, repr=False)


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


def attachment_key(a: SiteType, b: SiteType) -> tuple[SiteType, SiteType]:
    return (a, b) if a <= b else (b, a)


def _drop(counter: Counter, key) -> bool:
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
    pattern (the smallest string among ties) is the corpus-wide argmax.

    Ties. An edge's bound is the token of the lesser ``frag_lead`` of its
    two fragments: the least ``graphbpe.chem.leading_key`` of the union's
    atoms, so the union's string ``s`` has ``s[:len(bound)] >= bound``. Each
    closed signature keeps the least bound of the edges it gained, which
    holds for each of its strings. So when a closed
    signature counts as much as the best open pattern ``p`` and ``bound >
    p[:len(bound)]``, each of its strings sorts after ``p`` and cannot win
    the tie. ``edge_added`` lowers the bound; a removed edge leaves it, as
    a stale bound is only lower and still holds. ``best`` opens the largest
    closed signature, one at a time, until the largest counts less than
    ``p``, or as much with a bound that rules it out; by the heap order
    below, every later tied signature has a bound at least as large, which
    rules it out too. The pick is exactly that of counting every pattern.

    Two max-heaps find the best open pattern, as (-count, pattern), so that
    ties go to the smallest string, and the largest closed signature, as
    (-count, bound, signature), so that ties go to the smallest bound.
    Counts change by one edge at a time; each pattern or closed signature
    whose count changed since the last pick is pushed once with its new
    count and bound, and an entry whose count is no longer current is
    dropped when it reaches the top. An entry with a current count and a
    stale bound sorts after the current one, or holds a lower bound, so the
    top's bound always holds. A heap is rebuilt from its counts when its
    entries outnumber twice its live keys.

    The holder index lists, per signature, the states that gained one of its
    edges; a state that lost them all is pruned when the list is read.
    """

    def __init__(self, states: list[MergingGraph]):
        self.closed: Counter[int] = Counter()
        self.opened: Counter[int] = Counter()
        self.patterns: Counter[str] = Counter()
        self.bounds: dict[int, str] = {}  # closed signature -> its bound
        self._signature_of: dict[str, int] = {}  # pattern -> its open signature
        self._holders: dict[int, list[MergingGraph]] = {}
        for state in states:
            for signature, pairs in state.by_signature.items():
                self.closed[signature] += len(pairs)
                for pair in pairs:
                    self._lower_bound(signature, state, pair)
                self._holders.setdefault(signature, []).append(state)
        self._pattern_heap: list[tuple[int, str]] = []
        self._closed_heap = [self._closed_entry(*item) for item in self.closed.items()]
        heapify(self._closed_heap)
        # keys whose count changed since their heap last saw it
        self._changed_patterns: set[str] = set()
        self._changed_closed: set[int] = set()

    def holders(self, signature: int) -> list[MergingGraph]:
        """The states that have an edge of ``signature``, each once."""
        live = [
            state for state in dict.fromkeys(self._holders[signature])
            if signature in state.by_signature
        ]
        self._holders[signature] = live
        return live

    def _lower_bound(self, signature: int, state: MergingGraph, pair) -> None:
        """Lower closed ``signature``'s bound to that of ``state``'s edge
        ``pair``: the token of the lesser ``frag_lead`` of its fragments."""
        lead = state.frag_lead
        bound = min(lead[pair[0]], lead[pair[1]])[1]
        if signature not in self.bounds or bound < self.bounds[signature]:
            self.bounds[signature] = bound

    def _closed_entry(self, signature: int, count: int) -> tuple[int, str, int]:
        return -count, self.bounds[signature], signature

    def _count(self, state: MergingGraph, pair, signature: int) -> None:
        pattern = state.pattern(*pair)
        self.patterns[pattern] += 1
        self._signature_of[pattern] = signature
        self._changed_patterns.add(pattern)

    def _open(self, signature: int) -> None:
        self.opened[signature] = self.closed.pop(signature)
        del self.bounds[signature]
        for state in self.holders(signature):
            for pair in list(state.by_signature[signature]):
                self._count(state, pair, signature)

    def best(self) -> tuple[str, int, int] | None:
        """(pattern, count, signature) of the most frequent pattern, ties to
        the smallest string; None when no edge is left."""
        closed_heap, pattern_heap = self._closed_heap, self._pattern_heap
        while top := _heap_top(closed_heap, self.closed, self._changed_closed, self._closed_entry):
            count = _heap_top(pattern_heap, self.patterns, self._changed_patterns, _pattern_entry)
            if top < count:
                break
            if top == count:
                bound = closed_heap[0][1]
                if bound > pattern_heap[0][1][: len(bound)]:
                    break
            self._open(heappop(closed_heap)[2])
        count = _heap_top(pattern_heap, self.patterns, self._changed_patterns, _pattern_entry)
        if not count:
            return None
        pattern = pattern_heap[0][1]
        return pattern, count, self._signature_of[pattern]

    def edge_added(self, state: MergingGraph, pair, signature: int) -> None:
        if signature in self.opened:
            self.opened[signature] += 1
            self._count(state, pair, signature)
        else:
            self.closed[signature] += 1
            self._changed_closed.add(signature)
            self._lower_bound(signature, state, pair)
        holders = self._holders.setdefault(signature, [])
        if not holders or holders[-1] is not state:
            holders.append(state)

    def edge_removed(self, signature: int, pattern: str | None) -> None:
        if signature in self.opened:
            if _drop(self.patterns, pattern):
                del self._signature_of[pattern]
            else:
                self._changed_patterns.add(pattern)
            gone = _drop(self.opened, signature)
        else:
            gone = _drop(self.closed, signature)
            if gone:
                del self.bounds[signature]
            else:
                self._changed_closed.add(signature)
        if gone:
            del self._holders[signature]


def _pattern_entry(pattern: str, count: int) -> tuple[int, str]:
    return -count, pattern


def _heap_top(heap: list, counts: Counter, changed, entry) -> int:
    """The largest value in ``counts`` (0 when it is empty), with ``heap``
    holding the tuples ``entry(key, count)``, each (-count, ..., key): first
    push each key in ``changed`` that is still counted and empty
    ``changed``, rebuild the heap when stale entries outnumber live keys,
    then drop entries with a stale count from the top."""
    for key in changed:
        count = counts.get(key)
        if count:
            heappush(heap, entry(key, count))
    changed.clear()
    if len(heap) > 2 * len(counts):
        heap[:] = [entry(*item) for item in counts.items()]
        heapify(heap)
    while heap:
        top = heap[0]
        if counts.get(top[-1]) == -top[0]:
            return -top[0]
        heappop(heap)
    return 0


def _count_motifs(states: list[MergingGraph]) -> tuple[MotifVocabulary, int]:
    """The vocabulary of the final partitions, each motif with the site
    table of its instances, and the number of fragments."""
    motif_counter: Counter[str] = Counter()
    sites: dict[str, SiteTable] = {}
    attach_counter: Counter[tuple[SiteType, SiteType]] = Counter()
    fragment_total = 0
    for state in states:
        frag = extract_motifs(state)
        fragment_total += len(frag.motifs)
        site_of = []  # per motif: star atom -> site type
        for motif in frag.motifs:
            motif_counter[motif.smiles] += 1
            sites[motif.smiles] = motif.sites
            site_of.append(dict(motif.sites))
        for link in frag.broken_bonds:
            site_a = site_of[link.motif_a][link.star_a]
            site_b = site_of[link.motif_b][link.star_b]
            attach_counter[attachment_key(site_a, site_b)] += 1
    motifs = {smiles: Motif(smiles, n, sites[smiles]) for smiles, n in motif_counter.items()}
    return MotifVocabulary(motifs, dict(attach_counter)), fragment_total


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
        op = MergeOperation(rank, *best)
        ops.append(op)
        # a pass grows this list only on a signature collision (a union born
        # in it has more atoms than the pattern); that visit merges nothing
        for state in tally.holders(op.signature):
            state.apply_operation(op, tally)
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
    vocabulary, fragment_total = _count_motifs(states)
    mean = fragment_total / len(corpus) if corpus else 0.0
    return MiningResult(ops, vocabulary, mean)


def build_motif_vocabulary(
    corpus: list[MolGraph], ops: list[MergeOperation]
) -> MotifVocabulary:
    """Fragment the corpus with ``ops`` and collect connection-aware motifs.

    Every broken bond contributes one "*" site to each side and one
    attachment-table increment for the site-type pair.
    """
    return _count_motifs([apply_operations(mol, ops) for mol in corpus])[0]
