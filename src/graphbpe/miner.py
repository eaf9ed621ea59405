"""Merge-operation learning and connection-aware motif vocabulary construction.

Learning keeps one merging graph per corpus molecule and a global counter of
fragment-pair patterns, updated by exact deltas as merges happen. Each
iteration picks the most frequent pattern (ties broken by the
lexicographically smallest pattern string) and merges every edge matching it.
Counting is commutative, so sharding molecules across worker processes
produces byte-identical results for any worker count.
"""
from __future__ import annotations

import multiprocessing as mp
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from graphbpe.chem import MolGraph, canonical_rank, parse_smiles
from graphbpe.errors import GraphBpeError
from graphbpe.merging import (
    BrokenBond,
    MergeOperation,
    MergingGraph,
    MotifInstance,
    apply_operations,
    extract_motifs,
)

# (motif smiles, site symmetry class, bond order)
SiteType = tuple[str, int, str]


@lru_cache(maxsize=None)
def motif_graph(smiles: str) -> MolGraph:
    return parse_smiles(smiles)


@lru_cache(maxsize=None)
def motif_site_meta(smiles: str) -> tuple[tuple[int, str, int], ...]:
    """(star atom id, bond order, symmetry class id) per site, in canonical order.

    The class id is the smallest canonical rank among the stars of one
    refinement class, so interchangeable sites share an id and the id is
    stable across isomorphic inputs.
    """
    mol = motif_graph(smiles)
    ranking = canonical_rank(mol)
    stars = [i for i, atom in enumerate(mol.atoms) if atom.is_connection_site]
    groups: dict[int, list[int]] = {}
    for i in stars:
        groups.setdefault(ranking.symmetry_classes[i], []).append(i)
    class_of: dict[int, int] = {}
    for members in groups.values():
        cid = min(ranking.ranks[i] for i in members)
        for i in members:
            class_of[i] = cid
    stars.sort(key=lambda i: ranking.ranks[i])
    out = []
    for i in stars:
        _, bidx = mol.neighbors(i)[0]
        out.append((i, mol.bonds[bidx].order, class_of[i]))
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
    def sites(self) -> tuple[tuple[int, str, int], ...]:
        """(star atom id, bond order, class id), sorted by canonical atom rank."""
        return motif_site_meta(self.smiles)

    @property
    def atom_count(self) -> int:
        return sum(1 for a in self.graph.atoms if not a.is_connection_site)

    def site_type(self, star_atom: int) -> SiteType:
        for atom_id, order, class_id in self.sites:
            if atom_id == star_atom:
                return (self.smiles, class_id, order)
        raise KeyError(f"atom {star_atom} is not a connection site of {self.smiles}")


@dataclass(frozen=True)
class Candidate:
    """One selectable connection: a vocabulary site or an open partial site."""

    kind: str  # "vocab" | "partial"
    site_type: SiteType
    order: str
    motif: Motif | None = None
    star_atom: int = 0  # vocab: atom id in the motif graph; partial: assembly star id


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
            for star_atom, order, class_id in motif.sites:
                site_type = (motif.smiles, class_id, order)
                out.setdefault(order, []).append(
                    Candidate("vocab", site_type, order, motif, star_atom)
                )
        return out

    def attachment_count(self, a: SiteType, b: SiteType) -> int:
        return self.attachment_counts.get(attachment_key(a, b), 0)

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
    """Pattern counts over all fragment-pair edges of all merging graphs."""
    total: Counter[str] = Counter()
    for state in states:
        total.update(state.key_counts)
    return total


def _argmax_pattern(counter: Counter[str]) -> tuple[str, int]:
    best = max(counter.values())
    pattern = min(key for key, value in counter.items() if value == best)
    return pattern, best


def _merge_delta(dst: Counter[str], delta: Counter[str]) -> None:
    for key, value in delta.items():
        updated = dst[key] + value
        if updated:
            dst[key] = updated
        else:
            del dst[key]


def _instance_site_type(instance: MotifInstance, broken: BrokenBond) -> SiteType:
    star_atom = instance.star_for_bond[broken.bond_index]
    meta = {atom_id: (order, cid) for atom_id, order, cid in motif_site_meta(instance.smiles)}
    order, class_id = meta[star_atom]
    return (instance.smiles, class_id, order)


class _Shard:
    """The merging graphs of one slice of the corpus.

    The sequential engine is a single shard; each parallel worker serves one.
    """

    def __init__(self, states: list[MergingGraph]):
        self.states = states

    def counts(self) -> Counter[str]:
        return count_pair_patterns(self.states)

    def apply(self, pattern: str) -> Counter[str]:
        """Merge ``pattern`` everywhere; returns the pattern-count delta."""
        delta: Counter[str] = Counter()
        for state in self.states:
            if state.key_counts.get(pattern):
                state.apply_operation(pattern, delta)
        return delta

    def payload(self) -> tuple[Counter[str], Counter[tuple[SiteType, SiteType]], int]:
        """Motif counts, attachment counts and the number of fragments."""
        motif_counter: Counter[str] = Counter()
        attach_counter: Counter[tuple[SiteType, SiteType]] = Counter()
        fragment_total = 0
        for state in self.states:
            instances, broken = extract_motifs(state)
            fragment_total += len(instances)
            for instance in instances.values():
                motif_counter[instance.smiles] += 1
            for bb in broken:
                site_a = _instance_site_type(instances[bb.fid_a], bb)
                site_b = _instance_site_type(instances[bb.fid_b], bb)
                attach_counter[attachment_key(site_a, site_b)] += 1
        return motif_counter, attach_counter, fragment_total


def _worker_main(conn, corpus: list[MolGraph]) -> None:
    """Serve ``_Shard`` method calls over ``conn`` until told to stop."""
    shard = _Shard([MergingGraph(mol) for mol in corpus])
    for name, *args in iter(conn.recv, ("stop",)):
        conn.send(getattr(shard, name)(*args))


def _add(total, reply):
    """Sum two shard replies of the same shape."""
    if isinstance(total, tuple):
        return tuple(map(_add, total, reply))
    if isinstance(total, Counter):
        total.update(reply)  # unlike ``+``, keeps negative deltas
        return total
    return total + reply


class _ParallelEngine:
    """Shards molecules across forked workers; aggregation is commutative,
    so results match the sequential engine for any worker count."""

    def __init__(self, corpus: list[MolGraph], workers: int):
        ctx = mp.get_context("fork")
        self.connections = []
        self.processes = []
        for shard_id in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child_conn, corpus[shard_id::workers]))
            proc.start()
            child_conn.close()
            self.connections.append(parent_conn)
            self.processes.append(proc)

    def _call(self, name: str, *args):
        try:
            for conn in self.connections:
                conn.send((name, *args))
            replies = [conn.recv() for conn in self.connections]
        except (EOFError, OSError) as exc:
            for proc in self.processes:
                proc.terminate()
            raise GraphBpeError("a mining worker process died") from exc
        return reduce(_add, replies)

    def counts(self) -> Counter[str]:
        return self._call("counts")

    def apply(self, pattern: str) -> Counter[str]:
        return self._call("apply", pattern)

    def payload(self) -> tuple[Counter[str], Counter[tuple[SiteType, SiteType]], int]:
        return self._call("payload")

    def close(self) -> None:
        for conn in self.connections:
            try:
                conn.send(("stop",))
            except OSError:
                pass
            conn.close()
        for proc in self.processes:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()


@contextmanager
def _engine(corpus: list[MolGraph], num_operations: int, threads: int):
    """Check ``num_operations``, then open one shard over the whole corpus
    or up to ``threads`` forked workers; workers are stopped on exit."""
    if num_operations < 0:
        raise ValueError("num_operations must be >= 0")
    workers = min(threads, len(corpus))
    if workers < 2:
        yield _Shard([MergingGraph(mol) for mol in corpus])
        return
    engine = _ParallelEngine(corpus, workers)
    try:
        yield engine
    finally:
        engine.close()


def _learn_loop(engine, num_operations: int) -> list[MergeOperation]:
    counter = engine.counts()
    ops: list[MergeOperation] = []
    for rank in range(num_operations):
        if not counter:
            break
        pattern, count = _argmax_pattern(counter)
        ops.append(MergeOperation(rank, pattern, count))
        _merge_delta(counter, engine.apply(pattern))
    return ops


def learn_merging_operations(
    corpus: list[MolGraph], num_operations: int, threads: int = 1
) -> list[MergeOperation]:
    """Learn up to ``num_operations`` merge operations from the corpus.

    Stops early when no fragment-pair edges remain. Runtime is linear in the
    corpus size for a fixed operation count.
    """
    with _engine(corpus, num_operations, threads) as engine:
        return _learn_loop(engine, num_operations)


@dataclass(frozen=True)
class MiningResult:
    operations: list[MergeOperation]
    vocabulary: MotifVocabulary
    mean_fragments_per_molecule: float


def mine_corpus(
    corpus: list[MolGraph], num_operations: int, threads: int = 1
) -> MiningResult:
    """Run both phases: learn operations, then collect the motif vocabulary."""
    with _engine(corpus, num_operations, threads) as engine:
        ops = _learn_loop(engine, num_operations)
        motifs, attach, fragment_total = engine.payload()
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
    motifs, attach, _ = _Shard([apply_operations(mol, ops) for mol in corpus]).payload()
    return MotifVocabulary.from_counters(motifs, attach)
