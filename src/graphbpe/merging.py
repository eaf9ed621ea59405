"""Per-molecule merging graph: a partition of atoms into connected fragments.

State starts as one fragment per atom with bond adjacency inherited from the
molecule and evolves by merging adjacent fragment pairs. Each fragment-pair
edge carries the canonical pattern string of the merged union, kept current
incrementally so repeated scans stay cheap. ``apply_operation`` is the one
merge primitive: the miner drives it pattern by pattern, and
``apply_operations`` replays a learned operation list for the vocabulary
builder and the tokenizer.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from graphbpe.chem import MolGraph, canonical_rank, write_smiles, write_smiles_with_order
from graphbpe.chem.mol import STAR, Atom, make_bond
from graphbpe.errors import NotAdjacentError


@dataclass(frozen=True)
class MergeOperation:
    """One learned operation: merge every edge whose union is ``pattern``."""

    rank: int
    pattern: str
    observed_count: int


class MergingGraph:
    """Mutable fragment partition of one molecule plus fragment adjacency."""

    def __init__(self, mol: MolGraph):
        self.mol = mol
        self.ranks = canonical_rank(mol).ranks
        self.frag_of = list(range(len(mol.atoms)))
        self.frag_atoms: dict[int, list[int]] = {i: [i] for i in range(len(mol.atoms))}
        self._next_fid = len(mol.atoms)
        self.adj: dict[int, set[int]] = {i: set() for i in self.frag_atoms}
        self.edges: dict[tuple[int, int], str] = {}
        self.key_counts: Counter[str] = Counter()
        for bond in mol.bonds:
            pair = self._pair(bond.a, bond.b)
            if pair not in self.edges:
                self.adj[pair[0]].add(pair[1])
                self.adj[pair[1]].add(pair[0])
                key = self._pattern(*pair)
                self.edges[pair] = key
                self.key_counts[key] += 1

    @staticmethod
    def _pair(fa: int, fb: int) -> tuple[int, int]:
        return (fa, fb) if fa < fb else (fb, fa)

    def _pattern(self, fa: int, fb: int) -> str:
        union = self.frag_atoms[fa] + self.frag_atoms[fb]
        sub, _ = self.mol.subgraph(union)
        return write_smiles(sub)

    def scan_key(self, fa: int, fb: int) -> tuple[int, ...]:
        """Deterministic edge ordering: sorted canonical ranks of the union."""
        union = self.frag_atoms[fa] + self.frag_atoms[fb]
        return tuple(sorted(self.ranks[a] for a in union))

    def merge(self, fa: int, fb: int, counter: Counter | None = None) -> int:
        """Merge two adjacent fragments; returns the fresh fragment id.

        ``counter``, when given, receives the same +/- pattern deltas that are
        applied to this graph's own ``key_counts``.
        """
        pair = self._pair(fa, fb)
        if pair not in self.edges:
            raise NotAdjacentError(f"fragments {fa} and {fb} are not adjacent")
        dead_pairs = {pair}
        for fid in (fa, fb):
            for nb in self.adj[fid]:
                dead_pairs.add(self._pair(fid, nb))
        for dead in dead_pairs:
            key = self.edges.pop(dead)
            self.key_counts[key] -= 1
            if not self.key_counts[key]:
                del self.key_counts[key]
            if counter is not None:
                counter[key] -= 1
                if not counter[key]:
                    del counter[key]
            x, y = dead
            self.adj[x].discard(y)
            self.adj[y].discard(x)
        union = self.frag_atoms.pop(fa) + self.frag_atoms.pop(fb)
        del self.adj[fa], self.adj[fb]
        fnew = self._next_fid
        self._next_fid += 1
        self.frag_atoms[fnew] = union
        for atom in union:
            self.frag_of[atom] = fnew
        neighbors = set()
        for atom in union:
            for nbr, _ in self.mol.neighbors(atom):
                fid = self.frag_of[nbr]
                if fid != fnew:
                    neighbors.add(fid)
        self.adj[fnew] = set()
        for nb in neighbors:
            new_pair = self._pair(fnew, nb)
            key = self._pattern(*new_pair)
            self.edges[new_pair] = key
            self.key_counts[key] += 1
            if counter is not None:
                counter[key] += 1
            self.adj[fnew].add(nb)
            self.adj[nb].add(fnew)
        return fnew

    def apply_operation(self, pattern: str, counter: Counter | None = None) -> int:
        """One merge pass: fuse every edge whose current union equals ``pattern``.

        Edges are scanned in canonical order; pairs invalidated by an earlier
        merge in the same pass are skipped. Returns the number of merges.
        """
        if not self.key_counts.get(pattern):
            return 0
        matches = [pair for pair, key in self.edges.items() if key == pattern]
        matches.sort(key=lambda p: self.scan_key(*p))
        merged = 0
        for fa, fb in matches:
            if self._pair(fa, fb) in self.edges:
                self.merge(fa, fb, counter)
                merged += 1
        return merged


def apply_operations(mol: MolGraph, ops: list[MergeOperation]) -> MergingGraph:
    """Run every merge operation in rank order over a fresh merging graph."""
    state = MergingGraph(mol)
    for op in ops:
        state.apply_operation(op.pattern)
    return state


@dataclass(frozen=True)
class MotifInstance:
    """One fragment rendered as a connection-aware motif.

    ``star_for_bond`` maps each broken molecule bond to the id of the "*"
    atom standing in for it, in the atom numbering of ``parse(smiles)``.
    """

    fid: int
    smiles: str
    atom_count: int
    parent_atoms: tuple[int, ...]
    star_for_bond: dict[int, int]


@dataclass(frozen=True)
class BrokenBond:
    bond_index: int
    fid_a: int
    fid_b: int
    order: str


def extract_motifs(state: MergingGraph) -> tuple[dict[int, MotifInstance], list[BrokenBond]]:
    """Turn the final partition into connection-aware motifs plus broken bonds."""
    mol = state.mol
    broken: list[BrokenBond] = []
    cross_of_frag: dict[int, list[int]] = {fid: [] for fid in state.frag_atoms}
    for bidx, bond in enumerate(mol.bonds):
        fa, fb = state.frag_of[bond.a], state.frag_of[bond.b]
        if fa != fb:
            broken.append(BrokenBond(bidx, fa, fb, bond.order))
            cross_of_frag[fa].append(bidx)
            cross_of_frag[fb].append(bidx)
    instances: dict[int, MotifInstance] = {}
    for fid, atom_ids in state.frag_atoms.items():
        base, mapping = mol.subgraph(atom_ids)
        atoms = list(base.atoms)
        bonds = list(base.bonds)
        star_raw: dict[int, int] = {}
        for bidx in cross_of_frag[fid]:
            bond = mol.bonds[bidx]
            anchor = bond.a if state.frag_of[bond.a] == fid else bond.b
            star_id = len(atoms)
            atoms.append(Atom(STAR))
            bonds.append(make_bond(mapping[anchor], star_id, bond.order))
            star_raw[bidx] = star_id
        motif_graph = MolGraph(tuple(atoms), tuple(bonds))
        smiles, order = write_smiles_with_order(motif_graph)
        pos_of_raw = {raw: i for i, raw in enumerate(order)}
        instances[fid] = MotifInstance(
            fid=fid,
            smiles=smiles,
            atom_count=len(base.atoms),
            parent_atoms=tuple(sorted(atom_ids)),
            star_for_bond={bidx: pos_of_raw[raw] for bidx, raw in star_raw.items()},
        )
    return instances, broken
