"""Per-molecule merging graph: a partition of atoms into connected fragments.

State starts as one fragment per atom with bond adjacency inherited from the
molecule and evolves by merging adjacent fragment pairs. Each fragment-pair
edge carries a cheap signature of its union (``union_signature``): the
sorted (atom token, degree inside the union) labels, then the sorted orders
of the union's induced bonds. The union's canonical pattern string is
written only when asked for (``MergingGraph.pattern``) and kept until the
edge dies.

A pattern fixes its signature: ``parse_smiles(write_smiles(U))`` is U again
up to atom numbering, with the same atom tokens and bond orders, and the
signature does not depend on numbering, so ``pattern_signature(pattern)``
is the signature of every union written as ``pattern``. Edges with
different signatures therefore never share a pattern, and a pass for one
pattern writes only the unions that carry its signature.

The same small unions recur across molecules, so ``union_pattern``
memoizes the pattern string on ``MergingGraph.union_key``, a string that
encodes the union's exact induced labelled graph: its atoms in ascending
atom-id order, each ``Atom`` value interned to a one-character code, and
every induced bond as (new atom a, new atom b, order) in molecule bond order.
That is exactly the graph ``write_smiles`` would be given for the union, so
a hit returns the string a fresh write would return, even where the
canonical form is not yet invariant; a miss decodes the key and calls
``write_smiles``. The memo is process-wide (an ``lru_cache``, like the
miner's motif caches), cannot go stale because the key is the whole input,
and ``union_pattern.cache_clear()`` resets it.

``apply_operation`` is the one merge primitive: the miner drives it pattern
by pattern, and ``apply_operations`` replays a learned operation list for the
vocabulary builder and the tokenizer. ``extract_motifs`` turns a final
partition into the one ``Fragmentation`` record of a molecule
(connection-aware motifs plus the two sites each broken bond joins) that the
tokenizer, the vocabulary builder and trajectories all read.
"""
from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from functools import lru_cache

from graphbpe.chem import (
    MolGraph,
    atom_token,
    canonical_rank,
    parse_smiles,
    write_smiles,
    write_smiles_with_order,
)
from graphbpe.chem.mol import BOND_ORDERS, STAR, Atom, make_bond
from graphbpe.errors import NotAdjacentError, SmilesSyntaxError

Pair = tuple[int, int]


@dataclass(frozen=True)
class MergeOperation:
    """One learned operation: merge every edge whose union is ``pattern``."""

    rank: int
    pattern: str
    observed_count: int


# atom codes of union_key; append-only, so a code never changes meaning
_ATOM_CODES: dict[Atom, str] = {}
_CODED_ATOMS: list[Atom] = []
_CODES_LOCK = threading.Lock()
_ORDER_CODES = {order: chr(i) for i, order in enumerate(BOND_ORDERS)}


def _atom_code(atom: Atom) -> str:
    code = _ATOM_CODES.get(atom)
    if code is None:
        with _CODES_LOCK:
            code = _ATOM_CODES.get(atom)
            if code is None:
                # append first: a code another thread can read always decodes
                _CODED_ATOMS.append(atom)
                code = _ATOM_CODES[atom] = chr(len(_CODED_ATOMS) - 1)
    return code


def _signature(mol: MolGraph, tokens: list[str], orders: str, atom_ids, inside) -> str:
    """Signature of the subgraph induced by ``atom_ids`` (``inside`` answers
    membership); ``tokens`` and ``orders`` hold each atom's token and each
    bond's order code."""
    labels = []
    codes = []
    for atom in atom_ids:
        degree = 0
        for nbr, bidx in mol.neighbors(atom):
            if nbr in inside:
                degree += 1
                if nbr > atom:
                    codes.append(orders[bidx])
        labels.append(f"{tokens[atom]}{degree}")
    labels.sort()
    codes.sort()
    return sys.intern(" ".join(labels) + "|" + "".join(codes))


@lru_cache(maxsize=None)
def pattern_signature(pattern: str) -> str:
    """The signature of every union whose pattern string is ``pattern``; ""
    (no union's signature) when ``pattern`` does not parse."""
    try:
        mol = parse_smiles(pattern, validate=False)
    except SmilesSyntaxError:
        return ""
    everything = range(len(mol.atoms))
    tokens = [atom_token(atom) for atom in mol.atoms]
    orders = "".join(_ORDER_CODES[bond.order] for bond in mol.bonds)
    return _signature(mol, tokens, orders, everything, everything)


@lru_cache(maxsize=None)
def union_pattern(key: str) -> str:
    """Canonical string of the labelled graph that ``key`` (a
    ``MergingGraph.union_key``) encodes; interned, so the keys of isomorphic
    unions share one string object."""
    count = ord(key[0])
    atoms = tuple(_CODED_ATOMS[ord(code)] for code in key[1 : count + 1])
    bonds = tuple(
        make_bond(ord(key[i]), ord(key[i + 1]), BOND_ORDERS[ord(key[i + 2])])
        for i in range(count + 1, len(key), 3)
    )
    return sys.intern(write_smiles(MolGraph(atoms, bonds)))


class MergingGraph:
    """Mutable fragment partition of one molecule.

    ``edges`` maps each adjacent fragment pair to its union's signature;
    ``by_signature`` maps each signature to its pairs, each with its pattern
    string once resolved (``None`` until then).
    """

    def __init__(self, mol: MolGraph):
        self.mol = mol
        self.ranks = canonical_rank(mol).ranks
        self.frag_of = list(range(len(mol.atoms)))
        self.frag_atoms: dict[int, list[int]] = {i: [i] for i in range(len(mol.atoms))}
        self._next_fid = len(mol.atoms)
        self._atom_codes = "".join(_atom_code(atom) for atom in mol.atoms)
        self._tokens = [atom_token(atom) for atom in mol.atoms]
        self._orders = "".join(_ORDER_CODES[bond.order] for bond in mol.bonds)
        self.edges: dict[Pair, str] = {}
        self.by_signature: dict[str, dict[Pair, str | None]] = {}
        for bond in mol.bonds:
            self._add_edge((bond.a, bond.b))
            # a bond's own union is written at once: few distinct ones exist,
            # so each costs a memo hit, and bench/selftest.py checks that
            # fragmentize(mol, []) writes them
            self.pattern(bond.a, bond.b)

    @staticmethod
    def _pair(fa: int, fb: int) -> Pair:
        return (fa, fb) if fa < fb else (fb, fa)

    def _add_edge(self, pair: Pair) -> None:
        signature = self.union_signature(self.frag_atoms[pair[0]] + self.frag_atoms[pair[1]])
        self.edges[pair] = signature
        self.by_signature.setdefault(signature, {})[pair] = None

    def union_signature(self, atom_ids: list[int]) -> str:
        """The signature of the subgraph induced by ``atom_ids``: its sorted
        (atom token, degree inside) labels, then its sorted bond orders."""
        return _signature(self.mol, self._tokens, self._orders, atom_ids, set(atom_ids))

    def pattern(self, fa: int, fb: int) -> str:
        """The canonical string of the union of adjacent fragments ``fa`` and
        ``fb``: written on the first call, then kept until the edge dies."""
        pair = self._pair(fa, fb)
        pairs = self.by_signature[self.edges[pair]]
        pattern = pairs[pair]
        if pattern is None:
            key = self.union_key(self.frag_atoms[fa] + self.frag_atoms[fb])
            pattern = pairs[pair] = union_pattern(key)
        return pattern

    def union_key(self, atom_ids: list[int]) -> str:
        """The exact induced labelled subgraph on ``atom_ids`` as one string:
        the atom count, one code per atom in ascending atom-id order, then
        three characters (new a, new b, order) per induced bond in molecule
        bond order."""
        ordered = sorted(atom_ids)
        new_id = {old: new for new, old in enumerate(ordered)}
        codes, bonds = self._atom_codes, self.mol.bonds
        parts = [chr(len(ordered))]
        parts += [codes[i] for i in ordered]
        for bidx in self.mol.induced_bond_ids(new_id):
            bond = bonds[bidx]
            parts.append(chr(new_id[bond.a]) + chr(new_id[bond.b]) + _ORDER_CODES[bond.order])
        return "".join(parts)

    def scan_key(self, fa: int, fb: int) -> tuple[int, ...]:
        """Deterministic edge ordering: sorted canonical ranks of the union."""
        union = self.frag_atoms[fa] + self.frag_atoms[fb]
        return tuple(sorted(self.ranks[a] for a in union))

    def merge(self, fa: int, fb: int) -> int:
        """Merge two adjacent fragments; returns the fresh fragment id."""
        return self._merge(fa, fb)[0]

    def _merge(self, fa: int, fb: int) -> tuple[int, list[tuple[Pair, str, str | None]], list]:
        """``merge``, also returning the dead edges as (pair, signature,
        pattern or None) and the new pairs."""
        if self._pair(fa, fb) not in self.edges:
            raise NotAdjacentError(f"fragments {fa} and {fb} are not adjacent")
        union = self.frag_atoms.pop(fa) + self.frag_atoms.pop(fb)
        # every edge of fa or fb dies; the fragments they reach become
        # neighbours of the union
        dead_pairs = set()
        neighbors = set()
        for atom in union:
            own = self.frag_of[atom]
            for nbr, _ in self.mol.neighbors(atom):
                other = self.frag_of[nbr]
                if other != own:
                    dead_pairs.add(self._pair(own, other))
                    if other != fa and other != fb:
                        neighbors.add(other)
        dead = []
        for pair in dead_pairs:
            signature = self.edges.pop(pair)
            pairs = self.by_signature[signature]
            dead.append((pair, signature, pairs.pop(pair)))
            if not pairs:
                del self.by_signature[signature]
        fnew = self._next_fid
        self._next_fid += 1
        self.frag_atoms[fnew] = union
        for atom in union:
            self.frag_of[atom] = fnew
        born = [(nb, fnew) for nb in neighbors]
        for pair in born:
            self._add_edge(pair)
        return fnew, dead, born

    def apply_operation(self, pattern: str, signature: str | None = None, tally=None) -> int:
        """One merge pass: fuse every edge whose current union equals ``pattern``.

        Only the edges with the pattern's signature (``signature``, else
        ``pattern_signature(pattern)``) are resolved. Edges are scanned in
        canonical order; pairs invalidated by an earlier merge in the same
        pass are skipped. ``tally``, when given, hears
        ``edge_removed(signature, pattern or None)`` for each edge the pass
        removes that existed before it, then ``edge_added(self, pair,
        signature)`` for each edge the pass leaves behind that is new.
        Returns the number of merges.
        """
        if signature is None:
            signature = pattern_signature(pattern)
        pairs = self.by_signature.get(signature)
        if not pairs:
            return 0
        matches = [pair for pair in list(pairs) if self.pattern(*pair) == pattern]
        matches.sort(key=lambda p: self.scan_key(*p))
        born: set[Pair] = set()
        merged = 0
        for pair in matches:
            if pair in self.edges:
                _, dead, new = self._merge(*pair)
                merged += 1
                if tally is not None:
                    for gone, gone_signature, gone_pattern in dead:
                        if gone in born:
                            born.discard(gone)
                        else:
                            tally.edge_removed(gone_signature, gone_pattern)
                    born.update(new)
        for pair in born:
            tally.edge_added(self, pair, self.edges[pair])
        return merged


def apply_operations(mol: MolGraph, ops: list[MergeOperation]) -> MergingGraph:
    """Run every merge operation in rank order over a fresh merging graph."""
    state = MergingGraph(mol)
    for op in ops:
        state.apply_operation(op.pattern)
    return state


@dataclass(frozen=True)
class MotifInstance:
    """One fragment rendered as a connection-aware motif."""

    smiles: str
    atom_count: int
    parent_atoms: tuple[int, ...]


@dataclass(frozen=True)
class BrokenBondLink:
    """One broken bond as (motif index, star atom) on each side; a star atom
    id is in the atom numbering of ``parse_smiles(motif.smiles)``."""

    motif_a: int
    star_a: int
    motif_b: int
    star_b: int
    order: str


@dataclass(frozen=True)
class Fragmentation:
    """Connection-aware motifs of one molecule plus how they were joined.

    Motifs are ordered by their lowest parent atom; ``broken_bonds`` holds one
    link per broken molecule bond, in molecule bond order, with ``motif_a`` on
    the side of the bond's lower atom.
    """

    motifs: tuple[MotifInstance, ...]
    broken_bonds: tuple[BrokenBondLink, ...]

    def motif_strings(self) -> list[str]:
        return [m.smiles for m in self.motifs]


def extract_motifs(state: MergingGraph) -> Fragmentation:
    """Turn the final partition into connection-aware motifs plus the links
    of every broken bond."""
    mol = state.mol
    parts = sorted(tuple(sorted(atoms)) for atoms in state.frag_atoms.values())
    motif_of = [0] * len(mol.atoms)
    for index, atoms in enumerate(parts):
        for atom in atoms:
            motif_of[atom] = index
    cross: list[list[tuple[int, int]]] = [[] for _ in parts]  # (bond, anchor atom)
    for bidx, bond in enumerate(mol.bonds):
        ma, mb = motif_of[bond.a], motif_of[bond.b]
        if ma != mb:
            cross[ma].append((bidx, bond.a))
            cross[mb].append((bidx, bond.b))
    motifs: list[MotifInstance] = []
    star_of: dict[tuple[int, int], int] = {}  # (motif, bond) -> star atom id
    for index, atom_ids in enumerate(parts):
        base, mapping = mol.subgraph(atom_ids)
        atoms = list(base.atoms)
        bonds = list(base.bonds)
        star_raw: dict[int, int] = {}
        for bidx, anchor in cross[index]:
            star_raw[bidx] = len(atoms)
            atoms.append(Atom(STAR))
            bonds.append(make_bond(mapping[anchor], star_raw[bidx], mol.bonds[bidx].order))
        smiles, order = write_smiles_with_order(MolGraph(tuple(atoms), tuple(bonds)))
        pos_of_raw = {raw: i for i, raw in enumerate(order)}
        for bidx, raw in star_raw.items():
            star_of[index, bidx] = pos_of_raw[raw]
        motifs.append(MotifInstance(smiles, len(base.atoms), atom_ids))
    links = []
    for bidx, bond in enumerate(mol.bonds):
        ma, mb = motif_of[bond.a], motif_of[bond.b]
        if ma != mb:
            links.append(BrokenBondLink(ma, star_of[ma, bidx], mb, star_of[mb, bidx], bond.order))
    return Fragmentation(tuple(motifs), tuple(links))
