"""Molecular graph data model: atoms, bonds, valence rules, ring detection.

Bond orders are tracked internally in half-units (single=2, aromatic=3,
double=4, triple=6) so all valence arithmetic stays exact integer math.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from graphbpe.errors import ValenceError

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

BOND_ORDERS = (SINGLE, DOUBLE, TRIPLE, AROMATIC)

# one character per bond order, for string keys of graphs
ORDER_CODES = {order: chr(i) for i, order in enumerate(BOND_ORDERS)}

# order value in half-units
ORDER_X2 = {SINGLE: 2, AROMATIC: 3, DOUBLE: 4, TRIPLE: 6}

STAR = "*"

# (element, formal charge) -> allowed total valences
VALENCES = {
    ("B", 0): (3,),
    ("C", 0): (4,),
    ("N", 0): (3,),
    ("N", 1): (4,),
    ("O", 0): (2,),
    ("O", 1): (3,),
    ("F", 0): (1,),
    ("Cl", 0): (1,),
    ("Br", 0): (1,),
    ("I", 0): (1,),
    ("P", 0): (3, 5),
    ("S", 0): (2, 4, 6),
}

ATOMIC_WEIGHTS = {
    "H": 1.008,
    "B": 10.811,
    "C": 12.011,
    "N": 14.007,
    "O": 15.999,
    "F": 18.998,
    "P": 30.974,
    "S": 32.06,
    "Cl": 35.45,
    "Br": 79.904,
    "I": 126.904,
    STAR: 0.0,
}

HALOGENS = frozenset({"F", "Cl", "Br", "I"})


@dataclass(frozen=True, slots=True)
class Atom:
    """One atom; ``element`` is always the uppercase symbol, aromaticity is a flag."""

    element: str
    formal_charge: int = 0
    aromatic: bool = False
    explicit_h: int = 0
    implicit_h: int = 0
    bracket: bool = False  # written/parsed as a bracket atom: explicit_h is authoritative

    @property
    def is_connection_site(self) -> bool:
        return self.element == STAR

    @property
    def total_h(self) -> int:
        return self.explicit_h + self.implicit_h


@dataclass(frozen=True, slots=True)
class Bond:
    """Undirected bond between atom indices ``a`` and ``b`` (stored with a < b)."""

    a: int
    b: int
    order: str


def make_bond(a: int, b: int, order: str) -> Bond:
    if a == b:
        raise ValueError(f"self bond on atom {a}")
    if order not in ORDER_X2:
        raise ValueError(f"unknown bond order {order!r}")
    return Bond(min(a, b), max(a, b), order)


@dataclass(frozen=True, slots=True)
class MolGraph:
    """Immutable attributed molecular graph.

    Adjacency is precomputed; instances are safe to share across threads.
    """

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    _adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        """Check the bonds as ``make_bond`` builds them: atom ids ``0 <= a <
        b`` of present atoms, a known order, and no pair bonded twice."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        seen = set()
        for idx, bond in enumerate(self.bonds):
            if not 0 <= bond.a < bond.b < len(self.atoms):
                raise ValueError(f"bond {bond} needs atom ids 0 <= a < b < {len(self.atoms)}")
            if bond.order not in ORDER_X2:
                raise ValueError(f"bond {bond} has an unknown order")
            pair = (bond.a, bond.b)
            if pair in seen:
                raise ValueError(f"duplicate bond between atoms {bond.a} and {bond.b}")
            seen.add(pair)
            adj[bond.a].append((bond.b, idx))
            adj[bond.b].append((bond.a, idx))
        object.__setattr__(self, "_adjacency", tuple(tuple(n) for n in adj))

    @classmethod
    def from_adjacency(cls, atoms, bonds, adjacency) -> "MolGraph":
        """A graph whose neighbour lists the caller built as ``__post_init__``
        would, bond by bond, from bonds it already checked; nothing is
        checked again."""
        mol = object.__new__(cls)
        object.__setattr__(mol, "atoms", atoms)
        object.__setattr__(mol, "bonds", bonds)
        object.__setattr__(mol, "_adjacency", adjacency)
        return mol

    def neighbors(self, atom_id: int) -> tuple[tuple[int, int], ...]:
        """(neighbor atom id, bond index) pairs for one atom."""
        return self._adjacency[atom_id]

    def degree(self, atom_id: int) -> int:
        return len(self._adjacency[atom_id])

    def order_sum_x2(self, atom_id: int) -> int:
        return sum(ORDER_X2[self.bonds[bidx].order] for _, bidx in self._adjacency[atom_id])

    def component_count(self) -> int:
        """Number of connected components (0 for the empty graph)."""
        seen: set[int] = set()
        components = 0
        for start in range(len(self.atoms)):
            if start in seen:
                continue
            components += 1
            seen.add(start)
            todo = [start]
            while todo:
                for nbr, _ in self._adjacency[todo.pop()]:
                    if nbr not in seen:
                        seen.add(nbr)
                        todo.append(nbr)
        return components

    def subgraph(self, atom_ids) -> tuple["MolGraph", dict[int, int]]:
        """Induced subgraph plus the old-id -> new-id mapping.

        Atom attributes are copied verbatim; implicit hydrogens are NOT
        recomputed, so the result serves as an identity key for the fragment.
        """
        ordered = sorted(atom_ids)
        mapping = {old: new for new, old in enumerate(ordered)}
        atoms = tuple(self.atoms[i] for i in ordered)
        induced = (self.bonds[i] for i in self.induced_bond_ids(mapping))
        bonds = tuple(make_bond(mapping[b.a], mapping[b.b], b.order) for b in induced)
        return MolGraph(atoms, bonds), mapping

    def induced_bond_ids(self, atom_ids) -> list[int]:
        """Indices of the bonds with both ends in ``atom_ids`` (a set or
        dict of atom ids), in molecule bond order; walks only those atoms'
        neighbour lists."""
        return sorted(
            bidx
            for atom in atom_ids
            for nbr, bidx in self._adjacency[atom]
            if nbr > atom and nbr in atom_ids
        )


def shared_graph(atoms, bonds, adjacency, parts: dict | None = None) -> MolGraph:
    """The graph of ``atoms``, ``bonds`` given as checked ``(a, b, order)``
    triples with ``a < b``, and the neighbour lists ``MolGraph.__post_init__``
    would build from them; nothing is checked again.

    ``parts``, a table the caller owns and passes to every graph it builds,
    makes equal parts one object: each bond and each neighbour tuple equal
    to one the table holds is that object, and a new one is added. Every
    part is immutable, so graphs can share them. A bond's key is its ``(a,
    b, order)`` triple and a neighbour tuple is its own key; the two never
    collide, since a triple holds a string and a neighbour tuple only
    pairs. The parser keys a bracket ``Atom`` by itself in the same table.
    """
    if parts is None:
        shared = tuple([Bond(a, b, order) for a, b, order in bonds])
        return MolGraph.from_adjacency(atoms, shared, tuple([tuple(nbrs) for nbrs in adjacency]))
    get = parts.get
    shared = []
    for key in bonds:
        bond = get(key)
        if bond is None:
            bond = parts[key] = Bond(*key)
        shared.append(bond)
    neighbours = tuple([parts.setdefault(nbrs, nbrs) for nbrs in map(tuple, adjacency)])
    return MolGraph.from_adjacency(atoms, tuple(shared), neighbours)


def allowed_valences(element: str, charge: int) -> tuple[int, ...]:
    return VALENCES.get((element, charge), ())


def implicit_hydrogens(element: str, charge: int, order_sum_x2: int) -> int:
    """Hydrogens needed to reach the smallest allowed valence >= the order sum.

    Fractional differences (odd half-unit sums on aromatic atoms) round down.
    Returns 0 when every allowed valence is already exceeded.
    """
    for valence in allowed_valences(element, charge):
        if 2 * valence >= order_sum_x2:
            return (2 * valence - order_sum_x2) // 2
    return 0


def valence_ok(atom: Atom, order_sum_x2: int) -> bool:
    """Whether ``atom``, with bonds summing to ``order_sum_x2`` half-units,
    satisfies the valence table; "*" atoms always do."""
    if atom.is_connection_site:
        return True
    total_x2 = order_sum_x2 + 2 * atom.total_h
    allowed = allowed_valences(atom.element, atom.formal_charge)
    if not allowed:
        return False
    if not atom.aromatic:
        return total_x2 % 2 == 0 and total_x2 // 2 in allowed
    # aromatic atoms: round half-up, allow one unit of over-valence slack
    rounded = (total_x2 + 1) // 2
    return rounded in allowed or rounded - 1 in allowed


def valence_check(mol: MolGraph) -> bool:
    """True iff every non-"*" atom satisfies the valence table."""
    return all(valence_ok(atom, mol.order_sum_x2(i)) for i, atom in enumerate(mol.atoms))


def _pi_electrons(mol: MolGraph, atom_id: int) -> int:
    atom = mol.atoms[atom_id]
    element = atom.element
    if element == "C":
        return 1
    if element == "B":
        return 0
    if element in ("O", "S"):
        return 2
    if element in ("N", "P"):
        # pyrrole-like (bears H or an exocyclic substituent) donates the lone pair
        return 2 if (atom.total_h > 0 or mol.degree(atom_id) > 2) else 1
    return 0


def _aromatic_adjacency(mol: MolGraph) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {}
    for bidx, bond in enumerate(mol.bonds):
        if bond.order != AROMATIC:
            continue
        adj.setdefault(bond.a, []).append((bond.b, bidx))
        adj.setdefault(bond.b, []).append((bond.a, bidx))
    return adj


def _shortest_aromatic_cycle(
    adj: dict[int, list[tuple[int, int]]], start_bond: tuple[int, int, int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Smallest cycle through one aromatic bond, as (atom ids, bond ids)."""
    a, b, bond_idx = start_bond
    parent: dict[int, tuple[int, int]] = {a: (-1, -1)}
    todo = deque([a])
    while todo:
        cur = todo.popleft()
        if cur == b:
            atoms = []
            bonds = [bond_idx]
            node = b
            while node != -1:
                atoms.append(node)
                prev, via = parent[node]
                if prev != -1:
                    bonds.append(via)
                node = prev
            return tuple(atoms), tuple(bonds)
        for nbr, bidx in adj.get(cur, ()):
            if bidx == bond_idx or nbr in parent:
                continue
            parent[nbr] = (cur, bidx)
            todo.append(nbr)
    return None


def failing_aromatic_rings(mol: MolGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Minimal aromatic rings whose pi-electron count breaks the 4n+2 rule.

    Each entry is (atom ids, bond ids) of one offending ring. Aromatic chains
    (no cycle through the bond) are never flagged; connection sites have
    degree 1 and therefore cannot sit on a cycle.
    """
    adj = _aromatic_adjacency(mol)
    failing = []
    seen_rings: set[frozenset[int]] = set()
    # a found ring whose atoms have no aromatic bond outside it is the only
    # cycle through its bonds, so a search from them would find it again
    isolated: set[int] = set()
    for bidx, bond in enumerate(mol.bonds):
        if bond.order != AROMATIC or bidx in isolated:
            continue
        cycle = _shortest_aromatic_cycle(adj, (bond.a, bond.b, bidx))
        if cycle is None:
            continue
        atoms, bond_ids = cycle
        ring_key = frozenset(atoms)
        if ring_key in seen_rings:
            continue
        seen_rings.add(ring_key)
        if all(len(adj[i]) == 2 for i in atoms):
            isolated.update(bond_ids)
        pi = sum(_pi_electrons(mol, i) for i in atoms)
        if pi % 4 != 2:
            failing.append((atoms, bond_ids))
    return failing


def check_molecule(mol: MolGraph, atom_ok: list[bool] | None = None) -> None:
    """Raise ValenceError unless all atoms and aromatic rings are valid.

    ``atom_ok`` holds each atom's ``valence_ok`` verdict where the caller
    already has it (the parser, from its own bond order sums).
    """
    if atom_ok is None:
        atom_ok = [valence_ok(atom, mol.order_sum_x2(i)) for i, atom in enumerate(mol.atoms)]
    if not all(atom_ok):
        i = atom_ok.index(False)
        atom = mol.atoms[i]
        raise ValenceError(
            f"valence violation on atom {i} ({atom.element}, charge "
            f"{atom.formal_charge:+d}, {mol.degree(i)} bonds)"
        )
    bad = failing_aromatic_rings(mol)
    if bad:
        atoms = sorted(bad[0][0])
        raise ValenceError(
            f"aromatic ring over atoms {atoms} fails the ring electron count"
        )


def molecular_weight(mol: MolGraph) -> float:
    weight = 0.0
    for atom in mol.atoms:
        weight += ATOMIC_WEIGHTS[atom.element]
        weight += ATOMIC_WEIGHTS["H"] * atom.total_h
    return weight
