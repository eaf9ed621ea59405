"""Deterministic canonical atom ranking via ordered partition refinement.

Morgan-style 1-WL refinement over an ordered partition of the atoms. Cells
start sorted by each atom's local invariants. Each synchronous round splits
every cell by the sorted multiset of (bond order, neighbour cell) signatures
computed against the previous round's partition, and lays the parts out in
signature order inside the cell's range, until a round splits nothing. Then
the lowest-index atom of the first ambiguous cell is moved into a cell of its
own placed first, and refinement resumes, until every cell is one atom.
Signatures are compared exactly (no hashing), so equal cells are structurally
equal.

Touched-atom refinement (McKay & Piperno, *Practical Graph Isomorphism II*,
2014). A cell's label is its start position in the ordered partition. When a
cell splits, one part keeps the cell (its start moves in O(1)) and only the
atoms of the other parts change cell. A round then computes signatures only
for atoms next to an atom that changed cell in the previous round, plus one
untouched representative per affected cell. This gives exactly the partition
that re-sorting every atom in every round would give:

- Start labels are a strictly increasing function of the dense class ids a
  full re-sort renumbers to, so every signature comparison keeps its order.
- Rounds stay synchronous: every affected cell's signatures are computed
  before any split is applied.
- Untouched atoms of one cell shared a signature last round, and each of
  their neighbours is still in the same cell object as then, relabelled
  uniformly, so they still share one: one representative stands for all of
  them, and a cell with no touched atom cannot split.

A full re-sort needs one round per unit of diameter, each over every atom, so
a chain of n atoms cost O(n^2); here each of its rounds touches a few atoms.

Tie-breaking by the lowest atom index is not yet a canonical form: when a
refined cell is not an automorphism orbit, the chosen atom depends on input
order (ROADMAP item 2).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from graphbpe.chem.mol import ORDER_X2, MolGraph


@dataclass(frozen=True)
class CanonicalRanking:
    """ranks: permutation of 0..n-1, each atom's position in the final,
    discrete ordered partition. symmetry_classes: dense ids of the cells of
    the first refinement fixed point, before any tie-break.

    Atoms sharing a symmetry class were indistinguishable by refinement alone;
    connection sites in one class are interchangeable attachment points. They
    are 1-WL classes, not true automorphism orbits, and the lowest-index
    tie-break that orders them is not yet a canonical form (ROADMAP item 2).
    """

    ranks: tuple[int, ...]
    symmetry_classes: tuple[int, ...]


class _OrderedPartition:
    """Cells of atoms in order. Cell ``c`` holds ``members[c]`` and covers
    positions ``start[c]`` .. ``start[c] + len(members[c]) - 1``; its label in
    signatures is ``start[c]``. ``cell_at[p]`` is the cell starting at ``p``."""

    def __init__(self, mol: MolGraph, keys: list) -> None:
        """One cell per distinct key, cells in key order."""
        n = len(keys)
        bonds = mol.bonds
        self.neighbors = [
            [(ORDER_X2[bonds[bidx].order], nbr) for nbr, bidx in mol.neighbors(i)]
            for i in range(n)
        ]
        self.cell_of = [0] * n
        self.start: list[int] = []
        self.members: list[set[int]] = []
        self.cell_at = [0] * n
        pos = 0
        for _, group in groupby(sorted(range(n), key=keys.__getitem__), key=keys.__getitem__):
            atoms = list(group)
            self._new_cell(atoms, pos)
            pos += len(atoms)

    def labels(self) -> list[int]:
        return [self.start[c] for c in self.cell_of]

    def refine(self, moved: list[int]) -> None:
        """Split cells until a fixed point; ``moved`` changed cell last."""
        neighbors, cell_of, start, members = self.neighbors, self.cell_of, self.start, self.members
        while moved:
            touched: set[int] = set()
            by_cell: dict[int, list[int]] = {}
            for atom in moved:
                for _, nbr in neighbors[atom]:
                    if nbr not in touched:
                        touched.add(nbr)
                        if len(members[cell_of[nbr]]) > 1:
                            by_cell.setdefault(cell_of[nbr], []).append(nbr)
            splits = []
            for cell, atoms in by_cell.items():
                # one untouched atom stands for all of them
                untouched = len(members[cell]) - len(atoms)
                rep = next(a for a in members[cell] if a not in touched) if untouched else -1
                if untouched:
                    atoms.append(rep)
                signed = sorted(
                    (tuple(sorted([(x2, start[cell_of[nbr]]) for x2, nbr in neighbors[a]])), a)
                    for a in atoms
                )
                # parts in signature order: [atoms that change cell, size]
                parts: list[list] = []
                kept = -1
                previous = None
                for signature, atom in signed:
                    if signature != previous:
                        parts.append([[], 0])
                        previous = signature
                    if atom == rep:
                        kept = len(parts) - 1
                        parts[-1][1] += untouched
                    else:
                        parts[-1][0].append(atom)
                        parts[-1][1] += 1
                if len(parts) > 1:
                    if kept < 0:
                        kept = max(range(len(parts)), key=lambda k: parts[k][1])
                    splits.append((cell, parts, kept))
            moved = []
            for cell, parts, kept in splits:
                pos = start[cell]
                for k, (atoms, size) in enumerate(parts):
                    if k == kept:
                        self._place(cell, pos)
                    else:
                        members[cell].difference_update(atoms)
                        self._new_cell(atoms, pos)
                        moved.extend(atoms)
                    pos += size

    def individualize_first_ambiguous(self, pos: int) -> int:
        """Give the lowest-index atom of the first cell of more than one atom
        at or after ``pos`` a cell of its own placed first, refine from it,
        and return that cell's start; ``len(atoms)`` once all are singletons."""
        cell_at, members = self.cell_at, self.members
        while pos < len(cell_at) and len(members[cell_at[pos]]) == 1:
            pos += 1
        if pos < len(cell_at):
            cell = cell_at[pos]
            chosen = min(members[cell])
            members[cell].discard(chosen)
            self._place(cell, pos + 1)
            self._new_cell([chosen], pos)
            self.refine([chosen])
        return pos

    def _place(self, cell: int, pos: int) -> None:
        self.start[cell] = pos
        self.cell_at[pos] = cell

    def _new_cell(self, atoms: list[int], pos: int) -> None:
        cell = len(self.start)
        self.start.append(pos)
        self.members.append(set(atoms))
        self.cell_at[pos] = cell
        for atom in atoms:
            self.cell_of[atom] = cell


def canonical_rank(mol: MolGraph) -> CanonicalRanking:
    n = len(mol.atoms)
    if n == 0:
        return CanonicalRanking((), ())
    seeds = [
        (a.element, a.formal_charge, a.aromatic, mol.degree(i), a.explicit_h)
        for i, a in enumerate(mol.atoms)
    ]
    partition = _OrderedPartition(mol, seeds)
    partition.refine(list(range(n)))
    labels = partition.labels()
    dense = {label: k for k, label in enumerate(sorted(set(labels)))}
    symmetry = tuple(dense[label] for label in labels)
    pos = 0
    while pos < n:
        pos = partition.individualize_first_ambiguous(pos)
    return CanonicalRanking(tuple(partition.labels()), symmetry)
