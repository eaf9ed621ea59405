"""Deterministic canonical atom ranking via ordered partition refinement.

Morgan-style 1-WL refinement over an ordered partition of the atoms. Cells
start sorted by each atom's local invariants. Each synchronous round splits
every cell by the sorted multiset of (bond order, neighbour cell) signatures
computed against the previous round's partition, and lays the parts out in
signature order inside the cell's range, until a round splits nothing. Then
the lowest-index atom of the first ambiguous cell is moved into a cell of its
own placed first, and refinement resumes, until every cell is one atom.
Signatures are compared exactly (no hashing), so equal cells are structurally
equal. When refinement alone leaves every cell one atom, which is most small
graphs, no tie-break runs: the ranks are the refined labels and equal the
symmetry classes, and ``canonical_rank`` returns one tuple as both.

Each neighbour term of a signature is one int, ``x2 * (n + 1) + label``,
where ``x2`` is twice the bond order and ``label`` the neighbour cell's start
position. A label lies in 0..n-1, below ``n + 1``, so the int is the pair
(x2, label) written in base n + 1 and compares exactly as the pair would.
An atom's key is its term at degree 1, its terms ``x <= y`` folded into
``x * B + y`` at degree 2, where ``B = 7 * (n + 1)`` is above every term
(``x2`` is at most 6), and its sorted term list otherwise; among atoms of one
degree, keys order like sorted pair lists. Keys meet only within a cell, and
every atom of a cell has the same degree: seeds carry the degree, and
``tie_broken_ranks`` starts from symmetry classes, which refine the seeds.
Each bond's weight ``x2 * (n + 1)`` is computed at most once per call.

Two refinements compute this partition, chosen by atom count: flat rounds
up to ``FLAT_MAX_ATOMS`` atoms and touched-atom refinement above;
``tie_broken_ranks`` follows the same rule. Both give the partition that
re-sorting every atom in every round gives, so ranks, symmetry classes and
strings do not depend on the choice.

Flat rounds are that full re-sort. The partition is one label per atom,
its cell's start position. Each round signs every atom of every cell of
more than one atom against the previous round's labels, sorts (label,
signature, atom) once, and gives each part the start of its run inside its
cell. When the seeds alone separate every atom, no bond weight is built.

Touched-atom refinement (McKay & Piperno, *Practical Graph Isomorphism II*,
2014). A cell's label is its start position in the ordered partition. When a
cell splits, one part keeps the cell (its start moves in O(1)) and only the
atoms of the other parts change cell. A round then computes signatures only
for atoms next to an atom that changed cell in the previous round, plus one
untouched representative per affected cell; the first round, after which
every atom counts as moved, signs every atom of every cell of more than one
atom. This gives exactly the partition that re-sorting every atom in every
round would give:

- Start labels are a strictly increasing function of the dense class ids a
  full re-sort renumbers to, so every signature comparison keeps its order.
- Rounds stay synchronous: every affected cell's signatures are computed
  before any split is applied.
- Untouched atoms of one cell shared a signature last round, and each of
  their neighbours is still in the same cell object as then, relabelled
  uniformly, so they still share one: one representative stands for all of
  them, and a cell with no touched atom cannot split.

A full re-sort needs one round per unit of diameter, each over every atom, so
with flat rounds a chain of n atoms costs O(n^2), while touched-atom rounds
each touch a few atoms; on small graphs that bookkeeping costs more than it
saves. On a 2-core host (Python 3.11.7), flat rounds ranked the graphs that
mining and fragmentizing drug-like molecules rank 2.0x faster in each size
bin of 13-28 atoms and the bench's large-molecule ones 1.3-1.6x faster, but
lost on chains and rings from 20 atoms (0.73x at 24) and on large-molecule
unions of 29-32 atoms (0.61x): hence ``FLAT_MAX_ATOMS`` = 24.

One function, ``break_ties(partition, choose)``, breaks ties through either
partition's ``first_ambiguous_cell`` and ``individualize``. ``canonical_rank``
chooses by lowest atom index, ``tie_broken_ranks`` by ``priority[atom]``.
The index rule is not yet a canonical form: when a refined cell is not an
automorphism orbit, the chosen atom depends on input order (ROADMAP item 2).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from graphbpe.chem.mol import ORDER_X2, MolGraph

# graphs of at most this many atoms are refined by flat rounds, larger ones
# by touched-atom refinement (see the module docstring)
FLAT_MAX_ATOMS = 24


@dataclass(frozen=True, slots=True)
class CanonicalRanking:
    """ranks: permutation of 0..n-1, each atom's position in the final,
    discrete ordered partition. symmetry_classes: dense ids of the cells of
    the first refinement fixed point, before any tie-break.

    Atoms sharing a symmetry class were indistinguishable by refinement alone;
    connection sites in one class are interchangeable attachment points. They
    are 1-WL classes, not true automorphism orbits, and the lowest-index
    tie-break that orders them is not yet a canonical form (ROADMAP item 2).
    When refinement alone separated every atom, ``ranks`` and
    ``symmetry_classes`` are the same tuple, so ``ranks != symmetry_classes``
    exactly when a tie was broken.
    """

    ranks: tuple[int, ...]
    symmetry_classes: tuple[int, ...]


class _OrderedPartition:
    """Cells of atoms in order. Cell ``c`` holds ``members[c]`` and covers
    positions ``start[c]`` .. ``start[c] + len(members[c]) - 1``; its label in
    signatures is ``start[c]``. ``cell_at[p]`` is the cell starting at ``p``.
    ``neighbors[i]`` holds (neighbour, bond) per bond of atom ``i`` (the
    graph's own neighbour tuples), and the term of a neighbour across bond
    ``b`` is ``weight[b]``, its x2 * (n + 1), plus the neighbour's label."""

    def __init__(self, mol: MolGraph, keys: list) -> None:
        """One cell per distinct key, cells in key order."""
        n = len(keys)
        self.weight = [ORDER_X2[bond.order] * (n + 1) for bond in mol.bonds]
        self.neighbors = mol._adjacency
        cell_of, cell_at, start, members, previous = [0] * n, [0] * n, [], [], None
        for pos, atom in enumerate(sorted(range(n), key=keys.__getitem__)):
            if keys[atom] != previous:
                previous, cell_at[pos] = keys[atom], len(start)
                start.append(pos)
                members.append(set())
            cell_of[atom] = len(start) - 1
            members[-1].add(atom)
        self.cell_of, self.cell_at, self.start, self.members = cell_of, cell_at, start, members
        self.scan = 0  # positions before it hold single-atom cells

    def labels(self) -> list[int]:
        start = self.start
        return [start[c] for c in self.cell_of]

    def refine(self, moved: list[int] | None = None) -> None:
        """Split cells until a fixed point; ``moved`` changed cell last
        (``None``: every atom did, so the first round signs every atom).
        A round sorts (key, atom) per cell over the atoms it signs."""
        neighbors, weight, cell_of, start = self.neighbors, self.weight, self.cell_of, self.start
        members, cell_at, base = self.members, self.cell_at, 7 * (len(cell_of) + 1)
        if moved is None:
            touched: set[int] = set()
            by_cell = {c: list(atoms) for c, atoms in enumerate(members) if len(atoms) > 1}
        else:
            touched, by_cell = self._touched(moved)
        while by_cell:
            splits = []
            for cell, atoms in by_cell.items():
                # one untouched atom stands for all of them
                untouched = len(members[cell]) - len(atoms)
                rep = -1
                if untouched:
                    for rep in members[cell]:
                        if rep not in touched:
                            break
                    atoms.append(rep)
                signed = []
                for a in atoms:
                    pairs = neighbors[a]
                    if len(pairs) == 2:
                        (i, b), (j, c) = pairs
                        x, y = weight[b] + start[cell_of[i]], weight[c] + start[cell_of[j]]
                        key = x * base + y if x < y else y * base + x
                    elif len(pairs) == 1:
                        key = weight[pairs[0][1]] + start[cell_of[pairs[0][0]]]
                    else:
                        key = sorted([weight[b] + start[cell_of[i]] for i, b in pairs])
                    signed.append((key, a))
                signed.sort()
                if signed[0][0] == signed[-1][0]:
                    continue
                # parts in signature order: [atoms that change cell, size]
                parts: list[list] = []
                kept = -1
                previous = None
                for signature, atom in signed:
                    if signature != previous:
                        part = [[], 0]
                        parts.append(part)
                        previous = signature
                    if atom == rep:
                        kept = len(parts) - 1
                        part[1] += untouched
                    else:
                        part[0].append(atom)
                        part[1] += 1
                if kept < 0:
                    kept = max(range(len(parts)), key=lambda k: parts[k][1])
                splits.append((cell, parts, kept))
            moved = []
            for cell, parts, kept in splits:
                pos = start[cell]
                for k, (atoms, size) in enumerate(parts):
                    if k == kept:
                        start[cell] = pos
                        cell_at[pos] = cell
                    else:
                        members[cell].difference_update(atoms)
                        new = len(start)
                        start.append(pos)
                        members.append(set(atoms))
                        cell_at[pos] = new
                        for atom in atoms:
                            cell_of[atom] = new
                        moved += atoms
                    pos += size
            touched, by_cell = self._touched(moved)

    def _touched(self, moved: list[int]) -> tuple[set[int], dict[int, list[int]]]:
        """The neighbours of ``moved``, and those of them in cells of more
        than one atom grouped by cell: the atoms the next round signs."""
        neighbors, cell_of, members = self.neighbors, self.cell_of, self.members
        touched: set[int] = set()
        by_cell: dict[int, list[int]] = {}
        for atom in moved:
            for nbr, _ in neighbors[atom]:
                if nbr not in touched:
                    touched.add(nbr)
                    cell = cell_of[nbr]
                    if len(members[cell]) > 1:
                        if cell in by_cell:
                            by_cell[cell].append(nbr)
                        else:
                            by_cell[cell] = [nbr]
        return touched, by_cell

    def first_ambiguous_cell(self) -> set[int]:
        """The members of the first cell of more than one atom, empty once
        every cell is one atom. Cells only split in place, so the scan
        resumes where the last call stopped: k ties cost one pass."""
        cell_at, members, pos, cells = self.cell_at, self.members, self.scan, len(self.start)
        while cells < len(cell_at) and len(members[cell_at[pos]]) == 1:
            pos += 1
        self.scan = pos
        return members[cell_at[pos]] if cells < len(cell_at) else set()

    def individualize(self, atom: int) -> None:
        """Give ``atom`` its cell's start, move the rest of the cell up one
        and refine from ``atom``."""
        cell, members, start, cell_at = self.cell_of[atom], self.members, self.start, self.cell_at
        pos = start[cell]
        members[cell].discard(atom)
        start[cell], cell_at[pos + 1] = pos + 1, cell
        cell_at[pos] = self.cell_of[atom] = len(start)
        start.append(pos)
        members.append({atom})
        self.refine([atom])


class _FlatPartition:
    """The ordered partition of ``_OrderedPartition`` kept as one label per
    atom, the start position of its cell, and refined by synchronous rounds
    that re-sign every atom of every cell of more than one atom, the atoms
    ``active`` holds in label order."""

    def __init__(self, mol: MolGraph, keys: list) -> None:
        """One cell per distinct key, cells in key order."""
        n = len(keys)
        label, active, previous = [0] * n, [], None
        order = sorted(range(n), key=keys.__getitem__)
        for pos, atom in enumerate(order):
            if keys[atom] != previous:
                start, previous = pos, keys[atom]
            elif pos == start + 1:
                active += (order[start], atom)
            else:
                active.append(atom)
            label[atom] = start
        self.label, self.active, self.neighbors = label, active, mol._adjacency
        self.weight = [ORDER_X2[bond.order] * (n + 1) for bond in mol.bonds] if active else []

    def labels(self) -> list[int]:
        return self.label

    def refine(self) -> None:
        """Rounds until one splits nothing. Each sorts (label, key, atom)
        over the active atoms once, so every cell's parts come out in key
        order, and gives each part its start in the cell's range."""
        label, active, neighbors, weight = self.label, self.active, self.neighbors, self.weight
        base = 7 * (len(label) + 1)
        split = True
        while split and active:
            signed = []
            for a in active:
                pairs = neighbors[a]
                if len(pairs) == 2:
                    (i, b), (j, c) = pairs
                    x, y = weight[b] + label[i], weight[c] + label[j]
                    key = x * base + y if x < y else y * base + x
                elif len(pairs) == 1:
                    key = weight[pairs[0][1]] + label[pairs[0][0]]
                else:
                    key = sorted([weight[b] + label[i] for i, b in pairs])
                signed.append((label[a], key, a))
            signed.sort()
            split = False
            active = []
            part: list[int] = []
            cell = part_start = -1
            for old, signature, atom in signed:
                if old == cell:
                    pos += 1
                    if signature != previous:
                        start, split = pos, True
                else:
                    cell = start = pos = old
                previous = signature
                label[atom] = start
                if start == part_start:
                    part.append(atom)
                else:
                    if len(part) > 1:
                        active += part
                    part, part_start = [atom], start
            if len(part) > 1:
                active += part
        self.active = active

    def first_ambiguous_cell(self) -> list[int]:
        """As ``_OrderedPartition.first_ambiguous_cell``; it leads ``active``."""
        label, active = self.label, self.active
        if not active:
            return active
        first = label[active[0]]
        return [atom for atom in active if label[atom] == first]

    def individualize(self, atom: int) -> None:
        """As ``_OrderedPartition.individualize``, by flat rounds."""
        label, active, first = self.label, self.active, self.label[atom]
        active.remove(atom)
        for other in active:  # the cell leads ``active``
            if label[other] != first:
                break
            label[other] = first + 1
        self.refine()


def _partition(mol: MolGraph, keys: list):
    """The ordered partition of ``keys``: flat rounds up to
    ``FLAT_MAX_ATOMS`` atoms, touched-atom refinement above."""
    return (_FlatPartition if len(keys) <= FLAT_MAX_ATOMS else _OrderedPartition)(mol, keys)


def break_ties(partition, choose) -> tuple[int, ...]:
    """The labels of the refined ``partition`` once every tie is broken:
    while a cell holds more than one atom, the first such cell's atom
    ``choose(members)`` is individualized."""
    while cell := partition.first_ambiguous_cell():
        partition.individualize(choose(cell))
    return tuple(partition.labels())


def canonical_rank(mol: MolGraph) -> CanonicalRanking:
    """Refine the atoms of ``mol`` from their local invariants, by flat
    rounds up to ``FLAT_MAX_ATOMS`` atoms and by touched-atom refinement
    above, which give the same partition; return as soon as that separates
    every atom, else ``break_ties`` with ``min``, the lowest atom index.

    Cells start in seed order and only ever split in place, so the rank-0
    atom has the least seed, and so the least (element, formal charge,
    aromatic) prefix of any atom: ``graphbpe.chem.leading_key`` bounds the
    first token ``write_smiles`` writes by it."""
    n = len(mol.atoms)
    if n == 0:
        return CanonicalRanking((), ())
    adjacency = mol._adjacency
    # leading_key relies on these three fields coming first
    seeds = [
        (a.element, a.formal_charge, a.aromatic, len(adjacency[i]), a.explicit_h)
        for i, a in enumerate(mol.atoms)
    ]
    partition = _partition(mol, seeds)
    partition.refine()
    labels = tuple(partition.labels())
    if not partition.first_ambiguous_cell():
        # refinement alone separated every atom: the labels are 0..n-1
        return CanonicalRanking(labels, labels)
    dense = {label: k for k, label in enumerate(sorted(set(labels)))}
    symmetry = tuple([dense[label] for label in labels])
    return CanonicalRanking(break_ties(partition, min), symmetry)


def tie_broken_ranks(mol: MolGraph, symmetry_classes, priority) -> tuple[int, ...]:
    """The ranks ``canonical_rank`` gives ``mol`` when ``break_ties``
    chooses the lowest ``priority[atom]``, from the cells of
    ``symmetry_classes`` in class order: the refinement fixed point, so only
    the tie-breaks run again. With ``priority[atom]`` an atom's position in
    a relabelling, these are the relabelled graph's ranks, by old atom id."""
    return break_ties(_partition(mol, symmetry_classes), partial(min, key=priority.__getitem__))
