"""Fragmentize molecules with a learned operation list and extract trajectories.

Applying the operations sequentially (``graphbpe.merging.apply_operations``,
the pass the vocabulary builder runs too) reproduces the exact partition the
miner saw during vocabulary construction, so the operation list acts as a
tokenizer for arbitrary molecules. ``graphbpe.merging.extract_motifs`` turns
that partition into the molecule's one ``Fragmentation`` record, which the
vocabulary builder also counts and trajectories read. Trajectories replay a
molecule's assembly through the generator's queue discipline for roundtrip
testing and policy fitting.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from graphbpe.chem import MolGraph
from graphbpe.merging import Fragmentation, MergeOperation, apply_operations, extract_motifs


def fragmentize(mol: MolGraph, ops: list[MergeOperation]) -> Fragmentation:
    """The motifs of ``mol`` under ``ops``."""
    return extract_motifs(apply_operations(mol, ops))


@dataclass(frozen=True, slots=True)
class TrajectoryStep:
    """attach: add ``motif`` merging its star ``site`` with the focus.
    cyclize: merge the focus with the open site at ``target`` in the queue."""

    kind: str
    motif: str | None = None
    site: int | None = None
    target: int | None = None


@dataclass(frozen=True, slots=True)
class Trajectory:
    start_motif: str
    steps: tuple[TrajectoryStep, ...]


def extract_trajectory(mol: MolGraph, ops: list[MergeOperation]) -> Trajectory:
    """The assembly trajectory of ``mol`` fragmentized with ``ops``."""
    return fragmentation_trajectory(fragmentize(mol, ops))


def fragmentation_trajectory(frag: Fragmentation) -> Trajectory:
    """Ground-truth assembly order: largest motif first, then queue discipline.

    Each popped site either attaches the motif on the other side of its broken
    bond or, when that motif is already placed, records a cyclization against
    the partner's position in the open-site queue.
    """
    partner: dict[tuple[int, int], tuple[int, int]] = {}
    for link in frag.broken_bonds:
        partner[(link.motif_a, link.star_a)] = (link.motif_b, link.star_b)
        partner[(link.motif_b, link.star_b)] = (link.motif_a, link.star_a)

    def ordered_sites(motif_index: int) -> list[tuple[int, int]]:
        return [(motif_index, star) for star, _ in frag.motifs[motif_index].sites]

    start_index = min(
        range(len(frag.motifs)),
        key=lambda i: (
            -frag.motifs[i].atom_count,
            frag.motifs[i].smiles,
            frag.motifs[i].parent_atoms,
        ),
    )
    placed = {start_index}
    queue: deque[tuple[int, int]] = deque(ordered_sites(start_index))
    steps: list[TrajectoryStep] = []
    while queue:
        focus = queue.popleft()
        other_index, other_star = partner[focus]
        if other_index not in placed:
            steps.append(
                TrajectoryStep(
                    kind="attach",
                    motif=frag.motifs[other_index].smiles,
                    site=other_star,
                )
            )
            placed.add(other_index)
            queue.extend(
                site for site in ordered_sites(other_index) if site[1] != other_star
            )
        else:
            target = queue.index((other_index, other_star))
            steps.append(TrajectoryStep(kind="cyclize", target=target))
            del queue[target]
    return Trajectory(frag.motifs[start_index].smiles, tuple(steps))
