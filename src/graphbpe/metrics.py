"""Distribution-learning metrics: validity, uniqueness, novelty, KL score.

The KL score compares per-descriptor histograms of the training and generated
sets: KL(train || gen) with additive smoothing, aggregated as the mean of
exp(-KL) over descriptors. Descriptors are self-contained graph statistics,
so scores are not comparable to benchmark suites using toolkit descriptors.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from graphbpe.chem import (
    HALOGENS,
    MolGraph,
    graph_signature,
    may_fail_to_write,
    molecular_weight,
    valence_check,
    write_smiles,
)
from graphbpe.chem.mol import AROMATIC, DOUBLE, SINGLE, TRIPLE
from graphbpe.errors import GraphBpeError

_SMOOTHING = 1e-10
_CONTINUOUS_BINS = 100


@dataclass(frozen=True, slots=True)
class DescriptorVector:
    mol_weight: float
    heavy_atom_count: int
    cycle_rank: int
    aromatic_atom_fraction: float
    heteroatom_fraction: float
    halogen_count: int
    bond_order_fractions: tuple[float, float, float, float]  # single, double, triple, aromatic


def compute_descriptors(mol: MolGraph, components: int | None = None) -> DescriptorVector:
    """``components`` is ``mol.component_count()`` where the caller already
    has it (it enters the cycle rank)."""
    if components is None:
        components = mol.component_count()
    heavy = len(mol.atoms)
    aromatic = sum(1 for a in mol.atoms if a.aromatic)
    hetero = sum(1 for a in mol.atoms if a.element != "C")
    halogens = sum(1 for a in mol.atoms if a.element in HALOGENS)
    counts = {SINGLE: 0, DOUBLE: 0, TRIPLE: 0, AROMATIC: 0}
    for bond in mol.bonds:
        counts[bond.order] += 1
    total_bonds = len(mol.bonds)
    fractions = tuple(
        counts[o] / total_bonds if total_bonds else 0.0
        for o in (SINGLE, DOUBLE, TRIPLE, AROMATIC)
    )
    return DescriptorVector(
        mol_weight=molecular_weight(mol),
        heavy_atom_count=heavy,
        cycle_rank=len(mol.bonds) - heavy + components,
        aromatic_atom_fraction=aromatic / heavy,
        heteroatom_fraction=hetero / heavy,
        halogen_count=halogens,
        bond_order_fractions=fractions,
    )


# (name, is_integer) channels; the four bond-order fractions roll up into one
# descriptor score so each of the seven descriptors weighs equally
_SCALAR_CHANNELS = (
    ("mol_weight", False),
    ("heavy_atom_count", True),
    ("cycle_rank", True),
    ("aromatic_atom_fraction", False),
    ("heteroatom_fraction", False),
    ("halogen_count", True),
)
_BOND_CHANNELS = (
    "bond_frac_single",
    "bond_frac_double",
    "bond_frac_triple",
    "bond_frac_aromatic",
)
_CHANNELS = _SCALAR_CHANNELS + tuple((name, False) for name in _BOND_CHANNELS)


@dataclass
class EvalReport:
    validity: float
    uniqueness: float
    novelty: float
    kl_div_score: float
    descriptor_kl: dict[str, float]
    descriptor_scores: dict[str, float]
    valid_count: int
    unique_count: int
    novel_count: int


def _channel_values(descriptors: list[DescriptorVector]) -> dict[str, list[float]]:
    values = {name: [getattr(d, name) for d in descriptors] for name, _ in _SCALAR_CHANNELS}
    for i, name in enumerate(_BOND_CHANNELS):
        values[name] = [d.bond_order_fractions[i] for d in descriptors]
    return values


def _bin_counts(values: list[float], edges: list[float]) -> list[int]:
    """The counts ``np.histogram`` gives: bin i holds the values ``v`` with
    ``edges[i] <= v < edges[i + 1]``, and the last bin also ``edges[-1]``."""
    values = sorted(values)
    below = [bisect_left(values, edge) for edge in edges[:-1]]
    below.append(bisect_right(values, edges[-1]))
    return [high - low for low, high in zip(below, below[1:])]


def _histogram_pair(
    train: list[float], gen: list[float], integer: bool
) -> tuple[list[int], list[int]]:
    """Counts of both sets over shared bins: unit bins centred on each
    integer from the smallest to the largest value of either set, or
    ``_CONTINUOUS_BINS`` equal bins over the training range (edges as
    ``np.linspace`` places them) with generated values clipped into it."""
    if integer:
        lo = int(min(min(train), min(gen)))
        hi = int(max(max(train), max(gen)))
        edges = [i - 0.5 for i in range(lo, hi + 2)]
    else:
        lo, hi = min(train), max(train)
        if lo == hi:
            hi = lo + 1.0
        step = (hi - lo) / _CONTINUOUS_BINS
        edges = [i * step + lo for i in range(_CONTINUOUS_BINS)] + [hi]
        gen = [lo if value < lo else hi if value > hi else value for value in gen]
    return _bin_counts(train, edges), _bin_counts(gen, edges)


def _kl_divergence(p_counts: list[int], q_counts: list[int]) -> float:
    p = [count + _SMOOTHING for count in p_counts]
    q = [count + _SMOOTHING for count in q_counts]
    p_total, q_total = sum(p), sum(q)
    p = [x / p_total for x in p]
    q = [x / q_total for x in q]
    return sum(a * math.log(a / b) for a, b in zip(p, q))


def distinct(items: list) -> tuple[list, list[int]]:
    """The distinct items (by equality) in order of first appearance, and for
    each input the index of its distinct item, so that work done once per
    distinct item expands back to ``[result[i] for i in index]``."""
    position: dict = {}
    index = [position.setdefault(item, len(position)) for item in items]
    return list(position), index


def evaluate(generated: list[MolGraph], training: list[MolGraph]) -> EvalReport:
    """Compare a generated set against its training set.

    Uniqueness is computed over valid molecules and novelty over unique valid
    ones (canonical-string membership against the training set).

    Work is done per distinct graph: ``valence_check``, ``write_smiles`` and
    ``compute_descriptors`` run once for each distinct generated ``MolGraph``
    (equal atoms and bonds) and are expanded back in input order. A training
    molecule is written only when its (atom count, bond count) and then its
    ``graph_signature`` equal some valid generated graph's, since equal
    canonical strings imply equal signatures, or when ``write_smiles`` could
    fail on it (``may_fail_to_write``). Each molecule's components are
    counted once. The report, and the error raised on an unwritable input,
    are those of writing every input.
    """
    if not generated or not training:
        raise GraphBpeError("evaluate needs non-empty generated and training sets")
    graphs, index = distinct(generated)
    passes = [valence_check(g) for g in graphs]
    valid_index = [i for i in index if passes[i]]
    validity = len(valid_index) / len(generated)
    if not valid_index:
        return EvalReport(0.0, 0.0, 0.0, 0.0, {}, {}, 0, 0, 0)
    valid_graphs = [g for g, ok in zip(graphs, passes) if ok]
    unique = sorted({write_smiles(g) for g in valid_graphs})
    signatures: dict[tuple[int, int], set[int]] = {}
    for g in valid_graphs:
        signatures.setdefault((len(g.atoms), len(g.bonds)), set()).add(graph_signature(g))

    def could_match(mol: MolGraph) -> bool:
        same_size = signatures.get((len(mol.atoms), len(mol.bonds)))
        return same_size is not None and graph_signature(mol) in same_size

    train_components = [m.component_count() for m in training]
    train_strings = {
        write_smiles(m)
        for m, components in zip(training, train_components)
        if may_fail_to_write(m, components) or could_match(m)
    }
    novel = [s for s in unique if s not in train_strings]
    uniqueness = len(unique) / len(valid_index)
    novelty = len(novel) / len(unique)

    train_values = _channel_values(
        [compute_descriptors(m, c) for m, c in zip(training, train_components)]
    )
    descriptors = [compute_descriptors(g) if ok else None for g, ok in zip(graphs, passes)]
    gen_values = _channel_values([descriptors[i] for i in valid_index])
    channel_kl: dict[str, float] = {}
    channel_score: dict[str, float] = {}
    for name, integer in _CHANNELS:
        kl = _kl_divergence(
            *_histogram_pair(train_values[name], gen_values[name], integer)
        )
        channel_kl[name] = kl
        channel_score[name] = math.exp(-kl)
    bond_scores = [channel_score[name] for name in _BOND_CHANNELS]
    descriptor_scores = [channel_score[name] for name, _ in _SCALAR_CHANNELS]
    descriptor_scores.append(sum(bond_scores) / len(bond_scores))
    kl_div_score = sum(descriptor_scores) / len(descriptor_scores)
    return EvalReport(
        validity=validity,
        uniqueness=uniqueness,
        novelty=novelty,
        kl_div_score=kl_div_score,
        descriptor_kl=channel_kl,
        descriptor_scores=channel_score,
        valid_count=len(valid_index),
        unique_count=len(unique),
        novel_count=len(novel),
    )


def format_report(report: EvalReport) -> str:
    """Flat key=value block plus a per-descriptor table."""
    lines = [
        "# uniqueness is over valid molecules; novelty is over unique valid",
        "# molecules absent from the training set",
        f"validity={report.validity:.6f}",
        f"uniqueness={report.uniqueness:.6f}",
        f"novelty={report.novelty:.6f}",
        f"kl_div_score={report.kl_div_score:.6f}",
        f"valid_count={report.valid_count}",
        f"unique_count={report.unique_count}",
        f"novel_count={report.novel_count}",
        "",
        "# descriptor\tkl\texp(-kl)",
    ]
    for name in sorted(report.descriptor_kl):
        lines.append(
            f"{name}\t{report.descriptor_kl[name]:.6f}\t{report.descriptor_scores[name]:.6f}"
        )
    return "\n".join(lines) + "\n"
