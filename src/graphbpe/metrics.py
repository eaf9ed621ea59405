"""Distribution-learning metrics: validity, uniqueness, novelty, KL score.

The KL score compares per-descriptor histograms of the training and generated
sets: KL(train || gen) with additive smoothing, aggregated as the mean of
exp(-KL) over descriptors. Descriptors are self-contained graph statistics,
so scores are not comparable to benchmark suites using toolkit descriptors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from graphbpe.chem import HALOGENS, MolGraph, molecular_weight, valence_check, write_smiles
from graphbpe.chem.mol import AROMATIC, DOUBLE, SINGLE, TRIPLE
from graphbpe.errors import GraphBpeError

_SMOOTHING = 1e-10
_CONTINUOUS_BINS = 100


@dataclass(frozen=True)
class DescriptorVector:
    mol_weight: float
    heavy_atom_count: int
    cycle_rank: int
    aromatic_atom_fraction: float
    heteroatom_fraction: float
    halogen_count: int
    bond_order_fractions: tuple[float, float, float, float]  # single, double, triple, aromatic


def compute_descriptors(mol: MolGraph) -> DescriptorVector:
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
        cycle_rank=len(mol.bonds) - heavy + mol.component_count(),
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


def _channel_values(descriptors: list[DescriptorVector]) -> dict[str, np.ndarray]:
    values: dict[str, np.ndarray] = {}
    for name, _ in _SCALAR_CHANNELS:
        values[name] = np.array([getattr(d, name) for d in descriptors], dtype=float)
    for i, name in enumerate(_BOND_CHANNELS):
        values[name] = np.array(
            [d.bond_order_fractions[i] for d in descriptors], dtype=float
        )
    return values


def _histogram_pair(
    train: np.ndarray, gen: np.ndarray, integer: bool
) -> tuple[np.ndarray, np.ndarray]:
    if integer:
        lo = int(min(train.min(), gen.min()))
        hi = int(max(train.max(), gen.max()))
        edges = np.arange(lo - 0.5, hi + 1.5)
    else:
        lo, hi = float(train.min()), float(train.max())
        if lo == hi:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, _CONTINUOUS_BINS + 1)
        gen = np.clip(gen, lo, hi)
    p, _ = np.histogram(train, bins=edges)
    q, _ = np.histogram(gen, bins=edges)
    return p.astype(float), q.astype(float)


def _kl_divergence(p_counts: np.ndarray, q_counts: np.ndarray) -> float:
    p = p_counts + _SMOOTHING
    q = q_counts + _SMOOTHING
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))


def evaluate(generated: list[MolGraph], training: list[MolGraph]) -> EvalReport:
    """Compare a generated set against its training set.

    Uniqueness is computed over valid molecules and novelty over unique valid
    ones (canonical-string membership against the training set).
    """
    if not generated or not training:
        raise GraphBpeError("evaluate needs non-empty generated and training sets")
    valid = [m for m in generated if valence_check(m)]
    validity = len(valid) / len(generated)
    if not valid:
        return EvalReport(0.0, 0.0, 0.0, 0.0, {}, {}, 0, 0, 0)
    canonical = [write_smiles(m) for m in valid]
    unique = sorted(set(canonical))
    train_strings = {write_smiles(m) for m in training}
    novel = [s for s in unique if s not in train_strings]
    uniqueness = len(unique) / len(valid)
    novelty = len(novel) / len(unique)

    train_values = _channel_values([compute_descriptors(m) for m in training])
    gen_values = _channel_values([compute_descriptors(m) for m in valid])
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
        valid_count=len(valid),
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
