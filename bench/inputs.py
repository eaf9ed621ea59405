"""Seeded workload inputs: a drug-like corpus and a large-molecule size series.

Drug-like molecules come from the fixture generator's ``grow_molecule``
(imported, not copied, so the benchmark corpus and the committed 1k fixture
share one distribution). Large molecules are built atom by atom with the same
``Builder``, so every input passes the package's own valence model.
"""
from __future__ import annotations

import statistics
import sys
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests" / "fixtures"))

from make_corpus import Builder, grow_molecule  # noqa: E402

from graphbpe import parse_smiles, write_smiles  # noqa: E402

# heavy-atom targets of the size series; each kind is built at every size
LARGE_SIZES = (100, 200, 400, 800)
LARGE_KINDS = ("chain", "peptide", "ladder", "linked")
# mine and fragmentize see the series up to this size; write_smiles sees all
LARGE_MINE_MAX = 200
_LADDER_BLOCK = 200

# the repetitive kinds are fixed: their element pattern decides which merge
# operations are learned and how large the merged fragments grow; seeded end
# groups and side chains moved the atoms mine serializes 2.4x between seeds.
# The seed varies the linked molecules only.
_PEPTIDE_UNIT = (("C",), ("C", "O"))  # alanine, serine


def drug_like(rng: Random, count: int) -> list[str]:
    """``count`` distinct canonical SMILES of drug-like molecules."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        mol = grow_molecule(rng)
        if mol is None:
            continue
        smiles = write_smiles(mol)
        if smiles not in seen:
            seen.add(smiles)
            out.append(smiles)
    return out


def _chain(rng: Random, size: int) -> Builder:
    """Unbranched alkyl chain capped by a hydroxyl."""
    b = Builder(rng)
    last = b.add_atom("O")
    while b.heavy_atoms() < size:
        atom = b.add_atom("C")
        b.add_bond(last, atom, "single")
        last = atom
    return b


def _peptide(rng: Random, size: int) -> Builder:
    """Backbone N-CA-C(=O) residues with a repeating two-residue unit."""
    b = Builder(rng)
    carbonyl = None
    residue = 0
    while b.heavy_atoms() < size:
        n = b.add_atom("N")
        if carbonyl is not None:
            b.add_bond(carbonyl, n, "single")
        ca = b.add_atom("C")
        b.add_bond(n, ca, "single")
        host = ca
        for element in _PEPTIDE_UNIT[residue % len(_PEPTIDE_UNIT)]:
            atom = b.add_atom(element)
            b.add_bond(host, atom, "single")
            host = atom
        residue += 1
        carbonyl = b.add_atom("C")
        b.add_bond(ca, carbonyl, "single")
        b.add_bond(carbonyl, b.add_atom("O"), "double")
    b.add_bond(carbonyl, b.add_atom("O"), "single")
    return b


def _ladder(rng: Random, size: int) -> Builder:
    """Linearly fused saturated six-rings capped by an amine.

    A new block starts every ``_LADDER_BLOCK`` atoms, joined by one single
    bond: the canonical writer keeps one ring label open per rung and has 99
    labels, so one fused block of 800 atoms cannot be written.
    """
    b = Builder(rng)
    u, v = b.add_atom("C"), b.add_atom("C")
    b.add_bond(u, v, "single")
    b.add_bond(u, b.add_atom("N"), "single")
    while b.heavy_atoms() < size:
        if b.heavy_atoms() % _LADDER_BLOCK < 4 and b.heavy_atoms() > 4:
            u2, v2 = b.add_atom("C"), b.add_atom("C")
            b.add_bond(u, u2, "single")
            b.add_bond(u2, v2, "single")
            u, v = u2, v2
        top = b.add_atom("C")
        bottom = b.add_atom("C")
        u2, v2 = b.add_atom("C"), b.add_atom("C")
        b.add_bond(u, top, "single")
        b.add_bond(top, u2, "single")
        b.add_bond(v, bottom, "single")
        b.add_bond(bottom, v2, "single")
        b.add_bond(u2, v2, "single")
        u, v = u2, v2
    return b


def _linked(rng: Random, size: int) -> Builder:
    """Drug-like molecules joined by single bonds between atoms bearing H."""
    b = Builder(rng)
    while b.heavy_atoms() < size:
        part = grow_molecule(rng)
        if part is None or not any(atom.implicit_h for atom in part.atoms):
            continue
        hosts = b.open_atoms(2)
        if b.heavy_atoms() and not hosts:
            raise RuntimeError("linked molecule has no atom left to bond to")
        new_atoms = b.import_template(write_smiles(part))
        if hosts:
            anchors = [i for i in new_atoms if b.free_x2(i) >= 2]
            b.add_bond(rng.choice(hosts), rng.choice(anchors), "single")
    return b


_BUILDERS = {"chain": _chain, "peptide": _peptide, "ladder": _ladder, "linked": _linked}


def large_series(rng: Random) -> list[tuple[str, int, str]]:
    """(kind, size target, canonical SMILES) for every kind at every size."""
    out = []
    for size in LARGE_SIZES:
        for kind in LARGE_KINDS:
            mol = _BUILDERS[kind](rng, size).build()
            smiles = write_smiles(mol)
            parse_smiles(smiles)  # raises unless the valence model accepts it
            out.append((kind, size, smiles))
    return out


def heavy_atom_summary(smiles: list[str]) -> dict:
    """Heavy-atom count distribution of an input set."""
    sizes = sorted(len(parse_smiles(s).atoms) for s in smiles)
    return {
        "molecules": len(sizes),
        "min": sizes[0],
        "median": statistics.median(sizes),
        "max": sizes[-1],
        "total": sum(sizes),
    }
