from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbpe.chem import parse_smiles, write_smiles
from graphbpe.chem.mol import AROMATIC, SINGLE, valence_check
from graphbpe.errors import (
    RingClosureError,
    SmilesSyntaxError,
    UnsupportedElementError,
    ValenceError,
)
from helpers import fused_ladder_smiles, random_molecule


class TestParse:
    def test_ethane(self):
        mol = parse_smiles("CC")
        assert len(mol.atoms) == 2
        assert len(mol.bonds) == 1
        assert all(a.implicit_h == 3 for a in mol.atoms)

    def test_bromobenzene(self):
        mol = parse_smiles("Brc1ccccc1")
        assert len(mol.atoms) == 7
        aromatic_bonds = [b for b in mol.bonds if b.order == AROMATIC]
        assert len(aromatic_bonds) == 6
        br = next(i for i, a in enumerate(mol.atoms) if a.element == "Br")
        (nbr, bidx), = mol.neighbors(br)
        assert mol.bonds[bidx].order == SINGLE
        assert mol.atoms[nbr].aromatic

    def test_eight_ring_aromatic_rejected_as_valence_violation(self):
        with pytest.raises(ValenceError):
            parse_smiles("c1ccccccc1")

    def test_eight_ring_parses_structurally_without_validation(self):
        mol = parse_smiles("c1ccccccc1", validate=False)
        assert len(mol.atoms) == 8
        assert valence_check(mol)  # per-atom table alone cannot reject it

    def test_bracket_atoms(self):
        mol = parse_smiles("C[NH3+]")
        n = mol.atoms[1]
        assert (n.element, n.formal_charge, n.explicit_h, n.bracket) == ("N", 1, 3, True)
        mol = parse_smiles("c1cc[nH]c1")
        nh = next(a for a in mol.atoms if a.element == "N")
        assert nh.explicit_h == 1 and nh.aromatic

    def test_charge_spellings(self):
        assert parse_smiles("C[N+](C)(C)C").atoms[1].formal_charge == 1
        m1 = parse_smiles("[N++](C)(C)(C)C", validate=False)
        m2 = parse_smiles("[N+2](C)(C)(C)C", validate=False)
        assert m1.atoms[0].formal_charge == m2.atoms[0].formal_charge == 2

    def test_star_atoms(self):
        mol = parse_smiles("*CN")
        assert mol.atoms[0].is_connection_site
        assert mol.degree(0) == 1
        aromatic_site = parse_smiles("*:c:c:c:c:*")
        stars = [a for a in aromatic_site.atoms if a.is_connection_site]
        assert len(stars) == 2 and not any(a.aromatic for a in stars)

    def test_ring_closure_variants(self):
        ref = write_smiles(parse_smiles("C1CCCCC1"))
        assert write_smiles(parse_smiles("C=1CCCCC=1")) != ref  # double closure differs
        assert write_smiles(parse_smiles("C%12CCCCC%12")) == ref

    @pytest.mark.parametrize(
        "text,error",
        [
            ("", SmilesSyntaxError),
            ("C(", SmilesSyntaxError),
            ("C)", SmilesSyntaxError),
            ("C=", SmilesSyntaxError),
            ("C==C", SmilesSyntaxError),
            ("C1CC", RingClosureError),
            ("C11", RingClosureError),
            ("C1CC1C1", RingClosureError),
            ("C.C", SmilesSyntaxError),
            ("C/C=C/C", SmilesSyntaxError),
            ("[13C]", SmilesSyntaxError),
            ("[C@H](C)(N)O", SmilesSyntaxError),
            ("Si", UnsupportedElementError),
            ("[Se]", UnsupportedElementError),
            ("C:C", SmilesSyntaxError),
            ("[*H]", SmilesSyntaxError),
        ],
    )
    def test_rejects(self, text, error):
        with pytest.raises(error):
            parse_smiles(text)

    def test_error_position_reported(self):
        with pytest.raises(SmilesSyntaxError) as info:
            parse_smiles("CC.CC")
        assert info.value.position == 2

    @pytest.mark.parametrize("text", ["N(C)(C)(C)C", "[C]", "O=C=O=C", "F=F"])
    def test_valence_violations(self, text):
        with pytest.raises(ValenceError):
            parse_smiles(text)


class TestWrite:
    def test_benzene_rotations_identical(self):
        variants = ["c1ccccc1", "c1ccccc1".replace("1", "2"), "c1:c:c:c:c:c:1"]
        outputs = {write_smiles(parse_smiles(s)) for s in variants}
        assert len(outputs) == 1

    def test_canonical_orients_heteroatom_pairs(self):
        assert write_smiles(parse_smiles("NC")) == "CN"
        assert write_smiles(parse_smiles("O=C")) == "C=O"

    def test_aromatic_bonds_written_explicitly(self):
        out = write_smiles(parse_smiles("c1ccccc1"))
        assert ":" in out

    def test_single_bond_between_aromatic_atoms_explicit(self):
        out = write_smiles(parse_smiles("c1ccccc1-c1ccccc1"))
        assert "-" in out
        again = parse_smiles(out)
        assert write_smiles(again) == out

    def test_star_motif_roundtrip(self):
        assert write_smiles(parse_smiles("*Br")) == "*Br"
        assert write_smiles(parse_smiles("Br*")) == "*Br"

    def test_corpus_roundtrip_fixed_point(self, corpus_1k):
        _, mols = corpus_1k
        for mol in mols[::10]:
            once = write_smiles(mol)
            assert write_smiles(parse_smiles(once)) == once

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_molecule_roundtrip(self, seed):
        mol = random_molecule(Random(seed), max_atoms=12)
        text = write_smiles(mol)
        reparsed = parse_smiles(text)
        assert write_smiles(reparsed) == text
        assert len(reparsed.atoms) == len(mol.atoms)
        assert len(reparsed.bonds) == len(mol.bonds)

    def test_too_many_open_rings_is_a_ring_closure_error(self):
        # 602 atoms: the zigzag input needs two ring labels, the canonical
        # traversal more than the 99 that SMILES can spell
        mol = parse_smiles(fused_ladder_smiles(150))
        with pytest.raises(RingClosureError, match="too many simultaneously open rings"):
            write_smiles(mol)

    def test_valence_closure_on_accepted_strings(self, corpus_1k):
        _, mols = corpus_1k
        assert all(valence_check(m) for m in mols)
