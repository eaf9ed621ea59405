import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbpe.chem import may_fail_to_write, parse_smiles, write_smiles, write_smiles_with_order
from graphbpe.chem.mol import AROMATIC, SINGLE, Atom, MolGraph, make_bond, valence_check
from graphbpe.errors import (
    GraphBpeError,
    RingClosureError,
    SmilesSyntaxError,
    UnsupportedElementError,
    ValenceError,
)
from graphbpe.miner import build_motif_vocabulary
from helpers import fused_ladder_smiles, random_molecule, reference_parse_smiles

FUZZ_ALPHABET = "CNOSPFIBrlcnospbH[]()%=#-:+*@./\\0123456789"


def outcome(text: str, validate: bool, parse=parse_smiles):
    """The graph ``parse`` returns, or the type, message and position of the
    error it raises."""
    try:
        return parse(text, validate=validate)
    except GraphBpeError as error:
        return type(error), str(error), getattr(error, "position", None)


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
            ("C²", SmilesSyntaxError),  # a digit that int() cannot read
        ],
    )
    def test_rejects(self, text, error):
        with pytest.raises(error):
            parse_smiles(text)

    def test_error_position_reported(self):
        with pytest.raises(SmilesSyntaxError) as info:
            parse_smiles("CC.CC")
        assert info.value.position == 2

    @pytest.mark.parametrize("text, position", [("CSi", 1), ("CX", 1), ("Xe", 0), ("C[Si]", 2)])
    def test_unsupported_element_position_reported(self, text, position):
        with pytest.raises(UnsupportedElementError) as info:
            parse_smiles(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text", ["N(C)(C)(C)C", "[C]", "O=C=O=C", "F=F"])
    def test_valence_violations(self, text):
        with pytest.raises(ValenceError):
            parse_smiles(text)

    @settings(max_examples=400, deadline=None)
    @given(st.text(FUZZ_ALPHABET, max_size=24), st.booleans())
    def test_fuzz_raises_only_graphbpe_errors_and_roundtrips(self, text, validate):
        try:
            mol = parse_smiles(text, validate=validate)
        except GraphBpeError:
            return
        # no string fixed point: the canonical form is not yet invariant
        again = parse_smiles(write_smiles(mol), validate=validate)
        assert (len(again.atoms), len(again.bonds)) == (len(mol.atoms), len(mol.bonds))


class TestReferenceParser:
    """The token parser against the character-loop parser it replaced: equal
    graphs (atoms, bonds and their order), or errors of the same type,
    message and position."""

    @settings(max_examples=1000, deadline=None)
    @given(st.text(FUZZ_ALPHABET, max_size=24), st.booleans())
    def test_fuzz(self, text, validate):
        assert outcome(text, validate) == outcome(text, validate, reference_parse_smiles)

    @pytest.mark.parametrize(
        "text",
        [
            "C(%5", "C%5", "C%5C", "(%0", "C%123", "C(C1)1", "C11", "C1CC1C1", "C=1CC-1",
            "CSi", "CSc", "Bc1ccccc1", "Cé", "C中", "CÉ", "C٣CC٣", "[13C]", "[]", "[C", "C[",
            "[*]C", "*", "[Cl-]", "[NH4+]", "[O--]", "[N+3]", "[Si]", "C\n", "HC", "Ca",
        ],
    )
    def test_edge_cases(self, text):
        for validate in (True, False):
            assert outcome(text, validate) == outcome(text, validate, reference_parse_smiles)

    def test_fixture_corpus_and_vocabulary(self, corpus_1k, ops_500):
        lines = (Path(__file__).parent / "fixtures" / "corpus_1k.smi").read_text().splitlines()
        texts = [line.split()[0] for line in lines]
        vocab = build_motif_vocabulary(corpus_1k[1], ops_500[:200])
        texts += list(vocab.motifs)
        assert len(texts) > 2500
        for text in texts:
            for validate in (True, False):
                assert outcome(text, validate) == outcome(text, validate, reference_parse_smiles)

    @settings(max_examples=300, deadline=None)
    @given(st.text(FUZZ_ALPHABET, max_size=24))
    def test_parsed_graphs_are_connected(self, text):
        # every atom after the first is bonded to the atom before it in the
        # text or to a branch point, and "." is rejected: no DFS is needed
        try:
            mol = parse_smiles(text, validate=False)
        except GraphBpeError:
            return
        assert mol.component_count() == 1


def test_parse_scaling_near_linear():
    def parse_time(text):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            parse_smiles(text)
            best = min(best, time.perf_counter() - start)
        return best

    # linear would be 4x and quadratic 16x
    pairs = (("C" * 400, "C" * 1600), (fused_ladder_smiles(25), fused_ladder_smiles(100)))
    for small, large in pairs:
        t1, t2 = parse_time(small), parse_time(large)
        assert t2 <= 8 * t1, f"{len(small)} chars {t1:.4f}s, {len(large)} chars {t2:.4f}s"


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

    @pytest.mark.parametrize(
        "text,expected,order",
        [
            # two-digit labels %10-%12
            (
                fused_ladder_smiles(12),
                "C1CCC2CC3CC4CC5CC6CC7CC8CC9CC%10CC%11CC%12CCCCC%12CC%11CC%10"
                "CC9CC8CC7CC6CC5CC4CC3CC2C1",
                [0, 2, 3, 4, 5, 10, 11, 12, 13, 18, 19, 20, 21, 26, 27, 28, 29,
                 34, 35, 36, 37, 42, 43, 44, 45, 49, 48, 47, 46, 41, 40, 39, 38,
                 33, 32, 31, 30, 25, 24, 23, 22, 17, 16, 15, 14, 9, 8, 7, 6, 1],
            ),
            # a digit reused once its ring has closed
            ("C1CC1CC1CC1", "C1CC1CC1CC1", [0, 1, 2, 3, 4, 5, 6]),
            # reuse while another ring is open; closes written in digit order
            (
                "c1ccc2c(c1)ccc1ccccc12",
                "c1:c:c:c2:c(:c:1):c:c:c1:c:c:c:c:c:1:2",
                list(range(14)),
            ),
            ("C1CCC2(C1)CCCC2", "C1CCC2(C1)CCCC2", list(range(9))),
            # nested branches
            (
                "CC(C)(C(C)(CO)C(N)=O)C(C)(C)N",
                "CC(C)(C(C)(C)N)C(C)(CO)C(N)=O",
                [0, 1, 2, 10, 11, 12, 13, 3, 4, 5, 6, 7, 8, 9],
            ),
            # a single bond between two aromatic atoms is written as "-"
            (
                "c1ccccc1-c1ccccc1",
                "c1:c:c:c(:c:c:1)-c1:c:c:c:c:c:1",
                [2, 1, 0, 5, 4, 3, 6, 7, 8, 9, 10, 11],
            ),
        ],
    )
    def test_golden_strings(self, text, expected, order):
        assert write_smiles_with_order(parse_smiles(text)) == (expected, order)

    def test_unwritable_graphs_raise_without_a_component_count(self, monkeypatch):
        # the writer sees a disconnected graph in its own traversal
        monkeypatch.setattr(MolGraph, "component_count", lambda self: pytest.fail("counted"))
        with pytest.raises(ValueError, match="disconnected"):
            write_smiles(MolGraph((Atom("C"), Atom("O"), Atom("C")), (make_bond(0, 2, SINGLE),)))
        with pytest.raises(ValueError, match="empty"):
            write_smiles(MolGraph((), ()))

    def test_too_many_open_rings_is_a_ring_closure_error(self):
        # 602 atoms: the zigzag input needs two ring labels, the canonical
        # traversal more than the 99 that SMILES can spell
        mol = parse_smiles(fused_ladder_smiles(150))
        with pytest.raises(RingClosureError, match="too many simultaneously open rings"):
            write_smiles(mol)

    def test_may_fail_to_write(self, corpus_1k):
        _, mols = corpus_1k
        assert not any(may_fail_to_write(m) for m in mols)
        assert not may_fail_to_write(parse_smiles(fused_ladder_smiles(99)))
        write_smiles(parse_smiles(fused_ladder_smiles(99)))
        assert may_fail_to_write(parse_smiles(fused_ladder_smiles(100)))
        assert may_fail_to_write(parse_smiles(fused_ladder_smiles(150)))
        assert may_fail_to_write(MolGraph((), ()))
        assert may_fail_to_write(MolGraph((Atom("C"), Atom("C")), ()))

    def test_valence_closure_on_accepted_strings(self, corpus_1k):
        _, mols = corpus_1k
        assert all(valence_check(m) for m in mols)
