from pathlib import Path
from random import Random

import pytest

from graphbpe.chem import (
    molecular_weight,
    parse_smiles,
    valence_check,
)
from graphbpe.chem.mol import (
    AROMATIC,
    SINGLE,
    Atom,
    Bond,
    MolGraph,
    _aromatic_adjacency,
    _pi_electrons,
    _shortest_aromatic_cycle,
    failing_aromatic_rings,
    make_bond,
)
from graphbpe.errors import GraphBpeError
from helpers import random_molecule

FIXTURES = Path(__file__).parent / "fixtures"


def failing_rings_from_every_bond(mol):
    """``failing_aromatic_rings`` searching from every aromatic bond, also
    those of a ring already found."""
    adj = _aromatic_adjacency(mol)
    failing = []
    seen = set()
    for bidx, bond in enumerate(mol.bonds):
        if bond.order != AROMATIC:
            continue
        cycle = _shortest_aromatic_cycle(adj, (bond.a, bond.b, bidx))
        if cycle is None or frozenset(cycle[0]) in seen:
            continue
        seen.add(frozenset(cycle[0]))
        if sum(_pi_electrons(mol, i) for i in cycle[0]) % 4 != 2:
            failing.append(cycle)
    return failing


class TestValence:
    def test_methane(self):
        assert valence_check(parse_smiles("C"))

    def test_sulfur_two_triple_bonds_passes_table(self):
        # order sum 6 sits in the allowed sulfur set; exclusion of such
        # motifs is left to mining frequency
        mol = parse_smiles("*#S#*")
        assert valence_check(mol)

    def test_nitrogen_charge_dependence(self):
        assert valence_check(parse_smiles("C[N+](C)(C)C"))
        mol = parse_smiles("N(C)(C)(C)C", validate=False)
        assert not valence_check(mol)

    def test_oxygen_plus(self):
        assert valence_check(parse_smiles("C[OH+]C"))

    def test_unknown_charge_state_fails(self):
        mol = parse_smiles("C[O-]", validate=False)
        assert not valence_check(mol)


class TestMolecularWeight:
    def test_methane_weight(self):
        assert molecular_weight(parse_smiles("C")) == pytest.approx(16.043, abs=1e-3)

    def test_water_like_fragment(self):
        # ethanol: 2C + 6H + O
        expected = 2 * 12.011 + 6 * 1.008 + 15.999
        assert molecular_weight(parse_smiles("CCO")) == pytest.approx(expected, abs=1e-3)


class TestAromaticRingCheck:
    @pytest.mark.parametrize(
        "text", ["c1ccccc1", "c1ccncc1", "c1cc[nH]c1", "c1ccoc1", "c1ccsc1",
                 "c1ccc2ccccc2c1", "Cn1cccc1"]
    )
    def test_valid_rings_pass(self, text):
        assert failing_aromatic_rings(parse_smiles(text)) == []

    @pytest.mark.parametrize("text", ["c1ccccccc1", "c1ccc1", "c1cc1"])
    def test_wrong_electron_counts_fail(self, text):
        mol = parse_smiles(text, validate=False)
        assert failing_aromatic_rings(mol)

    def test_aromatic_chain_not_flagged(self):
        assert failing_aromatic_rings(parse_smiles("*:c:c:c:c:*")) == []

    def test_matches_a_search_from_every_bond(self):
        # coronene with a boron in its central ring, which is found only from
        # bonds it shares with outer rings; fixture molecules with aromatic
        # carbons turned into oxygen or boron: rings that fail in many orders
        texts = [
            "c1cc2ccc3ccc4ccc5ccc6ccc1b1c2c3c4c5c61",
            "c1cc2ccc3ccc4ccc5ccc6ccc1c1c2c3b4c5c61",
            "c1ccc2cccccc2c1",
            "c1cc2ccc3cccc4ccc(c1)c2c34",
        ]
        for line in (FIXTURES / "corpus_1k.smi").read_text().splitlines():
            text = line.split()[0]
            texts += [text.replace("c", "o", 1), text.replace("c", "b", 2)]
        checked = failing = 0
        for text in texts:
            try:
                mol = parse_smiles(text, validate=False)
            except GraphBpeError:
                continue
            expected = failing_rings_from_every_bond(mol)
            assert failing_aromatic_rings(mol) == expected, text
            checked += 1
            failing += bool(expected)
        assert checked > 1000 and failing > 300


class TestSubgraph:
    def test_matches_a_scan_of_every_bond(self):
        rng = Random(5)
        for _ in range(60):
            mol = random_molecule(rng, max_atoms=12)
            atoms = rng.sample(range(len(mol.atoms)), rng.randint(1, len(mol.atoms)))
            sub, mapping = mol.subgraph(atoms)
            assert sub.atoms == tuple(mol.atoms[i] for i in sorted(atoms))
            assert sub.bonds == tuple(
                make_bond(mapping[b.a], mapping[b.b], b.order)
                for b in mol.bonds if b.a in mapping and b.b in mapping
            )


class TestBondChecks:
    """``MolGraph`` takes only bonds as ``make_bond`` builds them."""

    ATOMS = (Atom("C"), Atom("C"), Atom("O"))

    def test_bonds_from_make_bond_are_accepted(self):
        mol = MolGraph(self.ATOMS, (make_bond(1, 0, SINGLE), make_bond(2, 1, SINGLE)))
        assert mol.neighbors(1) == ((0, 0), (2, 1))

    def test_negative_atom_id_is_rejected(self):
        with pytest.raises(ValueError, match="0 <= a < b"):
            MolGraph(self.ATOMS, (Bond(0, -1, SINGLE),))

    def test_atom_id_past_the_last_atom_is_rejected(self):
        with pytest.raises(ValueError, match="0 <= a < b"):
            MolGraph(self.ATOMS, (Bond(0, 3, SINGLE),))

    def test_pair_stated_in_both_orders_is_rejected(self):
        with pytest.raises(ValueError, match="0 <= a < b"):
            MolGraph(self.ATOMS, (Bond(0, 1, SINGLE), Bond(1, 0, SINGLE)))

    def test_self_bond_is_rejected(self):
        with pytest.raises(ValueError, match="0 <= a < b"):
            MolGraph(self.ATOMS, (Bond(0, 0, SINGLE),))

    def test_unknown_order_is_rejected(self):
        with pytest.raises(ValueError, match="unknown order"):
            MolGraph(self.ATOMS, (Bond(0, 1, "quadruple"),))

    def test_duplicate_bond_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate bond"):
            MolGraph(self.ATOMS, (make_bond(0, 1, SINGLE), make_bond(0, 1, "double")))
