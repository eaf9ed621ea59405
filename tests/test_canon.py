from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbpe.chem import canonical_rank, parse_smiles, write_smiles
from helpers import permute_molecule, random_molecule


def ranked_adjacency(mol):
    """Adjacency rewritten in rank space; equal for isomorphic inputs."""
    ranks = canonical_rank(mol).ranks
    atoms = sorted(
        (ranks[i], a.element, a.formal_charge, a.aromatic, a.explicit_h)
        for i, a in enumerate(mol.atoms)
    )
    bonds = sorted(
        (min(ranks[b.a], ranks[b.b]), max(ranks[b.a], ranks[b.b]), b.order)
        for b in mol.bonds
    )
    return atoms, bonds


def test_single_atom():
    assert canonical_rank(parse_smiles("C")).ranks == (0,)


def test_ranks_are_a_permutation():
    mol = parse_smiles("CC(N)C(=O)O")
    ranks = canonical_rank(mol).ranks
    assert sorted(ranks) == list(range(len(mol.atoms)))


def test_ethanol_all_input_orders():
    mol = parse_smiles("CCO")
    reference = ranked_adjacency(mol)
    for perm in permutations(range(3)):
        assert ranked_adjacency(permute_molecule(mol, list(perm))) == reference


def test_benzene_symmetry_classes_collapse():
    mol = parse_smiles("c1ccccc1")
    ranking = canonical_rank(mol)
    assert len(set(ranking.symmetry_classes)) == 1
    assert len(set(ranking.ranks)) == 6


def test_symmetric_stars_share_class():
    mol = parse_smiles("*CC*")
    ranking = canonical_rank(mol)
    stars = [i for i, a in enumerate(mol.atoms) if a.is_connection_site]
    assert ranking.symmetry_classes[stars[0]] == ranking.symmetry_classes[stars[1]]


def test_toluene_ortho_meta_pairs():
    mol = parse_smiles("Cc1ccccc1")
    classes = canonical_rank(mol).symmetry_classes
    from collections import Counter

    sizes = sorted(Counter(classes).values())
    # methyl, ipso, para singletons; ortho and meta pairs
    assert sizes == [1, 1, 1, 2, 2]


@pytest.mark.xfail(
    strict=True, reason="tie-breaking by atom index is not a canonical form (ROADMAP item 2)"
)
def test_permutation_invariance_known_counterexample():
    # writes c12-c3:c4:c:1-c:2:c:3-4, and c12-c3:c:1-c1:c:2-c:1:3 once permuted
    mol = random_molecule(Random(35466), max_atoms=12)
    perm = list(range(len(mol.atoms)))
    Random(2).shuffle(perm)
    assert write_smiles(permute_molecule(mol, perm)) == write_smiles(mol)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_permutation_invariance_random(seed, perm_seed):
    mol = random_molecule(Random(seed), max_atoms=12)
    perm = list(range(len(mol.atoms)))
    Random(perm_seed).shuffle(perm)
    shuffled = permute_molecule(mol, perm)
    assert ranked_adjacency(shuffled) == ranked_adjacency(mol)
    assert write_smiles(shuffled) == write_smiles(mol)
