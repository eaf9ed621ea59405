import hashlib
import time
from functools import partial
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbpe.merging
from graphbpe.chem import (
    canonical_rank,
    leading_key,
    parse_smiles,
    write_smiles,
    write_smiles_with_order,
)
from graphbpe.chem.canon import (
    FLAT_MAX_ATOMS,
    _FlatPartition,
    _OrderedPartition,
    break_ties,
    tie_broken_ranks,
)
from graphbpe.chem.mol import BOND_ORDERS
from graphbpe.merging import instance_pattern, union_pattern
from graphbpe.miner import mine_corpus
from helpers import (
    fused_ladder_smiles,
    load_bench_inputs,
    permute_molecule,
    random_molecule,
    reference_canonical_rank,
    reference_write_smiles_with_order,
    with_varied_atoms,
)


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


@pytest.mark.xfail(
    strict=True, reason="tie-breaking by atom index is not a canonical form (ROADMAP item 2)"
)
def test_permutation_invariance_cage():
    # the cubic cage writes three strings under these three atom orders
    mol = parse_smiles("C12C3C1C1C3C3C2C13")
    written = set()
    for seed in (0, 1, 3):
        perm = list(range(len(mol.atoms)))
        Random(seed).shuffle(perm)
        written.add(write_smiles(permute_molecule(mol, perm)))
    assert len(written) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_permutation_invariance_random(seed, perm_seed):
    mol = random_molecule(Random(seed), max_atoms=12)
    perm = list(range(len(mol.atoms)))
    Random(perm_seed).shuffle(perm)
    shuffled = permute_molecule(mol, perm)
    assert ranked_adjacency(shuffled) == ranked_adjacency(mol)
    assert write_smiles(shuffled) == write_smiles(mol)


# sha256 over (ranks, symmetry_classes) of golden_graphs(), recorded from the
# full re-sort refinement that touched-atom refinement replaced
GOLDEN_RANKING_SHA256 = "757668b5c32b027720daa08d86e00300ae12d165f6036482a28b1678b724185b"


def golden_graphs(fixture_mols):
    rng = Random(20230202)
    for mol in fixture_mols:
        yield mol
    for mol in fixture_mols:
        perm = list(range(len(mol.atoms)))
        rng.shuffle(perm)
        yield permute_molecule(mol, perm)
    for rings in range(1, 41):
        yield parse_smiles(fused_ladder_smiles(rings))
    for n in (50, 400):
        yield parse_smiles("O" + "C" * n)
    yield parse_smiles("C12C3C1C1C3C3C2C13")


def test_golden_rankings(corpus_1k):
    digest = hashlib.sha256()
    for mol in golden_graphs(corpus_1k[1]):
        ranking = canonical_rank(mol)
        digest.update(f"{ranking.ranks}|{ranking.symmetry_classes}\n".encode())
    assert digest.hexdigest() == GOLDEN_RANKING_SHA256


def test_chain_scaling_near_linear():
    def rank_time(atoms):
        mol = parse_smiles("C" * atoms)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            canonical_rank(mol)
            best = min(best, time.perf_counter() - start)
        return best

    t1 = rank_time(400)
    t2 = rank_time(1600)
    # linear would be 4x and quadratic 16x
    assert t2 <= 8 * t1, f"C400={t1:.4f}s C1600={t2:.4f}s ratio={t2 / t1:.2f}"


def test_tie_breaking_scaling_near_linear():
    # every C(C)(C) holds two methyls that only a tie-break separates, so
    # k units need k + 1 tie-breaks; a tie-break loop that looked for each
    # next ambiguous cell from position 0 would cost k passes over the atoms.
    # That scan is cheap per position, so it only dominates from about a
    # thousand atoms: at k = 100 and 400 such a loop read 5.8-8.1x on a
    # 2-core host. CPU time, since a preempted 20 ms run reads as a rescan
    def rank_time(units):
        mol = parse_smiles("C" + "C(C)(C)" * units)
        best = float("inf")
        for _ in range(3):
            start = time.process_time()
            canonical_rank(mol)
            best = min(best, time.process_time() - start)
        return best

    t1 = rank_time(400)
    t2 = rank_time(1600)
    # 1,201 and 4,801 atoms: linear would be 4x and quadratic 16x
    assert t2 <= 8 * t1, f"k=400 {t1:.4f}s k=1600 {t2:.4f}s ratio={t2 / t1:.2f}"


def write_outcome(write, mol):
    """(string, order), or the type and message of the error ``write`` raised."""
    try:
        return write(mol)
    except Exception as error:  # noqa: BLE001 - the oracle must raise alike
        return type(error), str(error)


def assert_kernels_match_reference(mol):
    ranking = canonical_rank(mol)
    assert (ranking.ranks, ranking.symmetry_classes) == reference_canonical_rank(mol)
    assert write_outcome(write_smiles_with_order, mol) == write_outcome(
        reference_write_smiles_with_order, mol
    )


def test_kernels_match_reference_on_golden_graphs(corpus_1k):
    # fixture molecules and permutations of them, ladders, long chains, cage
    for mol in golden_graphs(corpus_1k[1]):
        assert_kernels_match_reference(mol)


def mined_writes(monkeypatch, corpus, num_operations):
    """(graph, string) of every union and every motif instance written,
    from cold memos, while mining ``corpus``."""
    written = {"write_smiles": [], "write_smiles_with_order": []}
    with monkeypatch.context() as patch:
        for name, graphs in written.items():
            def record(mol, write=getattr(graphbpe.merging, name), graphs=graphs, **ranking):
                out = write(mol, **ranking)
                graphs.append((mol, out if isinstance(out, str) else out[0]))
                return out

            patch.setattr(graphbpe.merging, name, record)
        union_pattern.cache_clear()
        instance_pattern.cache_clear()
        mine_corpus(corpus, num_operations)
    return written["write_smiles"], written["write_smiles_with_order"]


def test_kernels_match_reference_on_mined_unions_and_motif_instances(corpus_1k, monkeypatch):
    unions, instances = (
        [mol for mol, _ in graphs] for graphs in mined_writes(monkeypatch, corpus_1k[1][:150], 40)
    )
    assert len(unions) > 500
    # both branches of canonical_rank: refinement alone separates every
    # atom (the early return), or ties are broken
    separated = {len(set(canonical_rank(mol).symmetry_classes)) == len(mol.atoms) for mol in unions}
    assert separated == {True, False}
    assert any(atom.is_connection_site for mol in instances for atom in mol.atoms)
    for mol in unions + instances:
        assert_kernels_match_reference(mol)


def assert_leading_key_bounds(mol, smiles):
    bound = min(map(leading_key, mol.atoms))[1]
    assert smiles[: len(bound)] >= bound, (smiles, bound)


@pytest.mark.parametrize("corpus", ["fixture", "drug_like"])
def test_leading_key_bounds_every_mined_string(corpus_1k, monkeypatch, corpus):
    # the miner rules a tied signature out by its edges' bounds, so every
    # union and motif-instance string mining writes must respect its bound
    if corpus == "fixture":
        mols, num_operations = corpus_1k[1], 200
    else:
        mols = [parse_smiles(s) for s in load_bench_inputs().drug_like(Random(1), 250)]
        num_operations = 500
    unions, instances = mined_writes(monkeypatch, mols, num_operations)
    assert len(unions) > 2000 and len(instances) > 500
    for mol, smiles in unions + instances:
        assert_leading_key_bounds(mol, smiles)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_leading_key_bounds_random_strings(seed):
    rng = Random(seed)
    mol = with_varied_atoms(random_molecule(rng, max_atoms=14), rng)
    assert_leading_key_bounds(mol, write_smiles(mol))


def check_tie_breaks_follow_relabelling(mol, perm):
    """Breaking ties by each atom's new id gives the relabelled graph's
    ranks; returns whether ``mol`` has a tie."""
    n = len(mol.atoms)
    ranking = canonical_rank(mol)
    relabelled = canonical_rank(permute_molecule(mol, perm)).ranks
    expected = tuple(relabelled[perm[atom]] for atom in range(n))
    assert tie_broken_ranks(mol, ranking.symmetry_classes, perm) == expected
    return ranking.ranks != ranking.symmetry_classes


def test_tie_broken_ranks_are_the_ranks_of_the_relabelled_graph(corpus_1k):
    rng = Random(2718)
    mols = [*golden_graphs(corpus_1k[1]), *(random_molecule(rng, max_atoms=12) for _ in range(300))]
    tied = 0
    for mol in mols:
        n = len(mol.atoms)
        tied += check_tie_breaks_follow_relabelling(mol, rng.sample(range(n), n))
    assert tied > 20


def tie_heavy_smiles(n):
    """A chain, a ring, branched and star-bearing graphs of ``n`` atoms,
    each with atoms that only a tie-break separates."""
    third, quarter, ring = (n - 1) // 3, (n - 1) // 4, n - 2
    yield "C" * n
    yield "C1" + "C" * (n - 2) + "C1"
    yield "C" * third + "C(" + "C" * third + ")" + "C" * (n - 1 - 2 * third)
    yield "C" * quarter + "C(" + "C" * quarter + ")(" + "C" * quarter + ")" + "C" * (n - 1 - 3 * quarter)
    yield "C1CCCCC1" + "C" * (n - 12) + "C1CCCCC1"
    yield "*" + "C" * (n - 2) + "*"
    yield "*C1" + "C" * (ring // 2 - 1) + "C(*)" + "C" * (ring - ring // 2 - 2) + "C1"


@pytest.mark.parametrize("n", range(FLAT_MAX_ATOMS - 2, FLAT_MAX_ATOMS + 3))
def test_oracles_hold_on_both_sides_of_the_flat_size_limit(n):
    # canonical_rank and tie_broken_ranks refine by flat rounds up to
    # FLAT_MAX_ATOMS atoms and by touched-atom refinement above
    rng = Random(n)
    for smiles in tie_heavy_smiles(n):
        mol = parse_smiles(smiles)
        assert len(mol.atoms) == n, smiles
        for _ in range(4):
            shuffled = permute_molecule(mol, rng.sample(range(n), n))
            assert_kernels_match_reference(shuffled)
            assert check_tie_breaks_follow_relabelling(shuffled, rng.sample(range(n), n)), smiles


def key_shape_smiles(n):
    """Graphs of ``n`` atoms that between them have atoms of every degree
    from 1 to 6, every bond order (an aromatic single ``-`` too), an acid's
    two oxygens that only their bond orders tell apart, an alkene carbon
    in a cell of chain carbons, and symmetric ends that only a tie-break
    separates."""
    yield "FS(F)(F)(F)(F)C(C)(C)C(C)" + "C" * (n - 16) + "P(F)(F)(F)F"
    yield "C" * (n - 16) + "C(=O)c1ccc(-c2ccc(C#N)cc2)cc1"
    yield "CC=C" + "C" * (n - 6) + "C(=O)O"
    yield "FS(F)(F)(F)(F)" + "C" * (n - 12) + "S(F)(F)(F)(F)F"
    yield "CC(C)(C)" + "C" * (n - 8) + "C(C)(C)C"


@pytest.mark.parametrize("n", [*range(FLAT_MAX_ATOMS - 2, FLAT_MAX_ATOMS + 3), 40])
def test_oracles_hold_for_every_key_shape(n):
    # a refinement key is one term at degree 1, a folded pair at degree 2
    # and a sorted term list above; flat rounds up to FLAT_MAX_ATOMS atoms
    # and touched-atom refinement above each build all three
    rng = Random(n)
    degrees, orders, tied = set(), set(), 0
    for smiles in key_shape_smiles(n):
        mol = parse_smiles(smiles)
        assert len(mol.atoms) == n, smiles
        degrees.update(len(mol.neighbors(atom)) for atom in range(n))
        orders.update(bond.order for bond in mol.bonds)
        for _ in range(3):
            shuffled = permute_molecule(mol, rng.sample(range(n), n))
            assert_kernels_match_reference(shuffled)
            tied += check_tie_breaks_follow_relabelling(shuffled, rng.sample(range(n), n))
    assert degrees == set(range(1, 7))
    assert orders == set(BOND_ORDERS)
    assert tied >= 6


def refinements_agree(mol, rng):
    """Flat rounds and touched-atom refinement, from ``canonical_rank``'s
    seeds, give equal labels after ``refine()``, the same first ambiguous
    cell and equal labels after each ``individualize``, and equal
    ``break_ties`` results, choosing by lowest index and by a random
    priority. Returns whether ``mol`` has a tie."""
    keys = [
        (a.element, a.formal_charge, a.aromatic, mol.degree(i), a.explicit_h)
        for i, a in enumerate(mol.atoms)
    ]
    priority = rng.sample(range(len(keys)), len(keys))
    ties = 0
    for choose in (min, partial(min, key=priority.__getitem__)):
        flat, ordered = _FlatPartition(mol, keys), _OrderedPartition(mol, keys)
        flat.refine()
        ordered.refine()
        assert flat.labels() == ordered.labels()
        while cell := flat.first_ambiguous_cell():
            assert set(cell) == set(ordered.first_ambiguous_cell())
            atom = choose(cell)
            flat.individualize(atom)
            ordered.individualize(atom)
            assert flat.labels() == ordered.labels()
            ties += 1
        assert not ordered.first_ambiguous_cell()
        broken = set()
        for partition in (_FlatPartition(mol, keys), _OrderedPartition(mol, keys)):
            partition.refine()
            broken.add(break_ties(partition, choose))
        assert broken == {tuple(flat.labels())}
        if choose is min:
            assert broken == {canonical_rank(mol).ranks}
    return ties > 0


@pytest.mark.parametrize("n", range(12, 41))
def test_refinements_agree_on_tie_heavy_and_key_shape_graphs(n):
    # tie_heavy_smiles needs 12 atoms and key_shape_smiles 16
    rng = Random(n)
    tied = 0
    for smiles in [*tie_heavy_smiles(n), *(key_shape_smiles(n) if n >= 16 else ())]:
        mol = parse_smiles(smiles)
        assert len(mol.atoms) == n, smiles
        tied += refinements_agree(mol, rng)
    assert tied >= 5


def test_refinements_agree_on_random_molecules():
    rng = Random(4242)
    tied = sum(refinements_agree(random_molecule(rng, max_atoms=20), rng) for _ in range(200))
    assert tied > 20


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_kernels_match_reference_on_random_molecules(seed):
    assert_kernels_match_reference(random_molecule(Random(seed), max_atoms=16))
