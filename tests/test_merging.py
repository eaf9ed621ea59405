"""The union-pattern memo: its key is the exact induced labelled graph, so
a hit can never return a string that a fresh write would not. Edge
signatures: a union's signature is the signature of its pattern string."""
import sys
import threading
from dataclasses import replace
from random import Random

import pytest

from graphbpe.chem import write_smiles
from graphbpe.chem.mol import Atom, MolGraph, make_bond
from graphbpe.merging import MergingGraph, apply_operations, pattern_signature, union_pattern
from graphbpe.miner import learn_merging_operations
from helpers import mined, random_molecule

AMINE = MolGraph((Atom("C", implicit_h=3), Atom("N", implicit_h=2)),
                 (make_bond(0, 1, "single"),))


def key_pattern_signature(mol: MolGraph) -> tuple[str, str, str]:
    everything = list(range(len(mol.atoms)))
    state = MergingGraph(mol)
    key = state.union_key(everything)
    return key, union_pattern(key), state.union_signature(everything)


def with_nitrogen(**fields) -> MolGraph:
    return MolGraph((AMINE.atoms[0], replace(AMINE.atoms[1], **fields)), AMINE.bonds)


@pytest.mark.parametrize("variant", [
    with_nitrogen(formal_charge=1),
    with_nitrogen(aromatic=True),
    with_nitrogen(explicit_h=2, bracket=True),
    with_nitrogen(bracket=True),
    MolGraph(AMINE.atoms, (make_bond(0, 1, "double"),)),
], ids=["charge", "aromatic", "explicit_h", "bracket", "bond_order"])
def test_one_label_apart_gives_another_key_and_string(variant):
    base_key, base_pattern, base_signature = key_pattern_signature(AMINE)
    key, pattern, signature = key_pattern_signature(variant)
    assert key != base_key
    assert pattern != base_pattern
    assert signature != base_signature
    assert pattern_signature(pattern) == signature


def connected_atoms(mol: MolGraph, rng: Random) -> list[int]:
    """A random connected atom set, grown from one atom through its bonds."""
    chosen = {rng.randrange(len(mol.atoms))}
    for _ in range(rng.randrange(len(mol.atoms))):
        frontier = sorted({n for a in chosen for n, _ in mol.neighbors(a)} - chosen)
        if not frontier:
            break
        chosen.add(rng.choice(frontier))
    return sorted(chosen)


def test_hit_equals_a_fresh_write_of_the_subgraph():
    rng = Random(11)
    for _ in range(40):
        mol = random_molecule(rng, max_atoms=12)
        state = MergingGraph(mol)
        atoms = connected_atoms(mol, rng)
        for _ in range(2):  # a miss, then a hit
            assert union_pattern(state.union_key(atoms)) == write_smiles(mol.subgraph(atoms)[0])


def test_union_signature_is_the_signature_of_its_pattern(corpus_1k):
    _, mols = corpus_1k
    rng = Random(23)
    molecules = [random_molecule(rng, max_atoms=14) for _ in range(80)]
    molecules += [mols[i] for i in rng.sample(range(len(mols)), 80)]
    for mol in molecules:
        state = MergingGraph(mol)
        for _ in range(3):
            atoms = connected_atoms(mol, rng)
            pattern = write_smiles(mol.subgraph(atoms)[0])
            assert pattern_signature(pattern) == state.union_signature(atoms)


def test_edge_signatures_stay_exact_as_merges_happen(corpus_1k):
    _, mols = corpus_1k
    ops = learn_merging_operations(mols[:50], 40)
    for mol in mols[50:110]:
        state = apply_operations(mol, ops)
        for (fa, fb), signature in state.edges.items():
            assert pattern_signature(state.pattern(fa, fb)) == signature
            assert (fa, fb) in state.by_signature[signature]
        assert sum(len(pairs) for pairs in state.by_signature.values()) == len(state.edges)


def test_unparsable_pattern_merges_nothing():
    state = MergingGraph(AMINE)
    assert pattern_signature("C(") == ""
    assert state.apply_operation("C(") == 0
    assert len(state.edges) == 1


def test_mining_is_the_same_with_a_cold_and_a_warm_cache(corpus_1k):
    _, mols = corpus_1k
    union_pattern.cache_clear()
    cold = mined(mols[:60], 30)
    union_pattern.cache_clear()
    mined(mols[60:160], 30)
    assert union_pattern.cache_info().currsize > 0
    assert mined(mols[:60], 30) == cold


def test_threads_coding_new_atoms_at_once_get_their_own_codes():
    # every thread codes atoms no other thread has seen, so a lost update in
    # the shared code table would hand two different atoms one code
    threads_n, per_thread = 4, 300
    failures = []

    def work(t):
        for i in range(per_thread):
            atom = Atom("C", formal_charge=t + 10, explicit_h=i, bracket=True)
            mol = MolGraph((atom,), ())
            if union_pattern(MergingGraph(mol).union_key([0])) != write_smiles(mol):
                failures.append((t, i))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
