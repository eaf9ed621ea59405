"""The union-pattern memo: its key is the exact induced labelled graph, so
a hit can never return a string that a fresh write would not."""
import sys
import threading
from dataclasses import replace
from random import Random

import pytest

from graphbpe.chem import write_smiles
from graphbpe.chem.mol import Atom, MolGraph, make_bond
from graphbpe.merging import MergingGraph, union_pattern
from helpers import mined, random_molecule

AMINE = MolGraph((Atom("C", implicit_h=3), Atom("N", implicit_h=2)),
                 (make_bond(0, 1, "single"),))


def key_and_pattern(mol: MolGraph) -> tuple[str, str]:
    key = MergingGraph(mol).union_key(list(range(len(mol.atoms))))
    return key, union_pattern(key)


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
    base_key, base_pattern = key_and_pattern(AMINE)
    key, pattern = key_and_pattern(variant)
    assert key != base_key
    assert pattern != base_pattern


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
