"""The union-pattern and motif-instance memos: each key is the exact
labelled graph that would be written, so a hit can never return a string
that a fresh write would not, and a key decodes to the checked graph it was
built from. An instance's site table is the one its parsed string gives.
Edge and operation signatures: a union's signature is the signature of its
pattern string, stays the from-scratch sum as merges compose it, is the same
in every process, and is only a gate: a collision changes no result."""
import os
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbpe.merging
from graphbpe.chem import (
    canonical_rank,
    graph_signature,
    label_values,
    parse_smiles,
    write_smiles,
    write_smiles_with_order,
)
from graphbpe.chem.mol import BOND_ORDERS, STAR, Atom, MolGraph, make_bond
from graphbpe.errors import GraphBpeError
from graphbpe.fileio import (
    read_operations,
    write_attachments,
    write_operations,
    write_vocabulary,
)
from graphbpe.merging import (
    _CODED_ATOMS,
    BrokenBondLink,
    Fragmentation,
    MergeOperation,
    MergingGraph,
    MotifInstance,
    _decode,
    apply_operations,
    extract_motifs,
    instance_pattern,
    union_pattern,
)
from graphbpe.metrics import evaluate
from graphbpe.miner import learn_merging_operations, mine_corpus, motif_sites
from graphbpe.tokenizer import fragmentize
from helpers import (
    load_bench_inputs,
    merge,
    mined,
    pattern_signature,
    random_molecule,
    union_signature,
)

AMINE = MolGraph((Atom("C", implicit_h=3), Atom("N", implicit_h=2)),
                 (make_bond(0, 1, "single"),))


def key_pattern_signature(mol: MolGraph) -> tuple[str, str, int]:
    everything = list(range(len(mol.atoms)))
    key = MergingGraph(mol).union_key(everything)
    return key, union_pattern(key), union_signature(mol, everything)


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
        for _ in range(3):
            atoms = connected_atoms(mol, rng)
            pattern = write_smiles(mol.subgraph(atoms)[0])
            assert pattern_signature(pattern) == union_signature(mol, atoms)


def test_edge_signatures_stay_exact_as_merges_happen(corpus_1k, monkeypatch):
    # every merge composes signatures; after each operation that merged,
    # each live edge and fragment of the state must carry the signature a
    # from-scratch walk of its atoms gives
    _, mols = corpus_1k
    apply_operation = MergingGraph.apply_operation
    checked = []

    def apply_and_check(state, *args, **kwargs):
        merged = apply_operation(state, *args, **kwargs)
        if merged:
            mol = state.mol
            fragments = state.fragments()
            for (fa, fb), signature in state.edges.items():
                assert signature == union_signature(mol, fragments[fa] + fragments[fb])
                assert (fa, fb) in state.pairs(signature)
            for fid, atoms in fragments.items():
                assert state.frag_signature[fid] == union_signature(mol, atoms)
            assert sum(map(len, map(state.pairs, state.by_signature))) == len(state.edges)
            assert state.by_signature == Counter(state.edges.values())
            checked.append(merged)
        return merged

    monkeypatch.setattr(MergingGraph, "apply_operation", apply_and_check)
    ops = mine_corpus(mols[:100], 200).operations
    assert len(ops) == 200 and len(checked) > 500
    monkeypatch.undo()
    for mol in mols[100:160]:
        state = apply_operations(mol, ops)
        for pair, signature in state.edges.items():
            assert pattern_signature(state.pattern(pair)) == signature


@pytest.mark.parametrize("pattern", ["C(", "C", ""])
def test_an_operation_no_union_can_have_is_rejected(pattern):
    with pytest.raises(GraphBpeError):
        MergeOperation(0, pattern, 1)


def test_an_operation_signs_a_pattern_with_a_star():
    assert MergeOperation(0, "*C", 1).signature == pattern_signature("*C")


def test_a_pass_takes_the_operation():
    state = MergingGraph(parse_smiles("CCO"))
    assert state.apply_operation(MergeOperation(0, "CC", 1)) == 1
    assert sorted(state.fragments().values()) == [[0, 1], [2]]


def test_mining_is_the_same_with_a_cold_and_a_warm_cache(corpus_1k):
    _, mols = corpus_1k
    union_pattern.cache_clear()
    cold = mined(mols[:60], 30)
    union_pattern.cache_clear()
    mined(mols[60:160], 30)
    assert union_pattern.cache_info().currsize > 0
    assert mined(mols[:60], 30) == cold


def test_bond_unions_are_built_as_the_general_signature_and_key(corpus_1k):
    for mol in corpus_1k[1]:
        state = MergingGraph(mol)
        for bidx, bond in enumerate(mol.bonds):
            pair = [bond.a, bond.b]
            signature, key = state.bond_union(bidx)
            assert signature == union_signature(mol, pair)
            assert key == state.union_key(pair)
            assert state.edges[bond.a, bond.b] == signature


def test_a_signature_is_only_a_gate(corpus_1k, tmp_path, monkeypatch):
    # with every label worth 0, every union and every molecule share one
    # signature, so every edge waits behind one gate; picks, merges and the
    # evaluation report compare canonical strings and must not change
    mols = corpus_1k[1]
    generated, training = mols[:40] + mols[300:320], mols[20:200]

    def artifacts(directory: Path):
        directory.mkdir()
        result = mine_corpus(mols[:60], 30)
        write_operations(directory / "ops.txt", result.operations)
        write_vocabulary(directory / "vocab.txt", result.vocabulary)
        write_attachments(directory / "attach.txt", result.vocabulary)
        written = [(directory / name).read_bytes() for name in ("ops.txt", "vocab.txt", "attach.txt")]
        return written, evaluate(generated, training)

    expected = artifacts(tmp_path / "distinct")
    for name, module in list(sys.modules.items()):
        if name.startswith("graphbpe") and hasattr(module, "signature_value"):
            monkeypatch.setattr(module, "signature_value", lambda label: 0)
    label_values.cache_clear()
    try:
        assert len(MergingGraph(mols[0]).by_signature) == 1
        assert graph_signature(mols[0]) == pattern_signature("CC") == 0
        colliding = artifacts(tmp_path / "colliding")
    finally:
        label_values.cache_clear()
    assert colliding == expected


def test_pattern_signatures_are_the_same_under_any_hash_seed(ops_500):
    patterns = [op.pattern for op in ops_500[:50]]
    script = (
        "import sys\n"
        "from graphbpe.merging import MergeOperation\n"
        "print(*(MergeOperation(0, line, 1).signature for line in sys.stdin.read().split()))\n"
    )
    src = str(Path(graphbpe.merging.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    printed = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", script], input="\n".join(patterns),
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        printed.append([int(word) for word in done.stdout.split()])
    assert printed[0] == printed[1] == [op.signature for op in ops_500[:50]]


def fresh_fragmentation(state: MergingGraph) -> Fragmentation:
    """``extract_motifs`` with no memo: every instance, stars included, is
    cut from the molecule and written afresh, and its site table is read
    from the parsed string."""
    mol = state.mol
    parts = sorted(tuple(sorted(atoms)) for atoms in state.fragments().values())
    motif_of = {atom: index for index, atoms in enumerate(parts) for atom in atoms}
    motifs, star_of = [], {}
    for index, atom_ids in enumerate(parts):
        base, mapping = mol.subgraph(atom_ids)
        atoms, bonds, raw_of = list(base.atoms), list(base.bonds), {}
        for bidx, bond in enumerate(mol.bonds):
            if (motif_of[bond.a] == index) != (motif_of[bond.b] == index):
                anchor = bond.a if motif_of[bond.a] == index else bond.b
                raw_of[bidx] = len(atoms)
                atoms.append(Atom(STAR))
                bonds.append(make_bond(mapping[anchor], raw_of[bidx], bond.order))
        smiles, order = write_smiles_with_order(MolGraph(tuple(atoms), tuple(bonds)))
        for bidx, raw in raw_of.items():
            star_of[index, bidx] = order.index(raw)
        motifs.append(MotifInstance(smiles, len(atom_ids), atom_ids, motif_sites(smiles)))
    links = tuple(
        BrokenBondLink(ma, star_of[ma, bidx], mb, star_of[mb, bidx])
        for bidx, bond in enumerate(mol.bonds)
        for ma, mb in [(motif_of[bond.a], motif_of[bond.b])]
        if ma != mb
    )
    return Fragmentation(tuple(motifs), links)


def test_instances_are_fresh_writes_with_a_cold_and_a_warm_memo(corpus_1k, ops_500):
    states = [apply_operations(mol, ops_500[:200]) for mol in corpus_1k[1]]
    instance_pattern.cache_clear()
    cold = [extract_motifs(state) for state in states]
    misses = instance_pattern.cache_info().misses
    assert 0 < misses < sum(len(frag.motifs) for frag in cold)  # instances repeat
    warm = [extract_motifs(state) for state in states]
    assert instance_pattern.cache_info().misses == misses
    assert warm == cold
    assert cold == [fresh_fragmentation(state) for state in states]


def test_instance_key_is_the_union_key_then_the_broken_bonds():
    # C-N=O cut into {C, N} and {O}: the double bond is broken, and on each
    # side its anchor is the side's atom of new id 1 (N) and 0 (O)
    mol = MolGraph((Atom("C"), Atom("N"), Atom("O")),
                   (make_bond(0, 1, "single"), make_bond(1, 2, "double")))
    state = MergingGraph(mol)
    merge(state, 0, 1)
    instance_pattern.cache_clear()
    frag = extract_motifs(state)
    assert [m.smiles for m in frag.motifs] == ["*=NC", "*=O"]
    assert instance_pattern.cache_info().misses == 2
    double = "\x01"  # ORDER_CODES["double"]
    keys = [
        state.union_key([0, 1]) + "\x01" + double + "\x01",
        state.union_key([2]) + "\x00" + double + "\x01",
    ]
    assert [instance_pattern(key) for key in keys] == [
        ("*=NC", (0,), ((0, ("*=NC", 0, "double")),)),
        ("*=O", (0,), ((0, ("*=O", 0, "double")),)),
    ]
    assert instance_pattern.cache_info().hits == 2


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


def instance_tables(frags: list[Fragmentation]) -> dict[str, set]:
    """Each motif string of ``frags`` with the site tables its instances
    carried."""
    tables: dict[str, set] = {}
    for frag in frags:
        for motif in frag.motifs:
            tables.setdefault(motif.smiles, set()).add(motif.sites)
    return tables


def assert_sites_are_the_parsed_ones(frags: list[Fragmentation]) -> set[bool]:
    """Every instance's site table equals ``motif_sites`` of its string.
    Returns, for the motifs seen, whether refinement alone separated every
    atom: ``instance_pattern`` takes the writer's ranks when it did and
    ranks the relabelled instance when it did not, and the case is the same
    for the instance and its parsed string."""
    discrete = set()
    for smiles, tables in instance_tables(frags).items():
        assert tables == {motif_sites(smiles)}, smiles
        classes = canonical_rank(parse_smiles(smiles)).symmetry_classes
        discrete.add(len(set(classes)) == len(classes))
    return discrete


def test_instance_sites_are_the_parsed_sites_on_the_fixture(corpus_1k, ops_500):
    instance_pattern.cache_clear()
    frags = [fragmentize(mol, ops_500[:200]) for mol in corpus_1k[1]]
    assert assert_sites_are_the_parsed_ones(frags) == {True, False}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_instance_sites_are_the_parsed_sites_on_drug_like_corpora(seed):
    corpus = [parse_smiles(s) for s in load_bench_inputs().drug_like(Random(seed), 250)]
    instance_pattern.cache_clear()
    ops = learn_merging_operations(corpus, 500)
    frags = [fragmentize(mol, ops) for mol in corpus]
    assert assert_sites_are_the_parsed_ones(frags) == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_instance_sites_are_the_parsed_sites_on_random_molecules(seed):
    rng = Random(seed)
    corpus = [random_molecule(rng, max_atoms=14) for _ in range(6)]
    ops = learn_merging_operations(corpus, 12)
    assert_sites_are_the_parsed_ones([fragmentize(mol, ops) for mol in corpus])


def test_instance_sites_where_the_writer_ranks_order_stars_otherwise():
    # the fragment C0..F5 of this molecule is written *C1(C(C1=N*)=N*)F: its
    # two N-side stars share a class, and the tie-break that orders them
    # picks by atom id, which differs between the instance and the parsed
    # string, so the instance's ties are broken again by emission position
    atoms = tuple(Atom(e) for e in ("C", "C", "N", "N", "C", "F", "Cl", "Cl", "Cl"))
    bonds = tuple(make_bond(a, b, order) for a, b, order in [
        (0, 3, "double"), (0, 1, "single"), (1, 4, "single"), (0, 4, "single"),
        (1, 5, "single"), (2, 4, "double"), (3, 6, "single"), (2, 7, "single"),
        (1, 8, "single"),
    ])
    state = MergingGraph(MolGraph(atoms, bonds))
    fragment = merge(state, 0, 1)
    for atom in (3, 4, 2, 5):
        fragment = merge(state, fragment, atom)
    instance_pattern.cache_clear()
    motif = extract_motifs(state).motifs[0]
    assert motif.smiles == "*C1(C(C1=N*)=N*)F"
    assert motif.sites == motif_sites(motif.smiles)
    instance = MolGraph(atoms[:6] + (Atom(STAR),) * 3, bonds)
    ranking = canonical_rank(instance)
    smiles, order = write_smiles_with_order(instance, ranking=ranking)
    writer_ranks = {pos: ranking.ranks[atom] for pos, atom in enumerate(order)}
    stars = sorted((pos for pos, atom in enumerate(order) if atom >= 6), key=writer_ranks.get)
    assert stars != [star for star, _ in motif.sites]


def checked_decode(key: str, end: int, stars: int) -> MolGraph:
    """``_decode`` through ``make_bond`` and the checking ``MolGraph``."""
    count = ord(key[0])
    atoms = [_CODED_ATOMS[ord(code)] for code in key[1 : count + 1]]
    bonds = [
        make_bond(ord(key[i]), ord(key[i + 1]), BOND_ORDERS[ord(key[i + 2])])
        for i in range(count + 1, end, 3)
    ]
    for star, i in enumerate(range(end, end + 2 * stars, 2), count):
        atoms.append(Atom(STAR))
        bonds.append(make_bond(ord(key[i]), star, BOND_ORDERS[ord(key[i + 1])]))
    return MolGraph(tuple(atoms), tuple(bonds))


def test_keys_decode_to_the_checked_graph(corpus_1k, monkeypatch):
    keys = {"union_pattern": [], "instance_pattern": []}
    for name, seen in keys.items():
        def record(key, memo=getattr(graphbpe.merging, name), seen=seen):
            seen.append(key)
            return memo(key)

        monkeypatch.setattr(graphbpe.merging, name, record)
    mine_corpus(corpus_1k[1][:150], 40)
    assert len(keys["union_pattern"]) > 500 and len(keys["instance_pattern"]) > 100
    shapes = [(key, len(key), 0) for key in keys["union_pattern"]]
    for key in keys["instance_pattern"]:
        stars = ord(key[-1])
        shapes.append((key, len(key) - 1 - 2 * stars, stars))
    for key, end, stars in shapes:
        got, want = _decode(key, end, stars), checked_decode(key, end, stars)
        assert (got.atoms, got.bonds) == (want.atoms, want.bonds)
        assert [got.neighbors(i) for i in range(len(got.atoms))] == [
            want.neighbors(i) for i in range(len(want.atoms))
        ]


def test_operations_carry_the_signature_of_their_pattern(corpus_1k, tmp_path):
    learned = learn_merging_operations(corpus_1k[1][:150], 60)
    write_operations(tmp_path / "ops.txt", learned)
    loaded = read_operations(tmp_path / "ops.txt")
    assert loaded == learned
    for op in learned + loaded:
        assert op.signature == pattern_signature(op.pattern)
