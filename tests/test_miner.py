import sys
from collections import Counter
from random import Random

import pytest

import graphbpe.chem.smiles
import graphbpe.merging
from graphbpe.chem import MolGraph, graph_signature, parse_smiles, signature_value, write_smiles
from graphbpe.fileio import write_attachments, write_operations, write_vocabulary
from graphbpe.merging import MergeOperation, MergingGraph, instance_pattern, union_pattern
from graphbpe.miner import (
    PatternTally,
    build_motif_vocabulary,
    learn_merging_operations,
    mine_corpus,
    motif_sites,
)
from graphbpe.tokenizer import extract_trajectory, fragmentize
from helpers import (
    brominated,
    count_pair_patterns,
    eager_learn,
    group_by_isomorphism,
    isomorphic,
    merge,
    mined,
    open_every_tie,
    pattern_signature,
    permute_molecule,
    random_molecule,
    run_fresh,
)


def merged_subgraph(mol, *groups):
    """Merge each atom group into one fragment (each atom bonded to one
    listed before it), then merge the groups in order; returns the induced
    subgraph of the final fragment."""
    state = MergingGraph(mol)
    fids = []
    for group in groups:
        fid = group[0]
        for atom in group[1:]:
            fid = merge(state, fid, atom)
        fids.append(fid)
    fid = fids[0]
    for other in fids[1:]:
        fid = merge(state, fid, other)
    sub, _ = mol.subgraph(state.fragments()[fid])
    return sub


class TestMergeFragments:
    def test_ethane_pair(self):
        sub = merged_subgraph(parse_smiles("CC"), [0], [1])
        assert len(sub.atoms) == 2 and len(sub.bonds) == 1

    def test_cyclopropane_includes_both_cross_bonds(self):
        sub = merged_subgraph(parse_smiles("C1CC1"), [0, 1], [2])
        assert len(sub.bonds) == 3

    def test_benzene_half_merge(self):
        sub = merged_subgraph(parse_smiles("c1ccccc1"), [0, 1, 2, 3], [4, 5])
        assert len(sub.bonds) == 6  # full ring: both cross bonds included


class TestCountPairPatterns:
    def test_single_molecule(self):
        states = [MergingGraph(parse_smiles("CCO"))]
        assert count_pair_patterns(states) == Counter({"CC": 1, "CO": 1})

    def test_worked_example_counts(self):
        states = [
            MergingGraph(parse_smiles(s)) for s in ["CC", "CN", "CNN", "CN=O", "CC=O"]
        ]
        counts = count_pair_patterns(states)
        assert counts == Counter({"CN": 3, "CC": 2, "NN": 1, "N=O": 1, "C=O": 1})

    def test_empty_corpus(self):
        assert count_pair_patterns([]) == Counter()


def oracle_adjacent_pairs(state):
    """Brute force straight off the partition: every adjacent fragment pair's
    merged subgraph, independent of the incremental edge bookkeeping."""
    pairs = []
    frags = list(state.fragments().values())
    for i in range(len(frags)):
        for j in range(i + 1, len(frags)):
            set_i, set_j = set(frags[i]), set(frags[j])
            crosses = any(
                (b.a in set_i and b.b in set_j) or (b.a in set_j and b.b in set_i)
                for b in state.mol.bonds
            )
            if crosses:
                sub, _ = state.mol.subgraph(set_i | set_j)
                pairs.append(sub)
    return pairs


def assert_counts_match_oracle(states):
    counts = count_pair_patterns(states)
    # (pattern key, merged subgraph) per fragment-pair edge, via our machinery
    keyed = []
    for state in states:
        fragments = state.fragments()
        for fa, fb in state.edges:
            sub, _ = state.mol.subgraph(set(fragments[fa]) | set(fragments[fb]))
            keyed.append((state.pattern((fa, fb)), sub))
    oracle_subgraphs = [sub for state in states for sub in oracle_adjacent_pairs(state)]
    groups = group_by_isomorphism(oracle_subgraphs)
    # the oracle enumerates the same number of adjacent pairs
    assert len(oracle_subgraphs) == len(keyed)
    # per-class counts match our per-key counts exactly
    assert sorted(counts.values()) == sorted(len(g) for g in groups)
    # our keys induce the oracle's isomorphism classes: keys are constant
    # within each class and distinct across classes
    seen_keys = []
    for idx_group in groups:
        representative = oracle_subgraphs[idx_group[0]]
        group_keys = {key for key, sub in keyed if isomorphic(sub, representative)}
        assert len(group_keys) == 1
        seen_keys.append(group_keys.pop())
    assert len(seen_keys) == len(set(seen_keys))


class TestCountOracle:
    def test_random_corpora(self):
        rng = Random(4242)
        for trial in range(25):
            corpus = [
                random_molecule(rng, max_atoms=9) for _ in range(rng.randint(2, 8))
            ]
            states = [MergingGraph(m) for m in corpus]
            for _ in range(3):
                assert_counts_match_oracle(states)
                counts = count_pair_patterns(states)
                if not counts:
                    break
                best = max(counts.values())
                op = MergeOperation(0, min(k for k, v in counts.items() if v == best), best)
                for state in states:
                    state.apply_operation(op)


class TestLearning:
    def test_worked_example(self):
        corpus = [parse_smiles(s) for s in ["CC", "CN", "CNN", "CN=O", "CC=O"]]
        ops = learn_merging_operations(corpus, 2)
        assert [op.pattern for op in ops] == ["CN", "CC"]
        assert ops[0].observed_count == 3 and ops[1].observed_count == 2

    def test_fig2_first_two_patterns(self):
        corpus = [parse_smiles(s) for s in ["Brc1ccccc1", "Cc1cccc(O)c1"]]
        ops = learn_merging_operations(corpus, 3)
        assert ops[0].pattern == "c:c"
        assert ops[1].pattern == "c:c:c:c"
        assert len(ops) == 3

    def test_zero_iterations(self):
        corpus = [parse_smiles("CCO")]
        assert learn_merging_operations(corpus, 0) == []

    def test_stops_when_everything_merged(self):
        corpus = [parse_smiles("CC")]
        ops = learn_merging_operations(corpus, 10)
        assert len(ops) == 1

    def test_prefix_property(self, corpus_1k):
        _, mols = corpus_1k
        sub = mols[:40]
        assert learn_merging_operations(sub, 10) == learn_merging_operations(sub, 20)[:10]


def fresh_unions(state):
    """(signature, pattern) of every adjacent fragment pair, each written
    afresh from the partition."""
    pairs = set()
    for bond in state.mol.bonds:
        fa, fb = state.frag_of[bond.a], state.frag_of[bond.b]
        if fa != fb:
            pairs.add((min(fa, fb), max(fa, fb)))
    out = []
    fragments = state.fragments()
    for fa, fb in sorted(pairs):
        pattern = write_smiles(state.mol.subgraph(fragments[fa] + fragments[fb])[0])
        out.append((pattern_signature(pattern), pattern))
    return out


def assert_tally_matches_recount(states, tally):
    closed, opened, patterns = Counter(), Counter(), Counter()
    for state in states:
        for signature, pattern in fresh_unions(state):
            if signature in tally.opened:
                opened[signature] += 1
                patterns[pattern] += 1
            else:
                closed[signature] += 1
        # every edge of an open signature is resolved, to its fresh string
        fragments = state.fragments()
        for signature in state.by_signature:
            if signature in tally.opened:
                for fa, fb in state.pairs(signature):
                    union = fragments[fa] + fragments[fb]
                    assert state.patterns.get((fa, fb)) == write_smiles(state.mol.subgraph(union)[0])
    assert tally.closed == closed
    assert tally.opened == opened
    assert tally.patterns == patterns
    for counts in (tally.closed, tally.opened, tally.patterns):
        assert all(value > 0 for value in counts.values())
    # each closed signature's bound is at most each of its edges' bounds,
    # and every edge's bound holds for its fresh string
    assert tally.bounds.keys() == tally.closed.keys()
    for state in states:
        fragments = state.fragments()
        for signature in state.by_signature:
            for fa, fb in state.pairs(signature):
                bound = min(state.frag_lead[fa], state.frag_lead[fb])[1]
                union = fragments[fa] + fragments[fb]
                assert write_smiles(state.mol.subgraph(union)[0])[: len(bound)] >= bound
                if signature in tally.closed:
                    assert tally.bounds[signature] <= bound


class TestPartitionInvariant:
    def test_partitions_stay_exact(self):
        rng = Random(99)
        corpus = [random_molecule(rng, max_atoms=10) for _ in range(10)]
        states = [MergingGraph(m) for m in corpus]
        # one tally over every state, as the miner keeps it
        tally = PatternTally(states)
        assert_tally_matches_recount(states, tally)
        for _ in range(12):
            for state in states:
                fragments = state.fragments()
                atoms = sorted(a for atoms in fragments.values() for a in atoms)
                assert atoms == list(range(len(state.mol.atoms)))
                for fid, members in fragments.items():
                    assert all(state.frag_of[a] == fid for a in members)
                    sub, _ = state.mol.subgraph(members)
                    assert sub.component_count() == 1
                expected_edges = set()
                for bond in state.mol.bonds:
                    fa, fb = state.frag_of[bond.a], state.frag_of[bond.b]
                    if fa != fb:
                        expected_edges.add((min(fa, fb), max(fa, fb)))
                assert expected_edges == set(state.edges)
            counts = Counter(p for state in states for _, p in fresh_unions(state))
            best = tally.best()
            if not counts:
                assert best is None
                break
            top = max(counts.values())
            assert best[:2] == (min(k for k, v in counts.items() if v == top), top)
            op = MergeOperation(0, *best)
            for state in states:
                state.apply_operation(op, tally)
            assert_tally_matches_recount(states, tally)


class TestEagerOracle:
    """The gated miner picks exactly what resolving every edge would pick."""

    def test_random_corpora(self):
        rng = Random(5150)
        for _ in range(30):
            corpus = [random_molecule(rng, max_atoms=12) for _ in range(rng.randint(1, 12))]
            assert learn_merging_operations(corpus, 40) == eager_learn(corpus, 40)

    def test_a_holder_without_the_picked_pattern_is_visited(self, monkeypatch):
        # the ortho and meta methyl-benzene-methyl unions share a signature,
        # so the pass for one also visits the molecule that has the other
        corpus = [parse_smiles(s) for s in ("Cc1ccccc1C", "Cc1cccc(C)c1")]
        apply_operation = MergingGraph.apply_operation
        lacking = []

        def spy(state, op, tally=None):
            patterns = [state.patterns.get(pair) for pair in state.pairs(op.signature)]
            if op.pattern not in patterns:
                lacking.append(op.pattern)
            return apply_operation(state, op, tally)

        monkeypatch.setattr(MergingGraph, "apply_operation", spy)
        ops = learn_merging_operations(corpus, 10)
        monkeypatch.undo()
        assert lacking == ["Cc1:c:c:c:c(C):c:1"]
        assert ops == eager_learn(corpus, 10)

    def test_tie_heavy_corpora_run_down_to_count_one(self):
        # small molecules plus renumbered copies: many equal counts, and
        # K large enough that mining runs until no edge is left
        rng = Random(77)
        last_counts = []
        for _ in range(20):
            corpus = [random_molecule(rng, max_atoms=7) for _ in range(rng.randint(2, 6))]
            corpus += [permute_molecule(m, rng.sample(range(len(m.atoms)), len(m.atoms)))
                       for m in corpus[:2]]
            ops = learn_merging_operations(corpus, 200)
            assert ops == eager_learn(corpus, 200)
            assert len(ops) < 200
            last_counts.append(ops[-1].observed_count)
        assert last_counts.count(1) >= 10

    def test_fixture_prefix(self, corpus_1k):
        _, mols = corpus_1k
        assert learn_merging_operations(mols[:200], 150) == eager_learn(mols[:200], 150)

    def test_bromine_corpora(self):
        # Br sorts first, so Br-led patterns win ties against signatures
        # whose bound rules them out
        for corpus in bromine_corpora(Random(4242), 12):
            assert learn_merging_operations(corpus, 60) == eager_learn(corpus, 60)


def bromine_corpora(rng: Random, count: int) -> list[list[MolGraph]]:
    """Random corpora with Br at about half of the single-bonded leaves."""
    return [
        [brominated(random_molecule(rng, max_atoms=12), rng) for _ in range(rng.randint(2, 10))]
        for _ in range(count)
    ]


class TestTieBound:
    """Ruling tied signatures out by their bounds changes no artifact byte."""

    @staticmethod
    def artifacts(corpus, num_operations, tmp_path) -> list[bytes]:
        result = mine_corpus(corpus, num_operations)
        write_operations(tmp_path / "ops.txt", result.operations)
        write_vocabulary(tmp_path / "vocab.txt", result.vocabulary)
        write_attachments(tmp_path / "attach.txt", result.vocabulary)
        return [(tmp_path / name).read_bytes() for name in ("ops.txt", "vocab.txt", "attach.txt")]

    def test_same_bytes_without_the_bound(self, corpus_1k, tmp_path, monkeypatch):
        corpora = [(corpus_1k[1], 200)] + [(c, 60) for c in bromine_corpora(Random(17), 8)]
        for corpus, num_operations in corpora:
            union_pattern.cache_clear()
            pruned = self.artifacts(corpus, num_operations, tmp_path)
            pruned_misses = union_pattern.cache_info().misses
            with monkeypatch.context() as patch:
                open_every_tie(patch)
                union_pattern.cache_clear()
                assert self.artifacts(corpus, num_operations, tmp_path) == pruned
                assert union_pattern.cache_info().misses >= pruned_misses


class TestVocabulary:
    def test_fig2_vocabulary_contents(self):
        corpus = [parse_smiles(s) for s in ["Brc1ccccc1", "Cc1cccc(O)c1"]]
        result = mine_corpus(corpus, 3)
        smiles = sorted(result.vocabulary.motifs)
        assert "*Br" in smiles and "*C" in smiles and "*O" in smiles
        rings = [s for s in smiles if "1" in s]
        assert len(rings) == 2  # ring with one site and ring with two sites
        assert result.mean_fragments_per_molecule == pytest.approx(2.5)

    def test_zero_ops_vocabulary_is_atoms(self):
        corpus = [parse_smiles("CCO")]
        vocab = build_motif_vocabulary(corpus, [])
        for motif in vocab.ordered_motifs():
            graph = parse_smiles(motif.smiles)
            assert sum(1 for a in graph.atoms if not a.is_connection_site) == 1
            stars = sum(1 for a in graph.atoms if a.is_connection_site)
            assert stars >= 1

    def test_fully_merged_single_motif(self):
        corpus = [parse_smiles("CC")]
        ops = learn_merging_operations(corpus, 1)
        vocab = build_motif_vocabulary(corpus, ops)
        assert sorted(vocab.motifs) == ["CC"]
        assert vocab["CC"].sites == ()

    def test_attachment_table_symmetric_total(self):
        corpus = [parse_smiles(s) for s in ["Brc1ccccc1", "Cc1cccc(O)c1"]]
        result = mine_corpus(corpus, 3)
        # one broken bond per molecule pair boundary: Br-ring, C-ring, O-ring
        assert sum(result.vocabulary.attachment_counts.values()) == 3

    def test_site_symmetry_classes(self):
        sites = motif_sites("*CC*")
        assert len(sites) == 2
        assert sites[0][1][1] == sites[1][1][1]  # interchangeable stars share a class
        para = motif_sites("*c1:c:c:c(*):c:c:1")
        assert para[0][1][1] == para[1][1][1]

    def test_vocab_matches_mine_reuse(self, corpus_1k):
        _, mols = corpus_1k
        sub = mols[:50]
        result = mine_corpus(sub, 15)
        rebuilt = build_motif_vocabulary(sub, result.operations)
        assert {m.smiles: m.frequency for m in rebuilt.ordered_motifs()} == {
            m.smiles: m.frequency for m in result.vocabulary.ordered_motifs()
        }
        assert rebuilt.attachment_counts == result.vocabulary.attachment_counts

    def test_mining_and_tokenizing_parse_no_string(self, corpus_1k, tmp_path, monkeypatch):
        # site tables come from the instance writes and op signatures from
        # the tally, so no motif or pattern string is parsed back
        assert spied_calls(corpus_1k[1], tmp_path, monkeypatch, parse_smiles) == []

    def test_mining_and_tokenizing_sign_no_graph_from_scratch(self, corpus_1k, tmp_path, monkeypatch):
        # an edge's signature is composed from its fragments' signatures and
        # op signatures come from the tally, so no graph is signed whole
        assert spied_calls(corpus_1k[1], tmp_path, monkeypatch, graph_signature) == []

    def test_each_union_miss_writes_through_the_traced_call(self, corpus_1k, monkeypatch):
        # the bench counts union writes as graphbpe.merging.write_smiles
        # spans, so a miss must write through that name, once, and a hit not
        written = []

        def spy(mol):
            written.append(mol)
            return write_smiles(mol)

        monkeypatch.setattr(graphbpe.merging, "write_smiles", spy)
        union_pattern.cache_clear()
        mine_corpus(corpus_1k[1][:150], 60)
        assert len(written) == union_pattern.cache_info().misses > 0

    def test_vocabulary_builder_hashes_labels_once_per_corpus(self, corpus_1k, monkeypatch):
        # one process-wide label cache serves every molecule, so from a
        # cold cache a corpus listed twice hashes no label more than the
        # corpus once; each (token, degree) entry hashes its own labels,
        # so a label may be hashed more than once
        mols = corpus_1k[1][:100]
        ops = mine_corpus(mols, 40).operations
        calls = []

        def spy(label):
            calls.append(label)
            return signature_value(label)

        monkeypatch.setattr(graphbpe.chem.smiles, "signature_value", spy)
        counts = []
        for corpus in (mols, mols + mols):
            calls.clear()
            graphbpe.chem.smiles.label_values.cache_clear()
            build_motif_vocabulary(corpus, ops)
            counts.append(len(calls))
        assert 0 < counts[1] <= counts[0]


def spied_calls(mols, tmp_path, monkeypatch, function) -> list:
    """The first argument of each call of ``function``, from any graphbpe
    module, while mining, writing the vocabulary, fragmentizing and
    extracting trajectories with all memos cleared."""
    calls = []

    def spy(first, *args, **kwargs):
        calls.append(first)
        return function(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("graphbpe") and vars(module).get(function.__name__) is function:
            monkeypatch.setattr(module, function.__name__, spy)
    for memo in (union_pattern, instance_pattern):
        memo.cache_clear()
    result = mine_corpus(mols[:150], 60)
    write_vocabulary(tmp_path / "vocab.txt", result.vocabulary)
    for mol in mols[150:200]:
        fragmentize(mol, result.operations)
        extract_trajectory(mol, result.operations)
    return calls


def shuffled_molecule(mol, rng: Random):
    """The same molecule with its atom ids and its bond list randomly permuted."""
    perm = list(range(len(mol.atoms)))
    rng.shuffle(perm)
    permuted = permute_molecule(mol, perm)
    bonds = list(permuted.bonds)
    rng.shuffle(bonds)
    return MolGraph(permuted.atoms, tuple(bonds))


class TestInvariance:
    """Mining depends on the molecules only: not on corpus order, atom or
    bond numbering, or what the pattern memo already holds."""

    def test_order_and_numbering_do_not_change_artifacts(self, corpus_1k):
        _, mols = corpus_1k
        corpus = mols[:150]
        union_pattern.cache_clear()
        expected = mined(corpus, 60)
        assert mined(corpus[::-1], 60) == expected  # warm cache
        rng = Random(2024)
        assert mined([shuffled_molecule(m, rng) for m in corpus], 60) == expected


# mining time of the first 150 and 300 fixture molecules at K=30: best of
# three CPU times of a fresh interpreter, each from a cold union memo, so
# neither the memo nor the heap that earlier tests left moves the ratio
MINE_TIMES = """
import json, sys, time
from graphbpe.fileio import load_corpus
from graphbpe.merging import union_pattern
from graphbpe.miner import learn_merging_operations
mols = load_corpus(sys.argv[1])[1]
def mine_time(molecules):
    best = float("inf")
    for _ in range(3):
        union_pattern.cache_clear()
        start = time.process_time()
        learn_merging_operations(molecules, 30)
        best = min(best, time.process_time() - start)
    return best
print(json.dumps({"t1": mine_time(mols[:150]), "t2": mine_time(mols[:300])}))
"""


class TestScaling:
    def test_roughly_linear_in_corpus_size(self):
        times = run_fresh(MINE_TIMES)
        t1, t2 = times["t1"], times["t2"]
        assert t2 <= 2.8 * t1, f"t1={t1:.3f}s t2={t2:.3f}s ratio={t2 / t1:.2f}"
