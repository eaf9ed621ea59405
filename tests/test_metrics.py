import json
import math
from collections import Counter
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphbpe.metrics as metrics
from graphbpe.chem import (
    Atom,
    MolGraph,
    graph_signature,
    may_fail_to_write,
    parse_smiles,
    valence_check,
    write_smiles,
)
from graphbpe.errors import GraphBpeError, RingClosureError
from graphbpe.metrics import compute_descriptors, evaluate, format_report
from helpers import (
    eager_evaluate,
    fused_ladder_smiles,
    numpy_histogram_pair,
    numpy_kl_divergence,
    permute_molecule,
)

GOLDEN = Path(__file__).parent / "fixtures" / "descriptors_golden.json"


class TestDescriptors:
    def test_golden_file(self):
        golden = json.loads(GOLDEN.read_text())
        golden.pop("_comment")
        for smiles, expected in golden.items():
            got = compute_descriptors(parse_smiles(smiles))
            assert got.mol_weight == pytest.approx(expected["mol_weight"], abs=1e-3), smiles
            assert got.heavy_atom_count == expected["heavy_atom_count"], smiles
            assert got.cycle_rank == expected["cycle_rank"], smiles
            assert got.aromatic_atom_fraction == pytest.approx(
                expected["aromatic_atom_fraction"]
            ), smiles
            assert got.heteroatom_fraction == pytest.approx(
                expected["heteroatom_fraction"]
            ), smiles
            assert got.halogen_count == expected["halogen_count"], smiles
            assert list(got.bond_order_fractions) == pytest.approx(
                expected["bond_order_fractions"]
            ), smiles

    def test_fractions_sum_to_one_with_bonds(self, corpus_1k):
        _, mols = corpus_1k
        for mol in mols[:100]:
            fractions = compute_descriptors(mol).bond_order_fractions
            assert sum(fractions) == pytest.approx(1.0)


class TestEvaluate:
    def test_identity_evaluation(self, corpus_1k):
        _, mols = corpus_1k
        train = mols[:150]
        report = evaluate(train, train)
        assert report.validity == 1.0
        assert report.novelty == 0.0
        assert report.kl_div_score >= 0.999

    def test_duplicates_of_one_training_molecule(self, corpus_1k):
        _, mols = corpus_1k
        train = mols[:50]
        generated = [train[0]] * 10
        report = evaluate(generated, train)
        assert report.validity == 1.0
        assert report.uniqueness == pytest.approx(1 / 10)
        assert report.novelty == 0.0

    def test_descriptor_shift_lowers_score(self, corpus_1k):
        _, mols = corpus_1k
        train = mols[:150]
        baseline = evaluate(train, train).kl_div_score
        shifted_pool = [parse_smiles("BrC(Br)(Br)Br")] * (len(train) // 5)
        report = evaluate(train[: len(train) - len(shifted_pool)] + shifted_pool, train)
        assert report.kl_div_score < baseline

    def test_input_order_invariance(self, corpus_1k):
        _, mols = corpus_1k
        train = mols[:40]
        gen = mols[10:60]
        a = evaluate(gen, train)
        b = evaluate(list(reversed(gen)), list(reversed(train)))
        assert a.validity == b.validity
        assert a.uniqueness == b.uniqueness
        assert a.novelty == b.novelty
        assert a.kl_div_score == pytest.approx(b.kl_div_score)

    def test_empty_sets_rejected(self):
        with pytest.raises(GraphBpeError):
            evaluate([], [parse_smiles("CC")])
        with pytest.raises(GraphBpeError):
            evaluate([parse_smiles("CC")], [])

    def test_invalid_molecules_lower_validity(self, corpus_1k):
        _, mols = corpus_1k
        bad = parse_smiles("N(C)(C)(C)C", validate=False)
        report = evaluate([mols[0], bad], mols[:20])
        assert report.validity == 0.5

    def test_report_format_mentions_convention(self, corpus_1k):
        _, mols = corpus_1k
        text = format_report(evaluate(mols[:20], mols[:20]))
        assert "validity=" in text and "kl_div_score=" in text
        assert "unique valid" in text  # novelty denominator documented


# Descriptor-like reals. np.linspace takes another formula when the range
# divided by the bin count underflows to 0, a range no descriptor reaches; no
# nonzero value below 1e-200 in magnitude keeps every drawn range clear of it.
REALS = st.floats(-1e4, 1e4).filter(lambda x: x == 0 or abs(x) >= 1e-200)
COUNTS = st.integers(0, 60)


@st.composite
def channel_pairs(draw) -> tuple[list, list, bool]:
    """(training, generated, integer): generated values are drawn partly
    from the training values, so values equal to the top of the range are
    common, and partly from anywhere, so they fall outside it too."""
    integer = draw(st.booleans())
    values = st.integers(-20, 80) if integer else REALS
    train = draw(st.lists(COUNTS if integer else values, min_size=1, max_size=40))
    gen = draw(st.lists(st.sampled_from(train) | values, min_size=1, max_size=40))
    return train, gen, integer


class TestHistogramOracle:
    @settings(max_examples=500, deadline=None)
    @given(channel_pairs())
    @example(([2.5, 2.5], [2.5, 3.5, 1.0], False))  # lo == hi
    @example(([0.0, 0.5, 1.0], [1.0, 1.0, 0.999], False))  # generated values at hi
    @example(([3.0, 7.5], [-4.0, 99.0, 7.5], False))  # outside the training range
    @example(([3, 5, 5], [0, 9, 5], True))  # integer bins widened by generated values
    @example(([4], [4], True))
    def test_matches_numpy_reference(self, case):
        """Counts equal numpy's, and KL agrees to 1e-12 relative (absolute
        near 0, where a sum of terms of both signs cancels)."""
        train, gen, integer = case
        p, q = metrics._histogram_pair(train, gen, integer)
        ref_p, ref_q = numpy_histogram_pair(
            np.array(train, dtype=float), np.array(gen, dtype=float), integer
        )
        assert (p, q) == (ref_p.astype(int).tolist(), ref_q.astype(int).tolist())
        kl = metrics._kl_divergence(p, q)
        assert math.isclose(kl, numpy_kl_divergence(ref_p, ref_q), rel_tol=1e-12, abs_tol=1e-12)


# can never pass the valence check, like the CLI's placeholder for a bad line
PLACEHOLDER = MolGraph((Atom("C", formal_charge=2),), ())
EMPTY = MolGraph((), ())
DISCONNECTED = MolGraph((Atom("C", implicit_h=4), Atom("C", implicit_h=4)), ())


def permuted(mol: MolGraph, rng: Random) -> MolGraph:
    perm = list(range(len(mol.atoms)))
    rng.shuffle(perm)
    return permute_molecule(mol, perm)


def oracle_cases(mols: list[MolGraph]) -> dict[str, tuple[list, list]]:
    """(generated, training) pairs on which ``evaluate`` must equal the
    eager reference."""
    rng = Random(13)
    train = mols[100:300]
    copies = [permuted(m, rng) for m in train[:40]]
    duplicates = mols[:60] + mols[20:40] + [mols[5]] * 7 + mols[150:170]
    return {
        "duplicates": (duplicates, train),
        "permuted copies": (copies + mols[:20] + copies[:10], train),
        "same signature": (
            [parse_smiles("Cc1ccccc1C")] * 3 + mols[:10],
            [parse_smiles("Cc1cccc(C)c1")] + train[:50],
        ),
        "placeholders": ([PLACEHOLDER] * 5 + mols[:30] + [PLACEHOLDER] + mols[:5], train),
        "only placeholders": ([PLACEHOLDER] * 4, train),
        "reversed": (list(reversed(duplicates)), list(reversed(train))),
    }


class TestDistinctGraphs:
    @pytest.mark.parametrize("case", [
        "duplicates", "permuted copies", "same signature", "placeholders",
        "only placeholders", "reversed",
    ])
    def test_equals_eager_oracle(self, corpus_1k, case):
        generated, training = oracle_cases(corpus_1k[1])[case]
        assert evaluate(generated, training) == eager_evaluate(generated, training)

    def test_permuted_copies_are_not_novel(self, corpus_1k):
        generated, training = oracle_cases(corpus_1k[1])["permuted copies"]
        assert generated[0] != training[0]  # isomorphic, not equal
        report = evaluate(generated[:40], training)
        assert report.unique_count == 40 and report.novel_count == 0

    def test_same_signature_pair_stays_novel(self):
        ortho, meta = parse_smiles("Cc1ccccc1C"), parse_smiles("Cc1cccc(C)c1")
        assert graph_signature(ortho) == graph_signature(meta)
        assert write_smiles(ortho) != write_smiles(meta)
        assert evaluate([ortho], [meta]).novel_count == 1
        assert evaluate([ortho], [meta, ortho]).novel_count == 0

    @pytest.mark.parametrize("training_tail, error", [
        ([parse_smiles(fused_ladder_smiles(150))], RingClosureError),
        ([EMPTY], ValueError),
        ([DISCONNECTED], ValueError),
        ([DISCONNECTED, parse_smiles(fused_ladder_smiles(150))], ValueError),
        ([parse_smiles(fused_ladder_smiles(150)), EMPTY], RingClosureError),
    ])
    def test_unwritable_training_molecule_still_raises(self, corpus_1k, training_tail, error):
        mols = corpus_1k[1]
        training = mols[:30] + training_tail + mols[30:40]
        assert all(graph_signature(m) != graph_signature(training_tail[0]) for m in mols[:40])
        with pytest.raises(error) as expected:
            eager_evaluate(mols[:40], training)
        with pytest.raises(error) as got:
            evaluate(mols[:40], training)
        assert str(got.value) == str(expected.value)

    def test_unwritable_generated_molecule_still_raises(self, corpus_1k):
        mols = corpus_1k[1]
        with pytest.raises(ValueError, match="empty"):
            evaluate(mols[:5] + [EMPTY, DISCONNECTED], mols[:20])
        with pytest.raises(ValueError, match="disconnected"):
            evaluate(mols[:5] + [DISCONNECTED, EMPTY], mols[:20])

    def test_counts_components_once_per_molecule(self, corpus_1k, monkeypatch):
        mols = corpus_1k[1]
        generated = mols[:50] + mols[10:30]
        training = mols[50:200] + [DISCONNECTED]
        counted = []
        component_count = MolGraph.component_count

        def spy(mol):
            counted.append(id(mol))
            return component_count(mol)

        monkeypatch.setattr(MolGraph, "component_count", spy)
        with pytest.raises(ValueError, match="disconnected"):
            evaluate(generated, training)
        counted.clear()
        report = evaluate(generated, training[:-1])
        monkeypatch.undo()
        assert max(Counter(counted).values()) == 1
        assert len(counted) == 50 + 150
        assert report == eager_evaluate(generated, training[:-1])

    def test_writes_distinct_valid_graphs_and_candidate_training(self, corpus_1k, monkeypatch):
        mols = corpus_1k[1]
        rng = Random(5)
        generated = mols[:50] + mols[10:30] + [PLACEHOLDER] * 3 + [permuted(mols[0], rng)]
        # cycle rank 100, so it is written, yet it needs one ring label
        cyclopropanes = parse_smiles("C1CC1" * 100)
        training = mols[40:400] + [parse_smiles("CC1CCCC1"), cyclopropanes]
        written = []

        def spy(mol):
            written.append(mol)
            return write_smiles(mol)

        monkeypatch.setattr(metrics, "write_smiles", spy)
        report = evaluate(generated, training)
        valid = {m for m in generated if valence_check(m)}
        signatures = {graph_signature(m) for m in valid}
        candidates = [
            m for m in training if may_fail_to_write(m) or graph_signature(m) in signatures
        ]
        assert cyclopropanes in candidates and cyclopropanes in written
        assert len(written) == len(valid) + len(candidates)
        assert 10 <= len(candidates) < len(training) // 4
        monkeypatch.undo()
        assert report == eager_evaluate(generated, training)
