import math
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbpe.generator as gen
from graphbpe.chem import parse_smiles, valence_check, write_smiles
from graphbpe.errors import (
    EmptyVocabularyError,
    IncompatibleBondError,
    IrreparableValenceError,
    NoCompatibleCandidateError,
    UnknownMotifError,
)
from graphbpe.generator import (
    DEFAULT_MAX_STEPS,
    DISTRIBUTIONAL,
    GREEDY,
    FrequencyPolicy,
    GenerationState,
    Policy,
    _choose,
    _head,
    finalize,
    generate,
    generation_step,
    molecule_seed,
    repair_aromatic_rings,
    replay_trajectory,
    start_generation,
)
from graphbpe.miner import (
    Candidate,
    Motif,
    MotifVocabulary,
    attachment_key,
    mine_corpus,
)
from graphbpe.tokenizer import Trajectory, TrajectoryStep
from helpers import full_array_select, site_type


def micro_vocab(*entries, attachments=None):
    motifs = {s: Motif(s, f) for s, f in entries}
    return MotifVocabulary(motifs, attachments or {})


def seeded_state(motif: Motif, seed: int = 0) -> GenerationState:
    state = GenerationState(rng_seed=seed)
    state.start(motif)
    return state


@pytest.fixture(scope="module")
def vocab_80(corpus_1k):
    """The vocabulary mined from the first 80 fixture molecules at K=30."""
    _, molecules = corpus_1k
    return mine_corpus(molecules[:80], 30).vocabulary


class CountingPolicy(FrequencyPolicy):
    calls = 0
    starts = 0

    def score_start(self, context, motifs):
        self.starts += 1
        return super().score_start(context, motifs)

    def score_connections(self, context, focus, candidates):
        self.calls += 1
        return super().score_connections(context, focus, candidates)


class PlainPolicy(Policy):
    """A policy that is no ``FrequencyPolicy`` and declares nothing: it
    counts its calls and takes its scores from one."""

    def __init__(self, vocab):
        self.base = FrequencyPolicy(vocab)
        self.calls = self.starts = 0

    def score_start(self, context, motifs):
        self.starts += 1
        return self.base.score_start(context, motifs)

    def score_connections(self, context, focus, candidates):
        self.calls += 1
        return self.base.score_connections(context, focus, candidates)


def generate_uncached(vocab, policy, n, mode, seed, top_k) -> list[str]:
    """The written molecules of ``generate``'s loop with ``score_cache=None``
    at every call, so every start and every step scores afresh."""
    written = []
    for index in range(n):
        state = start_generation(vocab, policy, molecule_seed(seed, index), mode, top_k)
        try:
            while not state.terminal:
                if state.step_count >= DEFAULT_MAX_STEPS:
                    break
                generation_step(state, vocab, policy, mode, top_k)
            else:
                written.append(write_smiles(finalize(state)))
        except (NoCompatibleCandidateError, IrreparableValenceError):
            pass
    return written


class TestSelectionArguments:
    BAD = [(GREEDY, 0), (DISTRIBUTIONAL, 0), (DISTRIBUTIONAL, -1), ("beam", None)]

    @pytest.mark.parametrize("mode,top_k", BAD)
    def test_generate_rejects(self, mode, top_k):
        vocab = micro_vocab(("*C", 1))
        policy = CountingPolicy(vocab)
        with pytest.raises(ValueError):
            generate(vocab, policy, 3, mode, top_k=top_k)
        assert (policy.starts, policy.calls) == (0, 0)

    @pytest.mark.parametrize("mode,top_k", BAD)
    def test_start_generation_rejects(self, mode, top_k):
        vocab = micro_vocab(("*C", 1))
        policy = CountingPolicy(vocab)
        with pytest.raises(ValueError):
            start_generation(vocab, policy, 0, mode, top_k)
        assert policy.starts == 0

    @pytest.mark.parametrize("mode,top_k", BAD)
    def test_generation_step_rejects(self, mode, top_k):
        vocab = micro_vocab(("*C", 1))
        policy = CountingPolicy(vocab)
        state = seeded_state(vocab["*C"])
        with pytest.raises(ValueError):
            generation_step(state, vocab, policy, mode, top_k)
        assert policy.calls == 0 and len(state.queue) == 1


class TestScoring:
    def test_indexed_scores_are_bit_exact(self, vocab_80):
        """Both pools against the per-candidate formula over the whole
        attachment table, for every focus site type of every bond order."""
        def count(a, b):
            return vocab_80.attachment_counts.get(attachment_key(a, b), 0)

        policy = FrequencyPolicy(vocab_80, cyclize_weight=0.7)
        focus_count = 0
        for order, pool in vocab_80.candidates_by_order.items():
            open_pool = [Candidate("partial", c.site_type, star_atom=i)
                         for i, c in enumerate(pool)]
            for focus in sorted({c.site_type for c in pool}):
                focus_count += 1
                vocab_scores = policy.score_connections(0, focus, pool)
                reference = np.array([
                    math.log1p(count(focus, c.site_type)) + math.log(c.motif.frequency)
                    for c in pool
                ])
                assert np.array_equal(vocab_scores, reference)
                open_scores = policy.score_connections(0, focus, open_pool)
                reference = np.array([
                    math.log1p(0.7 * count(focus, c.site_type)) for c in open_pool
                ])
                assert np.array_equal(open_scores, reference)
        assert focus_count > 50 and len(vocab_80.partners) > 50

    @settings(max_examples=400, deadline=None)
    @given(
        pool=st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=60),
        extra=st.lists(st.integers(-3, 3).map(float), max_size=5),
        top_k=st.one_of(st.none(), st.integers(1, 70)),
        mode=st.sampled_from([GREEDY, DISTRIBUTIONAL]),
        temperature=st.sampled_from([0.5, 1.0, 3.0]),
        seed=st.integers(0, 2**32),
    )
    def test_head_selection_matches_full_array_rule(
        self, pool, extra, top_k, mode, temperature, seed
    ):
        scores, extra_scores = np.array(pool), np.array(extra)
        rng_full, rng_head = Random(seed), Random(seed)
        expected = full_array_select(
            np.concatenate([scores, extra_scores]), mode, rng_full, temperature, top_k
        )
        head = _head(list(range(len(pool))), scores, mode, top_k)
        extra_ids = list(range(len(pool), len(pool) + len(extra)))
        got = _choose(head, extra_ids, extra_scores, mode, rng_head, temperature, top_k)
        assert got == expected
        assert rng_head.random() == rng_full.random()

    @pytest.mark.parametrize("mode", [GREEDY, DISTRIBUTIONAL])
    @pytest.mark.parametrize("top_k", [None, 1, 25])
    def test_one_head_reused_matches_full_array_rule(self, mode, top_k):
        """One head serves 240 picks, with and without extras, alternating
        temperatures 0.5 and 2.0; each pick and the rng after it match the
        rule over every score."""
        draw = Random(top_k or 0)
        scores = np.array([float(draw.randint(-6, 6)) / 2 for _ in range(60)])
        head = _head(list(range(len(scores))), scores, mode, top_k)
        rng_full, rng_head = Random(7), Random(7)
        for i in range(240):
            temperature = (0.5, 2.0)[i % 2]
            extra_scores = np.array(
                [float(draw.randint(-6, 6)) / 2 for _ in range(draw.choice([0, 0, 1, 4]))]
            )
            extra_ids = list(range(len(scores), len(scores) + len(extra_scores)))
            expected = full_array_select(np.concatenate([scores, extra_scores]), mode,
                                         rng_full, temperature, top_k)
            got = _choose(head, extra_ids, extra_scores, mode, rng_head, temperature, top_k)
            assert got == expected, i
            assert rng_head.getstate() == rng_full.getstate(), i

    @staticmethod
    def step_work(vocab, monkeypatch, top_k) -> list[tuple]:
        """(focus type, counts of ``_head``, ``_cumulative`` and non-empty
        ``_partial_candidates`` calls) for each step of one sampled
        ``generate`` call."""
        counts: Counter = Counter()

        def spy(name, function, counted=lambda result: True):
            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                if counted(result):
                    counts[name] += 1
                return result
            monkeypatch.setattr(gen, name, wrapper)

        spy("_head", gen._head)
        spy("_cumulative", gen._cumulative)
        spy("_partial_candidates", gen._partial_candidates, counted=bool)
        step = gen.generation_step
        work = []

        def counted_step(state, *args, **kwargs):
            focus_type = state.open_sites[state.queue[0]][1]
            before = Counter(counts)
            result = step(state, *args, **kwargs)
            work.append((focus_type, counts - before))
            return result

        monkeypatch.setattr(gen, "generation_step", counted_step)
        generate(vocab, FrequencyPolicy(vocab), 200, DISTRIBUTIONAL, seed=1, top_k=top_k)
        return work

    def check_step_work(self, work, rebuilds: bool) -> None:
        """A focus type's head is built on its first step only and computes
        its distribution at most once; a step with no open-site candidate
        builds nothing else, and one with some builds one more head when
        ``rebuilds``. Distributions number at most one per head plus one per
        step with open-site candidates."""
        seen = set()
        for focus_type, c in work:
            rebuilt = bool(c["_partial_candidates"]) and rebuilds
            assert c["_head"] == (focus_type not in seen) + rebuilt
            seen.add(focus_type)
        total = sum((c for _, c in work), Counter())
        assert total["_cumulative"] <= total["_head"] + total["_partial_candidates"]
        quiet = [c for _, c in work if not c["_partial_candidates"]]
        assert sum(c["_cumulative"] for c in quiet) <= len(seen)
        assert sum(1 for c in quiet if not (c["_head"] or c["_cumulative"])) > 200

    def test_a_head_computes_its_distribution_once(self, vocab_80, monkeypatch):
        """Top-k sampling: a step with open-site candidates builds one head
        over the cached head and those candidates."""
        self.check_step_work(self.step_work(vocab_80, monkeypatch, 25), rebuilds=True)

    def test_full_softmax_builds_no_head_per_step(self, vocab_80, monkeypatch):
        """Sampling without top-k: a step with open-site candidates draws
        over the cached head's mass and theirs, and builds no head."""
        self.check_step_work(self.step_work(vocab_80, monkeypatch, None), rebuilds=False)


class TestStart:
    def test_empty_vocabulary(self):
        with pytest.raises(EmptyVocabularyError):
            start_generation(micro_vocab(), FrequencyPolicy(micro_vocab(("C", 1))), 0)

    def test_zero_site_motif_terminal_immediately(self):
        vocab = micro_vocab(("CC", 5))
        state = start_generation(vocab, FrequencyPolicy(vocab), 0, GREEDY)
        assert state.terminal
        assert write_smiles(finalize(state)) == "CC"

    def test_greedy_picks_most_frequent(self):
        vocab = micro_vocab(("CC", 5), ("CN", 50))
        state = start_generation(vocab, FrequencyPolicy(vocab), 0, GREEDY)
        assert write_smiles(finalize(state)) == "CN"

    def test_fixed_seed_distributional_start_is_stable(self):
        vocab = micro_vocab(("CC", 5), ("CN", 5), ("CO", 5))
        picks = {
            write_smiles(finalize(start_generation(vocab, FrequencyPolicy(vocab), 123,
                                                    DISTRIBUTIONAL)))
            for _ in range(5)
        }
        assert len(picks) == 1


class TestStep:
    def test_bromobenzene_micro_vocabulary(self):
        ring = Motif("*c1:c:c:c:c:c:1", 3)
        bromine = Motif("*Br", 5)
        chlorine = Motif("*Cl", 1)
        ring_site = site_type(ring.smiles, ring.sites[0][0])
        br_site = site_type(bromine.smiles, bromine.sites[0][0])
        attachments = {tuple(sorted([ring_site, br_site])): 10}
        vocab = MotifVocabulary(
            {m.smiles: m for m in (ring, bromine, chlorine)}, attachments
        )
        state = seeded_state(ring)
        generation_step(state, vocab, FrequencyPolicy(vocab), GREEDY)
        result = finalize(state)
        assert write_smiles(result) == write_smiles(parse_smiles("Brc1ccccc1"))

    def test_forced_cyclization_yields_novel_ring(self):
        chain = Motif("*CCCCC*", 1)
        state = seeded_state(chain)
        vocab = micro_vocab()  # nothing to attach: must cyclize
        policy = FrequencyPolicy(micro_vocab((chain.smiles, 1)))
        generation_step(state, vocab, policy, GREEDY)
        result = finalize(state)
        assert write_smiles(result) == write_smiles(parse_smiles("C1CCCC1"))
        assert chain.smiles not in {"C1CCCC1"}  # emitted ring absent from vocab

    def test_bond_order_filter_blocks_mismatches(self):
        double_end = Motif("*=C", 1)
        single_cap = Motif("*C", 9)
        vocab = micro_vocab((single_cap.smiles, 9))
        state = seeded_state(double_end)
        with pytest.raises(NoCompatibleCandidateError):
            generation_step(state, vocab, FrequencyPolicy(vocab), GREEDY)

    def test_queue_conservation(self):
        corpus = [parse_smiles(s) for s in ["CC", "CN", "CNN", "CN=O", "CC=O"]]
        result = mine_corpus(corpus, 1)
        vocab = result.vocabulary
        policy = FrequencyPolicy(vocab)
        state = start_generation(vocab, policy, 5, DISTRIBUTIONAL)
        while not state.terminal and state.step_count < 30:
            assert len(state.open_sites) == len(state.queue)
            assert set(state.open_sites) == set(state.queue)
            assert not any(atom.is_connection_site for atom in state.atoms)
            generation_step(state, vocab, policy, DISTRIBUTIONAL)
        assert state.terminal or state.step_count >= 30

    def test_argmax_invariant_to_score_shift(self):
        class Shifted(Policy):
            def __init__(self, base, delta):
                self.base, self.delta = base, delta
                self.temperature = base.temperature

            def score_start(self, context, motifs):
                return np.asarray(self.base.score_start(context, motifs)) + self.delta

            def score_connections(self, context, focus, candidates):
                return (
                    np.asarray(self.base.score_connections(context, focus, candidates))
                    + self.delta
                )

        corpus = [parse_smiles(s) for s in ["CC", "CN", "CNN", "CN=O", "CC=O"]]
        vocab = mine_corpus(corpus, 1).vocabulary
        base = FrequencyPolicy(vocab)
        outputs = []
        for delta in (0.0, 7.5):
            mols, _ = generate(vocab, Shifted(base, delta), 5, GREEDY, seed=3)
            outputs.append([write_smiles(m) for m in mols])
        assert outputs[0] == outputs[1]


class TestFinalize:
    def test_eight_ring_repaired_to_saturated(self):
        half = Motif("*:c:c:c:c:*", 1)
        vocab = micro_vocab((half.smiles, 1))
        traj = Trajectory(half.smiles, (
            TrajectoryStep(kind="attach", motif=half.smiles, site=half.sites[0][0]),
            TrajectoryStep(kind="cyclize", target=0),
        ))
        result = replay_trajectory(traj, vocab)
        assert write_smiles(result) == write_smiles(parse_smiles("C1CCCCCCC1"))
        assert valence_check(result)

    def test_valid_benzene_assembly_untouched(self):
        half = Motif("*:c:c:c:*", 1)
        vocab = micro_vocab((half.smiles, 1))
        traj = Trajectory(half.smiles, (
            TrajectoryStep(kind="attach", motif=half.smiles, site=half.sites[0][0]),
            TrajectoryStep(kind="cyclize", target=0),
        ))
        result = replay_trajectory(traj, vocab)
        assert write_smiles(result) == write_smiles(parse_smiles("c1ccccc1"))

    def test_saturated_output_unchanged(self):
        mol = parse_smiles("CCCC")
        assert repair_aromatic_rings(mol) is not None
        assert write_smiles(repair_aromatic_rings(mol)) == write_smiles(mol)

    def test_unrepaired_molecule_is_returned_itself(self):
        for smiles in ("CCCC", "c1ccccc1O"):
            mol = parse_smiles(smiles)
            assert repair_aromatic_rings(mol) is mol

    def test_finalize_requires_terminal(self):
        state = seeded_state(Motif("*C", 1))
        with pytest.raises(ValueError):
            finalize(state)


class TestGenerate:
    def test_zero_molecules(self):
        vocab = micro_vocab(("CC", 1))
        mols, report = generate(vocab, FrequencyPolicy(vocab), 0)
        assert mols == [] and report.requested == 0

    def test_validity_on_mined_vocabulary(self):
        corpus = [parse_smiles(s) for s in ["CC", "CN", "CNN", "CN=O", "CC=O"]]
        vocab = mine_corpus(corpus, 2).vocabulary
        policy = FrequencyPolicy(vocab)
        for mode in (GREEDY, DISTRIBUTIONAL):
            mols, report = generate(vocab, policy, 60, mode, seed=9)
            assert report.emitted == len(mols)
            assert all(valence_check(m) for m in mols)

    def test_fixed_seed_reproducible(self, vocab_80):
        policy = FrequencyPolicy(vocab_80)
        runs = [
            [write_smiles(m) for m in generate(vocab_80, policy, 25, DISTRIBUTIONAL,
                                               seed=77, top_k=10)[0]]
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_cached_and_uncached_scoring_agree(self, vocab_80):
        huge = 10**6  # more than any pool holds
        assert max(len(vocab_80), *map(len, vocab_80.candidates_by_order.values())) < huge
        for mode, top_k in [(DISTRIBUTIONAL, 10), (DISTRIBUTIONAL, None),
                            (DISTRIBUTIONAL, huge), (GREEDY, None)]:
            cached, uncached = PlainPolicy(vocab_80), PlainPolicy(vocab_80)
            runs = [
                [write_smiles(m) for m in generate(vocab_80, cached, 40, mode,
                                                   seed=5, top_k=top_k)[0]],
                generate_uncached(vocab_80, uncached, 40, mode, 5, top_k),
            ]
            assert runs[0] and runs[0] == runs[1], (mode, top_k)
            assert 0 < cached.calls < uncached.calls, (mode, top_k)
            assert (cached.starts, uncached.starts) == (1, 40), (mode, top_k)

    def test_max_step_guard_reports_aborts(self):
        # two-site chain motif with self-attachment counts: grows unboundedly
        chain = Motif("*CC*", 50)
        site = site_type(chain.smiles, chain.sites[0][0])
        vocab = MotifVocabulary({chain.smiles: chain},
                                {tuple(sorted([site, site])): 100})
        policy = FrequencyPolicy(vocab)
        mols, report = generate(vocab, policy, 3, GREEDY, seed=0, max_steps=20)
        assert report.aborted + report.emitted == 3

    def test_halts_without_guard_when_motifs_are_caps(self):
        # every vocabulary motif carries at most one site beyond the one
        # consumed by the attach, so the queue shrinks monotonically
        corpus = [parse_smiles(s) for s in ["CC", "CN", "CNN", "CN=O", "CC=O"]]
        vocab = mine_corpus(corpus, 2).vocabulary
        assert all(len(m.sites) <= 2 for m in vocab.ordered_motifs())
        policy = FrequencyPolicy(vocab)
        _, report = generate(vocab, policy, 200, DISTRIBUTIONAL, seed=4,
                             max_steps=10**9)
        assert report.aborted == 0 and report.emitted == 200


class TestReplayErrors:
    def test_unknown_motif(self):
        vocab = micro_vocab(("CC", 1))
        with pytest.raises(UnknownMotifError):
            replay_trajectory(Trajectory("*C", ()), vocab)

    def test_incomplete_trajectory(self):
        vocab = micro_vocab(("*C", 1))
        with pytest.raises(IncompatibleBondError):
            replay_trajectory(Trajectory("*C", ()), vocab)

    def test_order_mismatch(self):
        vocab = micro_vocab(("*C", 1), ("*=O", 1))
        traj = Trajectory("*C", (TrajectoryStep(kind="attach", motif="*=O", site=0),))
        with pytest.raises(IncompatibleBondError):
            replay_trajectory(traj, vocab)
