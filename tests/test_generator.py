import numpy as np
import pytest

from graphbpe.chem import parse_smiles, valence_check, write_smiles
from graphbpe.errors import (
    EmptyVocabularyError,
    IncompatibleBondError,
    NoCompatibleCandidateError,
    UnknownMotifError,
)
from graphbpe.generator import (
    DISTRIBUTIONAL,
    GREEDY,
    FrequencyPolicy,
    GenerationState,
    Policy,
    finalize,
    generate,
    generation_step,
    repair_aromatic_rings,
    replay_trajectory,
    start_generation,
)
from graphbpe.miner import Motif, MotifVocabulary, mine_corpus, site_type
from graphbpe.tokenizer import Trajectory, TrajectoryStep


def micro_vocab(*entries, attachments=None):
    motifs = {s: Motif(s, f) for s, f in entries}
    return MotifVocabulary(motifs, attachments or {})


def seeded_state(motif: Motif, seed: int = 0) -> GenerationState:
    state = GenerationState(rng_seed=seed)
    state.start(motif)
    return state


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

    def test_fixed_seed_reproducible(self, corpus_1k):
        _, molecules = corpus_1k
        vocab = mine_corpus(molecules[:80], 30).vocabulary
        policy = FrequencyPolicy(vocab)
        runs = [
            [write_smiles(m) for m in generate(vocab, policy, 25, DISTRIBUTIONAL,
                                               seed=77, top_k=10)[0]]
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_cached_and_uncached_scoring_agree(self, corpus_1k):
        class Counting(FrequencyPolicy):
            calls = 0
            starts = 0

            def score_start(self, context, motifs):
                self.starts += 1
                return super().score_start(context, motifs)

            def score_connections(self, context, focus, candidates):
                self.calls += 1
                return super().score_connections(context, focus, candidates)

        _, molecules = corpus_1k
        vocab = mine_corpus(molecules[:80], 30).vocabulary
        cached, uncached = Counting(vocab), Counting(vocab)
        uncached.context_free = False
        runs = [
            [write_smiles(m) for m in generate(vocab, policy, 40, DISTRIBUTIONAL,
                                               seed=5, top_k=10)[0]]
            for policy in (cached, uncached)
        ]
        assert runs[0] and runs[0] == runs[1]
        assert 0 < cached.calls < uncached.calls
        assert (cached.starts, uncached.starts) == (1, 40)

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
