import math
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbpe.generator as gen
import graphbpe.miner
from graphbpe.chem import MolGraph, parse_smiles, valence_check, write_smiles
from graphbpe.chem.mol import Atom, make_bond
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
    GenerationIndex,
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
    pools = 0

    def score_start(self, context, motifs):
        self.starts += 1
        return super().score_start(context, motifs)

    def score_pool(self, context, candidates):
        self.pools += 1
        return super().score_pool(context, candidates)

    def score_connections(self, context, focus, candidates):
        self.calls += 1
        return super().score_connections(context, focus, candidates)


class PlainPolicy(Policy):
    """A policy that is no ``FrequencyPolicy`` and declares nothing: it
    counts its calls and takes its scores from one."""

    def __init__(self, vocab):
        self.base = FrequencyPolicy(vocab)
        self.calls = self.starts = self.pools = 0

    def score_start(self, context, motifs):
        self.starts += 1
        return self.base.score_start(context, motifs)

    def score_pool(self, context, candidates):
        self.pools += 1
        return self.base.score_pool(context, candidates)

    def score_connections(self, context, focus, candidates):
        self.calls += 1
        return self.base.score_connections(context, focus, candidates)


def bond_orders(vocab) -> list[str]:
    return sorted({site[2] for motif in vocab.ordered_motifs() for _, site in motif.sites})


def reference_pool(vocab, order) -> list[Candidate]:
    """Every vocabulary site of bond order ``order`` as a candidate, in
    motif then canonical site order."""
    return [Candidate("vocab", site, motif, star_atom)
            for motif in vocab.ordered_motifs()
            for star_atom, site in motif.sites if site[2] == order]


def generate_uncached(vocab, policy, n, mode, seed, top_k) -> list[str]:
    """The written molecules of ``generate``'s loop with no index passed to
    any call, so every start and every step builds its own and scores
    afresh."""
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
        assert (policy.starts, policy.pools, policy.calls) == (0, 0, 0)

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
        assert policy.pools == policy.calls == 0 and len(state.queue) == 1


class TestScoring:
    def test_indexed_scores_are_bit_exact(self, vocab_80):
        """Pool, vocabulary and open-site scores against the per-candidate
        formula over the whole attachment table, for every focus site type
        of every bond order; the index's pools and partners against the
        vocabulary, and a non-partner's connection score is its pool score."""
        def count(a, b):
            return vocab_80.attachment_counts.get(attachment_key(a, b), 0)

        policy = FrequencyPolicy(vocab_80, cyclize_weight=0.7)
        index = GenerationIndex(vocab_80, policy)
        focus_count = 0
        for order in bond_orders(vocab_80):
            indexed = index.pool(0, order)
            pool = indexed.candidates
            assert pool == reference_pool(vocab_80, order)
            pool_scores = policy.score_pool(0, pool)
            assert np.array_equal(pool_scores, [math.log(c.motif.frequency) for c in pool])
            assert indexed.scores == pool_scores
            assert indexed.ranking == sorted(range(len(pool)), key=lambda i: (-pool_scores[i], i))
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
                partners = index.partners.get(focus, set())
                for cand, score, pool_score in zip(pool, vocab_scores, pool_scores):
                    assert (cand.site_type in partners) == (count(focus, cand.site_type) > 0)
                    assert cand.site_type in partners or score == pool_score
                open_scores = policy.score_connections(0, focus, open_pool)
                reference = np.array([
                    math.log1p(0.7 * count(focus, c.site_type)) for c in open_pool
                ])
                assert np.array_equal(open_scores, reference)
        assert focus_count > 50 and len(index.partners) > 50

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
        ``_partial_candidates`` calls, and of ``_choose`` calls whose head
        an open-site candidate can enter) for each step of one sampled
        ``generate`` call. A candidate can enter a top-k head that is short
        of ``top_k`` items, or one whose lowest score is below its own."""
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
        choose = gen._choose

        def spied_choose(head, extra, extra_scores, *args):
            _, scores, _ = head
            if extra and top_k is not None and (
                len(scores) < top_k or max(extra_scores) > min(scores)
            ):
                counts["enterable"] += 1
            return choose(head, extra, extra_scores, *args)

        monkeypatch.setattr(gen, "_choose", spied_choose)
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

    def check_step_work(self, work) -> None:
        """A focus type's head is built on its first step only and computes
        its distribution at most once; a step builds one more head only
        when an open-site candidate can enter the cached one. Distributions
        number at most one per head plus one per step with open-site
        candidates."""
        seen = set()
        for focus_type, c in work:
            assert c["_head"] == (focus_type not in seen) + c["enterable"]
            seen.add(focus_type)
        total = sum((c for _, c in work), Counter())
        assert total["_cumulative"] <= total["_head"] + total["_partial_candidates"]
        quiet = [c for _, c in work if not c["_partial_candidates"]]
        assert sum(c["_cumulative"] for c in quiet) <= len(seen)
        assert sum(1 for c in quiet if not (c["_head"] or c["_cumulative"])) > 200

    def test_a_head_computes_its_distribution_once(self, vocab_80, monkeypatch):
        """Top-k sampling: a step with open-site candidates builds a head
        over the cached head and those candidates only when one of them
        scores above the cached head's lowest or the head is short; most
        such steps keep the cached head and its distribution."""
        work = self.step_work(vocab_80, monkeypatch, 25)
        self.check_step_work(work)
        open_steps = [c for _, c in work if c["_partial_candidates"]]
        kept = [c for c in open_steps if not c["_head"]]
        assert len(kept) > len(open_steps) / 2

    def test_full_softmax_builds_no_head_per_step(self, vocab_80, monkeypatch):
        """Sampling without top-k: a step with open-site candidates draws
        over the cached head's mass and theirs, and builds no head."""
        work = self.step_work(vocab_80, monkeypatch, None)
        self.check_step_work(work)
        assert not any(c["enterable"] for _, c in work)

    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(st.integers(-3, 3).map(float), max_size=40),
        top_k=st.one_of(st.just(None), st.integers(1, 30)),
        picks=st.lists(st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
                                 st.sampled_from([0.5, 1.0, 3.0])), min_size=1, max_size=6),
        seed=st.integers(0, 2**32),
    )
    def test_a_kept_head_picks_as_a_rebuilt_head(self, pool, top_k, picks, seed):
        """Greedy (``top_k`` None) and top-k 1-30 picks from one cached head
        against a reference that builds ``_head(items + extra)`` at every
        pick. Extra scores are drawn around the head's lowest score, ties
        included; heads may be short of ``top_k`` or empty."""
        mode = GREEDY if top_k is None else DISTRIBUTIONAL
        head = _head(list(range(len(pool))), pool, mode, top_k)
        low = min(head[1], default=0.0)
        rng_kept, rng_rebuilt = Random(seed), Random(seed)
        for offsets, temperature in picks:
            extra_scores = [low + offset / 2 for offset in offsets]
            extra = list(range(len(pool), len(pool) + len(extra_scores)))
            items, scores, _ = head
            rebuilt = _head(items + extra, scores + extra_scores, mode, top_k)
            expected = _choose(rebuilt, [], None, mode, rng_rebuilt, temperature, top_k)
            got = _choose(head, extra, extra_scores, mode, rng_kept, temperature, top_k)
            assert got == expected
            assert rng_kept.getstate() == rng_rebuilt.getstate()

    @pytest.mark.parametrize("mode,top_k", [(GREEDY, None), (DISTRIBUTIONAL, 2),
                                            (DISTRIBUTIONAL, 5), (DISTRIBUTIONAL, None)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_open_site_score_raises(self, mode, top_k, bad):
        """Also when the head is full and every finite score is below it."""
        head = _head([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0], mode, top_k)
        with pytest.raises(ValueError):
            _choose(head, [4, 5], [bad, -9.0], mode, Random(0), 1.0, top_k)


SELECTIONS = [(GREEDY, None), (DISTRIBUTIONAL, 1), (DISTRIBUTIONAL, 25), (DISTRIBUTIONAL, None)]

TOY_MOTIFS = {s: Motif(s, 1) for s in ("*C", "*N", "*O", "*CC*", "*C(*)*", "*CN*",
                                        "*c1:c:c:c:c:c:1", "*=C", "*=C*", "*=O", "*C=O",
                                        "*C(*)=O")}
TOY_SITES = sorted({site for motif in TOY_MOTIFS.values() for _, site in motif.sites})


class ToyPolicy(Policy):
    """Follows the pool contract with scores the test draws: one pool score
    per site type, and for an observed pair a connection score that may lie
    below the pool score; every other pair scores the pool score."""

    def __init__(self, pool_scores, pair_scores):
        self.pool_scores, self.pair_scores = pool_scores, pair_scores

    def score_start(self, context, motifs):
        return [0.0] * len(motifs)

    def score_pool(self, context, candidates):
        return [self.pool_scores[c.site_type] for c in candidates]

    def score_connections(self, context, focus, candidates):
        return [self.pair_scores.get(attachment_key(focus, c.site_type),
                                     self.pool_scores[c.site_type]) for c in candidates]


@st.composite
def toy_generations(draw):
    """A vocabulary of ``TOY_MOTIFS`` with drawn observed pairs, and a
    ``ToyPolicy`` over it with many tied scores."""
    by_order = {}
    for site in TOY_SITES:
        by_order.setdefault(site[2], []).append(site)
    pair = st.sampled_from(sorted(by_order)).flatmap(
        lambda order: st.tuples(st.sampled_from(by_order[order]), st.sampled_from(by_order[order])))
    pairs = {attachment_key(a, b) for a, b in draw(st.lists(pair, max_size=25))}
    score = st.integers(-2, 2).map(float)
    pool_scores = {site: draw(score) for site in TOY_SITES}
    pair_scores = {p: draw(st.integers(-4, 2).map(float)) for p in sorted(pairs)}
    vocab = MotifVocabulary(TOY_MOTIFS, dict.fromkeys(pairs, 1))
    return vocab, ToyPolicy(pool_scores, pair_scores)


class RecordingPolicy(FrequencyPolicy):
    """Records the bond order of each pool it scores and the candidates of
    each ``score_connections`` call."""

    def __init__(self, vocab, **kwargs):
        super().__init__(vocab, **kwargs)
        self.pools: Counter = Counter()
        self.connections: list[tuple] = []

    def score_pool(self, context, candidates):
        self.pools.update({c.site_type[2] for c in candidates})
        return super().score_pool(context, candidates)

    def score_connections(self, context, focus, candidates):
        self.connections.append((focus, list(candidates)))
        return super().score_connections(context, focus, candidates)


class TestIndex:
    @staticmethod
    def full_list_head(vocab, policy, focus, mode, top_k):
        """The reference head: ``_head`` over every candidate of the focus
        bond order, each scored by ``score_connections``."""
        pool = reference_pool(vocab, focus[2])
        return _head(pool, policy.score_connections(0, focus, pool), mode, top_k)

    @pytest.mark.parametrize("mode,top_k", SELECTIONS)
    def test_heads_match_the_full_score_list(self, vocab_80, mode, top_k):
        """Every focus site type of every bond order of ``vocab_80``."""
        policy = FrequencyPolicy(vocab_80)
        index = GenerationIndex(vocab_80, policy)
        with_partners = 0
        for order in bond_orders(vocab_80):
            for focus in sorted({c.site_type for c in reference_pool(vocab_80, order)}):
                head = index.vocabulary_head(0, focus, mode, top_k)
                assert head == self.full_list_head(vocab_80, policy, focus, mode, top_k), focus
                assert index.vocabulary_head(0, focus, mode, top_k) is head
                with_partners += focus in index.partners
        assert with_partners > 50

    @settings(max_examples=300, deadline=None)
    @given(toy=toy_generations(), selection=st.sampled_from(SELECTIONS + [
        (DISTRIBUTIONAL, 2), (DISTRIBUTIONAL, 4), (DISTRIBUTIONAL, 9), (GREEDY, 3)]))
    def test_heads_match_with_partners_scored_below_the_pool(self, toy, selection):
        """A lowered partner leaves room in the top ``top_k``, which the
        head must fill from further down the ranking of non-partners."""
        vocab, policy = toy
        mode, top_k = selection
        index = GenerationIndex(vocab, policy)
        for focus in TOY_SITES:
            expected = self.full_list_head(vocab, policy, focus, mode, top_k)
            assert index.vocabulary_head(0, focus, mode, top_k) == expected, focus

    @pytest.mark.parametrize("mode,top_k", SELECTIONS)
    def test_pools_scored_once_and_connections_only_for_partners(self, vocab_80, mode, top_k):
        """Per ``generate`` call: each bond order's pool once, each focus
        type's partners once, and no vocabulary candidate that is not a
        partner of the focus."""
        policy = RecordingPolicy(vocab_80)
        _, report = generate(vocab_80, policy, 150, mode, seed=2, top_k=top_k)
        assert report.emitted > 0
        assert policy.pools and set(policy.pools.values()) == {1}
        partner_calls: Counter = Counter()
        for focus, candidates in policy.connections:
            assert len({c.kind for c in candidates}) == 1
            if candidates[0].kind == "vocab":
                partner_calls[focus] += 1
                assert all(attachment_key(focus, c.site_type) in vocab_80.attachment_counts
                           for c in candidates)
        assert partner_calls and set(partner_calls.values()) == {1}

    def test_generation_writes_nothing_onto_the_vocabulary(self, vocab_80):
        vocab = MotifVocabulary(vocab_80.motifs, vocab_80.attachment_counts)
        before = dict(vars(vocab))
        policy = FrequencyPolicy(vocab)
        generate(vocab, policy, 50, DISTRIBUTIONAL, seed=3, top_k=25)
        assert vars(vocab) == before
        for index in (GenerationIndex(vocab, policy), None):
            state = start_generation(vocab, policy, 11, DISTRIBUTIONAL, 5, index)
            while not state.terminal and state.step_count < 30:
                generation_step(state, vocab, policy, DISTRIBUTIONAL, 5, index)
        assert vars(vocab) == before

    def test_an_index_serves_only_its_vocabulary_and_policy(self, vocab_80):
        policy = FrequencyPolicy(vocab_80)
        other_vocab = MotifVocabulary(vocab_80.motifs, vocab_80.attachment_counts)
        for index in (GenerationIndex(other_vocab, policy),
                      GenerationIndex(vocab_80, FrequencyPolicy(vocab_80))):
            with pytest.raises(ValueError):
                start_generation(vocab_80, policy, 0, GREEDY, None, index)
            state = start_generation(vocab_80, policy, 0, GREEDY)
            with pytest.raises(ValueError):
                generation_step(state, vocab_80, policy, GREEDY, None, index)


def walked_start(state: GenerationState, motif: Motif) -> None:
    """``GenerationState.start`` as a walk of the motif's parsed graph: its
    atoms other than "*", the bonds between them, and one open site per
    star at the star's neighbour, enqueued in canonical site order."""
    graph = parse_smiles(motif.smiles)
    new_id = {}
    for i, atom in enumerate(graph.atoms):
        if not atom.is_connection_site:
            new_id[i] = len(state.atoms)
            state.atoms.append(atom)
    for bond in graph.bonds:
        if bond.a in new_id and bond.b in new_id:
            state.bonds[new_id[bond.a], new_id[bond.b]] = bond.order
    for star_atom, site in motif.sites:
        site_id = next(state._site_ids)
        state.open_sites[site_id] = (new_id[graph.neighbors(star_atom)[0][0]], site)
        state.queue.append(site_id)


class TestPlacement:
    def test_templates_place_as_the_graph_walk(self, vocab_80):
        """Every motif of ``vocab_80``, each placed after the ones before
        it: the same atoms, bonds, open sites and queue, in the same order."""
        placed, walked = GenerationState(rng_seed=0), GenerationState(rng_seed=0)
        for motif in vocab_80.ordered_motifs():
            placed.start(motif)
            walked_start(walked, motif)
            assert placed.atoms == walked.atoms, motif.smiles
            assert list(placed.bonds.items()) == list(walked.bonds.items()), motif.smiles
            assert list(placed.open_sites.items()) == list(walked.open_sites.items())
            assert list(placed.queue) == list(walked.queue), motif.smiles
        assert set(placed.templates) == set(vocab_80.motifs)

    def test_a_template_is_built_once_and_only_for_a_placed_motif(self, vocab_80, monkeypatch):
        built, placed = [], set()
        of = gen._Template.of
        monkeypatch.setattr(gen._Template, "of",
                            lambda motif: built.append(motif.smiles) or of(motif))
        place = GenerationState._place_motif

        def recorded(state, motif):
            placed.add(motif.smiles)
            return place(state, motif)

        monkeypatch.setattr(GenerationState, "_place_motif", recorded)
        policy = FrequencyPolicy(vocab_80)
        index = GenerationIndex(vocab_80, policy)
        assert index.templates == {}
        for seed in range(30):
            state = start_generation(vocab_80, policy, seed, DISTRIBUTIONAL, 25, index)
            assert state.templates is index.templates
            while not state.terminal and state.step_count < 30:
                generation_step(state, vocab_80, policy, DISTRIBUTIONAL, 25, index)
        assert sorted(built) == sorted(placed) == sorted(index.templates)
        assert 0 < len(placed) < len(vocab_80)


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

    @pytest.mark.parametrize("reverse", [False, True])
    def test_an_attachment_pair_counts_in_either_order(self, reverse):
        """The rarer bromine wins only through its observed pair with the
        ring, keyed either way round."""
        ring = Motif("*c1:c:c:c:c:c:1", 3)
        bromine = Motif("*Br", 1)
        chlorine = Motif("*Cl", 5)
        pair = sorted([ring.sites[0][1], bromine.sites[0][1]], reverse=reverse)
        vocab = MotifVocabulary({m.smiles: m for m in (ring, bromine, chlorine)},
                                {tuple(pair): 10})
        state = seeded_state(ring)
        generation_step(state, vocab, FrequencyPolicy(vocab), GREEDY)
        assert write_smiles(finalize(state)) == write_smiles(parse_smiles("Brc1ccccc1"))

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

            def score_pool(self, context, candidates):
                return np.asarray(self.base.score_pool(context, candidates)) + self.delta

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

    @staticmethod
    def assembly_graph(state) -> MolGraph:
        """The assembly as a checked ``MolGraph``: the reference for
        ``finalize``'s unchecked build."""
        bonds = tuple(make_bond(a, b, order) for (a, b), order in sorted(state.bonds.items()))
        return MolGraph(tuple(state.atoms), bonds)

    @staticmethod
    def assert_same_graph(got: MolGraph, expected: MolGraph) -> None:
        assert got.atoms == expected.atoms and got.bonds == expected.bonds
        assert [got.neighbors(i) for i in range(len(got.atoms))] == [
            expected.neighbors(i) for i in range(len(expected.atoms))
        ]

    def test_failing_ring_goes_through_the_repair_loop(self, monkeypatch):
        """An assembled 8-ring of aromatic carbons fails the 4n+2 count."""
        half = Motif("*:c:c:c:c:*", 1)
        state = seeded_state(half)
        state.attach(state.queue.popleft(), half, half.sites[0][0])
        state.cyclize(state.queue.popleft(), state.queue[0])
        expected = repair_aromatic_rings(self.assembly_graph(state))
        assert not any(atom.aromatic for atom in expected.atoms)
        repairs = []
        monkeypatch.setattr(gen, "repair_aromatic_rings",
                            lambda mol: repairs.append(mol) or repair_aromatic_rings(mol))
        self.assert_same_graph(finalize(state), expected)
        assert len(repairs) == 1

    def test_lean_path_recomputes_hydrogens(self):
        """Atoms placed with stale hydrogens get them set from their bonds,
        as the checked graph's repair pass sets them."""
        state = GenerationState(rng_seed=0)
        state.atoms = [Atom("C"), Atom("C"), Atom("O"), Atom("N", implicit_h=3)]
        state.bonds = {(0, 1): "single", (1, 2): "double", (1, 3): "single"}
        expected = repair_aromatic_rings(self.assembly_graph(state))
        assert [atom.implicit_h for atom in expected.atoms] == [3, 0, 0, 2]
        got = finalize(state)
        self.assert_same_graph(got, expected)
        assert write_smiles(got) == write_smiles(parse_smiles("CC(N)=O"))

    def test_lean_path_rejects_an_over_valent_atom(self):
        state = GenerationState(rng_seed=0)
        state.atoms = [Atom("C", bracket=True, explicit_h=3), Atom("C"), Atom("C")]
        state.bonds = {(0, 1): "single", (0, 2): "single"}
        assert not valence_check(repair_aromatic_rings(self.assembly_graph(state)))
        with pytest.raises(IrreparableValenceError):
            finalize(state)

    @pytest.mark.parametrize("mode,top_k", SELECTIONS)
    def test_generated_molecules_equal_the_checked_graph(self, vocab_80, monkeypatch, mode, top_k):
        """Every terminal assembly of a ``generate`` call finalizes to what
        the checked graph, repaired and valence-checked, gives; equal
        assemblies get one object, and the molecules share each equal bond
        and neighbour tuple."""
        emitted, assemblies = [], []

        def checked_finalize(state, index=None):
            expected = repair_aromatic_rings(self.assembly_graph(state))
            if not valence_check(expected):
                with pytest.raises(IrreparableValenceError):
                    finalize(state, index)
                raise IrreparableValenceError("the checked graph fails too")
            got = finalize(state, index)
            self.assert_same_graph(got, expected)
            emitted.append(got)
            assemblies.append((tuple(state.atoms), tuple(sorted(state.bonds.items()))))
            return got

        monkeypatch.setattr(gen, "finalize", checked_finalize)
        generate(vocab_80, FrequencyPolicy(vocab_80), 150, mode, seed=4, top_k=top_k)
        assert len(emitted) > 10
        shared: dict = {}
        for mol in emitted:
            for part in (*mol.bonds, *map(mol.neighbors, range(len(mol.atoms)))):
                assert shared.setdefault(part, part) is part
        assert len(shared) < sum(len(mol.bonds) + len(mol.atoms) for mol in emitted)
        by_assembly = {}
        for assembly, mol in zip(assemblies, emitted):
            assert by_assembly.setdefault(assembly, mol) is mol
        assert len({id(mol) for mol in emitted}) == len(by_assembly)

    def test_equal_assemblies_share_a_molecule_only_through_an_index(self):
        vocab = micro_vocab(("*C", 1))
        index = GenerationIndex(vocab, FrequencyPolicy(vocab))
        molecules = []
        for _ in range(2):
            state = seeded_state(vocab["*C"])
            state.attach(state.queue.popleft(), vocab["*C"], 0)
            molecules += [finalize(state, index), finalize(state)]
        assert molecules[0] is molecules[2]
        assert molecules[1] is not molecules[3] and molecules[1] == molecules[0]
        assert list(index.molecules.values()) == [molecules[0]]

    def test_assemblies_differing_only_in_bonds_stay_apart(self):
        vocab = micro_vocab(("*C", 1))
        index = GenerationIndex(vocab, FrequencyPolicy(vocab))
        for bonds in ({(0, 1): "single", (1, 2): "single"},
                      {(0, 1): "single", (0, 2): "single"}):
            state = GenerationState(rng_seed=0)
            state.atoms, state.bonds = [Atom("C"), Atom("O"), Atom("C")], bonds
            self.assert_same_graph(finalize(state, index), finalize(state))
        assert len(index.molecules) == 2

    def test_a_failing_assembly_fails_again(self):
        vocab = micro_vocab(("*C", 1))
        index = GenerationIndex(vocab, FrequencyPolicy(vocab))
        for _ in range(2):
            state = GenerationState(rng_seed=0)
            state.atoms = [Atom("C", bracket=True, explicit_h=3), Atom("C"), Atom("C")]
            state.bonds = {(0, 1): "single", (0, 2): "single"}
            with pytest.raises(IrreparableValenceError):
                finalize(state, index)
        assert index.molecules == {}

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
        orders = bond_orders(vocab_80)
        assert max(len(vocab_80), *(len(reference_pool(vocab_80, o)) for o in orders)) < huge
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
            assert 0 < cached.pools <= len(orders) < uncached.pools, (mode, top_k)
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


@pytest.mark.parametrize("module", [gen, graphbpe.miner])
def test_generation_modules_hold_no_process_wide_cache(module):
    """What generation reuses lives in a ``GenerationIndex``, so no module
    value can carry generation state from one call to the next."""
    assert [name for name, value in vars(module).items() if hasattr(value, "cache_clear")] == []


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
