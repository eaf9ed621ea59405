"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (lines appear on the terminal
regardless of capture settings).
"""
import functools
import sys
import time
from random import Random

from graphbpe.chem import parse_smiles, valence_check, write_smiles
from graphbpe.cli import main as cli_main
from graphbpe.generator import (
    DISTRIBUTIONAL,
    GREEDY,
    FrequencyPolicy,
    generate,
    replay_trajectory,
)
from graphbpe.merging import MergeOperation, MergingGraph
from graphbpe.metrics import evaluate
from graphbpe.miner import (
    MotifVocabulary,
    build_motif_vocabulary,
    learn_merging_operations,
)
from graphbpe.tokenizer import (
    Trajectory,
    TrajectoryStep,
    apply_operations,
    extract_trajectory,
    fragmentize,
)
from helpers import (
    count_pair_patterns,
    group_by_isomorphism,
    isomorphic,
    make_motif,
    random_molecule,
)


def criterion(number: int, description: str):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {description}", file=sys.__stdout__)
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {description}", file=sys.__stdout__)

        return wrapper

    return decorate


@criterion(1, "worked example: ops [CN, CC]; 'CCN' fragmentizes to {C, CN}")
def test_01_worked_example():
    corpus = [parse_smiles(s) for s in ["CC", "CN", "CNN", "CN=O", "CC=O"]]
    start = time.perf_counter()
    ops = learn_merging_operations(corpus, 2)
    assert [op.pattern for op in ops] == ["CN", "CC"]
    frag = fragmentize(parse_smiles("CCN"), ops)
    parts = sorted(m.smiles for m in frag.motifs)
    assert parts == ["*C", "*CN"]  # the {C, CN} split, never {CC, N}
    assert time.perf_counter() - start < 1.0


@criterion(2, "micro-corpus: first patterns are 'c:c' then 'c:c:c:c'")
def test_02_micro_corpus_patterns():
    corpus = [parse_smiles(s) for s in ["Brc1ccccc1", "Cc1cccc(O)c1"]]
    start = time.perf_counter()
    ops = learn_merging_operations(corpus, 3)
    assert ops[0].pattern == "c:c"
    assert ops[1].pattern == "c:c:c:c"
    assert time.perf_counter() - start < 1.0


@criterion(3, "pattern counts match brute-force enumeration on 200 random corpora")
def test_03_count_oracle():
    start = time.perf_counter()
    rng = Random(20230303)
    mismatches = 0
    for _ in range(200):
        corpus = [
            random_molecule(rng, max_atoms=10)
            for _ in range(rng.randint(2, 20))
        ]
        states = [MergingGraph(m) for m in corpus]
        for _ in range(3):
            counts = count_pair_patterns(states)
            oracle_subgraphs = []
            keyed = []
            for state in states:
                frags = list(state.frag_atoms.values())
                for i in range(len(frags)):
                    for j in range(i + 1, len(frags)):
                        set_i, set_j = set(frags[i]), set(frags[j])
                        crossing = any(
                            (b.a in set_i and b.b in set_j)
                            or (b.a in set_j and b.b in set_i)
                            for b in state.mol.bonds
                        )
                        if crossing:
                            sub, _ = state.mol.subgraph(set_i | set_j)
                            oracle_subgraphs.append(sub)
                for fa, fb in state.edges:
                    sub, _ = state.mol.subgraph(
                        set(state.frag_atoms[fa]) | set(state.frag_atoms[fb])
                    )
                    keyed.append((state.pattern(fa, fb), sub))
            groups = group_by_isomorphism(oracle_subgraphs)
            if sorted(counts.values()) != sorted(len(g) for g in groups):
                mismatches += 1
            else:
                for group in groups:
                    rep = oracle_subgraphs[group[0]]
                    keys = {k for k, sub in keyed if isomorphic(sub, rep)}
                    if len(keys) != 1:
                        mismatches += 1
            if not counts:
                break
            best = max(counts.values())
            op = MergeOperation(0, min(k for k, v in counts.items() if v == best), best)
            for state in states:
                state.apply_operation(op)
    assert mismatches == 0
    assert time.perf_counter() - start < 300


@criterion(4, "trajectory replay reproduces 100% of the fixture corpus at K in {0,50,200}")
def test_04_roundtrip(corpus_1k, ops_500):
    _, mols = corpus_1k
    start = time.perf_counter()
    for k in (0, 50, 200):
        ops = ops_500[:k]
        vocab = build_motif_vocabulary(mols, ops)
        failures = 0
        for mol in mols:
            trajectory = extract_trajectory(mol, ops)
            replayed = replay_trajectory(trajectory, vocab)
            if write_smiles(replayed) != write_smiles(mol):
                failures += 1
        assert failures == 0, f"K={k}: {failures} roundtrip failures"
    assert time.perf_counter() - start < 120


@criterion(5, "10,000 generated molecules (both modes) all pass the valence check")
def test_05_generation_validity(corpus_1k, ops_500):
    _, mols = corpus_1k
    start = time.perf_counter()
    vocab = build_motif_vocabulary(mols, ops_500[:200])
    policy = FrequencyPolicy(vocab)
    emitted = []
    greedy_mols, greedy_report = generate(vocab, policy, 5000, GREEDY, seed=1)
    assert greedy_report.emitted == 5000
    emitted.extend(greedy_mols)
    # distributional sampling truncated to the 25 best candidates per step
    sampled, sample_report = generate(
        vocab, policy, 5000, DISTRIBUTIONAL, seed=2, top_k=25
    )
    assert sample_report.emitted + sample_report.aborted == 5000
    assert sample_report.aborted <= 50  # aborts are reported, never emitted
    emitted.extend(sampled)
    assert len(emitted) >= 9950
    assert all(valence_check(m) for m in emitted)
    assert time.perf_counter() - start < 300


@criterion(6, "8-membered all-aromatic carbocycle finalizes to the saturated ring")
def test_06_aromatic_repair():
    half = make_motif("*:c:c:c:c:*")
    vocab = MotifVocabulary({half.smiles: half}, {})
    trajectory = Trajectory(half.smiles, (
        TrajectoryStep(kind="attach", motif=half.smiles, site=half.sites[0][0]),
        TrajectoryStep(kind="cyclize", target=0),
    ))
    result = replay_trajectory(trajectory, vocab)
    assert write_smiles(result) == write_smiles(parse_smiles("C1CCCCCCC1"))


@criterion(7, "mean fragments per molecule is non-increasing over K in {0,10,50,200,500}")
def test_07_compression_monotonic(corpus_1k, ops_500):
    _, mols = corpus_1k
    means = []
    for k in (0, 10, 50, 200, 500):
        ops = ops_500[:k]
        total = sum(len(apply_operations(mol, ops).frag_atoms) for mol in mols)
        means.append(total / len(mols))
    assert all(a >= b for a, b in zip(means, means[1:])), means
    assert means[0] > means[-1]


@criterion(8, "mining time on a doubled corpus stays within 2.5x (best of 5 alternating runs)")
def test_08_scaling(corpus_1k):
    _, mols = corpus_1k
    base = mols[:300]
    doubled = base + base

    def timed(corpus):
        # CPU time of this process: other load on the host adds none
        begin = time.process_time()
        learn_merging_operations(corpus, 40)
        return time.process_time() - begin

    # alternate the sizes, so that a slow phase of the host hits both sides;
    # interference from other load only adds time, so take the best of each
    samples = [(timed(base), timed(doubled)) for _ in range(5)]
    t1 = min(one for one, _ in samples)
    t2 = min(two for _, two in samples)
    assert t2 <= 2.5 * t1, f"1x={t1:.3f}s 2x={t2:.3f}s ratio={t2 / t1:.2f}"


@criterion(9, "mine and generate artifacts are byte-identical across runs and thread counts")
def test_09_determinism(tmp_path, corpus_1k):
    ids, mols = corpus_1k
    corpus_path = tmp_path / "corpus.smi"
    corpus_path.write_text(
        "".join(f"{write_smiles(m)}\t{i}\n" for i, m in zip(ids[:150], mols[:150]))
    )
    artifacts = []
    for run, threads in (("r1", 1), ("r2", 1), ("r3", 4)):
        out_dir = tmp_path / run
        code = cli_main([
            "mine", "--corpus", str(corpus_path), "--num-ops", "40",
            "--out", str(out_dir), "--threads", str(threads),
        ])
        assert code == 0
        gen_path = tmp_path / f"{run}.smi"
        code = cli_main([
            "generate", "--vocab", str(out_dir / "vocab.txt"),
            "--num", "200", "--mode", "sample", "--top-k", "10",
            "--seed", "31337", "--out", str(gen_path),
        ])
        assert code == 0
        artifacts.append(tuple(
            (out_dir / name).read_bytes()
            for name in ("ops.txt", "vocab.txt", "attach.txt")
        ) + (gen_path.read_bytes(),))
    assert artifacts[0] == artifacts[1] == artifacts[2]


@criterion(10, "self-evaluation is clean and a 20% descriptor shift lowers the KL score")
def test_10_metrics_sanity(corpus_1k):
    _, mols = corpus_1k
    start = time.perf_counter()
    train = mols[:300]
    report = evaluate(train, train)
    assert report.validity == 1.0
    assert report.novelty == 0.0
    assert report.kl_div_score >= 0.999
    shifted_count = len(train) // 5
    halogen_heavy = [parse_smiles("BrC(Br)(Br)Br")] * shifted_count
    mixed = train[: len(train) - shifted_count] + halogen_heavy
    shifted_report = evaluate(mixed, train)
    assert shifted_report.kl_div_score < report.kl_div_score
    assert time.perf_counter() - start < 60
