"""The benchmark's tracer names graphbpe functions and methods by string;
each of them must still resolve, or a traced run silently measures nothing.
The benchmark also calls library functions with keywords, and reads result
attributes, that must stay."""
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
RUN = ROOT / "bench" / "run.py"


def load_bench_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench_module("bench_tracing", TRACING)


def test_traced_functions_resolve():
    tracing = load_tracing()
    for module_name, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_traced_methods_resolve():
    tracing = load_tracing()
    for module_name, class_name, method in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), class_name, None)
        assert cls is not None, f"{module_name}.{class_name}"
        assert callable(getattr(cls, method, None)), f"{module_name}.{class_name}.{method}"


def test_bench_selftest_passes():
    # the harness's own self-checks call into the library; run them here so a
    # library change that breaks them shows before a benchmark run
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest ok" in done.stdout, done.stdout


def test_mine_corpus_accepts_threads():
    # bench/run.py passes threads= to mine_corpus in its mine and mine_2proc stages
    import graphbpe

    assert "threads" in inspect.signature(graphbpe.mine_corpus).parameters


def test_parse_smiles_accepts_validate():
    # bench/run.py's eval stage calls gb.parse_smiles(s, validate=False)
    import graphbpe

    assert "validate" in inspect.signature(graphbpe.parse_smiles).parameters
    assert graphbpe.parse_smiles("c1ccccccc1", validate=False).atoms


def test_result_attributes_the_benchmark_reads():
    # the attributes bench/run.py reads off mining, tokenizer, generation and
    # evaluation results, reached through the same calls it makes
    import graphbpe
    from graphbpe.generator import DISTRIBUTIONAL

    corpus = [graphbpe.parse_smiles(s) for s in ("CCO", "CC(=O)N", "c1ccccc1O", "CCN")]
    result = graphbpe.mine_corpus(corpus, 3, threads=1)
    assert all(isinstance(op, graphbpe.MergeOperation) for op in result.operations)
    frag = graphbpe.fragmentize(corpus[2], result.operations)
    assert sum(m.atom_count for m in frag.motifs) == len(corpus[2].atoms)
    loaded = result.vocabulary
    vocab = graphbpe.MotifVocabulary(loaded.motifs, loaded.attachment_counts)
    assert vocab.motifs == loaded.motifs
    assert vocab.attachment_counts == loaded.attachment_counts
    molecules, report = graphbpe.generate(
        vocab, graphbpe.FrequencyPolicy(vocab), 8, mode=DISTRIBUTIONAL, seed=1, top_k=5
    )
    failed = sum(report.failures.values())
    assert report.emitted + report.aborted + failed == report.requested == 8
    assert report.emitted == len(molecules) > 0
    ev = graphbpe.evaluate(molecules, corpus)
    for name in ("uniqueness", "novelty", "kl_div_score"):
        assert isinstance(getattr(ev, name), float), name
    for name in ("valid_count", "unique_count"):
        assert isinstance(getattr(ev, name), int), name


@pytest.mark.parametrize("module,name", [("graphbpe.merging", "instance_pattern"),
                                         ("graphbpe.chem.smiles", "label_values")],
                         ids=["instance_pattern", "label_values"])
def test_cache_sweep_empties_each_memo(module, name):
    # every bench stage starts from bench/run.py's cold_caches(), which
    # clears each module-level value of the package that has cache_clear and
    # cache_info; the motif-instance memo and the signature label cache must
    # be ones, or warm state from one stage would leak into the next one's
    # timing
    import graphbpe

    memo = vars(importlib.import_module(module))[name]
    assert callable(memo.cache_clear) and callable(memo.cache_info)
    corpus = [graphbpe.parse_smiles(s) for s in ("CCO", "CC(=O)N", "c1ccccc1O", "CCN")]
    result = graphbpe.mine_corpus(corpus, 3)
    graphbpe.fragmentize(graphbpe.parse_smiles("CCCO"), result.operations)
    assert memo.cache_info().currsize > 0
    load_bench_module("bench_run", RUN).cold_caches()
    assert memo.cache_info().currsize == 0


def test_tie_bound_cuts_large_molecule_union_writes(monkeypatch, tmp_path):
    # the large-molecules mine stage: the series up to LARGE_MINE_MAX at
    # LARGE_OPS operations. Ruling tied signatures out by their bounds must
    # write fewer unions than opening every tie, and the same ops bytes.
    import graphbpe
    from graphbpe.fileio import write_operations
    from graphbpe.merging import union_pattern
    from helpers import open_every_tie

    run = load_bench_module("bench_run", RUN)
    series = run.inputs.large_series(Random(1))
    mined = [s for _, size, s in series if size <= run.inputs.LARGE_MINE_MAX]
    corpus = [graphbpe.parse_smiles(s) for s in mined]

    def mine(name):
        union_pattern.cache_clear()
        write_operations(tmp_path / name, graphbpe.mine_corpus(corpus, run.LARGE_OPS).operations)
        return union_pattern.cache_info().misses, (tmp_path / name).read_bytes()

    pruned_misses, pruned_ops = mine("pruned.txt")
    open_every_tie(monkeypatch)
    full_misses, full_ops = mine("full.txt")
    assert pruned_ops == full_ops
    assert pruned_misses < full_misses
