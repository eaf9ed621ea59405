#!/usr/bin/env python3
"""graphbpe benchmark: one workload per invocation, all inputs made from a seed.

    python3 bench/run.py --workload drug-corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. A run synthesizes its inputs, then repeats passes for
``--seconds`` (at least ``MIN_PASSES``), each starting with the program's
set-up, and reports medians. Every stage is single process unless its name
says otherwise, and starts with cold module caches and a collected heap,
the state a fresh CLI invocation starts from; stage times are also divided
by a reference time taken next to them (``reference_seconds``). Outputs
are checked on every run; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs set-up and
one pass untraced, then again with every traced graphbpe function wrapped
(see tracing.py), and reports the per-layer metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "corpus_1k.smi"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
MAX_PASSES = 20
SETUP_BATCH_S = 0.5  # a cheap set-up repeats until this long, for a steadier median
REF_LOOPS = 200_000  # about 50 ms of reference_seconds() on a quiet host
HARD_LIMIT_S = 120  # stop starting passes after this long, so a run ends well within 180 s

# drug-corpus: mine on TRAIN molecules, fragmentize HELD_OUT others
DRUG_TRAIN, DRUG_HELD_OUT, DRUG_OPS = 250, 100, 500
LARGE_OPS = 50
GEN_OPS, GEN_COUNT, GEN_TOP_K = 200, 2000, 25

if not (ROOT / "src" / "graphbpe" / "__init__.py").is_file() or not FIXTURE.is_file():
    sys.exit(f"bench: no graphbpe source tree under {ROOT}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402

import graphbpe as gb  # noqa: E402
from graphbpe import fileio  # noqa: E402
from graphbpe.errors import GraphBpeError  # noqa: E402
from graphbpe.generator import DISTRIBUTIONAL  # noqa: E402

import inputs  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


# ---------------------------------------------------------------- utilities

def cold_caches() -> tuple[int, int]:
    """Clear every functools cache in graphbpe; returns the (hits, misses)
    they had gathered since the previous clear."""
    hits = misses = 0
    seen = set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("graphbpe"):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and id(value) not in seen:
                seen.add(id(value))
                info = value.cache_info()
                hits += info.hits
                misses += info.misses
                value.cache_clear()
    return hits, misses


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_artifacts(result, out: Path) -> None:
    """What ``graphbpe mine`` writes: ops.txt, vocab.txt, attach.txt."""
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_operations(out / "ops.txt", result.operations)
    fileio.write_vocabulary(out / "vocab.txt", result.vocabulary)
    fileio.write_attachments(out / "attach.txt", result.vocabulary)


ARTIFACTS = ("ops.txt", "vocab.txt", "attach.txt")


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
    return ref


# ------------------------------------------------------------------ checks

@dataclass
class Checks:
    """Output checks; ``failed / attempted`` is the run's error share."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def check_motif_atoms(checks: Checks, molecules, fragmentations) -> None:
    """The heavy atoms of a molecule's motifs add up to the molecule's."""
    for mol, frag in zip(molecules, fragmentations):
        total = sum(m.atom_count for m in frag.motifs)
        checks.expect(total == len(mol.atoms), f"motifs hold {total} of {len(mol.atoms)} atoms")


def check_roundtrip(checks: Checks, molecules, trajectories, ops) -> None:
    """replay(extract_trajectory(m)) has the same canonical string as m."""
    vocab = gb.build_motif_vocabulary(molecules, ops)
    for mol, trajectory in zip(molecules, trajectories):
        want = gb.write_smiles(mol)
        try:
            got = gb.write_smiles(gb.replay_trajectory(trajectory, vocab))
        except GraphBpeError as exc:
            got = f"error: {exc}"
        checks.expect(got == want, f"roundtrip {want} -> {got}")


def check_generated(checks: Checks, molecules, report) -> None:
    """Every emitted molecule passes valence_check, parse(write(m)) is a
    fixed point, and emitted + aborted + failed == requested."""
    for mol in molecules:
        checks.expect(gb.valence_check(mol), "emitted molecule fails valence_check")
        text = gb.write_smiles(mol)
        try:
            again = gb.write_smiles(gb.parse_smiles(text))
        except GraphBpeError as exc:
            again = f"error: {exc}"
        checks.expect(again == text, f"parse(write(m)) {text} -> {again}")
    accounted = report.emitted + report.aborted + sum(report.failures.values())
    checks.expect(
        accounted == report.requested and len(molecules) == report.emitted,
        f"emitted+aborted+failed={accounted}, requested={report.requested}",
    )


# --------------------------------------------------------------- workloads

@dataclass
class StageRun:
    seconds: float
    items: int
    per_item: list[float] = field(default_factory=list)
    output: object = None
    ref: float = 0.0  # mean reference_seconds() just before and after the stage


class Workload:
    """Inputs, set-up and stages of one workload; ``state`` holds set-up
    results and the latest stage outputs."""

    name = ""
    stages: tuple[str, ...] = ()
    traced_stages: tuple[str, ...] = ()
    hashed = tuple(f"mine/{name}" for name in ARTIFACTS)  # outputs whose sha256 is printed

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.state: dict = {}

    def synthesize(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def stage(self, name: str) -> StageRun:
        raise NotImplementedError

    def check(self, checks: Checks, runs: dict[str, list[StageRun]]) -> None:
        raise NotImplementedError

    def mine(self, corpus, ops: int, threads: int, out: Path) -> StageRun:
        start = time.perf_counter()
        result = gb.mine_corpus(corpus, ops, threads=threads)
        write_artifacts(result, out)
        return StageRun(time.perf_counter() - start, len(corpus), output=result)


class DrugCorpus(Workload):
    name = "drug-corpus"
    stages = ("mine", "mine_2proc", "fragmentize")
    traced_stages = ("mine", "fragmentize")

    def synthesize(self) -> dict:
        smiles = inputs.drug_like(Random(self.seed), DRUG_TRAIN + DRUG_HELD_OUT)
        train, held = smiles[:DRUG_TRAIN], smiles[DRUG_TRAIN:]
        fileio.write_molecules(self.work / "train.smi", train)
        fileio.write_molecules(self.work / "held_out.smi", held)
        return {"train": inputs.heavy_atom_summary(train),
                "held_out": inputs.heavy_atom_summary(held)}

    def setup(self) -> None:
        self.state["train"] = fileio.load_corpus(self.work / "train.smi")[1]
        self.state["held_out"] = fileio.load_corpus(self.work / "held_out.smi")[1]

    def stage(self, name: str) -> StageRun:
        if name == "mine":
            run = self.mine(self.state["train"], DRUG_OPS, 1, self.work / "mine")
            self.state["ops"] = run.output.operations
            return run
        if name == "mine_2proc":
            return self.mine(self.state["train"], DRUG_OPS, 2, self.work / "mine_2proc")
        ops = self.state["ops"]
        run = StageRun(0.0, len(self.state["held_out"]), output=([], []))
        start = time.perf_counter()
        for mol in self.state["held_out"]:
            t0 = time.perf_counter()
            run.output[0].append(gb.fragmentize(mol, ops))
            run.output[1].append(gb.extract_trajectory(mol, ops))
            run.per_item.append(time.perf_counter() - t0)
        fileio.write_trajectories(self.work / "trajectories.jsonl", run.output[1])
        run.seconds = time.perf_counter() - start
        return run

    def check(self, checks: Checks, runs: dict[str, list[StageRun]]) -> None:
        for name in ARTIFACTS:
            one, two = self.work / "mine" / name, self.work / "mine_2proc" / name
            checks.expect(one.read_bytes() == two.read_bytes(),
                          f"{name} differs between 1 and 2 processes")
        held = self.state["held_out"]
        for run in runs["fragmentize"]:
            check_motif_atoms(checks, held, run.output[0])
        check_roundtrip(checks, held, runs["fragmentize"][-1].output[1], self.state["ops"])


class LargeMolecules(Workload):
    name = "large-molecules"
    stages = ("mine", "fragmentize", "write")
    traced_stages = stages

    def synthesize(self) -> dict:
        series = inputs.large_series(Random(self.seed))
        self.expected = [smiles for _, _, smiles in series]
        mined = [smiles for _, size, smiles in series if size <= inputs.LARGE_MINE_MAX]
        fileio.write_molecules(self.work / "series.smi", self.expected)
        fileio.write_molecules(self.work / "mined.smi", mined)
        summary = {"series": inputs.heavy_atom_summary(self.expected),
                   "mined": inputs.heavy_atom_summary(mined)}
        for kind in inputs.LARGE_KINDS:
            sizes = [len(gb.parse_smiles(s).atoms) for k, _, s in series if k == kind]
            summary[kind] = {"sizes": sizes}
        return summary

    def setup(self) -> None:
        self.state["series"] = fileio.load_corpus(self.work / "series.smi")[1]
        self.state["mined"] = fileio.load_corpus(self.work / "mined.smi")[1]

    def stage(self, name: str) -> StageRun:
        if name == "mine":
            run = self.mine(self.state["mined"], LARGE_OPS, 1, self.work / "mine")
            self.state["ops"] = run.output.operations
            return run
        if name == "fragmentize":
            molecules, ops = self.state["mined"], self.state["ops"]
            fn = lambda mol: gb.fragmentize(mol, ops)  # noqa: E731
        else:
            molecules, fn = self.state["series"], gb.write_smiles
        run = StageRun(0.0, len(molecules), output=[])
        start = time.perf_counter()
        for mol in molecules:
            t0 = time.perf_counter()
            run.output.append(fn(mol))
            run.per_item.append(time.perf_counter() - t0)
        run.seconds = time.perf_counter() - start
        return run

    def check(self, checks: Checks, runs: dict[str, list[StageRun]]) -> None:
        for run in runs["fragmentize"]:
            check_motif_atoms(checks, self.state["mined"], run.output)
        for run in runs["write"]:
            for got, want in zip(run.output, self.expected):
                checks.expect(got == want, "write_smiles differs from the input string")


class Generate(Workload):
    name = "generate"
    stages = ("generate", "eval")
    traced_stages = stages
    hashed = Workload.hashed + ("generated.smi",)

    def synthesize(self) -> dict:
        _, smiles, _ = zip(*fileio.read_smiles_lines(FIXTURE))
        return {"train (tests/fixtures/corpus_1k.smi)": inputs.heavy_atom_summary(list(smiles))}

    def setup(self) -> None:
        """``graphbpe mine`` then the loading half of ``graphbpe generate``."""
        train = fileio.load_corpus(FIXTURE)[1]
        result = gb.mine_corpus(train, GEN_OPS, threads=1)
        out = self.work / "mine"
        write_artifacts(result, out)
        fileio.read_operations(out / "ops.txt")
        self.state["vocab"] = fileio.read_vocabulary(out / "vocab.txt", out / "attach.txt")
        self.state["train"] = train

    def stage(self, name: str) -> StageRun:
        path = self.work / "generated.smi"
        if name == "generate":
            # a fresh vocabulary object: the generator caches its candidate index on it
            loaded = self.state["vocab"]
            vocab = gb.MotifVocabulary(loaded.motifs, loaded.attachment_counts)
            start = time.perf_counter()
            molecules, report = gb.generate(
                vocab, gb.FrequencyPolicy(vocab), GEN_COUNT,
                mode=DISTRIBUTIONAL, seed=self.seed, top_k=GEN_TOP_K,
            )
            fileio.write_molecules(path, [gb.write_smiles(m) for m in molecules])
            return StageRun(time.perf_counter() - start, GEN_COUNT, output=(molecules, report))
        start = time.perf_counter()
        generated = [gb.parse_smiles(s, validate=False) for _, s, _ in fileio.read_smiles_lines(path)]
        report = gb.evaluate(generated, self.state["train"])
        return StageRun(time.perf_counter() - start, len(generated), output=report)

    def check(self, checks: Checks, runs: dict[str, list[StageRun]]) -> None:
        molecules, report = runs["generate"][-1].output
        check_generated(checks, molecules, report)
        first = [gb.write_smiles(m) for m in runs["generate"][0].output[0]]
        for run in runs["generate"][1:]:
            checks.expect([gb.write_smiles(m) for m in run.output[0]] == first,
                          "generated molecules differ between passes")
        for run in runs["eval"]:
            checks.expect(run.output.validity == 1.0, "evaluate counts an invalid molecule")


WORKLOADS = {w.name: w for w in (DrugCorpus, LargeMolecules, Generate)}


# ------------------------------------------------------------------ timing

def reference_seconds() -> float:
    """Seconds taken by a fixed pure-Python computation: dict, tuple, string
    and sort work like the program's, over about 1 MB.

    On a shared host the speed of all Python code here swung by up to 2x in
    phases lasting from seconds to minutes, longer than a run. The reference
    runs in this process, on the same core and in the same phase as the
    stage next to it; its code is the benchmark's and the same on every
    commit, so dividing a stage's time by it removes the phase and leaves
    the program's cost.
    """
    enabled = gc.isenabled()
    gc.disable()  # a collection would scan the program's heap
    try:
        start = time.perf_counter()
        table = {}
        for i in range(REF_LOOPS):
            key = (i * 7919) % 10007
            table[key] = (key & 7, str(i), i)
        ordered = sorted(table.values())
        "".join(item[1] for item in ordered)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed_setup(workload: Workload) -> float:
    cold_caches()
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def run_pass(workload: Workload, stages, runs, checks: Checks, cache_stats=None,
             reference: bool = False) -> None:
    for name in stages:
        hits, misses = cold_caches()
        if cache_stats is not None:
            cache_stats[0] += hits
            cache_stats[1] += misses
        gc.collect()
        before = reference_seconds() if reference else 0.0
        try:
            run = workload.stage(name)
        except Exception:  # a failing stage is reported, and the run goes on
            traceback.print_exc()
            checks.expect(False, f"stage {name} raised")
            continue
        if reference:
            run.ref = (before + reference_seconds()) / 2
        runs.setdefault(name, []).append(run)
    if cache_stats is not None:
        hits, misses = cold_caches()
        cache_stats[0] += hits
        cache_stats[1] += misses


def stage_lines(runs: dict[str, list[StageRun]]) -> dict[str, tuple[float, str, int]]:
    """Per-stage figures: name -> (value, unit, sample count)."""
    out = {}
    for name, stage_runs in runs.items():
        seconds = statistics.median(r.seconds for r in stage_runs)
        out[f"{name}.mol_per_s"] = (stage_runs[0].items / seconds, "1/s", len(stage_runs))
        if stage_runs[0].ref:
            out[f"{name}.cost_ref"] = (cost_ref(stage_runs), "ref", len(stage_runs))
        per_item = [t for r in stage_runs for t in r.per_item]
        if per_item:
            out[f"{name}.p50_ms"] = (1000 * statistics.median(per_item), "ms", len(per_item))
            found = tail(per_item)
            if found:
                pct, value = found
                out[f"{name}.tail_ms"] = (1000 * value, f"ms@p{pct:.1f}", len(per_item))
    return out


def cost_ref(stage_runs: list[StageRun]) -> float:
    """Median over passes of the stage time in reference_seconds() units."""
    return statistics.median(r.seconds / r.ref for r in stage_runs)


def quality_lines(runs) -> dict[str, tuple[float, str, int]]:
    if "generate" not in runs:
        return {}
    molecules, report = runs["generate"][0].output
    ev = runs["eval"][0].output
    n = report.requested
    atoms = statistics.mean(len(m.atoms) for m in molecules) if molecules else 0.0
    return {
        "generate.abort_share": ((report.aborted + sum(report.failures.values())) / n, "share", n),
        "generate.uniqueness": (ev.uniqueness, "share", ev.valid_count),
        "generate.novelty": (ev.novelty, "share", ev.unique_count),
        "generate.kl_div_score": (ev.kl_div_score, "score", ev.valid_count),
        "generate.atoms_per_mol": (atoms, "atoms", len(molecules)),
    }


def print_hashes(workload: Workload) -> None:
    for name in workload.hashed:
        print(f"sha256 {name} {sha256(workload.work / name)}")


def measure(workload: Workload, seconds: float, started: float) -> tuple[dict, Checks]:
    checks = Checks()
    setups = []
    runs: dict[str, list[StageRun]] = {}
    deadline = time.perf_counter() + seconds
    passes = 0
    # every pass starts from a fresh set-up, as a CLI invocation does
    while passes < MAX_PASSES and time.perf_counter() - started < HARD_LIMIT_S:
        if passes >= MIN_PASSES and time.perf_counter() >= deadline:
            break
        batch = time.perf_counter()
        setups.append(timed_setup(workload))
        while time.perf_counter() - batch < SETUP_BATCH_S:
            setups.append(timed_setup(workload))
        run_pass(workload, workload.stages, runs, checks, reference=True)
        passes += 1
    workload.check(checks, runs)
    lines = stage_lines(runs)
    lines.update(quality_lines(runs))
    lines["setup_s"] = (statistics.median(setups), "s", len(setups))
    # multi-process stages are left out: their time swings with the load on
    # the other cores, which the program does not control
    single = [rs for name, rs in runs.items() if not name.endswith("_2proc")]
    lines["pass_s"] = (sum(statistics.median(r.seconds for r in rs) for rs in single), "s", passes)
    lines["pass_ref"] = (sum(cost_ref(rs) for rs in single), "ref", passes)
    refs = [r.ref for rs in runs.values() for r in rs]
    lines["reference_ms"] = (1000 * statistics.median(refs), "ms", len(refs))
    lines["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return lines, checks


def print_lines(lines: dict[str, tuple[float, str, int]]) -> None:
    for name, (value, unit, n) in sorted(lines.items()):
        print(f"metric {name} = {value:.6g} {unit} (n={n})")


E2E = (("setup_s", "s"), ("pass_ref", "ref"), ("peak_rss_mb", "MB"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    print(f"machine nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__} rev={git_rev()}")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        for label, summary in workload.synthesize().items():
            print(f"input {label} heavy atoms {json.dumps(summary)}")
        if args.trace:
            lines, checks = trace_run(workload)
            metrics = dict(lines)
        else:
            lines, checks = measure(workload, args.seconds, started)
            metrics = {name: lines[name] for name, _ in E2E}
        lines["error_share"] = (checks.failed / max(checks.attempted, 1), "share", checks.attempted)
        print_lines(lines)
        print_hashes(workload)
        for message in checks.messages:
            print(f"check failed: {message}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


# ------------------------------------------------------------ traced run

def trace_run(workload: Workload) -> tuple[dict, Checks]:
    checks = Checks()
    runs: dict[str, list[StageRun]] = {}
    t0 = time.perf_counter()
    timed_setup(workload)
    run_pass(workload, workload.traced_stages, runs, checks)
    untraced = time.perf_counter() - t0
    if "mine_2proc" in workload.stages:
        run_pass(workload, ("mine_2proc",), runs, checks)
    workload.check(checks, runs)
    plain = stage_lines(runs)

    tracer = Tracer()
    traced_runs: dict[str, list[StageRun]] = {}
    cache_stats = [0, 0]
    tracer.install(keep_results=frozenset({("graphbpe.merging", "write_smiles")}))
    try:
        t0 = time.perf_counter()
        timed_setup(workload)
        run_pass(workload, workload.traced_stages, traced_runs, checks, cache_stats)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{workload.name}-{workload.seed}.tsv.gz")
    speedup = 0.0
    if "mine_2proc.mol_per_s" in plain:
        speedup = plain["mine_2proc.mol_per_s"][0] / plain["mine.mol_per_s"][0]
    return layer_metrics(tracer.spans, traced, traced_runs, cache_stats,
                         traced / untraced, speedup), checks


def layer_metrics(spans, wall: float, runs, cache_stats, overhead: float,
                  speedup: float) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of one traced set-up and pass lasting ``wall`` s.

    ``*.self_share`` is a layer's self time over ``wall``: a share, not a
    time, so that a layer a workload never calls reads 0 without posing as a
    measured time. ``speedup`` is the untraced 2-process over 1-process mine
    rate (0 where the workload has no 2-process stage).
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own

    def share(*names: str) -> tuple[float, str, int]:
        return sum(self_s.get(n, 0.0) for n in names) / wall, "share", sum(calls.get(n, 0) for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    writes = ("write_smiles", "write_smiles_with_order")
    write_calls = sum(
        1 for s in spans
        if s.name in writes and not (s.parent >= 0 and spans[s.parent].name == "write_smiles")
    )
    apply = [s.note for s in spans if s.name == "MergingGraph.apply_operation"]
    patterns = [s.note for s in spans if s.name == "write_smiles" and s.namespace == "graphbpe.merging"]
    connections = [s.note for s in spans if s.name == "FrequencyPolicy.score_connections"]
    tokenized = sum(r.items for r in runs.get("fragmentize", ()))
    starts = calls.get("start_generation", 0)
    atoms = 0.0
    if "generate" in runs:
        emitted = runs["generate"][0].output[0]
        atoms = statistics.mean(len(m.atoms) for m in emitted) if emitted else 0.0
    load = ("load_corpus", "read_smiles_lines", "read_operations", "read_vocabulary", "read_trajectories")
    write = ("write_molecules", "write_operations", "write_vocabulary", "write_attachments",
             "write_trajectories")
    return {
        "chem.smiles.parse.calls": (calls.get("parse_smiles", 0), "count", 1),
        "chem.smiles.parse.self_share": share("parse_smiles"),
        "chem.smiles.write.calls": (write_calls, "count", 1),
        "chem.smiles.write.self_share": share(*writes),
        "chem.canon.rank.calls": (calls.get("canonical_rank", 0), "count", 1),
        "chem.canon.rank.self_share": share("canonical_rank"),
        "chem.mol.subgraph.calls": (calls.get("MolGraph.subgraph", 0), "count", 1),
        "chem.mol.subgraph.self_share": share("MolGraph.subgraph"),
        "chem.mol.valence_check.self_share": share("valence_check"),
        "chem.mol.failing_aromatic_rings.self_share": share("failing_aromatic_rings"),
        "merging.build.self_share": share("MergingGraph.__init__"),
        "merging.apply.calls": (len(apply), "count", 1),
        "merging.apply.merges": (sum(apply), "count", 1),
        "merging.apply.useful_ratio": (ratio(sum(1 for m in apply if m), len(apply)), "ratio", len(apply)),
        "merging.pattern.calls": (len(patterns), "count", 1),
        "merging.pattern.repeat_ratio": (ratio(len(patterns) - len(set(patterns)), len(patterns)),
                                         "ratio", len(patterns)),
        "merging.extract_motifs.self_share": share("extract_motifs"),
        "miner.mine.self_share": share("mine_corpus", "learn_merging_operations", "build_motif_vocabulary"),
        "miner.site_meta.hit_ratio": (ratio(cache_stats[0], sum(cache_stats)), "ratio", sum(cache_stats)),
        "miner.parallel_speedup": (speedup, "ratio", 1),
        "tokenizer.fragmentize.calls_per_mol": (ratio(calls.get("fragmentize", 0), tokenized),
                                                "calls/mol", tokenized),
        "tokenizer.fragmentize.self_share": share("fragmentize", "apply_operations"),
        "tokenizer.trajectory.self_share": share("extract_trajectory"),
        "generator.start.self_share": share("start_generation"),
        "generator.step.self_share": share("generation_step"),
        "generator.steps_per_mol": (ratio(calls.get("generation_step", 0), starts), "steps/mol", starts),
        "generator.score_start.motifs_scored": (
            sum(s.note for s in spans if s.name == "FrequencyPolicy.score_start"), "count", 1),
        "generator.score_connections.calls": (len(connections), "count", 1),
        "generator.candidates_per_call": (ratio(sum(connections), len(connections)),
                                          "candidates", len(connections)),
        "generator.finalize.self_share": share("finalize", "repair_aromatic_rings"),
        "generator.atoms_per_mol": (atoms, "atoms", 1),
        "metrics.evaluate.self_share": share("evaluate"),
        "metrics.descriptors.self_share": share("compute_descriptors"),
        "fileio.load.self_share": share(*load),
        "fileio.write.self_share": share(*write),
        "trace.overhead_ratio": (overhead, "ratio", 1),
    }


if __name__ == "__main__":
    sys.exit(main())
