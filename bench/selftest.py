#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (a few seconds):

    python3 bench/selftest.py

Checks self-time arithmetic on a synthetic span tree, per-namespace call
attribution of the tracer, the tail percentile rule, and that an injected
bad output is counted by the output checks.
"""
from __future__ import annotations

import json

import run  # sets up sys.path for graphbpe and the bench modules
from graphbpe import parse_smiles
from graphbpe import merging
from graphbpe.generator import GenerationReport
from tracing import Span, Tracer, self_times

import graphbpe as gb


def test_self_times() -> None:
    # root [0,10] has children [1,4] and [5,9]; [5,9] has child [6,7]
    spans = [
        Span(0, "root", "x", -1, 0.0, 10.0),
        Span(1, "a", "x", 0, 1.0, 4.0),
        Span(2, "b", "x", 0, 5.0, 9.0),
        Span(3, "c", "x", 2, 6.0, 7.0),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0], self_times(spans)
    # overlapping children cover their union once
    spans = [Span(0, "root", "x", -1, 0.0, 10.0),
             Span(1, "a", "x", 0, 1.0, 5.0), Span(2, "b", "x", 0, 3.0, 6.0)]
    assert self_times(spans)[0] == 5.0


def test_tracer_attribution() -> None:
    original = merging.write_smiles
    mol = parse_smiles("CCO")
    tracer = Tracer()
    tracer.install(keep_results=frozenset({("graphbpe.merging", "write_smiles")}))
    try:
        gb.fragmentize(mol, [])
    finally:
        tracer.uninstall()
    assert merging.write_smiles is original, "uninstall must restore every name"
    names = {(s.namespace, s.name) for s in tracer.spans}
    assert ("graphbpe", "fragmentize") in names
    assert ("graphbpe.merging", "write_smiles") in names
    assert ("graphbpe.chem.smiles", "write_smiles_with_order") in names
    patterns = [s.note for s in tracer.spans if s.namespace == "graphbpe.merging"
                and s.name == "write_smiles"]
    assert sorted(patterns) == ["CC", "CO"], patterns
    root = tracer.spans[0]
    assert root.name == "fragmentize" and root.parent == -1
    assert all(s.parent < s.span_id for s in tracer.spans)


def test_tail() -> None:
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(20)])
    assert (pct, value) == (50.0, 9.0)


def test_injected_bad_output() -> None:
    good = [parse_smiles("CCO"), parse_smiles("c1ccccc1")]
    report = GenerationReport(requested=2, emitted=2)
    checks = run.Checks()
    run.check_generated(checks, good, report)
    assert checks.failed == 0 and checks.attempted > 0

    bad = parse_smiles("CC(C)(C)(C)C", validate=False)  # a five-valent carbon
    checks = run.Checks()
    run.check_generated(checks, good + [bad], GenerationReport(requested=3, emitted=3))
    assert checks.failed >= 1, "a valence-invalid molecule must raise the error share"

    checks = run.Checks()
    run.check_generated(checks, good, GenerationReport(requested=3, emitted=2))
    assert checks.failed == 1, "an unaccounted request must be counted"

    checks = run.Checks()
    mol = parse_smiles("CCO")
    frag = gb.fragmentize(parse_smiles("CC"), [])
    run.check_motif_atoms(checks, [mol], [frag])
    assert checks.failed == 1, "motifs that miss atoms must be counted"


def test_benchmark_json_matches_run() -> None:
    """BENCHMARK.json names exactly the metrics run.py prints, with their units."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    layers = run.layer_metrics([], 1.0, {}, [0, 0], 1.0, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit, _) in layers.items()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    print("selftest ok")
