"""No production code that only tests reach.

A fresh interpreter runs one session under ``sys.setprofile``, installed
before ``graphbpe`` is imported, so memos start cold and import-time code
counts. The session has three sources, the traffic that uses the package:

- the CLI: every subcommand on a slice of the fixture corpus, and one bad
  input for each documented failure exit code (2, 3 and 4);
- the library calls ``bench/run.py`` makes, and ``write_smiles`` on
  ``bench/inputs.py`` large-series molecules;
- README's "Library use" example.

Every ``def`` under ``src/graphbpe`` that the session never enters fails the
test, unless ``ALLOWED`` names it with a reason from ``REASONS``. An
allowed ``def`` that the session enters is stale and fails it too, and so
does a ``bench-tracer`` entry that ``bench/tracing.py`` no longer traces.

The session alone runs as a script, writing the entered defs as JSON:

    PYTHONPATH=src python tests/test_reachability.py entered.json
"""
import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "corpus_1k.smi"

# CLI slice, mined at CLI_OPS; the bench calls mine BENCH_TRAIN molecules
# that follow it and fragmentize BENCH_HELD_OUT more
CLI_MOLECULES, CLI_OPS, CLI_GENERATED = 60, 20, 30
BENCH_TRAIN, BENCH_HELD_OUT, BENCH_OPS, BENCH_GENERATED = 60, 20, 30, 30
# the bench's large-series builders at sizes above FLAT_MAX_ATOMS, so that the
# larger-graph ranking runs; the bench's own sizes (100-800 atoms) take seconds
LARGE_SIZES = (30, 60)

REASONS = {
    "error": "raised or recorded only on a failure the session does not hit",
    "override": "a base method that its subclasses replace; the note names one",
    "bench-tracer": "kept for bench/tracing.py, which names it",
    "tier1": "reached by the named tier-1 test",
}
# "<module>.<qualified name>": (reason, note); a "tier1" note is the test's
# "<file>::<name>" id, as pytest prints it
ALLOWED = {
    "graphbpe.chem.mol.MolGraph.subgraph": ("bench-tracer", "chem.mol.subgraph.* metrics"),
    "graphbpe.fileio.read_trajectories": ("bench-tracer", "fileio.load.self_share"),
    "graphbpe.generator.Policy.score_start": ("override", "FrequencyPolicy"),
    "graphbpe.generator.Policy.score_pool": ("override", "FrequencyPolicy"),
    "graphbpe.generator.Policy.score_connections": ("override", "FrequencyPolicy"),
}


# ------------------------------------------------------------------ session

# graphbpe is imported inside these functions, so that it loads under the profiler

def session(work: Path) -> None:
    """The traffic: the CLI, the bench's library calls and README's example."""
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        cli_session(work)
        bench_calls(work)
        readme_example()


def cli_session(work: Path) -> None:
    from graphbpe import cli

    def run(*argv: str) -> int:
        return cli.main([str(arg) for arg in argv])

    lines = FIXTURE.read_text(encoding="utf-8").splitlines(keepends=True)
    corpus = work / "train.smi"
    corpus.write_text("".join(lines[:CLI_MOLECULES]), encoding="utf-8")
    mined = work / "mined"
    vocab = mined / "vocab.txt"
    generated = work / "top_k.smi"
    codes = [
        run("mine", "--corpus", corpus, "--num-ops", CLI_OPS, "--out", mined),
        run("fragmentize", "--corpus", corpus, "--ops", mined / "ops.txt",
            "--out", work / "tokens.txt", "--trajectories", work / "trajectories.jsonl"),
        run("generate", "--vocab", vocab, "--num", CLI_GENERATED, "--mode", "greedy",
            "--out", work / "greedy.smi"),
        run("generate", "--vocab", vocab, "--num", CLI_GENERATED, "--mode", "sample",
            "--top-k", 25, "--out", generated),
        # without top-k most molecules run to the step cap; a low one keeps it short
        run("generate", "--vocab", vocab, "--num", CLI_GENERATED, "--mode", "sample",
            "--max-steps", 25, "--out", work / "sample.smi"),
        run("eval", "--generated", generated, "--train", corpus, "--report", work / "report.txt"),
        run("inspect-vocab", "--vocab", vocab),
    ]
    assert codes == [cli.EXIT_OK] * len(codes), codes
    stereo = work / "stereo.smi"
    stereo.write_text("C/C=C/C\n", encoding="utf-8")
    future = work / "future_ops.txt"
    future.write_text("graphbpe-ops v2 K=0\n", encoding="utf-8")
    codes = [
        run("generate", "--vocab", vocab, "--num", 1, "--out", work / "missing" / "out.smi"),
        run("mine", "--corpus", stereo, "--num-ops", 1, "--out", work / "stereo"),
        run("fragmentize", "--corpus", corpus, "--ops", future),
    ]
    assert codes == [cli.EXIT_USAGE, cli.EXIT_PARSE, cli.EXIT_FORMAT], codes


def bench_calls(work: Path) -> None:
    """The library calls of ``bench/run.py``, on slices of its inputs."""
    from random import Random

    import graphbpe as gb
    from graphbpe import fileio
    from graphbpe.chem.canon import FLAT_MAX_ATOMS
    from graphbpe.generator import DISTRIBUTIONAL

    sys.path.insert(0, str(ROOT / "bench"))
    import inputs

    _, molecules = fileio.load_corpus(FIXTURE)
    train = molecules[CLI_MOLECULES:CLI_MOLECULES + BENCH_TRAIN]
    held = molecules[CLI_MOLECULES + BENCH_TRAIN:][:BENCH_HELD_OUT]
    result = gb.mine_corpus(train, BENCH_OPS, threads=1)
    out = work / "bench"
    out.mkdir()
    fileio.write_operations(out / "ops.txt", result.operations)
    fileio.write_vocabulary(out / "vocab.txt", result.vocabulary)
    fileio.write_attachments(out / "attach.txt", result.vocabulary)
    ops = fileio.read_operations(out / "ops.txt")
    vocab = fileio.read_vocabulary(out / "vocab.txt", out / "attach.txt")

    trajectories = []
    for mol in held:
        gb.fragmentize(mol, ops)
        trajectories.append(gb.extract_trajectory(mol, ops))
    fileio.write_trajectories(out / "trajectories.jsonl", trajectories)
    held_vocab = gb.build_motif_vocabulary(held, ops)
    for mol, trajectory in zip(held, trajectories):
        assert gb.write_smiles(gb.replay_trajectory(trajectory, held_vocab)) == gb.write_smiles(mol)

    generated, _ = gb.generate(vocab, gb.FrequencyPolicy(vocab), BENCH_GENERATED,
                               mode=DISTRIBUTIONAL, seed=1, top_k=25)
    fileio.write_molecules(out / "generated.smi", [gb.write_smiles(m) for m in generated])
    parsed = [gb.parse_smiles(s, validate=False)
              for _, s, _ in fileio.read_smiles_lines(out / "generated.smi")]
    gb.evaluate(parsed, train)

    rng = Random(1)
    for size in LARGE_SIZES:
        for kind in inputs.LARGE_KINDS:
            mol = inputs._BUILDERS[kind](rng, size).build()
            assert len(mol.atoms) > FLAT_MAX_ATOMS
            gb.write_smiles(mol)


def readme_example() -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    code = section[section.index("```python\n") + len("```python\n"):]
    code = code[: code.index("```")]
    exec(compile(code, "README.md", "exec"), {})


def profiled_session(work: Path) -> set[tuple[str, int]]:
    """(file, first line) of every code object under ``src/graphbpe`` that
    ``session`` enters."""
    entered = {}  # by id: hashing a code object hashes its bytecode and constants

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code

    sys.setprofile(profile)
    try:
        session(work)
    finally:
        sys.setprofile(None)
    package = str(SRC / "graphbpe")
    return {(c.co_filename, c.co_firstlineno) for c in entered.values()
            if c.co_filename.startswith(package)}


# ------------------------------------------------------------------ the test

def package_defs() -> dict[str, tuple[str, int]]:
    """Every ``def`` under ``src/graphbpe``: "<module>.<qualified name>" ->
    (file, first line of its code object, which is its first decorator's)."""
    defs = {}
    for path in sorted((SRC / "graphbpe").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        assert name not in defs, f"two defs named {name}"
                        defs[name] = (str(path), first)
                    walk(child, f"{name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), f"{module}.")
    return defs


def test_every_def_is_reached_or_allowed(tmp_path):
    result = subprocess.run(
        [sys.executable, __file__, str(tmp_path / "entered.json")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    entered = {tuple(item) for item in json.loads((tmp_path / "entered.json").read_text())}
    defs = package_defs()
    unreached = sorted(name for name, where in defs.items()
                       if where not in entered and name not in ALLOWED)
    assert not unreached, f"reached only by tests, or by nothing: {unreached}"
    stale = sorted(name for name in ALLOWED if name not in defs or defs[name] in entered)
    assert not stale, f"allowed but reached, or no such def: {stale}"


def test_allowlist_reasons_hold():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses resolve their module
    spec.loader.exec_module(tracing)
    traced = {f"{module}.{name}" for module, names in tracing.FUNCTIONS.items() for name in names}
    traced |= {f"{module}.{cls}.{method}" for module, cls, method in tracing.METHODS}
    defs = package_defs()
    for name, (reason, note) in ALLOWED.items():
        assert reason in REASONS, name
        if reason == "bench-tracer":
            assert name in traced, f"{name}: bench/tracing.py no longer traces it"
        elif reason == "override":
            module, _, method = name.rsplit(".", 2)
            assert f"{module}.{note}.{method}" in defs, f"{name}: {note} does not override it"
        elif reason == "tier1":
            path, test = note.split("::", 1)
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            tests = set()
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    tests.add(node.name)
                elif isinstance(node, ast.ClassDef):
                    tests |= {f"{node.name}::{n.name}" for n in node.body
                              if isinstance(n, ast.FunctionDef)}
            assert test in tests, f"{name}: no test {note}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        reached = profiled_session(Path(work))
    Path(sys.argv[1]).write_text(json.dumps(sorted(reached)), encoding="utf-8")
