import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import graphbpe
from graphbpe.chem import write_smiles
from graphbpe.cli import main
from graphbpe.fileio import read_vocabulary
from graphbpe.generator import DISTRIBUTIONAL, FrequencyPolicy, generate
from helpers import fused_ladder_smiles

A1 = "CC\nCN\nCNN\nCN=O\nCC=O\n"


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "corpus.smi").write_text(A1)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestMine:
    def test_produces_three_artifacts(self, workdir, capsys):
        code = run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
                    "--out", workdir / "mined"])
        assert code == 0
        for name in ("ops.txt", "vocab.txt", "attach.txt"):
            assert (workdir / "mined" / name).is_file()
        out = capsys.readouterr().out
        assert "motifs=" in out and "mean_fragments_per_molecule=" in out

    def test_worked_example_ops(self, workdir, capsys):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        lines = (workdir / "mined" / "ops.txt").read_text().splitlines()
        assert lines[1].split("\t")[1] == "CN"
        assert lines[2].split("\t")[1] == "CC"

    def test_zero_ops_gives_atom_vocabulary(self, workdir, capsys):
        code = run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "0",
                    "--out", workdir / "m0"])
        assert code == 0
        vocab_lines = (workdir / "m0" / "vocab.txt").read_text().splitlines()[1:]
        assert all("*" in line.split("\t")[0] for line in vocab_lines)

    def test_corpus_parse_error_exit_3(self, workdir, capsys):
        (workdir / "bad.smi").write_text("CC\nQQ\n")
        code = run(["mine", "--corpus", workdir / "bad.smi", "--num-ops", "1",
                    "--out", workdir / "x"])
        assert code == 3

    def test_missing_file_exit_2(self, workdir, capsys):
        code = run(["mine", "--corpus", workdir / "nope.smi", "--num-ops", "1",
                    "--out", workdir / "x"])
        assert code == 2

    def test_negative_k_exit_2(self, workdir, capsys):
        code = run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "-1",
                    "--out", workdir / "x"])
        assert code == 2


class TestFragmentize:
    def test_ccn_line(self, workdir, capsys):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        capsys.readouterr()
        (workdir / "new.smi").write_text("CCN\tquery\n")
        code = run(["fragmentize", "--corpus", workdir / "new.smi",
                    "--ops", workdir / "mined" / "ops.txt"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "query\t*C|*CN\n"

    def test_empty_corpus_exit_0(self, workdir, capsys):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "1",
             "--out", workdir / "mined"])
        capsys.readouterr()
        (workdir / "empty.smi").write_text("# nothing\n")
        code = run(["fragmentize", "--corpus", workdir / "empty.smi",
                    "--ops", workdir / "mined" / "ops.txt"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_corrupt_ops_header_exit_4(self, workdir, capsys):
        (workdir / "ops.txt").write_text("graphbpe-ops v2 K=0\n")
        code = run(["fragmentize", "--corpus", workdir / "corpus.smi",
                    "--ops", workdir / "ops.txt"])
        assert code == 4

    @pytest.mark.parametrize("k", ["0_1", " 1", "+1", "01", "1 ", "x", ""])
    def test_ops_header_k_not_as_written_exit_4(self, workdir, capsys, k):
        (workdir / "ops.txt").write_text(f"graphbpe-ops v1 K={k}\n0\tCC\t3\n")
        code = run(["fragmentize", "--corpus", workdir / "corpus.smi",
                    "--ops", workdir / "ops.txt"])
        assert code == 4

    @pytest.mark.parametrize("line", ["0\tC1CC\t3", "0\tCC\t0"], ids=["pattern", "count"])
    def test_bad_op_line_exit_3(self, workdir, capsys, line):
        (workdir / "ops.txt").write_text(f"graphbpe-ops v1 K=1\n{line}\n")
        code = run(["fragmentize", "--corpus", workdir / "corpus.smi",
                    "--ops", workdir / "ops.txt"])
        assert code == 3
        assert f"line 2: {workdir / 'ops.txt'}: " in capsys.readouterr().err

    def test_trajectory_output(self, workdir, capsys):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        code = run(["fragmentize", "--corpus", workdir / "corpus.smi",
                    "--ops", workdir / "mined" / "ops.txt",
                    "--out", workdir / "tokens.txt",
                    "--trajectories", workdir / "traj.jsonl"])
        assert code == 0
        assert len((workdir / "traj.jsonl").read_text().splitlines()) == 5


class TestGenerate:
    def test_generates_requested_count(self, workdir, capsys):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        code = run(["generate", "--vocab", workdir / "mined" / "vocab.txt",
                    "--num", "12", "--mode", "sample", "--seed", "5",
                    "--out", workdir / "gen.smi"])
        assert code == 0
        lines = (workdir / "gen.smi").read_text().splitlines()
        err = capsys.readouterr().err
        assert "emitted=" in err
        assert len(lines) >= 1

    def test_deterministic_across_runs(self, workdir, capsys):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        outputs = []
        for name in ("a.smi", "b.smi"):
            run(["generate", "--vocab", workdir / "mined" / "vocab.txt",
                 "--num", "15", "--mode", "sample", "--seed", "99",
                 "--out", workdir / name])
            outputs.append((workdir / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_output_is_every_molecule_written(self, workdir, capsys):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        run(["generate", "--vocab", workdir / "mined" / "vocab.txt",
             "--num", "40", "--seed", "3", "--out", workdir / "gen.smi"])
        vocab = read_vocabulary(workdir / "mined" / "vocab.txt",
                                workdir / "mined" / "attach.txt")
        molecules, _ = generate(vocab, FrequencyPolicy(vocab), 40,
                                mode=DISTRIBUTIONAL, seed=3)
        want = [write_smiles(m) for m in molecules]
        assert len(set(want)) < len(want)  # repeats share one write
        assert (workdir / "gen.smi").read_text().splitlines() == want

    def test_missing_attachment_table_exit_2(self, workdir, capsys):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        (workdir / "mined" / "attach.txt").unlink()
        code = run(["generate", "--vocab", workdir / "mined" / "vocab.txt",
                    "--num", "3", "--out", workdir / "gen.smi"])
        assert code == 2

    @pytest.mark.parametrize("frequency", ["0", "-4"])
    def test_non_positive_frequency_exit_3(self, workdir, capsys, frequency):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        path = workdir / "mined" / "vocab.txt"
        lines = path.read_text().splitlines()
        smiles, _, sites = lines[2].split("\t")
        lines[2] = f"{smiles}\t{frequency}\t{sites}"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["generate", "--vocab", path, "--num", "3", "--out", workdir / "gen.smi"])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 3" in err and "vocab.txt" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_non_positive_attachment_count_exit_3(self, workdir, capsys, count):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        path = workdir / "mined" / "attach.txt"
        lines = path.read_text().splitlines()
        site_a, site_b, _ = lines[1].split("\t")
        lines[1] = f"{site_a}\t{site_b}\t{count}"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["generate", "--vocab", workdir / "mined" / "vocab.txt",
                    "--num", "3", "--out", workdir / "gen.smi"])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "attach.txt" in err

    @pytest.mark.parametrize("swapped", [False, True], ids=["same", "swapped"])
    def test_repeated_attachment_pair_exit_3(self, workdir, capsys, swapped):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        path = workdir / "mined" / "attach.txt"
        lines = path.read_text().splitlines()
        site_a, site_b, count = lines[-1].split("\t")
        if swapped:
            site_a, site_b = site_b, site_a
        lines.append(f"{site_a}\t{site_b}\t{count}")
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["generate", "--vocab", workdir / "mined" / "vocab.txt",
                    "--num", "3", "--out", workdir / "gen.smi"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"line {len(lines)}: {path}: " in err

    @pytest.mark.parametrize("site", ["*CC*|1|single", "*N|7|double"])
    def test_attachment_to_unknown_site_exit_3(self, workdir, capsys, site):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        path = workdir / "mined" / "attach.txt"
        with path.open("a") as handle:
            handle.write(f"{site}\t*NC|0|single\t1\n")
        last = len(path.read_text().splitlines())
        capsys.readouterr()
        code = run(["generate", "--vocab", workdir / "mined" / "vocab.txt",
                    "--num", "3", "--out", workdir / "gen.smi"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"line {last}" in err and "attach.txt" in err


class TestEval:
    def test_self_evaluation(self, workdir, capsys):
        code = run(["eval", "--generated", workdir / "corpus.smi",
                    "--train", workdir / "corpus.smi",
                    "--report", workdir / "report.txt"])
        assert code == 0
        text = (workdir / "report.txt").read_text()
        assert "validity=1.000000" in text
        assert "novelty=0.000000" in text

    def test_unparseable_generated_counts_invalid(self, workdir, capsys):
        (workdir / "gen.smi").write_text("CC\n???\n")
        code = run(["eval", "--generated", workdir / "gen.smi",
                    "--train", workdir / "corpus.smi",
                    "--report", workdir / "report.txt"])
        assert code == 0
        assert "validity=0.500000" in (workdir / "report.txt").read_text()

    def test_unwritable_training_molecule_exit_3(self, workdir, capsys):
        (workdir / "ladder.smi").write_text(fused_ladder_smiles(150) + "\n")
        code = run(["eval", "--generated", workdir / "corpus.smi",
                    "--train", workdir / "ladder.smi",
                    "--report", workdir / "report.txt"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err


class TestInspectVocab:
    def test_listing_sorted_by_frequency(self, workdir, capsys):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        capsys.readouterr()
        code = run(["inspect-vocab", "--vocab", workdir / "mined" / "vocab.txt"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("motifs")
        frequencies = [int(line.split("\t")[0]) for line in lines[1:]]
        assert frequencies == sorted(frequencies, reverse=True)

    def test_empty_vocab(self, workdir, capsys):
        (workdir / "vocab.txt").write_text("graphbpe-vocab v1\n")
        code = run(["inspect-vocab", "--vocab", workdir / "vocab.txt"])
        assert code == 0
        assert capsys.readouterr().out.startswith("0 motifs")

    def test_tampered_line_exit_3(self, workdir, capsys):
        run(["mine", "--corpus", workdir / "corpus.smi", "--num-ops", "2",
             "--out", workdir / "mined"])
        capsys.readouterr()
        path = workdir / "mined" / "vocab.txt"
        lines = path.read_text().splitlines()
        lines[1] = lines[1] + "\textra"
        path.write_text("\n".join(lines) + "\n")
        code = run(["inspect-vocab", "--vocab", path])
        assert code == 3


def test_import_loads_no_numpy():
    """The package has no runtime dependency: a fresh interpreter that
    imports it and its CLI has not loaded numpy."""
    src = str(Path(graphbpe.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import graphbpe, graphbpe.cli, sys; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


# (argv, file given a non-UTF-8 byte or None, that byte's line, exit code)
BAD_INPUT_CASES = [
    ("mine --corpus c.smi --num-ops 2 --out new", "c.smi", 4, 3),
    ("fragmentize --corpus c.smi --ops m/ops.txt", "c.smi", 2, 3),
    ("eval --generated c.smi --train t.smi --report r.txt", "c.smi", 5, 3),
    ("eval --generated t.smi --train c.smi --report r.txt", "c.smi", 1, 3),
    ("inspect-vocab --vocab m/vocab.txt", "m/vocab.txt", 3, 3),
    ("generate --vocab m/vocab.txt --num 3 --out g.smi", "m/attach.txt", 2, 3),
    ("fragmentize --corpus c.smi --ops m/ops.txt --out no/t.txt", None, 0, 2),
    ("fragmentize --corpus c.smi --ops m/ops.txt --trajectories no/t.jsonl", None, 0, 2),
    ("fragmentize --corpus c.smi --ops m/ops.txt --out m", None, 0, 2),
    ("generate --vocab m/vocab.txt --num 3 --out no/g.smi", None, 0, 2),
    ("eval --generated c.smi --train c.smi --report no/r.txt", None, 0, 2),
    ("mine --corpus c.smi --num-ops 2 --out c.smi", None, 0, 2),
    ("generate --vocab m/vocab.txt --num 3 --out g.smi --ops m/ops.txt", None, 0, 2),
]


@pytest.mark.parametrize("argv, bad_file, line, code", BAD_INPUT_CASES)
def test_bad_input_or_output_path_exits_cleanly(
    tmp_path, monkeypatch, capsys, argv, bad_file, line, code
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.smi").write_text(A1)
    (tmp_path / "t.smi").write_text(A1)
    assert run(["mine", "--corpus", "c.smi", "--num-ops", "2", "--out", "m"]) == 0
    if bad_file:
        path = tmp_path / bad_file
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] += b"\xff"
        path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    try:
        assert run(argv.split()) == code
    except SystemExit as exc:  # argparse rejects an unknown option
        assert exc.code == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()  # a failed mine leaves no --out behind
    if code == 3:
        assert err.startswith("input error:") and f"line {line}:" in err
    else:
        assert "error:" in err


# a corpus with rings, aromatic atoms, branches and a double bond, so the
# mined artifacts carry ring motifs, several site classes and bond orders
MUTATION_CORPUS = "CC\nCN\nCNN\nCN=O\nCC=O\nc1ccccc1O\nCC(C)Oc1ccncc1\nC1CCNC1C(=O)O\nCC#N\n"
MUTATION_TOKENS = ["*", "C", "c", "N", "1", "(", ")", "=", "#", ":", "\t", " ", "|",
                   "[", "]", "+", "-", "0", "7", "x", "%", ",", "\n", "\xe9"]
DOCUMENTED_EXITS = {0, 2, 3, 4}


def mutate(data: str, rng: Random) -> str:
    """One random edit of an artifact's text: a line dropped, doubled or
    swapped, a token put in or removed, a number changed, or a cut."""
    lines = data.split("\n")
    kind = rng.randrange(7)
    at = rng.randrange(len(lines))
    if kind == 0:
        del lines[at]
    elif kind == 1:
        lines.insert(at, lines[rng.randrange(len(lines))])
    elif kind == 2:
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == 3:
        lines[at] = re.sub(r"\d+", lambda m: str(rng.choice([-1, 0, 1, 10**30])),
                           lines[at], count=1)
    else:
        text = "\n".join(lines)
        cut = rng.randrange(len(text) + 1)
        if kind == 4:
            return text[:cut] + rng.choice(MUTATION_TOKENS) + text[cut:]
        if kind == 5:
            return text[:cut] + text[cut + 1:]
        return text[:cut]
    return "\n".join(lines)


def test_mutated_artifacts_exit_with_documented_codes(tmp_path, capsys):
    """Three hundred seeded mutations of a mined ops/vocab/attach set, each
    fed to fragmentize, generate and inspect-vocab in-process: every run
    returns a documented exit code and none raises."""
    (tmp_path / "corpus.smi").write_text(MUTATION_CORPUS)
    assert run(["mine", "--corpus", tmp_path / "corpus.smi", "--num-ops", "6",
                "--out", tmp_path / "mined"]) == 0
    artifacts = {name: (tmp_path / "mined" / name).read_text()
                 for name in ("ops.txt", "vocab.txt", "attach.txt")}
    commands = {
        "ops.txt": [["fragmentize", "--corpus", tmp_path / "corpus.smi", "--ops", "ops.txt",
                     "--out", tmp_path / "frag.txt"]],
        "vocab.txt": [["inspect-vocab", "--vocab", "vocab.txt"]],
        "attach.txt": [],
    }
    generate_argv = ["generate", "--vocab", "vocab.txt", "--attach", "attach.txt", "--num", "4",
                     "--max-steps", "12", "--out", tmp_path / "gen.smi"]
    rng = Random(12)
    exits = Counter()
    for _ in range(300):
        name = rng.choice(sorted(artifacts))
        work = tmp_path / "work"
        work.mkdir(exist_ok=True)
        for other, text in artifacts.items():
            (work / other).write_text(mutate(text, rng) if other == name else text,
                                      encoding="utf-8")
        for argv in commands[name] + ([] if name == "ops.txt" else [generate_argv]):
            argv = [work / a if a in artifacts else a for a in argv]
            code = run(argv)
            assert code in DOCUMENTED_EXITS, (name, argv, code)
            exits[code] += 1
        capsys.readouterr()
    assert exits[0] and exits[3]
