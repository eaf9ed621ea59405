import hashlib
from pathlib import Path

import pytest

from graphbpe.chem import parse_smiles, write_smiles
from graphbpe.cli import main as cli_main
from graphbpe.errors import CorpusError, FileFormatError, FormatVersionError
from graphbpe.fileio import (
    load_corpus,
    read_operations,
    read_smiles_lines,
    read_trajectories,
    read_vocabulary,
    write_attachments,
    write_molecules,
    write_operations,
    write_trajectories,
    write_vocabulary,
)
from graphbpe.generator import DISTRIBUTIONAL, GREEDY, FrequencyPolicy, generate
from graphbpe.metrics import evaluate, format_report
from graphbpe.miner import build_motif_vocabulary, mine_corpus
from graphbpe.tokenizer import extract_trajectory

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def mined(tmp_path):
    corpus = [parse_smiles(s) for s in ["CC", "CN", "CNN", "CN=O", "CC=O"]]
    result = mine_corpus(corpus, 2)
    write_operations(tmp_path / "ops.txt", result.operations)
    write_vocabulary(tmp_path / "vocab.txt", result.vocabulary)
    write_attachments(tmp_path / "attach.txt", result.vocabulary)
    return corpus, result, tmp_path


class TestCorpus:
    def test_ids_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.smi"
        path.write_text("# header\nCC\tfirst\n\nCCO\n")
        ids, mols = load_corpus(path)
        assert ids == ["first", "mol1"]
        assert len(mols) == 2

    def test_molecules_share_equal_parts(self, tmp_path):
        text = (FIXTURES / "corpus_1k.smi").read_text()
        lines = [line.split("\t")[0] for line in text.splitlines()[:300]]
        path = tmp_path / "c.smi"
        path.write_text("\n".join(lines) + "\n")
        _, mols = load_corpus(path)
        # each molecule is the one its line parses to
        for mol, line in zip(mols, lines, strict=True):
            alone = parse_smiles(line)
            assert mol == alone
            assert list(map(mol.neighbors, range(len(mol.atoms)))) == list(
                map(alone.neighbors, range(len(alone.atoms)))
            )
        # and each equal bond, bracket atom and neighbour tuple is one object
        objects = {}
        bracket = bonds = neighbours = 0
        for mol in mols:
            for bond in mol.bonds:
                assert objects.setdefault(bond, bond) is bond
                bonds += 1
            for atom in mol.atoms:
                if atom.bracket:
                    assert objects.setdefault(atom, atom) is atom
                    bracket += 1
            for i in range(len(mol.atoms)):
                nbrs = mol.neighbors(i)
                assert objects.setdefault(nbrs, nbrs) is nbrs
                neighbours += 1
        assert bracket > 50 and len(objects) < (bracket + bonds + neighbours) / 2

    def test_bad_middle_line_reports_number_with_shared_parts(self, tmp_path):
        path = tmp_path / "c.smi"
        path.write_text("CC[NH3+]\nc1cc[nH]c1\n# note\nC1CC\nCC[NH3+]\n")
        with pytest.raises(CorpusError) as info:
            load_corpus(path)
        assert info.value.line_number == 4

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "c.smi"
        path.write_text("CC\nnot_a_smiles\n")
        with pytest.raises(CorpusError) as info:
            load_corpus(path)
        assert info.value.line_number == 2
        assert str(info.value).startswith(f"line 2: {path}: ")


class TestOpsFile:
    def test_roundtrip(self, mined):
        _, result, tmp_path = mined
        assert read_operations(tmp_path / "ops.txt") == result.operations

    def test_header_content(self, mined):
        _, _, tmp_path = mined
        first = (tmp_path / "ops.txt").read_text().splitlines()[0]
        assert first == "graphbpe-ops v1 K=2"

    def test_version_error(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text("graphbpe-ops v9 K=0\n")
        with pytest.raises(FormatVersionError) as info:
            read_operations(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_rank_gap_detected(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text("graphbpe-ops v1 K=2\n0\tCC\t3\n2\tCN\t1\n")
        with pytest.raises(FileFormatError) as info:
            read_operations(path)
        assert info.value.line_number == 3
        assert str(info.value).startswith(f"line 3: {path}: ")

    def test_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text("graphbpe-ops v1 K=3\n0\tCC\t3\n")
        with pytest.raises(FileFormatError):
            read_operations(path)

    @pytest.mark.parametrize("pattern,count", [
        ("C1CC", 3), ("|[NH+]C", 3), ("c:8:c:c:c", 3), ("C( N)=O", 3), ("", 3),
        ("C", 3), ("CO", 0), ("CO", -5),
    ], ids=["ring", "bar", "ring-8", "space", "empty", "one-atom", "count-0", "count-5"])
    def test_op_no_union_can_have_is_rejected(self, tmp_path, pattern, count):
        # the second op is bad; the first and third are fine
        path = tmp_path / "ops.txt"
        path.write_text(f"graphbpe-ops v1 K=3\n0\tCC\t4\n1\t{pattern}\t{count}\n2\tCN\t1\n")
        with pytest.raises(FileFormatError) as info:
            read_operations(path)
        assert info.value.line_number == 3
        assert str(info.value).startswith(f"line 3: {path}: ")

    def test_star_corpus_roundtrip(self, tmp_path):
        # a corpus may hold "*" sites, and they merge like any other atom
        corpus = [parse_smiles(s) for s in ["*CN", "*CN", "*c1ccccc1*"]]
        ops = mine_corpus(corpus, 4).operations
        assert any("*" in op.pattern for op in ops)
        write_operations(tmp_path / "ops.txt", ops)
        assert read_operations(tmp_path / "ops.txt") == ops

    def test_repeated_pattern_and_rising_count_are_read(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text("graphbpe-ops v1 K=3\n0\tc:c:c:c\t2\n1\tCC\t1\n2\tc:c:c:c\t5\n")
        assert [(op.pattern, op.observed_count) for op in read_operations(path)] == [
            ("c:c:c:c", 2), ("CC", 1), ("c:c:c:c", 5)
        ]


# (file, line, field) of one integer field of each kind in the mined files
INTEGER_FIELDS = {
    "ops-rank": ("ops.txt", 3, 0),
    "ops-count": ("ops.txt", 3, 2),
    "vocab-frequency": ("vocab.txt", 2, 1),
    "attach-count": ("attach.txt", 2, 2),
}


@pytest.mark.parametrize("field,value", [
    (field, value)
    for field in INTEGER_FIELDS
    for value in ["4x", "", "1.5"] + (["0", "-2"] if field != "ops-rank" else [])
])
def test_bad_integer_field_names_file_and_line(mined, capsys, field, value):
    _, _, tmp_path = mined
    name, line_number, column = INTEGER_FIELDS[field]
    path = tmp_path / name
    lines = path.read_text().split("\n")
    fields = lines[line_number - 1].split("\t")
    fields[column] = value
    lines[line_number - 1] = "\t".join(fields)
    path.write_text("\n".join(lines))
    with pytest.raises(FileFormatError) as info:
        if name == "ops.txt":
            read_operations(path)
        else:
            read_vocabulary(tmp_path / "vocab.txt", tmp_path / "attach.txt")
    assert str(info.value).startswith(f"line {line_number}: {path}: ")
    if name == "ops.txt":
        (tmp_path / "c.smi").write_text("CC\n")
        args = ["fragmentize", "--corpus", tmp_path / "c.smi", "--ops", path]
    else:
        args = ["generate", "--vocab", tmp_path / "vocab.txt", "--num", "3",
                "--out", tmp_path / "gen.smi"]
    capsys.readouterr()
    assert cli_main([str(arg) for arg in args]) == 3
    assert f"line {line_number}: {path}: " in capsys.readouterr().err


class TestVocabularyFile:
    def test_roundtrip(self, mined):
        _, result, tmp_path = mined
        loaded = read_vocabulary(tmp_path / "vocab.txt", tmp_path / "attach.txt")
        assert {m.smiles: m.frequency for m in loaded.ordered_motifs()} == {
            m.smiles: m.frequency for m in result.vocabulary.ordered_motifs()
        }
        assert loaded.attachment_counts == result.vocabulary.attachment_counts

    def test_tampered_site_list_detected(self, mined):
        _, _, tmp_path = mined
        lines = (tmp_path / "vocab.txt").read_text().splitlines()
        starred = next(i for i, l in enumerate(lines) if l.startswith("*"))
        fields = lines[starred].split("\t")
        fields[2] = "9:9:triple"
        lines[starred] = "\t".join(fields)
        bad = tmp_path / "tampered.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as info:
            read_vocabulary(bad)
        assert info.value.line_number == starred + 1

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("something else\n")
        with pytest.raises(FormatVersionError):
            read_vocabulary(path)

    def test_byte_identical_rewrites(self, mined):
        _, result, tmp_path = mined
        first = (tmp_path / "vocab.txt").read_bytes()
        write_vocabulary(tmp_path / "vocab2.txt", result.vocabulary)
        assert (tmp_path / "vocab2.txt").read_bytes() == first


class TestTrajectoryFile:
    def test_roundtrip(self, mined, tmp_path):
        corpus, result, _ = mined
        trajectories = [extract_trajectory(m, result.operations) for m in corpus]
        path = tmp_path / "traj.jsonl"
        write_trajectories(path, trajectories)
        assert read_trajectories(path) == trajectories

    def test_bad_record(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text('{"start": "CC"}\n')
        with pytest.raises(FileFormatError) as info:
            read_trajectories(path)
        assert str(info.value).startswith(f"line 1: {path}: ")


def test_crlf_line_ends_read_like_lf(mined):
    _, _, tmp_path = mined
    (tmp_path / "c.smi").write_text("# header\nCC\tfirst\n\nCCO\n")
    for name in ("c.smi", "ops.txt", "vocab.txt", "attach.txt"):
        data = (tmp_path / name).read_bytes()
        (tmp_path / f"crlf_{name}").write_bytes(data.replace(b"\n", b"\r\n"))

    def vocabulary(prefix):
        vocab = read_vocabulary(tmp_path / f"{prefix}vocab.txt", tmp_path / f"{prefix}attach.txt")
        return [(m.smiles, m.frequency) for m in vocab.ordered_motifs()], vocab.attachment_counts

    assert read_smiles_lines(tmp_path / "crlf_c.smi") == read_smiles_lines(tmp_path / "c.smi")
    assert read_operations(tmp_path / "crlf_ops.txt") == read_operations(tmp_path / "ops.txt")
    assert vocabulary("crlf_") == vocabulary("")


# sha256 of each artifact kind; the failure message prints the new digests,
# to be re-recorded only by a change that means to alter output bytes
GOLDEN_DIGESTS = {
    "ops.txt": "271edf9debfd488cb0794ca3d31a58e8d2013bb1d67c23300dea3205498db07c",
    "vocab.txt": "0c5b53e73b698051732928d0e32347002c9711e9129bbb9ca646dc005f3d6ee8",
    "attach.txt": "66ac54b88a5f0f42da951b9202eb7b633103be56fe6f1ab727827b8ec9a42d76",
    "generated.smi": "c2c5f59e720887d93eb817b6da2c699d1c2f0ec84a293b559cf206756cdbc968",
    "trajectories.jsonl": "aba6c76216b0dc18ffaba841617f8f4e0559b6f14549ce43ff94d39f1ca97ea6",
}


def test_golden_artifact_bytes(tmp_path, corpus_1k, ops_500):
    """The bytes of every artifact kind, pinned against the fixture corpus."""
    _, mols = corpus_1k
    ops = ops_500[:200]
    vocab = build_motif_vocabulary(mols[:300], ops)
    molecules, _ = generate(
        vocab, FrequencyPolicy(vocab), 300, DISTRIBUTIONAL, seed=1, top_k=25
    )
    write_operations(tmp_path / "ops.txt", ops_500)
    write_vocabulary(tmp_path / "vocab.txt", vocab)
    write_attachments(tmp_path / "attach.txt", vocab)
    write_molecules(tmp_path / "generated.smi", [write_smiles(m) for m in molecules])
    write_trajectories(
        tmp_path / "trajectories.jsonl", [extract_trajectory(m, ops) for m in mols[:100]]
    )
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_DIGESTS
    }
    assert digests == GOLDEN_DIGESTS, f"artifact bytes changed; new digests: {digests}"


# sha256 of the generated file under each selection rule, and of the eval
# report of the top-k 25 set, over the vocabulary of test_golden_artifact_bytes
GOLDEN_SELECTION_DIGESTS = {
    "greedy": "b300ec27170cae33e372b42a1fd283f64e12272b06d39240a61d77b957eee96c",
    "top_k_5_cold": "589ee504044d5fea5cf6a426ec647a134005cf2690da2d84ecdae305f55f3da9",
    "sample": "21f841b1a41969a2701f04b8a10c7a3ba29a639c151519989684cb09c6194346",
    "report": "76b7b4a9e88fc23e5310a7a232dcece72225cbe228471f0092eb2c1c8ce994ae",
}


def test_golden_selection_bytes(tmp_path, corpus_1k, ops_500):
    """Greedy, top-k 5 at temperature 0.5 and full-softmax sampling, plus
    the eval report, pinned so a change to selection or to the metrics shows."""
    _, mols = corpus_1k
    vocab = build_motif_vocabulary(mols[:300], ops_500[:200])
    runs = {
        "greedy": (FrequencyPolicy(vocab), 300, GREEDY, None),
        "top_k_5_cold": (FrequencyPolicy(vocab, temperature=0.5), 300, DISTRIBUTIONAL, 5),
        "sample": (FrequencyPolicy(vocab), 100, DISTRIBUTIONAL, None),
    }
    digests = {}
    for name, (policy, n, mode, top_k) in runs.items():
        molecules, _ = generate(vocab, policy, n, mode, seed=1, top_k=top_k)
        write_molecules(tmp_path / name, [write_smiles(m) for m in molecules])
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    molecules, _ = generate(vocab, FrequencyPolicy(vocab), 300, DISTRIBUTIONAL, seed=1, top_k=25)
    report = format_report(evaluate(molecules, mols))
    digests["report"] = hashlib.sha256(report.encode()).hexdigest()
    assert digests == GOLDEN_SELECTION_DIGESTS, f"selection bytes changed; new digests: {digests}"
