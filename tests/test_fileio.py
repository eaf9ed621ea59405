import hashlib

import pytest

from graphbpe.chem import parse_smiles, write_smiles
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
from graphbpe.generator import DISTRIBUTIONAL, FrequencyPolicy, generate
from graphbpe.miner import build_motif_vocabulary, mine_corpus
from graphbpe.tokenizer import extract_trajectory


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
