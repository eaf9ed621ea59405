"""Artifact file formats: corpora, operation lists, vocabularies, trajectories.

All writers emit sorted, newline-terminated UTF-8 text so identical inputs
produce byte-identical files. Every reader decodes its file as strict UTF-8
and splits it at "\n" (a "\r" before it is dropped); a byte that is not
UTF-8 raises a FileFormatError. Every error raised while reading a file
names it: "line N: <path>: ..." (a header error has no line number).

corpus        one SMILES per line, optional tab-separated id, "#" comments
ops           header "graphbpe-ops v1 K=<n>", lines "<rank>\t<pattern>\t<count>"
vocabulary    header "graphbpe-vocab v1", lines "<motif>\t<freq>\t<sites>"
              where sites is "-" or comma-joined "<star>:<class>:<order>"
attachments   header "graphbpe-attach v1", lines "<siteA>\t<siteB>\t<count>"
              where a site is "<motif>|<class>|<order>"
trajectories  JSON lines {"start": ..., "steps": [...]}
"""
from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterator
from pathlib import Path
from typing import NoReturn

from graphbpe.chem import MolGraph, parse_smiles
from graphbpe.errors import CorpusError, FileFormatError, FormatVersionError, GraphBpeError
from graphbpe.miner import (
    MergeOperation,
    Motif,
    MotifVocabulary,
    SiteType,
    attachment_key,
    motif_sites,
)
from graphbpe.tokenizer import Trajectory, TrajectoryStep

OPS_HEADER = "graphbpe-ops v1"
VOCAB_HEADER = "graphbpe-vocab v1"
ATTACH_HEADER = "graphbpe-attach v1"


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a strict-UTF-8 file."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = data.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(
            f"{path}: byte 0x{data[exc.start]:02x} is not UTF-8", line_number
        ) from exc
    for line_number, line in enumerate(text.split("\n"), start=1):
        yield line_number, line.removesuffix("\r")


def _rows(path: str | Path, header: str, fields: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tab-split fields) of each non-blank line of a table file.

    The first line must be ``header``; the ops header carries " K=<n>" after
    it, and ``<n>`` comes first, as ``(1, [n])``. Every other line must have
    as many fields as the ``fields`` layout, which the error message quotes.
    """
    lines = _lines(path)
    _, first = next(lines)
    declares_k = header == OPS_HEADER
    if not (first.startswith(header + " K=") if declares_k else first == header):
        _raise_version(path, header, first)
    if declares_k:
        yield 1, [first.split("K=", 1)[1]]
    width = fields.count("\t") + 1
    for line_number, line in lines:
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != width:
            raise FileFormatError(f"{path}: expected {fields!r}", line_number)
        yield line_number, parts


def read_smiles_lines(path: str | Path) -> list[tuple[str, str, int]]:
    """Raw (id, smiles, line number) triples; no parsing beyond line syntax."""
    entries = []
    for line_number, raw in _lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        smiles = parts[0].strip()
        mol_id = parts[1].strip() if len(parts) > 1 and parts[1].strip() else f"mol{len(entries)}"
        entries.append((mol_id, smiles, line_number))
    return entries


def load_corpus(path: str | Path) -> tuple[list[str], list[MolGraph]]:
    """Parse a corpus file; any bad line raises CorpusError with its number."""
    ids, mols = [], []
    for mol_id, smiles, line_number in read_smiles_lines(path):
        try:
            mols.append(parse_smiles(smiles))
        except GraphBpeError as exc:
            raise CorpusError(f"{path}: {smiles!r}: {exc}", line_number) from exc
        ids.append(mol_id)
    return ids, mols


def write_molecules(path: str | Path, smiles_list: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for smiles in smiles_list:
            handle.write(smiles + "\n")


def write_operations(path: str | Path, ops: list[MergeOperation]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{OPS_HEADER} K={len(ops)}\n")
        for op in ops:
            handle.write(f"{op.rank}\t{op.pattern}\t{op.observed_count}\n")


def read_operations(path: str | Path) -> list[MergeOperation]:
    rows = _rows(path, OPS_HEADER, "<rank>\t<pattern>\t<count>")
    _, (declared_text,) = next(rows)
    try:
        declared = int(declared_text)
    except ValueError:
        _raise_version(path, OPS_HEADER, f"{OPS_HEADER} K={declared_text}")
    ops = []
    for line_number, (rank_text, pattern, count_text) in rows:
        try:
            rank, count = int(rank_text), int(count_text)
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad integer field: {exc}", line_number) from exc
        if rank != len(ops):
            raise FileFormatError(f"{path}: rank {rank} out of order", line_number)
        ops.append(MergeOperation(rank, pattern, count))
    if len(ops) != declared:
        raise FileFormatError(
            f"{path}: header declares K={declared} but file has {len(ops)} operations", 1
        )
    return ops


def _raise_version(path: str | Path, expected: str, found: str) -> NoReturn:
    raise FormatVersionError(f"{path}: expected header {expected!r}, found {found!r}")


def format_sites(smiles: str) -> str:
    """A motif's site list as written in a vocabulary line."""
    sites = motif_sites(smiles)
    if not sites:
        return "-"
    return ",".join(f"{star}:{cls}:{order}" for star, (_, cls, order) in sites)


def write_vocabulary(path: str | Path, vocab: MotifVocabulary) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(VOCAB_HEADER + "\n")
        for motif in vocab.ordered_motifs():
            handle.write(f"{motif.smiles}\t{motif.frequency}\t{format_sites(motif.smiles)}\n")


def _site_token(site: SiteType) -> str:
    return f"{site[0]}|{site[1]}|{site[2]}"


def write_attachments(path: str | Path, vocab: MotifVocabulary) -> None:
    rows = sorted(
        (_site_token(a), _site_token(b), count)
        for (a, b), count in vocab.attachment_counts.items()
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(ATTACH_HEADER + "\n")
        for a, b, count in rows:
            handle.write(f"{a}\t{b}\t{count}\n")


def read_vocabulary(
    vocab_path: str | Path, attach_path: str | Path | None = None
) -> MotifVocabulary:
    """Load a vocabulary and, optionally, its attachment table.

    Each motif line is validated against the sites recomputed from its
    canonical string, so tampered files fail loudly with a line number.
    """
    motifs: dict[str, Motif] = {}
    vocab_rows = _rows(vocab_path, VOCAB_HEADER, "<motif>\t<freq>\t<sites>")
    for line_number, (smiles, freq_str, sites_str) in vocab_rows:
        try:
            frequency = int(freq_str)
        except ValueError as exc:
            raise FileFormatError(
                f"{vocab_path}: bad frequency {freq_str!r}", line_number
            ) from exc
        if frequency < 1:
            raise FileFormatError(
                f"{vocab_path}: frequency {frequency} is not positive", line_number
            )
        try:
            expected_sites = format_sites(smiles)
        except GraphBpeError as exc:
            raise FileFormatError(
                f"{vocab_path}: bad motif {smiles!r}: {exc}", line_number
            ) from exc
        if sites_str != expected_sites:
            raise FileFormatError(
                f"{vocab_path}: site list {sites_str!r} does not match motif {smiles!r}",
                line_number,
            )
        if smiles in motifs:
            raise FileFormatError(f"{vocab_path}: duplicate motif {smiles!r}", line_number)
        motifs[smiles] = Motif(smiles, frequency)
    attachments: Counter[tuple[SiteType, SiteType]] = Counter()
    if attach_path is not None:
        known_sites = {
            _site_token(site): site for m in motifs.values() for _, site in m.sites
        }
        attach_rows = _rows(attach_path, ATTACH_HEADER, "<siteA>\t<siteB>\t<count>")
        for line_number, (token_a, token_b, count_str) in attach_rows:
            for token in (token_a, token_b):
                if token not in known_sites:
                    raise FileFormatError(
                        f"{attach_path}: {token!r} is not a vocabulary site", line_number
                    )
            try:
                count = int(count_str)
            except ValueError as exc:
                raise FileFormatError(
                    f"{attach_path}: bad count {count_str!r}", line_number
                ) from exc
            if count < 1:
                raise FileFormatError(
                    f"{attach_path}: count {count} is not positive", line_number
                )
            site_pair = attachment_key(known_sites[token_a], known_sites[token_b])
            attachments[site_pair] += count
    return MotifVocabulary(motifs, dict(attachments))


def write_trajectories(path: str | Path, trajectories: list[Trajectory]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for trajectory in trajectories:
            steps = []
            for step in trajectory.steps:
                if step.kind == "attach":
                    steps.append({"kind": "attach", "motif": step.motif, "site": step.site})
                else:
                    steps.append({"kind": "cyclize", "target": step.target})
            handle.write(
                json.dumps({"start": trajectory.start_motif, "steps": steps}) + "\n"
            )


def read_trajectories(path: str | Path) -> list[Trajectory]:
    out = []
    for line_number, raw in _lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            steps = tuple(
                TrajectoryStep(
                    kind=s["kind"],
                    motif=s.get("motif"),
                    site=s.get("site"),
                    target=s.get("target"),
                )
                for s in record["steps"]
            )
            out.append(Trajectory(record["start"], steps))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FileFormatError(
                f"{path}: bad trajectory record: {exc}", line_number
            ) from exc
    return out
