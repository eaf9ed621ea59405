"""Artifact file formats: corpora, operation lists, vocabularies, trajectories.

All writers emit sorted, newline-terminated UTF-8 text so identical inputs
produce byte-identical files.

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
from pathlib import Path

from graphbpe.chem import BOND_ORDERS, MolGraph, parse_smiles
from graphbpe.errors import CorpusError, FileFormatError, FormatVersionError, GraphBpeError
from graphbpe.miner import (
    MergeOperation,
    Motif,
    MotifVocabulary,
    SiteType,
    attachment_key,
    motif_site_meta,
)
from graphbpe.tokenizer import Trajectory, TrajectoryStep

OPS_HEADER = "graphbpe-ops v1"
VOCAB_HEADER = "graphbpe-vocab v1"
ATTACH_HEADER = "graphbpe-attach v1"


def read_smiles_lines(path: str | Path) -> list[tuple[str, str, int]]:
    """Raw (id, smiles, line number) triples; no parsing beyond line syntax."""
    entries = []
    ordinal = 0
    with open(path, encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            smiles = parts[0].strip()
            mol_id = parts[1].strip() if len(parts) > 1 and parts[1].strip() else f"mol{ordinal}"
            entries.append((mol_id, smiles, line_number))
            ordinal += 1
    return entries


def load_corpus(path: str | Path) -> tuple[list[str], list[MolGraph]]:
    """Parse a corpus file; any bad line raises CorpusError with its number."""
    ids, mols = [], []
    for mol_id, smiles, line_number in read_smiles_lines(path):
        try:
            mols.append(parse_smiles(smiles))
        except GraphBpeError as exc:
            raise CorpusError(f"{smiles!r}: {exc}", line_number) from exc
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
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].startswith(OPS_HEADER + " K="):
        _raise_version(OPS_HEADER, lines[0] if lines else "")
    try:
        declared = int(lines[0].split("K=", 1)[1])
    except ValueError:
        _raise_version(OPS_HEADER, lines[0])
        raise
    ops = []
    for line_number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FileFormatError("expected '<rank>\\t<pattern>\\t<count>'", line_number)
        try:
            rank, count = int(parts[0]), int(parts[2])
        except ValueError as exc:
            raise FileFormatError(f"bad integer field: {exc}", line_number) from exc
        if rank != len(ops):
            raise FileFormatError(f"rank {rank} out of order", line_number)
        ops.append(MergeOperation(rank, parts[1], count))
    if len(ops) != declared:
        raise FileFormatError(
            f"header declares K={declared} but file has {len(ops)} operations", 1
        )
    return ops


def _raise_version(expected: str, found: str) -> None:
    raise FormatVersionError(f"expected header {expected!r}, found {found!r}")


def format_sites(smiles: str) -> str:
    """A motif's site list as written in a vocabulary line."""
    sites = motif_site_meta(smiles)
    if not sites:
        return "-"
    return ",".join(f"{star}:{cls}:{order}" for star, order, cls in sites)


def write_vocabulary(path: str | Path, vocab: MotifVocabulary) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(VOCAB_HEADER + "\n")
        for motif in vocab.ordered_motifs():
            handle.write(f"{motif.smiles}\t{motif.frequency}\t{format_sites(motif.smiles)}\n")


def write_attachments(path: str | Path, vocab: MotifVocabulary) -> None:
    def site_token(site: SiteType) -> str:
        return f"{site[0]}|{site[1]}|{site[2]}"

    rows = sorted(
        (site_token(a), site_token(b), count)
        for (a, b), count in vocab.attachment_counts.items()
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(ATTACH_HEADER + "\n")
        for a, b, count in rows:
            handle.write(f"{a}\t{b}\t{count}\n")


def _parse_site_token(token: str, line_number: int) -> SiteType:
    parts = token.rsplit("|", 2)
    if len(parts) != 3:
        raise FileFormatError(f"bad site token {token!r}", line_number)
    smiles, class_str, order = parts
    if order not in BOND_ORDERS:
        raise FileFormatError(f"unknown bond order {order!r}", line_number)
    try:
        class_id = int(class_str)
    except ValueError as exc:
        raise FileFormatError(f"bad class id in {token!r}", line_number) from exc
    return (smiles, class_id, order)


def read_vocabulary(
    vocab_path: str | Path, attach_path: str | Path | None = None
) -> MotifVocabulary:
    """Load a vocabulary and, optionally, its attachment table.

    Each motif line is validated against the sites recomputed from its
    canonical string, so tampered files fail loudly with a line number.
    """
    with open(vocab_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != VOCAB_HEADER:
        _raise_version(VOCAB_HEADER, lines[0] if lines else "")
    motifs: dict[str, Motif] = {}
    for line_number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FileFormatError("expected '<motif>\\t<freq>\\t<sites>'", line_number)
        smiles, freq_str, sites_str = parts
        try:
            frequency = int(freq_str)
        except ValueError as exc:
            raise FileFormatError(f"bad frequency {freq_str!r}", line_number) from exc
        if frequency < 1:
            raise FileFormatError(f"frequency {frequency} is not positive", line_number)
        try:
            expected_sites = format_sites(smiles)
        except GraphBpeError as exc:
            raise FileFormatError(f"bad motif {smiles!r}: {exc}", line_number) from exc
        if sites_str != expected_sites:
            raise FileFormatError(
                f"site list {sites_str!r} does not match motif {smiles!r}", line_number
            )
        if smiles in motifs:
            raise FileFormatError(f"duplicate motif {smiles!r}", line_number)
        motifs[smiles] = Motif(smiles, frequency)
    attachments: Counter[tuple[SiteType, SiteType]] = Counter()
    if attach_path is not None:
        with open(attach_path, encoding="utf-8") as handle:
            attach_lines = handle.read().splitlines()
        if not attach_lines or attach_lines[0] != ATTACH_HEADER:
            _raise_version(ATTACH_HEADER, attach_lines[0] if attach_lines else "")
        known_sites = {
            (m.smiles, cid, order) for m in motifs.values() for _, order, cid in m.sites
        }
        for line_number, line in enumerate(attach_lines[1:], start=2):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FileFormatError("expected '<siteA>\\t<siteB>\\t<count>'", line_number)
            site_a = _parse_site_token(parts[0], line_number)
            site_b = _parse_site_token(parts[1], line_number)
            for token, site in zip(parts, (site_a, site_b)):
                if site not in known_sites:
                    raise FileFormatError(f"{token!r} is not a vocabulary site", line_number)
            try:
                count = int(parts[2])
            except ValueError as exc:
                raise FileFormatError(f"bad count {parts[2]!r}", line_number) from exc
            attachments[attachment_key(site_a, site_b)] += count
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
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
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
                raise FileFormatError(f"bad trajectory record: {exc}", line_number) from exc
    return out
