"""Command-line interface: mine, fragmentize, generate, eval, inspect-vocab.

Exit codes: 0 success, 2 usage error, 3 input parse error, 4 artifact
format/version error. All outputs are deterministic under fixed flags and
seed, independent of the thread count.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from graphbpe import __version__
from graphbpe.chem import parse_smiles, write_smiles
from graphbpe.chem.mol import Atom, MolGraph
from graphbpe.errors import (
    CorpusError,
    FileFormatError,
    FormatVersionError,
    GraphBpeError,
    SmilesSyntaxError,
    ValenceError,
)
from graphbpe.fileio import (
    load_corpus,
    read_operations,
    read_smiles_lines,
    read_vocabulary,
    write_attachments,
    write_molecules,
    write_operations,
    write_trajectories,
    write_vocabulary,
)
from graphbpe.generator import (
    DEFAULT_MAX_STEPS,
    DISTRIBUTIONAL,
    GREEDY,
    FrequencyPolicy,
    generate,
)
from graphbpe.metrics import evaluate, format_report
from graphbpe.miner import mine_corpus
from graphbpe.tokenizer import extract_trajectory, fragmentize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_FORMAT = 4

SMILES_SUBSET_NOTE = (
    "SMILES subset: organic-subset atoms B C N O P S F Cl Br I, aromatic "
    "b c n o p s, '*' sites, bracket atoms with H count and charge in "
    "[-2,+2], bonds - = # :, branches, ring-closure digits and %nn. "
    "Stereo, isotopes, and multi-component dots are rejected."
)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one invocation; input paths checked up front.

    Options the subcommand does not take are None; every default lives in
    ``_build_parser``.
    """

    subcommand: str
    corpus: Path | None = None
    ops: Path | None = None
    vocab: Path | None = None
    attach: Path | None = None
    generated: Path | None = None
    train: Path | None = None
    report: Path | None = None
    trajectories: Path | None = None
    out: Path | None = None
    num_ops: int | None = None
    num: int | None = None
    seed: int | None = None
    mode: str | None = None
    top_k: int | None = None
    temperature: float | None = None
    cyclize_weight: float | None = None
    threads: int | None = None
    max_steps: int | None = None


# (option, valid value test, usage error), checked when the subcommand has it
_CHECKS = (
    ("num_ops", lambda v: v >= 0, "--num-ops must be >= 0"),
    ("threads", lambda v: v >= 1, "--threads must be >= 1"),
    ("num", lambda v: v >= 0, "--num must be >= 0"),
    ("temperature", lambda v: v > 0, "--temperature must be > 0"),
    ("cyclize_weight", lambda v: v >= 0, "--cyclize-weight must be >= 0"),
    ("top_k", lambda v: v is None or v >= 1, "--top-k must be >= 1"),
    ("max_steps", lambda v: v >= 1, "--max-steps must be >= 1"),
)


def _input_path(value: str | None, flag: str) -> Path | None:
    if value is None:
        return None
    path = Path(value)
    if not path.is_file():
        raise UsageError(f"{flag}: no such file: {path}")
    return path


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(args))
    for name, valid, message in _CHECKS:
        if name in values and not valid(values[name]):
            raise UsageError(message)
    for name in ("vocab", "corpus", "ops", "generated", "train"):
        if name in values:
            values[name] = _input_path(values[name], f"--{name}")
    for name in ("report", "trajectories", "out"):
        if name in values:
            values[name] = Path(values[name]) if values[name] else None
    if values["subcommand"] == "generate":
        attach = values["vocab"].parent / "attach.txt"
        if values["attach"]:
            attach = Path(values["attach"])
        if not attach.is_file():
            raise UsageError(f"attachment table not found: {attach}")
        values["attach"] = attach
        values["mode"] = GREEDY if values["mode"] == "greedy" else DISTRIBUTIONAL
    return RunConfig(**values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphbpe",
        description="Connection-aware motif mining and molecule generation.",
        epilog=SMILES_SUBSET_NOTE,
    )
    parser.add_argument("--version", action="version", version=f"graphbpe {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    mine = sub.add_parser("mine", help="learn merge operations and build the vocabulary")
    mine.add_argument("--corpus", required=True, help="training corpus (.smi)")
    mine.add_argument("--num-ops", type=int, required=True, metavar="K",
                      help="number of merge operations to learn")
    mine.add_argument("--out", required=True, help="output directory for the artifacts")
    mine.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                      help="worker processes for counting (default: CPU count)")

    frag = sub.add_parser("fragmentize", help="tokenize molecules with learned operations")
    frag.add_argument("--corpus", required=True)
    frag.add_argument("--ops", required=True, help="operations file from 'mine'")
    frag.add_argument("--out", help="output path (default: stdout)")
    frag.add_argument("--trajectories", help="also write assembly trajectories (JSONL)")

    gen = sub.add_parser("generate", help="generate molecules with the frequency policy")
    gen.add_argument("--vocab", required=True, help="vocabulary file from 'mine'")
    gen.add_argument("--attach", help="attachment table (default: attach.txt next to --vocab)")
    gen.add_argument("--ops", help="operations file; validated if given")
    gen.add_argument("--num", type=int, required=True, help="number of molecules")
    gen.add_argument("--mode", choices=["greedy", "sample"], default="sample")
    gen.add_argument("--top-k", type=int, default=None,
                     help="sample from the k best candidates only")
    gen.add_argument("--temperature", type=float, default=1.0)
    gen.add_argument("--cyclize-weight", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    gen.add_argument("--out", required=True, help="output .smi path")

    ev = sub.add_parser("eval", help="distribution-learning metrics")
    ev.add_argument("--generated", required=True)
    ev.add_argument("--train", required=True)
    ev.add_argument("--report", required=True, help="report output path")

    insp = sub.add_parser("inspect-vocab", help="list motifs sorted by frequency")
    insp.add_argument("--vocab", required=True)
    return parser


def _cmd_mine(cfg: RunConfig) -> int:
    cfg.out.mkdir(parents=True, exist_ok=True)
    _, mols = load_corpus(cfg.corpus)
    result = mine_corpus(mols, cfg.num_ops, threads=cfg.threads)
    write_operations(cfg.out / "ops.txt", result.operations)
    write_vocabulary(cfg.out / "vocab.txt", result.vocabulary)
    write_attachments(cfg.out / "attach.txt", result.vocabulary)
    print(f"molecules={len(mols)}")
    print(f"operations={len(result.operations)}")
    print(f"motifs={len(result.vocabulary)}")
    print(f"mean_fragments_per_molecule={result.mean_fragments_per_molecule:.3f}")
    return EXIT_OK


def _cmd_fragmentize(cfg: RunConfig) -> int:
    ops = read_operations(cfg.ops)
    ids, mols = load_corpus(cfg.corpus)
    lines = []
    trajectories = []
    for mol_id, mol in zip(ids, mols):
        frag = fragmentize(mol, ops)
        lines.append(f"{mol_id}\t" + "|".join(frag.motif_strings()))
        if cfg.trajectories:
            trajectories.append(extract_trajectory(mol, ops))
    text = "".join(line + "\n" for line in lines)
    if cfg.out:
        cfg.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if cfg.trajectories:
        write_trajectories(cfg.trajectories, trajectories)
    return EXIT_OK


def _cmd_generate(cfg: RunConfig) -> int:
    if cfg.ops:
        read_operations(cfg.ops)
    vocab = read_vocabulary(cfg.vocab, cfg.attach)
    policy = FrequencyPolicy(
        vocab, cyclize_weight=cfg.cyclize_weight, temperature=cfg.temperature
    )
    molecules, report = generate(
        vocab,
        policy,
        cfg.num,
        mode=cfg.mode,
        seed=cfg.seed,
        top_k=cfg.top_k,
        max_steps=cfg.max_steps,
    )
    write_molecules(cfg.out, [write_smiles(m) for m in molecules])
    failures = ",".join(f"{k}={v}" for k, v in sorted(report.failures.items())) or "none"
    print(
        f"requested={report.requested} emitted={report.emitted} "
        f"aborted={report.aborted} failures={failures}",
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_molecules_lenient(path: Path) -> list[MolGraph]:
    """Parse for evaluation: structurally bad lines count as invalid."""
    molecules = []
    for _, smiles, _ in read_smiles_lines(path):
        try:
            molecules.append(parse_smiles(smiles, validate=False))
        except GraphBpeError:
            # placeholder that can never pass the valence check
            molecules.append(MolGraph((Atom("C", formal_charge=2),), ()))
    return molecules


def _cmd_eval(cfg: RunConfig) -> int:
    generated = _parse_molecules_lenient(cfg.generated)
    _, training = load_corpus(cfg.train)
    report = evaluate(generated, training)
    text = format_report(report)
    cfg.report.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_inspect_vocab(cfg: RunConfig) -> int:
    vocab = read_vocabulary(cfg.vocab)
    motifs = sorted(vocab.ordered_motifs(), key=lambda m: (-m.frequency, m.smiles))
    print(f"{len(motifs)} motifs")
    for motif in motifs:
        sites = ",".join(f"{star}:{cls}:{order}" for star, order, cls in motif.sites) or "-"
        print(f"{motif.frequency}\t{motif.smiles}\t{sites}")
    return EXIT_OK


_COMMANDS = {
    "mine": _cmd_mine,
    "fragmentize": _cmd_fragmentize,
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "inspect-vocab": _cmd_inspect_vocab,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.subcommand](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatVersionError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (CorpusError, FileFormatError, SmilesSyntaxError, ValenceError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphBpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
