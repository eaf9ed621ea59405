"""Command-line interface: mine, fragmentize, generate, eval, inspect-vocab.

Every option and its default is declared once, in ``_build_parser``;
``_check_args`` validates the parsed namespace, which the ``_cmd_*``
functions then read directly.

Exit codes: 0 success, 2 usage error (including an output path whose
directory does not exist), 3 input parse error (including a file that is not
UTF-8), 4 artifact format/version error. All outputs are deterministic under
fixed flags and seed; ``mine --threads`` is accepted and ignored, since
mining runs in one process. ``generate`` writes each distinct generated
graph once, and ``eval`` parses each distinct generated line once.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from graphbpe import __version__
from graphbpe.chem import parse_smiles, write_smiles
from graphbpe.chem.mol import Atom, MolGraph
from graphbpe.errors import (
    FileFormatError,
    FormatVersionError,
    GraphBpeError,
    SmilesSyntaxError,
    ValenceError,
)
from graphbpe.fileio import (
    format_sites,
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
from graphbpe.metrics import distinct, evaluate, format_report
from graphbpe.miner import mine_corpus
from graphbpe.tokenizer import fragmentation_trajectory, fragmentize

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


def _output_path(value: str | None, flag: str, directory: bool) -> Path | None:
    """A path that can be written: a file in an existing directory, or a
    directory that exists or can be made."""
    if value is None:
        return None
    path = Path(value)
    if directory:
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise UsageError(f"{flag}: not a directory: {existing}")
    elif not path.parent.is_dir():
        raise UsageError(f"{flag}: no such directory: {path.parent}")
    elif path.is_dir():
        raise UsageError(f"{flag}: is a directory: {path}")
    return path


def _check_args(args: argparse.Namespace) -> argparse.Namespace:
    """Validate the parsed options and resolve paths, before any work starts."""
    given = vars(args)
    for name, valid, message in _CHECKS:
        if name in given and not valid(given[name]):
            raise UsageError(message)
    for name in ("vocab", "corpus", "ops", "generated", "train"):
        if name in given:
            given[name] = _input_path(given[name], f"--{name}")
    directory = args.subcommand == "mine"  # only mine's --out names a directory
    for name in ("report", "trajectories", "out"):
        if name in given:
            given[name] = _output_path(given[name], f"--{name}", directory)
    if args.subcommand == "generate":
        attach = Path(args.attach) if args.attach else args.vocab.parent / "attach.txt"
        if not attach.is_file():
            raise UsageError(f"attachment table not found: {attach}")
        args.attach = attach
        args.mode = GREEDY if args.mode == "greedy" else DISTRIBUTIONAL
    return args


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
    mine.add_argument("--threads", type=int, default=1,
                      help="ignored: mining runs in one process (kept for old command lines)")

    frag = sub.add_parser("fragmentize", help="tokenize molecules with learned operations")
    frag.add_argument("--corpus", required=True)
    frag.add_argument("--ops", required=True, help="operations file from 'mine'")
    frag.add_argument("--out", help="output path (default: stdout)")
    frag.add_argument("--trajectories", help="also write assembly trajectories (JSONL)")

    gen = sub.add_parser("generate", help="generate molecules with the frequency policy")
    gen.add_argument("--vocab", required=True, help="vocabulary file from 'mine'")
    gen.add_argument("--attach", help="attachment table (default: attach.txt next to --vocab)")
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


def _cmd_mine(args: argparse.Namespace) -> int:
    _, mols = load_corpus(args.corpus)
    result = mine_corpus(mols, args.num_ops)
    args.out.mkdir(parents=True, exist_ok=True)
    write_operations(args.out / "ops.txt", result.operations)
    write_vocabulary(args.out / "vocab.txt", result.vocabulary)
    write_attachments(args.out / "attach.txt", result.vocabulary)
    print(f"molecules={len(mols)}")
    print(f"operations={len(result.operations)}")
    print(f"motifs={len(result.vocabulary)}")
    print(f"mean_fragments_per_molecule={result.mean_fragments_per_molecule:.3f}")
    return EXIT_OK


def _cmd_fragmentize(args: argparse.Namespace) -> int:
    ops = read_operations(args.ops)
    ids, mols = load_corpus(args.corpus)
    lines = []
    trajectories = []
    for mol_id, mol in zip(ids, mols):
        frag = fragmentize(mol, ops)
        lines.append(f"{mol_id}\t" + "|".join(frag.motif_strings()))
        if args.trajectories:
            trajectories.append(fragmentation_trajectory(frag))
    text = "".join(line + "\n" for line in lines)
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.trajectories:
        write_trajectories(args.trajectories, trajectories)
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    vocab = read_vocabulary(args.vocab, args.attach)
    policy = FrequencyPolicy(
        vocab, cyclize_weight=args.cyclize_weight, temperature=args.temperature
    )
    molecules, report = generate(
        vocab,
        policy,
        args.num,
        mode=args.mode,
        seed=args.seed,
        top_k=args.top_k,
        max_steps=args.max_steps,
    )
    graphs, index = distinct(molecules)
    strings = [write_smiles(g) for g in graphs]
    write_molecules(args.out, [strings[i] for i in index])
    failures = ",".join(f"{k}={v}" for k, v in sorted(report.failures.items())) or "none"
    print(
        f"requested={report.requested} emitted={report.emitted} "
        f"aborted={report.aborted} failures={failures}",
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_lenient(smiles: str) -> MolGraph:
    try:
        return parse_smiles(smiles, validate=False)
    except GraphBpeError:
        # placeholder that can never pass the valence check
        return MolGraph((Atom("C", formal_charge=2),), ())


def _parse_molecules_lenient(path: Path) -> list[MolGraph]:
    """Parse for evaluation, each distinct line once: structurally bad lines
    count as invalid."""
    lines, index = distinct([smiles for _, smiles, _ in read_smiles_lines(path)])
    molecules = [_parse_lenient(smiles) for smiles in lines]
    return [molecules[i] for i in index]


def _cmd_eval(args: argparse.Namespace) -> int:
    generated = _parse_molecules_lenient(args.generated)
    _, training = load_corpus(args.train)
    report = evaluate(generated, training)
    text = format_report(report)
    args.report.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_inspect_vocab(args: argparse.Namespace) -> int:
    vocab = read_vocabulary(args.vocab)
    motifs = sorted(vocab.ordered_motifs(), key=lambda m: (-m.frequency, m.smiles))
    print(f"{len(motifs)} motifs")
    for motif in motifs:
        print(f"{motif.frequency}\t{motif.smiles}\t{format_sites(motif.sites)}")
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
        return _COMMANDS[args.subcommand](_check_args(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatVersionError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (FileFormatError, SmilesSyntaxError, ValenceError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphBpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
