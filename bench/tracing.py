"""In-memory span tracing of graphbpe calls, installed from outside the package.

A public function is replaced by a recording wrapper in every graphbpe module
namespace that holds it, so a call is attributed to the module that made it
(``graphbpe.merging.write_smiles`` is traced apart from
``graphbpe.metrics.write_smiles``). A few methods are wrapped on their class.
Spans stay in memory until ``write`` is called at the end of a run.
"""
from __future__ import annotations

import gzip
import importlib
import sys
import time
from dataclasses import dataclass, field

# functions traced wherever they are imported; tiny helpers (make_bond,
# implicit_hydrogens, ...) are left out, their time counts to their caller
FUNCTIONS = {
    "graphbpe.chem.smiles": ("parse_smiles", "write_smiles", "write_smiles_with_order"),
    "graphbpe.chem.canon": ("canonical_rank",),
    "graphbpe.chem.mol": ("valence_check", "failing_aromatic_rings"),
    "graphbpe.merging": ("extract_motifs",),
    "graphbpe.miner": ("mine_corpus", "learn_merging_operations", "build_motif_vocabulary"),
    "graphbpe.tokenizer": ("fragmentize", "apply_operations", "extract_trajectory"),
    "graphbpe.generator": (
        "generate", "start_generation", "generation_step", "finalize",
        "repair_aromatic_rings", "replay_trajectory",
    ),
    "graphbpe.metrics": ("evaluate", "compute_descriptors"),
    "graphbpe.fileio": (
        "load_corpus", "read_smiles_lines", "read_operations", "read_vocabulary",
        "read_trajectories", "write_molecules", "write_operations", "write_vocabulary",
        "write_attachments", "write_trajectories",
    ),
}
# (module, class, method) wrapped once on the class
METHODS = (
    ("graphbpe.chem.mol", "MolGraph", "subgraph"),
    ("graphbpe.merging", "MergingGraph", "__init__"),
    ("graphbpe.merging", "MergingGraph", "apply_operation"),
    ("graphbpe.generator", "FrequencyPolicy", "score_start"),
    ("graphbpe.generator", "FrequencyPolicy", "score_connections"),
)
# spans whose arguments or result feed a per-layer count: name -> extractor
NOTES = {
    "MergingGraph.apply_operation": lambda args, result: result,
    "FrequencyPolicy.score_start": lambda args, result: len(args[2]),
    "FrequencyPolicy.score_connections": lambda args, result: len(args[3]),
}


@dataclass
class Span:
    span_id: int
    name: str  # "<function>" or "<Class>.<method>"
    namespace: str  # module whose global name the caller went through
    parent: int  # -1 for a root span
    start: float = 0.0
    end: float = 0.0
    note: object = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, fn, name: str, namespace: str, keep_result: bool = False):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span = Span(len(spans), name, namespace, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(span.span_id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, result)
            elif keep_result:
                span.note = result
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, keep_results: frozenset[tuple[str, str]] = frozenset()) -> None:
        """Wrap every traced function in every loaded graphbpe namespace.

        ``keep_results`` names (namespace, function) pairs whose return value
        is stored on the span.
        """
        originals = {}
        for module_name, names in FUNCTIONS.items():
            module = importlib.import_module(module_name)
            for name in names:
                originals[id(getattr(module, name))] = name
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("graphbpe")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                keep = (module.__name__, name) in keep_results
                self._replace(module, attr, self._wrap(value, name, module.__name__, keep))
        for module_name, class_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            name = f"{class_name}.{method}"
            self._replace(cls, method, self._wrap(getattr(cls, method), name, module_name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines: id, parent, namespace, name,
        start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    f"{s.span_id}\t{s.parent}\t{s.namespace}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out
