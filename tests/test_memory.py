"""Memory contract: what a parsed corpus, its merging graphs and a mining
run cost per molecule, measured with tracemalloc on the 1k fixture.

Each figure is taken in a fresh interpreter, with both pattern memos empty,
so it includes every memo entry the run adds and nothing earlier tests
left. A fresh interpreter also fixes the state of the process-wide table of
interned strings: the memos intern their patterns, and that table grows in
steps of up to about 1 MB, which land inside or outside the measured window
depending on what ran before.

Measured when the gates were set: 5.7 KB parsed and built (1.9 KB of it
parsed) and a 6.2 KB mining peak, against 13.4 KB and 10.5 KB while the
parser built every bond and neighbour tuple anew and the merging graph kept
a pair dict per signature and one atom list per atom.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import graphbpe

FIXTURE = Path(__file__).parent / "fixtures" / "corpus_1k.smi"

PARSED_AND_BUILT_KB = 6.5  # per molecule, every fixture molecule
MINING_PEAK_KB = 7.0  # per molecule, mine_corpus(first 250 molecules, 100) above them

SETUP = """
import gc, json, sys, tracemalloc
from graphbpe.fileio import load_corpus
from graphbpe.merging import MergingGraph, instance_pattern, union_pattern
from graphbpe.miner import mine_corpus
union_pattern.cache_clear()
instance_pattern.cache_clear()
gc.collect()
"""

PARSED_AND_BUILT = SETUP + """
tracemalloc.start()
mols = load_corpus(sys.argv[1])[1]
parsed = tracemalloc.get_traced_memory()[0]
graphs = [MergingGraph(mol) for mol in mols]
built = tracemalloc.get_traced_memory()[0]
print(json.dumps({"count": len(mols), "parsed": parsed, "built": built}))
"""

MINING_PEAK = SETUP + """
mols = load_corpus(sys.argv[1])[1][:250]
tracemalloc.start()
mine_corpus(mols, 100)
print(json.dumps({"count": len(mols), "peak": tracemalloc.get_traced_memory()[1]}))
"""


def measure(script: str) -> dict:
    """The JSON line ``script`` prints, run in a fresh interpreter on the fixture."""
    src = str(Path(graphbpe.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURE)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_parsed_corpus_and_merging_graphs_per_molecule():
    run = measure(PARSED_AND_BUILT)
    parsed = run["parsed"] / run["count"] / 1024
    built = run["built"] / run["count"] / 1024
    assert built <= PARSED_AND_BUILT_KB, (
        f"parsed {parsed:.2f} KB and built graphs {built - parsed:.2f} KB per molecule: "
        f"{built:.2f} KB against a gate of {PARSED_AND_BUILT_KB} KB"
    )


def test_mining_peak_per_molecule():
    run = measure(MINING_PEAK)
    peak = run["peak"] / run["count"] / 1024
    assert peak <= MINING_PEAK_KB, (
        f"mining peaks {peak:.2f} KB per molecule above the parsed corpus, "
        f"against a gate of {MINING_PEAK_KB} KB"
    )
