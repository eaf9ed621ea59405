"""Memory contract: what a parsed corpus, its merging graphs and a mining
run cost per molecule, measured with tracemalloc on the 1k fixture, and no
per-instance ``__dict__`` on the frozen records built per rank, operation,
motif, fragmentation, generation candidate, placement template and
descriptor vector.

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
from graphbpe.chem import canonical_rank
from graphbpe.generator import Candidate, _Template
from graphbpe.metrics import compute_descriptors
from graphbpe.miner import mine_corpus
from graphbpe.tokenizer import extract_trajectory, fragmentize
from helpers import run_fresh

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


def test_parsed_corpus_and_merging_graphs_per_molecule():
    run = run_fresh(PARSED_AND_BUILT)
    parsed = run["parsed"] / run["count"] / 1024
    built = run["built"] / run["count"] / 1024
    assert built <= PARSED_AND_BUILT_KB, (
        f"parsed {parsed:.2f} KB and built graphs {built - parsed:.2f} KB per molecule: "
        f"{built:.2f} KB against a gate of {PARSED_AND_BUILT_KB} KB"
    )


def test_mining_peak_per_molecule():
    run = run_fresh(MINING_PEAK)
    peak = run["peak"] / run["count"] / 1024
    assert peak <= MINING_PEAK_KB, (
        f"mining peaks {peak:.2f} KB per molecule above the parsed corpus, "
        f"against a gate of {MINING_PEAK_KB} KB"
    )


def test_record_classes_keep_no_instance_dict(corpus_1k):
    # frozen records are built per rank call, operation, motif,
    # fragmentation, generation candidate, placed motif and evaluated
    # molecule; slots keep a __dict__ off every instance
    mols = corpus_1k[1][:40]
    result = mine_corpus(mols, 20)
    mol = next(m for m in mols if fragmentize(m, result.operations).broken_bonds)
    fragmentation = fragmentize(mol, result.operations)
    trajectory = extract_trajectory(mol, result.operations)
    motif = next(m for m in result.vocabulary.motifs.values() if m.sites)
    star_atom, site = motif.sites[0]
    records = [
        canonical_rank(mol), result, result.operations[0], motif, fragmentation,
        fragmentation.motifs[0], fragmentation.broken_bonds[0], trajectory, trajectory.steps[0],
        Candidate("vocab", site, motif, star_atom), _Template.of(motif), compute_descriptors(mol),
    ]
    assert sorted(type(record).__name__ for record in records) == [
        "BrokenBondLink", "Candidate", "CanonicalRanking", "DescriptorVector", "Fragmentation",
        "MergeOperation", "MiningResult", "Motif", "MotifInstance", "Trajectory",
        "TrajectoryStep", "_Template",
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
