"""graphbpe: connection-aware motif mining and fragment-based molecule generation.

Learns an ordered list of merge operations from a molecule corpus (BPE-style
over molecular graphs), builds a connection-aware motif vocabulary with "*"
attachment sites, tokenizes arbitrary molecules with the learned operations,
and reassembles or generates molecules through a connection-query state
machine driven by a pluggable scoring policy.
"""

__version__ = "0.1.0"

from graphbpe.chem import (
    MolGraph,
    canonical_rank,
    parse_smiles,
    ring_bonds,
    valence_check,
    write_smiles,
)
from graphbpe.generator import (
    FrequencyPolicy,
    GenerationState,
    Policy,
    finalize,
    generate,
    generation_step,
    replay_trajectory,
    start_generation,
)
from graphbpe.merging import apply_operations
from graphbpe.metrics import compute_descriptors, evaluate
from graphbpe.miner import (
    MergeOperation,
    Motif,
    MotifVocabulary,
    build_motif_vocabulary,
    count_pair_patterns,
    learn_merging_operations,
    mine_corpus,
)
from graphbpe.tokenizer import (
    Fragmentation,
    Trajectory,
    extract_trajectory,
    fragmentize,
)

__all__ = [
    "Fragmentation",
    "FrequencyPolicy",
    "GenerationState",
    "MergeOperation",
    "MolGraph",
    "Motif",
    "MotifVocabulary",
    "Policy",
    "Trajectory",
    "__version__",
    "apply_operations",
    "build_motif_vocabulary",
    "canonical_rank",
    "compute_descriptors",
    "count_pair_patterns",
    "evaluate",
    "extract_trajectory",
    "finalize",
    "fragmentize",
    "generate",
    "generation_step",
    "learn_merging_operations",
    "mine_corpus",
    "parse_smiles",
    "replay_trajectory",
    "ring_bonds",
    "start_generation",
    "valence_check",
    "write_smiles",
]
