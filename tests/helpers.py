"""Shared test utilities: random valid molecules, permutation tools, mined
artifacts as values, an eager reference miner, an isomorphism matcher
independent of the package's canonical ranking, and the generator's
full-array selection rule."""
from __future__ import annotations

from random import Random

import numpy as np

from graphbpe.chem import parse_smiles
from graphbpe.chem.mol import Atom, MolGraph, check_molecule, implicit_hydrogens, make_bond
from graphbpe.merging import MergeOperation, MergingGraph
from graphbpe.miner import count_pair_patterns, mine_corpus

_MAX_X2 = {"C": 8, "N": 6, "O": 4, "S": 4, "F": 2, "Cl": 2, "Br": 2}


def random_molecule(rng: Random, max_atoms: int = 10, aromatic_ok: bool = True) -> MolGraph:
    """Small random molecule valid under the package's valence model."""
    if aromatic_ok and max_atoms >= 7 and rng.random() < 0.25:
        base = parse_smiles(rng.choice(["c1ccccc1", "c1ccncc1", "c1ccsc1"]))
        atoms = [
            dict(element=a.element, aromatic=a.aromatic, charge=a.formal_charge,
                 explicit_h=a.explicit_h, bracket=a.bracket,
                 max_x2=base.order_sum_x2(i) + 2 * a.implicit_h,
                 order_x2=base.order_sum_x2(i))
            for i, a in enumerate(base.atoms)
        ]
        bonds = [(b.a, b.b, b.order) for b in base.bonds]
    else:
        atoms = [dict(element="C", aromatic=False, charge=0, explicit_h=0,
                      bracket=False, max_x2=8, order_x2=0)]
        bonds = []

    def free(i):
        return atoms[i]["max_x2"] - atoms[i]["order_x2"]

    def add_bond(a, b, order):
        x2 = {"single": 2, "double": 4, "triple": 6}[order]
        atoms[a]["order_x2"] += x2
        atoms[b]["order_x2"] += x2
        bonds.append((a, b, order))

    target = rng.randint(max(2, len(atoms)), max_atoms)
    while len(atoms) < target:
        roll = rng.random()
        hosts2 = [i for i in range(len(atoms)) if free(i) >= 2]
        if not hosts2:
            break
        if roll < 0.72:
            host = rng.choice(hosts2)
            element = rng.choice(["C"] * 6 + ["N", "O", "S", "F", "Cl"])
            atoms.append(dict(element=element, aromatic=False, charge=0,
                              explicit_h=0, bracket=False,
                              max_x2=_MAX_X2[element], order_x2=0))
            add_bond(host, len(atoms) - 1, "single")
        elif roll < 0.85:
            hosts4 = [i for i in hosts2 if free(i) >= 4 and not atoms[i]["aromatic"]]
            if hosts4:
                host = rng.choice(hosts4)
                element = rng.choice(["C", "C", "O", "N"])
                atoms.append(dict(element=element, aromatic=False, charge=0,
                                  explicit_h=0, bracket=False,
                                  max_x2=_MAX_X2[element], order_x2=0))
                add_bond(host, len(atoms) - 1, "double")
        else:
            pairs = [(a, b) for a in hosts2 for b in hosts2
                     if a < b and not any({a, b} == {x, y} for x, y, _ in bonds)]
            if pairs:
                a, b = rng.choice(pairs)
                add_bond(a, b, "single")
    final = []
    for spec in atoms:
        implicit = 0
        if not spec["bracket"]:
            implicit = implicit_hydrogens(spec["element"], spec["charge"], spec["order_x2"])
        final.append(Atom(spec["element"], spec["charge"], spec["aromatic"],
                          spec["explicit_h"], implicit, spec["bracket"]))
    mol = MolGraph(tuple(final), tuple(make_bond(a, b, o) for a, b, o in bonds))
    check_molecule(mol)
    return mol


def permute_molecule(mol: MolGraph, perm: list[int]) -> MolGraph:
    """Relabel atoms: new id perm[i] for old id i."""
    atoms: list[Atom] = [None] * len(mol.atoms)
    for old, new in enumerate(perm):
        atoms[new] = mol.atoms[old]
    bonds = tuple(make_bond(perm[b.a], perm[b.b], b.order) for b in mol.bonds)
    return MolGraph(tuple(atoms), bonds)


def mined(corpus: list[MolGraph], num_operations: int) -> tuple:
    """What ``graphbpe mine`` writes, as values: ops, motif frequencies and
    attachment counts."""
    result = mine_corpus(corpus, num_operations)
    motifs = {m.smiles: m.frequency for m in result.vocabulary.ordered_motifs()}
    return result.operations, motifs, result.vocabulary.attachment_counts


def eager_learn(corpus: list[MolGraph], num_operations: int) -> list[MergeOperation]:
    """The miner without signature gating: before every operation, write and
    count the pattern of every edge, then merge the most frequent pattern
    (the smallest string among ties) in every molecule."""
    states = [MergingGraph(mol) for mol in corpus]
    ops = []
    for rank in range(num_operations):
        counts = count_pair_patterns(states)
        if not counts:
            break
        best = max(counts.values())
        pattern = min(p for p, count in counts.items() if count == best)
        ops.append(MergeOperation(rank, pattern, best))
        for state in states:
            state.apply_operation(pattern)
    return ops


def _attrs(mol: MolGraph, i: int) -> tuple:
    a = mol.atoms[i]
    return (a.element, a.formal_charge, a.aromatic, a.explicit_h, a.bracket)


def _bond_between(mol: MolGraph, a: int, b: int):
    for nbr, bidx in mol.neighbors(a):
        if nbr == b:
            return mol.bonds[bidx]
    return None


def isomorphic(g1: MolGraph, g2: MolGraph) -> bool:
    """Attribute-preserving graph isomorphism by plain backtracking.

    Deliberately independent of canonical ranking so it can serve as an
    oracle for pattern-key equality.
    """
    n = len(g1.atoms)
    if n != len(g2.atoms) or len(g1.bonds) != len(g2.bonds):
        return False
    if sorted(_attrs(g1, i) for i in range(n)) != sorted(_attrs(g2, i) for i in range(n)):
        return False

    degree1 = [g1.degree(i) for i in range(n)]

    # match high-degree atoms first for earlier pruning
    order = sorted(range(n), key=lambda i: -degree1[i])
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def edges_consistent(i: int, j: int) -> bool:
        for nbr, bidx in g1.neighbors(i):
            if nbr in mapping:
                other = _bond_between(g2, j, mapping[nbr])
                if other is None or other.order != g1.bonds[bidx].order:
                    return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if j in used or _attrs(g1, i) != _attrs(g2, j):
                continue
            if g1.degree(i) != g2.degree(j) or not edges_consistent(i, j):
                continue
            mapping[i] = j
            used.add(j)
            if backtrack(pos + 1):
                return True
            del mapping[i]
            used.discard(j)
        return False

    return backtrack(0)


def group_by_isomorphism(graphs: list[MolGraph]) -> list[list[int]]:
    """Indices grouped into isomorphism classes via pairwise matching."""
    groups: list[list[int]] = []
    representatives: list[MolGraph] = []
    for idx, graph in enumerate(graphs):
        for gid, rep in enumerate(representatives):
            if isomorphic(graph, rep):
                groups[gid].append(idx)
                break
        else:
            representatives.append(graph)
            groups.append([idx])
    return groups


def fused_ladder_smiles(rings: int) -> str:
    """Linearly fused saturated six-rings (``4 * rings + 2`` atoms), written
    along a zigzag path so that at most two ring labels are open at once.

    Rung ``i`` joins atoms ``u<i>`` and ``v<i>``; ring ``i`` runs
    ``u<i> t<i> u<i+1> v<i+1> b<i> v<i>``. The path takes ``t<i>`` of even
    rings and ``b<i>`` of odd ones; each other rail atom is a one-atom branch
    whose ring label closes at the next rung on its rail.
    """
    path = ["v0", "u0"]
    closes_at = {}  # path atom -> later path atom joined to it through a branch
    for i in range(rings):
        if i % 2 == 0:
            path += [f"t{i}", f"u{i + 1}", f"v{i + 1}"]
            closes_at[f"v{i}"] = f"v{i + 1}"
        else:
            path += [f"b{i}", f"v{i + 1}", f"u{i + 1}"]
            closes_at[f"u{i}"] = f"u{i + 1}"
    label_of = {}
    tokens = []
    for atom in path:
        token = "C"
        if atom in label_of:
            token += str(label_of.pop(atom))
        if atom in closes_at:
            label = min({1, 2} - set(label_of.values()))
            label_of[closes_at[atom]] = label
            token += f"(C{label})"
        tokens.append(token)
    return "".join(tokens)


def full_array_select(scores: np.ndarray, mode: str, rng: Random, temperature: float,
                      top_k: int | None) -> int:
    """The generator's selection over every candidate's score, as it was
    before heads were cached: argmax in greedy mode, else a softmax sample
    over the stable top ``top_k`` kept in index order."""
    def softmax_sample(values: np.ndarray) -> int:
        scaled = values / temperature
        shifted = np.exp(scaled - scaled.max())
        cumulative = np.cumsum(shifted / shifted.sum())
        index = int(np.searchsorted(cumulative, rng.random(), side="right"))
        return min(index, len(values) - 1)

    if mode == "greedy":
        return int(np.argmax(scores))
    if top_k is not None and top_k < len(scores):
        keep = np.sort(np.argsort(-scores, kind="stable")[:top_k])
        return int(keep[softmax_sample(scores[keep])])
    return softmax_sample(scores)
