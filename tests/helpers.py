"""Shared test utilities: random valid molecules and relabelled variants,
a switch that makes the miner open every tied signature, the benchmark's
input module, permutation tools, mined artifacts as values, a single
fragment merge, a brute-force pattern counter and an eager reference miner
built on it, a from-scratch union signature, a site-type lookup by star
atom, an isomorphism matcher independent of the package's canonical
ranking, the generator's full-array selection rule, an eager reference
``evaluate``, a character-loop reference parser, and reference copies of
the canonical ranking and writer kernels."""
from __future__ import annotations

import importlib.util
import math
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from random import Random

import numpy as np

from graphbpe.chem import (
    atom_token,
    graph_signature,
    parse_smiles,
    signature_value,
    valence_check,
    write_smiles,
)
from graphbpe.chem.mol import (
    AROMATIC,
    BOND_ORDERS,
    DOUBLE,
    ORDER_X2,
    SINGLE,
    STAR,
    TRIPLE,
    Atom,
    Bond,
    MolGraph,
    check_molecule,
    implicit_hydrogens,
    make_bond,
)
from graphbpe.errors import (
    GraphBpeError,
    RingClosureError,
    SmilesSyntaxError,
    UnsupportedElementError,
)
from graphbpe.merging import MergeOperation, MergingGraph
from graphbpe.metrics import (
    _BOND_CHANNELS,
    _CHANNELS,
    _CONTINUOUS_BINS,
    _SCALAR_CHANNELS,
    _SMOOTHING,
    EvalReport,
    _channel_values,
    _histogram_pair,
    _kl_divergence,
    compute_descriptors,
)
from graphbpe.miner import Motif, SiteType, mine_corpus, motif_sites

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


def brominated(mol: MolGraph, rng: Random) -> MolGraph:
    """``mol`` with about half of its singly bonded non-aromatic leaf atoms
    made Br, which keeps it valid; Br sorts before every other token."""
    atoms = list(mol.atoms)
    for i, atom in enumerate(atoms):
        nbrs = mol.neighbors(i)
        if (len(nbrs) == 1 and not atom.aromatic and rng.random() < 0.5
                and mol.bonds[nbrs[0][1]].order == SINGLE):
            atoms[i] = Atom("Br")
    return MolGraph(tuple(atoms), mol.bonds)


# bracket, charged, aromatic and halogen atoms, each spelled its own way
_VARIED_ATOMS = (
    Atom("N", 1, False, 1, 0, True), Atom("N", 1, False, 0, 0, True),
    Atom("N", 1, True, 0, 0, True), Atom("N", 0, True, 1, 0, True),
    Atom("O", -1, False, 0, 0, True), Atom("S", 1, False, 0, 0, True),
    Atom("C", 0, False, 2, 0, True), Atom("C", -1, False, 1, 0, True),
    Atom("C", 0, True), Atom("N", 0, True), Atom("O", 0, True), Atom("S", 0, True),
    Atom("Br"), Atom("Cl"), Atom("B"), Atom("Br", -1, False, 0, 0, True),
)


def with_varied_atoms(mol: MolGraph, rng: Random) -> MolGraph:
    """``mol`` with about a third of its atoms swapped for bracket, charged,
    aromatic or halogen atoms, and some leaves for "*"; only the writer and
    the ranking see it, so valence is not kept."""
    atoms = list(mol.atoms)
    for i in range(len(atoms)):
        roll = rng.random()
        if roll < 0.1 and mol.degree(i) == 1:
            atoms[i] = Atom(STAR)
        elif roll < 0.4:
            atoms[i] = rng.choice(_VARIED_ATOMS)
    return MolGraph(tuple(atoms), mol.bonds)


def open_every_tie(patch) -> None:
    """Make the miner open every tied signature, as if no bound ruled one
    out: through ``patch`` (a pytest ``MonkeyPatch``), every fragment of a
    new ``MergingGraph`` leads with the bound ""."""
    build = MergingGraph.__init__

    def init(self, mol):
        build(self, mol)
        self.frag_lead = [((), "")] * len(mol.atoms)

    patch.setattr(MergingGraph, "__init__", init)


def load_bench_inputs():
    """The benchmark's seeded input module, ``bench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def merge(state: MergingGraph, fa: int, fb: int) -> int:
    """Merge two adjacent fragments; returns the fresh fragment id."""
    atom = state.frag_atoms[fa][0]
    state._merge(fa, fb)
    return state.frag_of[atom]


def count_pair_patterns(states: list[MergingGraph]) -> Counter[str]:
    """Pattern counts over all fragment-pair edges of all merging graphs;
    resolves the pattern of every edge."""
    return Counter(state.pattern(fa, fb) for state in states for fa, fb in state.edges)


def union_signature(mol: MolGraph, atom_ids) -> int:
    """``graph_signature`` of the subgraph of ``mol`` induced by
    ``atom_ids``, from scratch: every atom's label with its degree inside,
    and every induced bond's label."""
    inside = set(atom_ids)
    total = 0
    for atom in atom_ids:
        degree = 0
        for nbr, bidx in mol.neighbors(atom):
            if nbr in inside:
                degree += 1
                if nbr > atom:
                    total += signature_value(f"|{BOND_ORDERS.index(mol.bonds[bidx].order)}")
        total += signature_value(f"{atom_token(mol.atoms[atom])}{degree}")
    return total % 2**64


def pattern_signature(pattern: str) -> int:
    """The signature of every union whose pattern string is ``pattern``."""
    return graph_signature(parse_smiles(pattern, validate=False))


def make_motif(smiles: str, frequency: int = 1) -> Motif:
    """The vocabulary entry of ``smiles``, with the site table that
    ``motif_sites`` parses from it."""
    return Motif(smiles, frequency, motif_sites(smiles))


def site_type(smiles: str, star_atom: int) -> SiteType:
    """The type of the connection site at atom ``star_atom`` of motif ``smiles``."""
    for atom_id, site in motif_sites(smiles):
        if atom_id == star_atom:
            return site
    raise KeyError(f"atom {star_atom} is not a connection site of {smiles}")


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
        op = MergeOperation(rank, pattern, best)
        ops.append(op)
        for state in states:
            state.apply_operation(op)
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


def numpy_histogram_pair(
    train: np.ndarray, gen: np.ndarray, integer: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The metrics' histogram pair as numpy computes it: ``np.histogram``
    over unit bins centred on the integers, or over ``np.linspace`` edges of
    the training range with generated values clipped into it."""
    if integer:
        lo = int(min(train.min(), gen.min()))
        hi = int(max(train.max(), gen.max()))
        edges = np.arange(lo - 0.5, hi + 1.5)
    else:
        lo, hi = float(train.min()), float(train.max())
        if lo == hi:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, _CONTINUOUS_BINS + 1)
        gen = np.clip(gen, lo, hi)
    p, _ = np.histogram(train, bins=edges)
    q, _ = np.histogram(gen, bins=edges)
    return p.astype(float), q.astype(float)


def numpy_kl_divergence(p_counts: np.ndarray, q_counts: np.ndarray) -> float:
    """The metrics' smoothed KL(p || q) as numpy computes it."""
    p = p_counts + _SMOOTHING
    q = q_counts + _SMOOTHING
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))


def eager_evaluate(generated: list[MolGraph], training: list[MolGraph]) -> EvalReport:
    """``evaluate`` without sharing work: check, write and describe every
    generated molecule and write every training molecule."""
    if not generated or not training:
        raise GraphBpeError("evaluate needs non-empty generated and training sets")
    valid = [m for m in generated if valence_check(m)]
    validity = len(valid) / len(generated)
    if not valid:
        return EvalReport(0.0, 0.0, 0.0, 0.0, {}, {}, 0, 0, 0)
    canonical = [write_smiles(m) for m in valid]
    unique = sorted(set(canonical))
    train_strings = {write_smiles(m) for m in training}
    novel = [s for s in unique if s not in train_strings]
    uniqueness = len(unique) / len(valid)
    novelty = len(novel) / len(unique)

    train_values = _channel_values([compute_descriptors(m) for m in training])
    gen_values = _channel_values([compute_descriptors(m) for m in valid])
    channel_kl: dict[str, float] = {}
    channel_score: dict[str, float] = {}
    for name, integer in _CHANNELS:
        kl = _kl_divergence(
            *_histogram_pair(train_values[name], gen_values[name], integer)
        )
        channel_kl[name] = kl
        channel_score[name] = math.exp(-kl)
    bond_scores = [channel_score[name] for name in _BOND_CHANNELS]
    descriptor_scores = [channel_score[name] for name, _ in _SCALAR_CHANNELS]
    descriptor_scores.append(sum(bond_scores) / len(bond_scores))
    kl_div_score = sum(descriptor_scores) / len(descriptor_scores)
    return EvalReport(
        validity=validity,
        uniqueness=uniqueness,
        novelty=novelty,
        kl_div_score=kl_div_score,
        descriptor_kl=channel_kl,
        descriptor_scores=channel_score,
        valid_count=len(valid),
        unique_count=len(unique),
        novel_count=len(novel),
    )


_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_TWO_LETTER = ("Cl", "Br")
_ONE_LETTER = frozenset("BCNOPSFI")
_AROMATIC_LOWER = frozenset("bcnops")
_REJECT_HINTS = {
    ".": "multi-component SMILES are not supported",
    "/": "stereo bond markers are not supported",
    "\\": "stereo bond markers are not supported",
    "@": "stereocenters are not supported",
}


@dataclass
class _AtomDraft:
    element: str
    charge: int = 0
    aromatic: bool = False
    explicit_h: int = 0
    bracket: bool = False
    position: int = 0


class _CharParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.atoms: list[_AtomDraft] = []
        self.bonds: list[Bond] = []
        self.bond_pairs: set[tuple[int, int]] = set()
        self.prev: int | None = None
        self.branch_stack: list[int] = []
        self.pending: str | None = None
        self.pending_pos = 0
        # ring-closure label -> (atom id, bond order stated at open, text position)
        self.open_rings: dict[int, tuple[int, str | None, int]] = {}

    def error(self, message: str, position: int | None = None) -> SmilesSyntaxError:
        return SmilesSyntaxError(message, self.pos if position is None else position)

    def add_atom(self, draft: _AtomDraft) -> None:
        idx = len(self.atoms)
        self.atoms.append(draft)
        if self.prev is not None:
            order = self.pending
            if order is None:
                order = self.default_order(self.prev, idx)
            self.add_bond(self.prev, idx, order, draft.position)
        elif self.pending is not None:
            raise self.error("bond symbol before the first atom", self.pending_pos)
        self.pending = None
        self.prev = idx

    def default_order(self, a: int, b: int) -> str:
        if self.atoms[a].aromatic and self.atoms[b].aromatic:
            return AROMATIC
        return SINGLE

    def add_bond(self, a: int, b: int, order: str, position: int) -> None:
        if a == b:
            raise RingClosureError("ring closure back to the same atom", position)
        pair = (min(a, b), max(a, b))
        if pair in self.bond_pairs:
            raise RingClosureError(
                f"duplicate bond between atoms {pair[0]} and {pair[1]}", position
            )
        if order == AROMATIC:
            for idx in (a, b):
                atom = self.atoms[idx]
                if not atom.aromatic and atom.element != STAR:
                    raise self.error(
                        "aromatic bond on a non-aromatic atom", position
                    )
        self.bond_pairs.add(pair)
        self.bonds.append(make_bond(a, b, order))

    def close_ring(self, label: int, position: int) -> None:
        if label in self.open_rings:
            other, open_order, _ = self.open_rings.pop(label)
            order = self.pending
            if order is not None and open_order is not None and order != open_order:
                raise RingClosureError(
                    f"ring closure {label} bond symbols disagree", position
                )
            if order is None:
                order = open_order
            if order is None:
                order = self.default_order(other, self.prev)
            self.add_bond(other, self.prev, order, position)
        else:
            self.open_rings[label] = (self.prev, self.pending, position)
        self.pending = None

    def parse_bracket(self) -> _AtomDraft:
        start = self.pos
        self.pos += 1  # consume "["
        text = self.text
        end = text.find("]", self.pos)
        if end < 0:
            raise self.error("unterminated bracket atom", start)
        body = text[self.pos : end]
        i = 0
        if not body:
            raise self.error("empty bracket atom", start)
        if body[0].isdigit():
            raise self.error("isotope labels are not supported", self.pos)
        if body[0] == STAR:
            element, aromatic = STAR, False
            i = 1
        elif body[0] in _AROMATIC_LOWER:
            element, aromatic = body[0].upper(), True
            i = 1
        elif body[0].isupper():
            if body[:2] in _TWO_LETTER:
                element, aromatic = body[:2], False
                i = 2
            elif len(body) > 1 and body[1].islower():
                raise UnsupportedElementError(
                    f"unsupported element {body[:2]!r}", self.pos
                )
            elif body[0] in _ONE_LETTER:
                element, aromatic = body[0], False
                i = 1
            else:
                raise UnsupportedElementError(
                    f"unsupported element {body[:1]!r}", self.pos
                )
        else:
            raise self.error(f"bad bracket atom content {body!r}", self.pos)
        explicit_h = 0
        if i < len(body) and body[i] == "H":
            i += 1
            digits = ""
            while i < len(body) and body[i].isdigit():
                digits += body[i]
                i += 1
            explicit_h = int(digits) if digits else 1
        charge = 0
        if i < len(body) and body[i] in "+-":
            sign = 1 if body[i] == "+" else -1
            symbol = body[i]
            i += 1
            if i < len(body) and body[i].isdigit():
                charge = sign * int(body[i])
                i += 1
            else:
                charge = sign
                while i < len(body) and body[i] == symbol:
                    charge += sign
                    i += 1
        if i != len(body):
            raise self.error(
                f"unsupported bracket atom feature {body[i]!r}", self.pos + i
            )
        if not -2 <= charge <= 2:
            raise self.error(f"charge {charge:+d} outside [-2, +2]", start)
        if element == STAR and (explicit_h or charge):
            raise self.error("'*' cannot carry hydrogens or charge", start)
        self.pos = end + 1
        return _AtomDraft(element, charge, aromatic, explicit_h, bracket=True, position=start)

    def run(self) -> None:
        text = self.text
        if not text:
            raise self.error("empty SMILES string", 0)
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in _REJECT_HINTS:
                raise self.error(_REJECT_HINTS[ch])
            if ch in _BOND_CHARS:
                if self.pending is not None:
                    raise self.error("two bond symbols in a row")
                self.pending = _BOND_CHARS[ch]
                self.pending_pos = self.pos
                self.pos += 1
                continue
            if ch == "(":
                if self.prev is None:
                    raise self.error("branch before the first atom")
                if self.pending is not None:
                    raise self.error("bond symbol before '('")
                self.branch_stack.append(self.prev)
                self.pos += 1
                continue
            if ch == ")":
                if self.pending is not None:
                    raise self.error("dangling bond symbol before ')'")
                if not self.branch_stack:
                    raise self.error("unmatched ')'")
                self.prev = self.branch_stack.pop()
                self.pos += 1
                continue
            if ch.isdigit() or ch == "%":
                if self.prev is None:
                    raise self.error("ring closure before the first atom")
                pos = self.pos
                if ch == "%":
                    if not text[self.pos + 1 : self.pos + 3].isdigit():
                        raise self.error("'%' needs two digits")
                    label = int(text[self.pos + 1 : self.pos + 3])
                    self.pos += 3
                else:
                    label = int(ch)
                    self.pos += 1
                self.close_ring(label, pos)
                continue
            if ch == STAR:
                self.add_atom(_AtomDraft(STAR, position=self.pos))
                self.pos += 1
                continue
            if ch == "[":
                self.add_atom(self.parse_bracket())
                continue
            if ch in _AROMATIC_LOWER:
                self.add_atom(
                    _AtomDraft(ch.upper(), aromatic=True, position=self.pos)
                )
                self.pos += 1
                continue
            if ch.isupper():
                two = text[self.pos : self.pos + 2]
                if two in _TWO_LETTER:
                    self.add_atom(_AtomDraft(two, position=self.pos))
                    self.pos += 2
                    continue
                # a trailing lowercase letter that is not an aromatic atom
                # would form an unsupported two-letter symbol (Si, Se, ...)
                looks_two_letter = (
                    len(two) == 2 and two[1].islower() and two[1] not in _AROMATIC_LOWER
                )
                if ch in _ONE_LETTER and not looks_two_letter:
                    self.add_atom(_AtomDraft(ch, position=self.pos))
                    self.pos += 1
                    continue
                sym = two if looks_two_letter else ch
                raise UnsupportedElementError(f"unsupported element {sym!r}", self.pos)
            raise self.error(f"unexpected character {ch!r}")
        if self.pending is not None:
            raise self.error("dangling bond symbol at end of input", self.pending_pos)
        if self.branch_stack:
            raise self.error("unclosed '('")
        if self.open_rings:
            label, (_, _, position) = sorted(self.open_rings.items())[0]
            raise RingClosureError(f"unmatched ring closure {label}", position)


def reference_parse_smiles(text: str, validate: bool = True) -> MolGraph:
    """``parse_smiles`` as a loop over characters with a connectivity DFS and
    a second valence pass over the built graph: the oracle that the token
    parser must match, graph for graph and error for error."""
    parser = _CharParser(text)
    parser.run()
    order_x2 = [0] * len(parser.atoms)
    for bond in parser.bonds:
        order_x2[bond.a] += ORDER_X2[bond.order]
        order_x2[bond.b] += ORDER_X2[bond.order]
    atoms = []
    for idx, draft in enumerate(parser.atoms):
        implicit = 0
        if not draft.bracket and draft.element != STAR:
            implicit = implicit_hydrogens(draft.element, draft.charge, order_x2[idx])
        atoms.append(
            Atom(
                element=draft.element,
                formal_charge=draft.charge,
                aromatic=draft.aromatic,
                explicit_h=draft.explicit_h,
                implicit_h=implicit,
                bracket=draft.bracket,
            )
        )
    mol = MolGraph(tuple(atoms), tuple(parser.bonds))
    for idx, atom in enumerate(mol.atoms):
        if atom.is_connection_site and mol.degree(idx) != 1:
            raise SmilesSyntaxError(
                f"'*' atom {idx} has degree {mol.degree(idx)}, expected 1",
                parser.atoms[idx].position,
            )
    if mol.component_count() > 1:
        raise SmilesSyntaxError("molecule is not connected")
    if validate:
        check_molecule(mol)
    return mol


class _ReferencePartition:
    """The ordered partition of ``reference_canonical_rank``: cells of atom
    sets labelled by start position, split by (bond x2, neighbour cell)
    pair signatures, one ``_new_cell``/``_place`` call per cell."""

    def __init__(self, mol: MolGraph, keys: list) -> None:
        n = len(keys)
        bonds = mol.bonds
        self.neighbors = [
            [(ORDER_X2[bonds[bidx].order], nbr) for nbr, bidx in mol.neighbors(i)]
            for i in range(n)
        ]
        self.cell_of = [0] * n
        self.start: list[int] = []
        self.members: list[set[int]] = []
        self.cell_at = [0] * n
        pos = 0
        for _, group in groupby(sorted(range(n), key=keys.__getitem__), key=keys.__getitem__):
            atoms = list(group)
            self._new_cell(atoms, pos)
            pos += len(atoms)

    def labels(self) -> list[int]:
        return [self.start[c] for c in self.cell_of]

    def refine(self, moved: list[int]) -> None:
        neighbors, cell_of, start, members = self.neighbors, self.cell_of, self.start, self.members
        while moved:
            touched: set[int] = set()
            by_cell: dict[int, list[int]] = {}
            for atom in moved:
                for _, nbr in neighbors[atom]:
                    if nbr not in touched:
                        touched.add(nbr)
                        if len(members[cell_of[nbr]]) > 1:
                            by_cell.setdefault(cell_of[nbr], []).append(nbr)
            splits = []
            for cell, atoms in by_cell.items():
                untouched = len(members[cell]) - len(atoms)
                rep = next(a for a in members[cell] if a not in touched) if untouched else -1
                if untouched:
                    atoms.append(rep)
                signed = sorted(
                    (tuple(sorted([(x2, start[cell_of[nbr]]) for x2, nbr in neighbors[a]])), a)
                    for a in atoms
                )
                parts: list[list] = []
                kept = -1
                previous = None
                for signature, atom in signed:
                    if signature != previous:
                        parts.append([[], 0])
                        previous = signature
                    if atom == rep:
                        kept = len(parts) - 1
                        parts[-1][1] += untouched
                    else:
                        parts[-1][0].append(atom)
                        parts[-1][1] += 1
                if len(parts) > 1:
                    if kept < 0:
                        kept = max(range(len(parts)), key=lambda k: parts[k][1])
                    splits.append((cell, parts, kept))
            moved = []
            for cell, parts, kept in splits:
                pos = start[cell]
                for k, (atoms, size) in enumerate(parts):
                    if k == kept:
                        self._place(cell, pos)
                    else:
                        members[cell].difference_update(atoms)
                        self._new_cell(atoms, pos)
                        moved.extend(atoms)
                    pos += size

    def individualize_first_ambiguous(self, pos: int) -> int:
        cell_at, members = self.cell_at, self.members
        while pos < len(cell_at) and len(members[cell_at[pos]]) == 1:
            pos += 1
        if pos < len(cell_at):
            cell = cell_at[pos]
            chosen = min(members[cell])
            members[cell].discard(chosen)
            self._place(cell, pos + 1)
            self._new_cell([chosen], pos)
            self.refine([chosen])
        return pos

    def _place(self, cell: int, pos: int) -> None:
        self.start[cell] = pos
        self.cell_at[pos] = cell

    def _new_cell(self, atoms: list[int], pos: int) -> None:
        cell = len(self.start)
        self.start.append(pos)
        self.members.append(set(atoms))
        self.cell_at[pos] = cell
        for atom in atoms:
            self.cell_of[atom] = cell


def reference_canonical_rank(mol: MolGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(ranks, symmetry classes) as ``canonical_rank`` computed them with
    pair-valued neighbour terms and per-cell helper calls: the oracle that
    the ranking kernel must match, atom for atom."""
    n = len(mol.atoms)
    if n == 0:
        return (), ()
    seeds = [
        (a.element, a.formal_charge, a.aromatic, mol.degree(i), a.explicit_h)
        for i, a in enumerate(mol.atoms)
    ]
    partition = _ReferencePartition(mol, seeds)
    partition.refine(list(range(n)))
    labels = partition.labels()
    dense = {label: k for k, label in enumerate(sorted(set(labels)))}
    symmetry = tuple(dense[label] for label in labels)
    pos = 0
    while pos < n:
        pos = partition.individualize_first_ambiguous(pos)
    return tuple(partition.labels()), symmetry


def _reference_bond_token(order: str, arom_a: bool, arom_b: bool) -> str:
    if order == SINGLE:
        return "-" if (arom_a and arom_b) else ""
    if order == AROMATIC:
        return ":"
    return "=" if order == DOUBLE else "#"


def _reference_traverse(mol: MolGraph, ranks: list[int]):
    root = ranks.index(0)
    position = {root: 0}
    preorder = [root]
    children: list[list[tuple[int, int]]] = [[] for _ in mol.atoms]
    opens: dict[int, list[tuple[int, int]]] = {}
    closes: dict[int, list[int]] = {}
    seen_bonds: set[int] = set()

    def todo(atom: int) -> list[tuple[int, int]]:
        return sorted(mol.neighbors(atom), key=lambda nb: ranks[nb[0]], reverse=True)

    stack = [(root, todo(root))]
    while stack:
        node, pending = stack[-1]
        if not pending:
            stack.pop()
            continue
        nbr, bidx = pending.pop()
        if bidx in seen_bonds:
            continue
        seen_bonds.add(bidx)
        if nbr in position:
            opens.setdefault(nbr, []).append((position[node], bidx))
            closes.setdefault(node, []).append(bidx)
            continue
        children[node].append((nbr, bidx))
        position[nbr] = len(preorder)
        preorder.append(nbr)
        stack.append((nbr, todo(nbr)))
    return preorder, children, opens, closes


def other_atom(bond: Bond, atom_id: int) -> int:
    return bond.b if atom_id == bond.a else bond.a


def reference_write_smiles_with_order(mol: MolGraph) -> tuple[str, list[int]]:
    """``write_smiles_with_order`` as a DFS over dicts and sets followed by
    a separate emission loop, ranked by ``reference_canonical_rank``: the
    oracle that the writer kernel must match, string and order alike."""
    if not mol.atoms:
        raise ValueError("cannot serialize an empty molecule")
    ranks = list(reference_canonical_rank(mol)[0])
    preorder, children, opens, closes = _reference_traverse(mol, ranks)
    if len(preorder) < len(mol.atoms):
        raise ValueError("cannot serialize a disconnected molecule")
    atoms, bonds = mol.atoms, mol.bonds
    out: list[str] = []
    lead = {preorder[0]: ""}
    digit_of: dict[int, int] = {}
    in_use: set[int] = set()
    for atom in preorder:
        aromatic = atoms[atom].aromatic
        out.append(lead[atom] + atom_token(atoms[atom]))
        for digit, bidx in sorted((digit_of[b], b) for b in closes.get(atom, ())):
            in_use.discard(digit)
            other = atoms[other_atom(bonds[bidx], atom)]
            out.append(_reference_bond_token(bonds[bidx].order, aromatic, other.aromatic))
            out.append(str(digit) if digit < 10 else f"%{digit:02d}")
        for _, bidx in sorted(opens.get(atom, ())):
            digit = 1
            while digit in in_use:
                digit += 1
            if digit > 99:
                raise RingClosureError("too many simultaneously open rings")
            digit_of[bidx] = digit
            in_use.add(digit)
            out.append(str(digit) if digit < 10 else f"%{digit:02d}")
        kids = children[atom]
        for i, (child, bidx) in enumerate(kids):
            bond = _reference_bond_token(bonds[bidx].order, aromatic, atoms[child].aromatic)
            lead[child] = (")" if i else "") + ("(" if i < len(kids) - 1 else "") + bond
    return "".join(out), preorder
