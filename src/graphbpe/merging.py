"""Per-molecule merging graph: a partition of atoms into connected fragments.

State starts as one fragment per atom with bond adjacency inherited from the
molecule and evolves by merging adjacent fragment pairs. Each fragment-pair
edge carries a cheap signature of its union, the isomorphism invariant
``graphbpe.chem.graph_signature``: the sum mod 2**64 of one fixed 64-bit
value per (atom token, degree inside the union) label and one per induced
bond's order. The union's canonical pattern string is written only when
asked for (``MergingGraph.pattern``) and kept until the edge dies.

Mining keeps one graph per corpus molecule, so the layout is lean: about
3.8 KB per graph at build (tracemalloc on ``tests/fixtures/corpus_1k.smi``,
17.6 atoms and 19.3 bonds per molecule). An atom never merged is its own
fragment, under its own id, with no atom list; ``MergingGraph.fragments``
reads every fragment. Each edge is one pair tuple that every table shares,
and a pair of ids below 64 comes from one constant table, so at build the
pairs cost nothing (the ``MergingGraph`` docstring itemizes the rest). A
dict keeps its table when keys are deleted, so once half the edges the three
dicts were sized for are gone, a pass that merged copies them to the size
of the edges left.

A sum composes, so no signature is built from scratch. Each fragment keeps
its own signature and each atom its degree inside its fragment. A merge
walks the union's neighbour lists once: the bonds between the two fragments
fold into the new fragment's signature, and every other crossing bond signs
the new edge to its fragment as the two fragments' signatures plus its
bonds' values plus, at each bond end, the change of that atom's label.
Signing adds work only at the crossing bonds: the walk is the one that
finds the dead edges, and no label is formatted, sorted or hashed during a
merge. Label values come from one tuple per distinct atom token, indexed
by degree (``graphbpe.chem.label_values``, one process-wide cache), so
every graph shares them. Each fragment also keeps the least
``graphbpe.chem.leading_key`` of its atoms, the min of its two parts', so
the token of the lesser key of an edge's two fragments, a lower bound on
its pattern string, is one ``min`` away.

A pattern fixes its signature: equal canonical strings give equal
signatures (see ``graph_signature``), so the signature of the parsed pattern
is the signature of every union written as ``pattern``. Edges with different
signatures therefore never share a pattern, and a pass for one pattern
writes only the unions that carry its signature. Unequal unions may share a
signature; that only puts them behind one gate, which costs extra writes
and never another pick, merge or report, since a merge and every count
compare pattern strings. Each ``MergeOperation`` carries its pattern's
signature, so replaying operations parses no pattern: the miner passes the
signature its tally picked the pattern under, and an operation built without
one parses its pattern once, in ``MergeOperation.__post_init__``, the one
check that some union can have the pattern. ``graphbpe.metrics``
uses the same invariant to skip training molecules no generated one can
equal.

The same small unions recur across molecules, so ``union_pattern``
memoizes the pattern string on ``MergingGraph.union_key``, a string that
encodes the union's exact induced labelled graph: its atoms in ascending
atom-id order, each ``Atom`` value interned to a one-character code, and
every induced bond as (new atom a, new atom b, order) in molecule bond order.
That is exactly the graph ``write_smiles`` would be given for the union, so
a hit returns the string a fresh write would return, even where the
canonical form is not yet invariant; a miss decodes the key and calls
``write_smiles``, once. ``_decode`` takes each ``Bond`` from ``_key_bond``,
a ``functools`` cache over the key's three-character bond entries, so equal
entries across keys share one ``Bond`` and a decode builds none anew. The
memo is process-wide (an ``lru_cache``), cannot go stale because the key is
the whole input, and ``union_pattern.cache_clear()`` resets it. A bond's own
union (the starting edges) gets its signature and key straight from its two
atoms' label values and codes and its bond's value and order code.

Motif instances recur the same way, so ``instance_pattern`` memoizes the
string, star positions and site table of each one on its exact input to
``write_smiles_with_order``: the fragment's ``union_key``, then one entry
(the anchor's new atom id, the bond's order code) per broken bond in
molecule bond order, then the number of broken bonds. A hit builds no
graph; ``instance_pattern.cache_clear()`` resets it. A miss ranks the
decoded instance once, for the write and for the site table: a site's class
needs the ranks of ``parse_smiles`` of the written string, and those are the
instance's own ranks in emission order when refinement alone separates
every atom (refinement does not depend on atom numbering). Otherwise the
ranks depend on the lowest-index tie-break, and the parsed string numbers
its atoms by emission position, so ``tie_broken_ranks`` re-runs only the
tie-breaks on the instance, from its symmetry classes, with ties going to
the lowest emission position; no relabelled copy is built or ranked.

A key is only ever built from a checked molecule, so ``_decode`` builds its
graph without checks: every key bond has a < b, and a star's anchor id is
below the star's own.

``apply_operation(op)`` is the one merge primitive: the miner drives it as it
learns each operation, and ``apply_operations`` replays a learned operation
list for the vocabulary builder and the tokenizer. ``extract_motifs`` turns a
final partition into the one ``Fragmentation`` record of a molecule
(connection-aware motifs plus the two sites each broken bond joins) that the
tokenizer, the vocabulary builder and trajectories all read.
"""
from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from functools import cache, lru_cache

from graphbpe.chem import (
    ORDER_CODES,
    MolGraph,
    canonical_rank,
    graph_signature,
    label_values,
    leading_key,
    parse_smiles,
    write_smiles,
    write_smiles_with_order,
)
from graphbpe.chem.canon import tie_broken_ranks
from graphbpe.chem.mol import BOND_ORDERS, STAR, Atom, Bond
from graphbpe.errors import GraphBpeError

Pair = tuple[int, int]

# (motif smiles, site symmetry class, bond order)
SiteType = tuple[str, int, str]
# (star atom id, site type) per connection site, in canonical atom order
SiteTable = tuple[tuple[int, SiteType], ...]


@dataclass(frozen=True, slots=True)
class MergeOperation:
    """One learned operation: merge every edge whose union is ``pattern``.

    ``signature`` is the signature of every union written as ``pattern``.
    When the caller does not pass it, it is computed here from the pattern,
    parsed without a valence check; a pattern no union can have (it does
    not parse, or has fewer than two atoms) raises a ``GraphBpeError``. The
    signature takes no part in comparisons.
    """

    rank: int
    pattern: str
    observed_count: int
    signature: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.signature is None:
            mol = parse_smiles(self.pattern, validate=False)
            if len(mol.atoms) < 2:
                raise GraphBpeError("a merge pattern needs two or more atoms")
            object.__setattr__(self, "signature", graph_signature(mol))


def site_table(smiles: str, stars, ranks, classes) -> SiteTable:
    """The site table of motif ``smiles`` from its parsed graph's canonical
    ``ranks`` and refinement ``classes``, indexed by atom id; ``stars``
    holds (star atom id, bond order) per star.

    The class id is the smallest canonical rank among the stars of one
    refinement class, so interchangeable sites share an id and the id is
    stable across isomorphic inputs. This is the one place a ``SiteType``
    is built.
    """
    class_id: dict[int, int] = {}  # refinement class -> its first star's rank
    out = []
    for star, order in sorted(stars, key=lambda entry: ranks[entry[0]]):
        cid = class_id.setdefault(classes[star], ranks[star])
        out.append((star, (smiles, cid, order)))
    return tuple(out)


# atom codes of union_key, and each coded atom's leading_key by code;
# append-only, so a code never changes meaning
_ATOM_CODES: dict[Atom, str] = {}
_CODED_ATOMS: list[Atom] = []
_CODED_LEADS: list[tuple] = []
_CODES_LOCK = threading.Lock()
_STAR_ATOM = Atom(STAR)


def _atom_code(atom: Atom) -> str:
    code = _ATOM_CODES.get(atom)
    if code is None:
        with _CODES_LOCK:
            code = _ATOM_CODES.get(atom)
            if code is None:
                # append first: a code another thread can read always decodes
                _CODED_LEADS.append(leading_key(atom))
                _CODED_ATOMS.append(atom)
                code = _ATOM_CODES[atom] = chr(len(_CODED_ATOMS) - 1)
    return code


@cache
def _key_bond(entry: str) -> tuple[int, int, Bond]:
    """(a, b, bond) of one three-character bond entry (a, b, order code) of
    a key; a ``functools`` cache, so equal entries share one ``Bond``."""
    a, b = ord(entry[0]), ord(entry[1])
    return a, b, Bond(a, b, BOND_ORDERS[ord(entry[2])])


def _decode(key: str, end: int, stars: int = 0) -> MolGraph:
    """The graph of the ``union_key`` in ``key[:end]``, plus one star atom
    per (anchor, order code) entry of the ``stars`` that follow it."""
    count = ord(key[0])
    atoms = [_CODED_ATOMS[ord(code)] for code in key[1 : count + 1]]
    atoms += [_STAR_ATOM] * stars
    entries = [key[i : i + 3] for i in range(count + 1, end, 3)]
    entries += [
        key[i] + chr(star) + key[i + 1]
        for star, i in enumerate(range(end, end + 2 * stars, 2), count)
    ]
    adjacency: list[list[tuple[int, int]]] = [[] for _ in atoms]
    bonds = []
    for bidx, entry in enumerate(entries):
        a, b, bond = _key_bond(entry)
        bonds.append(bond)
        adjacency[a].append((b, bidx))
        adjacency[b].append((a, bidx))
    return MolGraph.from_adjacency(
        tuple(atoms), tuple(bonds), tuple([tuple(nbrs) for nbrs in adjacency])
    )


@lru_cache(maxsize=None)
def union_pattern(key: str) -> str:
    """Canonical string of the labelled graph that ``key`` (a
    ``MergingGraph.union_key``) encodes; interned, so the keys of isomorphic
    unions share one string object."""
    return sys.intern(write_smiles(_decode(key, len(key))))


@lru_cache(maxsize=None)
def instance_pattern(key: str) -> tuple[str, tuple[int, ...], SiteTable]:
    """The canonical string of the motif instance that ``key`` encodes (see
    ``extract_motifs``), interned; the atom id of each star in it, one per
    broken bond in key order; and its site table, the one
    ``graphbpe.miner.motif_sites`` gives for that string."""
    stars = ord(key[-1])
    end = len(key) - 1 - 2 * stars
    count = ord(key[0])
    mol = _decode(key, end, stars)
    ranking = canonical_rank(mol)
    smiles, order = write_smiles_with_order(mol, ranking=ranking)
    smiles = sys.intern(smiles)
    position = [0] * len(order)
    for pos, atom in enumerate(order):
        position[atom] = pos
    positions = tuple(position[star] for star in range(count, count + stars))
    # each star's bond is one of the last ``stars`` bonds, in star order
    orders = [bond.order for bond in mol.bonds[len(mol.bonds) - stars :]]
    ranks, classes = ranking.ranks, ranking.symmetry_classes
    if ranks != classes:
        # refinement left ties, broken by atom id; the parsed string numbers
        # its atoms by emission position, so break them by that instead
        ranks = tie_broken_ranks(mol, classes, position)
    ranks = [ranks[atom] for atom in order]
    classes = [classes[atom] for atom in order]
    return smiles, positions, site_table(smiles, zip(positions, orders), ranks, classes)


# an edge's pair (lo, hi) with hi below this is _PAIRS[hi][lo], so equal
# pairs of every graph are one tuple
_SHARED_PAIR_IDS = 64
_PAIRS = tuple(tuple((lo, hi) for lo in range(hi)) for hi in range(_SHARED_PAIR_IDS))


class MergingGraph:
    """Mutable fragment partition of one molecule.

    Fragment ids below the atom count are the atoms, each its own fragment
    until it is merged; a merge makes a fresh fragment with the next id
    (the length of ``frag_signature``). ``fragments()`` reads every live
    fragment's atoms; ``frag_atoms`` holds the atoms of merged ones only.
    Per fragment id, ``frag_signature`` holds the fragment's signature and
    ``frag_lead`` the least ``leading_key`` of its atoms (each ``None``
    once merged away); per atom, ``frag_of`` holds its fragment and
    ``_degree`` its degree inside it.

    Each adjacent fragment pair is one ``Pair`` tuple, lesser id first
    (from ``_PAIRS`` while both ids are small), and one object serves both
    tables: ``edges`` maps it to its union's signature and ``patterns`` to
    its union's pattern string once written. ``by_signature`` counts the edges of each signature, and
    ``pairs(signature)`` finds them in ``edges``, which holds few edges
    once merges begin.

    At build a graph of the 1k fixture (17.6 atoms, 19.3 bonds) costs
    about 3.8 KB: 1.3 KB for the six per-atom lists (``ranks``,
    ``frag_of``, ``frag_lead``, ``_labels``, ``_degree``,
    ``frag_signature``), 0.6 KB each for the ``edges`` and ``patterns``
    dicts, 0.45 KB for one int per distinct signature, 0.3 KB for
    ``by_signature``, 0.3 KB for the object, its two code strings and the
    empty ``frag_atoms``, and nothing for the pairs.
    """

    __slots__ = (
        "mol", "ranks", "frag_of", "frag_atoms", "_atom_codes", "_orders", "frag_lead",
        "_labels", "_order_values", "_degree", "frag_signature", "edges", "by_signature",
        "patterns", "_sized_for",
    )

    def __init__(self, mol: MolGraph):
        """The partition of ``mol`` into single atoms."""
        self.mol = mol
        self.ranks = canonical_rank(mol).ranks
        self.frag_of = list(range(len(mol.atoms)))
        self.frag_atoms: dict[int, list[int]] = {}
        self._atom_codes = "".join(_atom_code(atom) for atom in mol.atoms)
        self._orders = "".join(ORDER_CODES[bond.order] for bond in mol.bonds)
        self.frag_lead: list[tuple | None] = [_CODED_LEADS[ord(c)] for c in self._atom_codes]
        # each atom's label value by its degree inside its fragment; a key's
        # second member is the atom's token
        self._labels = [
            label_values(lead[1], mol.degree(i)) for i, lead in enumerate(self.frag_lead)
        ]
        # bond values by order index, which is ``ord`` of the order code
        self._order_values = label_values("|", len(BOND_ORDERS) - 1)
        self._degree = [0] * len(mol.atoms)
        self.frag_signature: list[int | None] = [labels[0] for labels in self._labels]
        self.edges: dict[Pair, int] = {}
        self.by_signature: dict[int, int] = {}
        self.patterns: dict[Pair, str] = {}
        shared: dict[int, int] = {}  # one int object per distinct signature, for memory
        for bidx, bond in enumerate(mol.bonds):
            signature, key = self.bond_union(bidx)
            signature = shared.setdefault(signature, signature)
            pair = _PAIRS[bond.b][bond.a] if bond.b < _SHARED_PAIR_IDS else (bond.a, bond.b)
            self.edges[pair] = signature
            self.by_signature[signature] = self.by_signature.get(signature, 0) + 1
            # a bond's own union is written at once: few distinct ones exist,
            # so each costs a memo hit, and bench/selftest.py checks that
            # fragmentize(mol, []) writes them
            self.patterns[pair] = union_pattern(key)
        self._sized_for = len(self.edges)

    def bond_union(self, bidx: int) -> tuple[int, str]:
        """The signature and ``union_key`` of the two atoms of bond ``bidx``,
        built straight from their label values and codes and the bond's
        value and order code."""
        bond, order = self.mol.bonds[bidx], self._orders[bidx]
        codes = self._atom_codes
        signature = self._labels[bond.a][1] + self._labels[bond.b][1] + self._order_values[ord(order)]
        return (
            signature & (2**64 - 1),
            f"\x02{codes[bond.a]}{codes[bond.b]}\x00\x01{order}",
        )

    def fragments(self) -> dict[int, list[int]]:
        """Every live fragment's id and atom ids: each atom never merged is
        its own fragment, under its own id, and merged fragments follow in
        the order they were made."""
        live = {atom: [atom] for atom, fid in enumerate(self.frag_of) if fid == atom}
        live.update(self.frag_atoms)
        return live

    def pairs(self, signature: int) -> list[Pair]:
        """The pairs of the edges with ``signature``."""
        return [pair for pair, each in self.edges.items() if each == signature]

    def pattern(self, pair: Pair) -> str:
        """The canonical string of the union of the two fragments of edge
        ``pair``, a key of ``edges``: written on the first call, then kept
        under that key until the edge dies."""
        pattern = self.patterns.get(pair)
        if pattern is None:
            fa, fb = pair
            frag_atoms = self.frag_atoms
            key = self.union_key((frag_atoms.get(fa) or [fa]) + (frag_atoms.get(fb) or [fb]))
            pattern = self.patterns[pair] = union_pattern(key)
        return pattern

    def union_key(self, atom_ids: list[int]) -> str:
        """The exact induced labelled subgraph on ``atom_ids`` as one string:
        the atom count, one code per atom in ascending atom-id order, then
        three characters (new a, new b, order) per induced bond in molecule
        bond order."""
        ordered = sorted(atom_ids)
        return self._union_key(ordered, {old: new for new, old in enumerate(ordered)})

    def _union_key(self, ordered: list[int], new_id: dict[int, int]) -> str:
        """``union_key`` of the ascending atom ids ``ordered``; ``new_id``
        maps each to its index there."""
        codes, bonds, orders = self._atom_codes, self.mol.bonds, self._orders
        parts = [chr(len(ordered))]
        parts += [codes[i] for i in ordered]
        for bidx in self.mol.induced_bond_ids(new_id):
            bond = bonds[bidx]
            parts.append(chr(new_id[bond.a]) + chr(new_id[bond.b]) + orders[bidx])
        return "".join(parts)

    def scan_key(self, fa: int, fb: int) -> tuple[int, ...]:
        """Deterministic edge ordering: sorted canonical ranks of the union."""
        frag_atoms = self.frag_atoms
        union = (frag_atoms.get(fa) or [fa]) + (frag_atoms.get(fb) or [fb])
        return tuple(sorted(self.ranks[a] for a in union))

    def _merge(self, fa: int, fb: int) -> tuple[list[tuple[Pair, int, str | None]], list]:
        """Merge two adjacent fragments into a fresh one; returns the dead
        edges as (pair, signature, pattern or None) and the new pairs."""
        frag_of, labels, degree = self.frag_of, self._labels, self._degree
        orders, values, adjacency = self._orders, self._order_values, self.mol._adjacency
        frag_atoms = self.frag_atoms
        union = (frag_atoms.pop(fa, None) or [fa]) + (frag_atoms.pop(fb, None) or [fb])
        frag_signature = self.frag_signature
        signature = frag_signature[fa] + frag_signature[fb]
        frag_signature[fa] = frag_signature[fb] = None
        frag_lead = self.frag_lead
        lead = min(frag_lead[fa], frag_lead[fb])
        frag_lead[fa] = frag_lead[fb] = None
        # every edge of fa or fb dies; each bond between them folds into the
        # union's signature, and the others are grouped by the fragment they
        # reach, which becomes a neighbour of the union
        dead_pairs = {(fa, fb) if fa < fb else (fb, fa)}
        crossing: dict[int, list[tuple[int, int, int]]] = {}  # fragment -> (atom, nbr, bond)
        for atom in union:
            own = frag_of[atom]
            gained = 0
            for nbr, bidx in adjacency[atom]:
                other = frag_of[nbr]
                if other == own:
                    continue
                if other == fa or other == fb:
                    gained += 1
                    if nbr > atom:
                        signature += values[ord(orders[bidx])]
                else:
                    dead_pairs.add((own, other) if own < other else (other, own))
                    if other in crossing:
                        crossing[other].append((atom, nbr, bidx))
                    else:
                        crossing[other] = [(atom, nbr, bidx)]
            if gained:
                d = degree[atom]
                signature += labels[atom][d + gained] - labels[atom][d]
                degree[atom] = d + gained
        edges, by_signature, patterns = self.edges, self.by_signature, self.patterns
        dead = []
        for pair in dead_pairs:
            gone = edges.pop(pair)
            if by_signature[gone] == 1:
                del by_signature[gone]
            else:
                by_signature[gone] -= 1
            dead.append((pair, gone, patterns.pop(pair, None)))
        fnew = len(frag_signature)
        frag_atoms[fnew] = union
        signature &= 2**64 - 1
        frag_signature.append(signature)
        frag_lead.append(lead)
        for atom in union:
            frag_of[atom] = fnew
        born = []
        shared_pairs = _PAIRS[fnew] if fnew < _SHARED_PAIR_IDS else None
        for nb, bonds in crossing.items():
            total = signature + frag_signature[nb]
            # raise each bond end's degree one bond at a time, so that an atom
            # with several of these bonds steps through each degree, then
            # restore the degrees, since the edge only proposes the merge
            for atom, nbr, bidx in bonds:
                total += values[ord(orders[bidx])]
                for end in (atom, nbr):
                    d = degree[end]
                    total += labels[end][d + 1] - labels[end][d]
                    degree[end] = d + 1
            for atom, nbr, _ in bonds:
                degree[atom] -= 1
                degree[nbr] -= 1
            pair = (nb, fnew) if shared_pairs is None else shared_pairs[nb]
            total &= 2**64 - 1
            edges[pair] = total
            by_signature[total] = by_signature.get(total, 0) + 1
            born.append(pair)
        return dead, born

    def apply_operation(self, op: MergeOperation, tally=None) -> int:
        """One merge pass: fuse every edge whose current union is ``op.pattern``.

        Only the edges with ``op.signature`` are resolved. Edges are scanned
        in canonical order; pairs invalidated by an earlier merge in the same
        pass are skipped. ``tally``, when given, hears
        ``edge_removed(signature, pattern or None)`` for each edge the pass
        removes that existed before it, then ``edge_added(self, pair,
        signature)`` for each edge the pass leaves behind that is new.
        Returns the number of merges. Callers call it only on a graph with
        an edge of ``op.signature`` (``apply_operations`` gates on it, the
        miner through ``PatternTally.holders``); on any other graph it scans
        ``edges`` and merges nothing.
        """
        matches = [pair for pair in self.pairs(op.signature) if self.pattern(pair) == op.pattern]
        matches.sort(key=lambda p: self.scan_key(*p))
        born: set[Pair] = set()
        merged = 0
        for pair in matches:
            if pair in self.edges:
                dead, new = self._merge(*pair)
                merged += 1
                if tally is not None:
                    for gone, gone_signature, gone_pattern in dead:
                        if gone in born:
                            born.discard(gone)
                        else:
                            tally.edge_removed(gone_signature, gone_pattern)
                    born.update(new)
        if merged and 2 * len(self.edges) <= self._sized_for:
            # a dict keeps its table when keys are deleted; once half the
            # edges it was sized for are gone, a copy is sized to the rest
            self.edges = dict(self.edges)
            self.patterns = dict(self.patterns)
            self.by_signature = dict(self.by_signature)
            self._sized_for = len(self.edges)
        for pair in born:
            tally.edge_added(self, pair, self.edges[pair])
        return merged


def apply_operations(mol: MolGraph, ops: list[MergeOperation]) -> MergingGraph:
    """Run every merge operation in rank order over a fresh merging graph."""
    state = MergingGraph(mol)
    for op in ops:
        # the gate: most operations find no edge of their signature, and
        # apply_operation does not check it again
        if op.signature in state.by_signature:
            state.apply_operation(op)
    return state


@dataclass(frozen=True, slots=True)
class MotifInstance:
    """One fragment rendered as a connection-aware motif, with the site
    table of its string."""

    smiles: str
    atom_count: int
    parent_atoms: tuple[int, ...]
    sites: SiteTable


@dataclass(frozen=True, slots=True)
class BrokenBondLink:
    """One broken bond as (motif index, star atom) on each side; a star atom
    id is in the atom numbering of ``parse_smiles(motif.smiles)``, and the
    bond's order is each star's site-type order."""

    motif_a: int
    star_a: int
    motif_b: int
    star_b: int


@dataclass(frozen=True, slots=True)
class Fragmentation:
    """Connection-aware motifs of one molecule plus how they were joined.

    Motifs are ordered by their lowest parent atom; ``broken_bonds`` holds one
    link per broken molecule bond, in molecule bond order, with ``motif_a`` on
    the side of the bond's lower atom.
    """

    motifs: tuple[MotifInstance, ...]
    broken_bonds: tuple[BrokenBondLink, ...]

    def motif_strings(self) -> list[str]:
        return [m.smiles for m in self.motifs]


def extract_motifs(state: MergingGraph) -> Fragmentation:
    """Turn the final partition into connection-aware motifs plus the links
    of every broken bond."""
    mol = state.mol
    parts = sorted(tuple(sorted(atoms)) for atoms in state.fragments().values())
    motif_of = [0] * len(mol.atoms)
    for index, atoms in enumerate(parts):
        for atom in atoms:
            motif_of[atom] = index
    cross: list[list[tuple[int, int]]] = [[] for _ in parts]  # (bond, anchor atom)
    for bidx, bond in enumerate(mol.bonds):
        ma, mb = motif_of[bond.a], motif_of[bond.b]
        if ma != mb:
            cross[ma].append((bidx, bond.a))
            cross[mb].append((bidx, bond.b))
    motifs: list[MotifInstance] = []
    star_of: dict[tuple[int, int], int] = {}  # (motif, bond) -> star atom id
    orders = state._orders
    for index, atom_ids in enumerate(parts):
        new_id = {old: new for new, old in enumerate(atom_ids)}
        stars = cross[index]
        key = state._union_key(atom_ids, new_id) + "".join(
            [chr(new_id[anchor]) + orders[bidx] for bidx, anchor in stars]
        ) + chr(len(stars))
        smiles, positions, sites = instance_pattern(key)
        for (bidx, _), pos in zip(stars, positions):
            star_of[index, bidx] = pos
        motifs.append(MotifInstance(smiles, len(atom_ids), atom_ids, sites))
    links = []
    for bidx, bond in enumerate(mol.bonds):
        ma, mb = motif_of[bond.a], motif_of[bond.b]
        if ma != mb:
            links.append(BrokenBondLink(ma, star_of[ma, bidx], mb, star_of[mb, bidx]))
    return Fragmentation(tuple(motifs), tuple(links))
