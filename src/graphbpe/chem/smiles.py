"""SMILES subset parser and canonical writer.

Supported subset: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
lowercase aromatic atoms (b, c, n, o, p, s), "*" connection sites, bracket
atoms with an H count and a charge in [-2, +2], bond symbols ``- = # :``,
branches, and ring-closure digits (``%nn`` for two-digit labels). Stereo
markers, isotopes, atom maps, and multi-component dots are rejected.

The parser reads one token per loop step: one compiled pattern splits the
text into atoms, bracket atoms, bonds, branch opens and closes, ring labels
and single other characters, and each kind has one handler. As it bonds
atoms it keeps each one's neighbour list and bond order sum, so the graph is
built without a second pass over the bonds. Validation then runs each check
once: a "*" atom's degree, the valence table on the parser's order sums, and
(with ``validate=True``) the aromatic-ring electron count. No connectivity
search runs: every atom after the first is bonded to an earlier one and "."
is rejected, so a parsed graph is always connected.

The writer is canonical: one DFS over the canonical ranking fixes the atom
order, and ring digits are assigned as atoms are written, closes before
opens, each open taking the lowest free digit. Aromatic bonds are always
written as ``:``, and single bonds between two aromatic atoms as ``-``.
Implicit hydrogens are never serialized; bracket atoms keep their explicit
H count and charge.
"""
from __future__ import annotations

import re
from collections import Counter
from functools import cache
from hashlib import blake2b

from graphbpe.chem.canon import CanonicalRanking, canonical_rank
from graphbpe.chem.mol import (
    AROMATIC,
    BOND_ORDERS,
    DOUBLE,
    ORDER_X2,
    SINGLE,
    STAR,
    TRIPLE,
    Atom,
    MolGraph,
    check_molecule,
    implicit_hydrogens,
    shared_graph,
    valence_ok,
)
from graphbpe.errors import (
    RingClosureError,
    SmilesSyntaxError,
    UnsupportedElementError,
)

BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_MAX_RING_LABEL = 99  # %99
_ONE_LETTER = frozenset("BCNOPSFI")
_AROMATIC_LOWER = frozenset("bcnops")
_REJECT_HINTS = {
    ".": "multi-component SMILES are not supported",
    "/": "stereo bond markers are not supported",
    "\\": "stereo bond markers are not supported",
    "@": "stereocenters are not supported",
}

# One group per token kind: a match's ``lastindex`` picks the handler (an
# atom, a bracket atom, a bond, "(", ")", a ring label, anything else).
_TOKEN = re.compile(
    # an organic-subset, aromatic or "*" atom; a one-letter element only where
    # the next character cannot make it a two-letter symbol (Si, Se, ...)
    r"(Cl|Br|[BCNOPSFI](?![ad-mqrt-z\x80-\U0010ffff])|[bcnops*])"
    r"|(\[[^\]]*\])"
    r"|([-=#:])"
    r"|(\()"
    r"|(\))"
    # a digit, or "%" and two digits; "%" and one digit only at the very end
    r"|(\d|%\d\d|%\d\Z)"
    # anything else: an error, or a one-letter element the atom pattern left
    r"|(.)",
    re.DOTALL,
)

# plain atom token -> (element, aromatic)
_PLAIN = {token: (token, False) for token in (*_ONE_LETTER, "Cl", "Br", STAR)}
_PLAIN.update({token: (token.upper(), True) for token in _AROMATIC_LOWER})


def _plain_atom(token: str, order_x2: int) -> tuple[Atom, bool]:
    """The atom a plain token stands for when its bonds sum to ``order_x2``
    half-units, and whether it passes the valence table."""
    element, aromatic = _PLAIN[token]
    implicit = 0 if element == STAR else implicit_hydrogens(element, 0, order_x2)
    atom = Atom(element, 0, aromatic, 0, implicit, False)
    return atom, valence_ok(atom, order_x2)


# every plain atom with bonds summing to at most four triple bonds
_PLAIN_ATOMS = {(token, x2): _plain_atom(token, x2) for token in _PLAIN for x2 in range(25)}


def _bracket_atom(body: str, start: int) -> Atom:
    """The atom of bracket text ``[body]`` that starts at ``start``."""
    pos = start + 1
    if not body:
        raise SmilesSyntaxError("empty bracket atom", start)
    if body[0].isdigit():
        raise SmilesSyntaxError("isotope labels are not supported", pos)
    if body[0] == STAR:
        element, aromatic = STAR, False
        i = 1
    elif body[0] in _AROMATIC_LOWER:
        element, aromatic = body[0].upper(), True
        i = 1
    elif body[0].isupper():
        if body[:2] in ("Cl", "Br"):
            element, aromatic = body[:2], False
            i = 2
        elif len(body) > 1 and body[1].islower():
            raise UnsupportedElementError(f"unsupported element {body[:2]!r}", pos)
        elif body[0] in _ONE_LETTER:
            element, aromatic = body[0], False
            i = 1
        else:
            raise UnsupportedElementError(f"unsupported element {body[:1]!r}", pos)
    else:
        raise SmilesSyntaxError(f"bad bracket atom content {body!r}", pos)
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
        raise SmilesSyntaxError(f"unsupported bracket atom feature {body[i]!r}", pos + i)
    if not -2 <= charge <= 2:
        raise SmilesSyntaxError(f"charge {charge:+d} outside [-2, +2]", start)
    if element == STAR and (explicit_h or charge):
        raise SmilesSyntaxError("'*' cannot carry hydrogens or charge", start)
    return Atom(element, charge, aromatic, explicit_h, 0, True)


class _Parser:
    """The atoms and bonds of one SMILES string, read one token at a time.

    Per atom: ``entries`` holds its plain token, or the ``Atom`` of a bracket
    atom; ``kinds`` its (element, aromatic); ``positions`` where its token
    starts; ``adjacency`` its (neighbour, bond index) pairs in bond order, as
    ``MolGraph`` lists them; and ``order_x2`` its bond order sum in half-units.
    ``bonds`` holds each bond as an ``(a, b, order)`` triple with ``a < b``.
    """

    def __init__(self, text: str):
        self.text = text
        self.entries: list[str | Atom] = []
        self.kinds: list[tuple[str, bool]] = []
        self.positions: list[int] = []
        self.adjacency: list[list[tuple[int, int]]] = []
        self.order_x2: list[int] = []
        self.bonds: list[tuple[int, int, str]] = []
        self.prev: int | None = None
        self.branch_stack: list[int] = []
        self.pending: str | None = None
        self.pending_pos = 0
        # ring-closure label -> (atom id, bond order stated at open, text position)
        self.open_rings: dict[int, tuple[int, str | None, int]] = {}

    def run(self) -> None:
        text = self.text
        if not text:
            raise SmilesSyntaxError("empty SMILES string", 0)
        handlers = (
            None, self.atom, self.bracket, self.bond, self.open_branch,
            self.close_branch, self.ring, self.other,
        )
        for match in _TOKEN.finditer(text):
            handlers[match.lastindex](match.group(), match.start())
        if self.pending is not None:
            raise SmilesSyntaxError("dangling bond symbol at end of input", self.pending_pos)
        if self.branch_stack:
            # a "%" label counts as three characters, even one that ends the text
            raise SmilesSyntaxError("unclosed '('", len(text) + (text[-2:-1] == "%"))
        if self.open_rings:
            label = min(self.open_rings)
            raise RingClosureError(f"unmatched ring closure {label}", self.open_rings[label][2])

    # one handler per token kind: (token text, its start in the text)

    def atom(self, token: str, position: int) -> None:
        self.add_atom(token, _PLAIN[token], position)

    def bracket(self, token: str, position: int) -> None:
        atom = _bracket_atom(token[1:-1], position)
        self.add_atom(atom, (atom.element, atom.aromatic), position)

    def bond(self, token: str, position: int) -> None:
        if self.pending is not None:
            raise SmilesSyntaxError("two bond symbols in a row", position)
        self.pending = BOND_CHARS[token]
        self.pending_pos = position

    def open_branch(self, token: str, position: int) -> None:
        if self.prev is None:
            raise SmilesSyntaxError("branch before the first atom", position)
        if self.pending is not None:
            raise SmilesSyntaxError("bond symbol before '('", position)
        self.branch_stack.append(self.prev)

    def close_branch(self, token: str, position: int) -> None:
        if self.pending is not None:
            raise SmilesSyntaxError("dangling bond symbol before ')'", position)
        if not self.branch_stack:
            raise SmilesSyntaxError("unmatched ')'", position)
        self.prev = self.branch_stack.pop()

    def ring(self, token: str, position: int) -> None:
        prev = self.prev
        if prev is None:
            raise SmilesSyntaxError("ring closure before the first atom", position)
        label = int(token.lstrip("%"))
        order = self.pending
        self.pending = None
        if label not in self.open_rings:
            self.open_rings[label] = (prev, order, position)
            return
        other, open_order, _ = self.open_rings.pop(label)
        if order is not None and open_order is not None and order != open_order:
            raise RingClosureError(f"ring closure {label} bond symbols disagree", position)
        if order is None:
            order = open_order
        if order is None:
            order = self.default_order(other, prev)
        self.add_bond(other, prev, order, position)

    def other(self, ch: str, position: int) -> None:
        if ch in _REJECT_HINTS:
            raise SmilesSyntaxError(_REJECT_HINTS[ch], position)
        if ch == "[":
            raise SmilesSyntaxError("unterminated bracket atom", position)
        if ch == "%" or ch.isdigit():
            if self.prev is None:
                raise SmilesSyntaxError("ring closure before the first atom", position)
            if ch == "%":
                raise SmilesSyntaxError("'%' needs two digits", position)
            # a digit that is not a decimal one ("²") is no ring label
        elif ch.isupper():
            # a trailing lowercase letter that is not an aromatic atom would
            # form an unsupported two-letter symbol (Si, Se, ...)
            two = self.text[position : position + 2]
            looks_two_letter = (
                len(two) == 2 and two[1].islower() and two[1] not in _AROMATIC_LOWER
            )
            if ch in _ONE_LETTER and not looks_two_letter:
                self.atom(ch, position)
                return
            sym = two if looks_two_letter else ch
            raise UnsupportedElementError(f"unsupported element {sym!r}", position)
        raise SmilesSyntaxError(f"unexpected character {ch!r}", position)

    def default_order(self, a: int, b: int) -> str:
        return AROMATIC if self.kinds[a][1] and self.kinds[b][1] else SINGLE

    def add_atom(self, entry: str | Atom, kind: tuple[str, bool], position: int) -> None:
        idx = len(self.entries)
        self.entries.append(entry)
        self.kinds.append(kind)
        self.positions.append(position)
        self.adjacency.append([])
        self.order_x2.append(0)
        if self.prev is not None:
            order = self.pending
            if order is None:
                order = self.default_order(self.prev, idx)
            self.add_bond(self.prev, idx, order, position)
        elif self.pending is not None:
            raise SmilesSyntaxError("bond symbol before the first atom", self.pending_pos)
        self.pending = None
        self.prev = idx

    def add_bond(self, a: int, b: int, order: str, position: int) -> None:
        """Bond ``a`` to ``b``, the atom read last (so a new atom has no
        neighbour to scan)."""
        if a == b:
            raise RingClosureError("ring closure back to the same atom", position)
        adjacency = self.adjacency
        for nbr, _ in adjacency[b]:
            if nbr == a:
                raise RingClosureError(
                    f"duplicate bond between atoms {min(a, b)} and {max(a, b)}", position
                )
        if order == AROMATIC:
            for idx in (a, b):
                element, aromatic = self.kinds[idx]
                if not aromatic and element != STAR:
                    raise SmilesSyntaxError("aromatic bond on a non-aromatic atom", position)
        lo, hi = (a, b) if a < b else (b, a)
        bidx = len(self.bonds)
        self.bonds.append((lo, hi, order))
        adjacency[lo].append((hi, bidx))
        adjacency[hi].append((lo, bidx))
        x2 = ORDER_X2[order]
        self.order_x2[a] += x2
        self.order_x2[b] += x2


def parse_smiles(text: str, validate: bool = True, *, parts: dict | None = None) -> MolGraph:
    """Parse a SMILES string into a MolGraph.

    With ``validate=True`` (the default) the molecule must pass the per-atom
    valence table and the aromatic-ring electron check; ``validate=False``
    skips both so callers can measure validity themselves.

    ``parts`` is a table the caller owns and passes to every parse of a
    corpus (see ``graphbpe.chem.mol.shared_graph``): equal bonds, bracket
    atoms and neighbour tuples of the molecules it parses are then one
    object each. Atoms, bonds and tuples are immutable, so sharing them
    changes no molecule. Plain atoms are shared without a table. A string
    that fails to parse or validate may still have added parts.
    """
    parser = _Parser(text)
    parser.run()
    atoms = []
    atom_ok = []
    for idx, entry in enumerate(parser.entries):
        order_x2 = parser.order_x2[idx]
        if entry.__class__ is str:
            atom, ok = _PLAIN_ATOMS.get((entry, order_x2)) or _plain_atom(entry, order_x2)
        else:
            if parts is not None:
                entry = parts.setdefault(entry, entry)
            atom, ok = entry, valence_ok(entry, order_x2)
        if atom.element == STAR and len(parser.adjacency[idx]) != 1:
            raise SmilesSyntaxError(
                f"'*' atom {idx} has degree {len(parser.adjacency[idx])}, expected 1",
                parser.positions[idx],
            )
        atoms.append(atom)
        atom_ok.append(ok)
    mol = shared_graph(tuple(atoms), parser.bonds, parser.adjacency, parts)
    # every atom after the first is bonded to an earlier one, so the graph is connected
    if validate:
        check_molecule(mol, atom_ok)
    return mol


def atom_token(atom: Atom) -> str:
    """How the writer spells ``atom``: a function of its element, aromatic
    flag, charge, explicit hydrogens and bracket flag only."""
    if atom.element == STAR:
        return STAR
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if not (atom.bracket or atom.formal_charge or atom.explicit_h):
        return symbol
    parts = ["[", symbol]
    if atom.explicit_h == 1:
        parts.append("H")
    elif atom.explicit_h > 1:
        parts.append(f"H{atom.explicit_h}")
    charge = atom.formal_charge
    if charge:
        sign = "+" if charge > 0 else "-"
        parts.append(sign if abs(charge) == 1 else f"{sign}{abs(charge)}")
    parts.append("]")
    return "".join(parts)


def leading_key(atom: Atom) -> tuple[tuple[str, int, bool], str]:
    """The atom's (element, formal charge, aromatic) seed prefix from
    ``canonical_rank``, then its ``atom_token``.

    ``write_smiles`` starts with the token of the rank-0 atom, whose prefix
    is the least of any atom's, so the token of the least key over a
    graph's atoms is a lower bound on its string: for that token ``b``,
    ``write_smiles(mol)[:len(b)] >= b``. The bound is a min, so the bound
    of a union is the min of its parts' bounds.
    """
    return (atom.element, atom.formal_charge, atom.aromatic), atom_token(atom)


def signature_value(label: str) -> int:
    """The fixed 64-bit value of one signature label: the first eight bytes
    of its BLAKE2b digest, so every process gives every label one value."""
    return int.from_bytes(blake2b(label.encode(), digest_size=8).digest(), "little")


@cache
def label_values(stem: str, index: int) -> tuple[int, ...]:
    """The ``signature_value`` of the labels ``stem`` followed by 0, 1, ...
    up to ``index``; one process-wide cache. An atom's label is its
    ``atom_token`` and its degree; a bond's is "|" and the index of its
    order in ``BOND_ORDERS``."""
    return tuple(signature_value(f"{stem}{i}") for i in range(index + 1))


def graph_signature(mol: MolGraph) -> int:
    """A cheap isomorphism invariant of ``mol``: the sum mod 2**64 of the
    value of each atom's and each bond's label (see ``label_values``).

    Equal canonical strings give equal signatures:
    ``parse_smiles(write_smiles(G))`` is G again up to atom numbering, with
    the same atom tokens, degrees and bond orders. A sum composes: the
    signature of two disjoint subgraphs joined by some bonds is theirs plus
    those bonds' values plus, at each bond end, the change of its atom's
    label value. Unequal graphs may share a signature; a caller uses equal
    signatures only as a gate before comparing canonical strings, so a
    collision costs extra writes and never changes a result.
    """
    labels = Counter(zip(map(atom_token, mol.atoms), map(mol.degree, range(len(mol.atoms)))))
    total = 0
    for (token, degree), count in labels.items():
        total += label_values(token, degree)[degree] * count
    by_order = label_values("|", len(BOND_ORDERS) - 1)
    for order, count in Counter(bond.order for bond in mol.bonds).items():
        total += by_order[BOND_ORDERS.index(order)] * count
    return total & (2**64 - 1)


# how the writer spells a bond, but for a single bond between two aromatic
# atoms, which it writes as "-"
_BOND_TEXT = {SINGLE: "", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}
_DIGITS = [str(digit) if digit < 10 else f"%{digit:02d}" for digit in range(_MAX_RING_LABEL + 1)]


def may_fail_to_write(mol: MolGraph, components: int | None = None) -> bool:
    """False only where ``write_smiles(mol)`` cannot raise: a connected graph
    of cycle rank below 100, since an open ring label takes one ring bond and
    a connected graph has cycle-rank many of them. ``components`` is
    ``mol.component_count()`` where the caller already has it."""
    if components is None:
        components = mol.component_count()
    return (
        not mol.atoms
        or len(mol.bonds) - len(mol.atoms) + 1 > _MAX_RING_LABEL
        or components > 1
    )


def _ring_labels(rings: list[tuple[int, int, str, int]]) -> dict[int, str]:
    """The ring-label text written after the token of each ring atom, keyed
    by the atom's preorder position. ``rings`` holds one (open position,
    close position, bond text, bond) per ring bond.

    Each atom, in preorder, first writes its closes in digit order, freeing
    those digits, each as bond text plus digit; then its opens in (close
    position, bond) order, each taking the lowest free digit.
    """
    opens: dict[int, list[tuple[int, int]]] = {}
    closes: dict[int, list[tuple[str, int]]] = {}
    for open_pos, close_pos, text, bidx in rings:
        opens.setdefault(open_pos, []).append((close_pos, bidx))
        closes.setdefault(close_pos, []).append((text, bidx))
    in_use = [False] * (_MAX_RING_LABEL + 2)
    digit_of: dict[int, int] = {}
    labels: dict[int, str] = {}
    for pos in sorted(opens.keys() | closes.keys()):
        out = []
        for digit, text in sorted((digit_of[bidx], text) for text, bidx in closes.get(pos, ())):
            in_use[digit] = False
            out.append(text + _DIGITS[digit])
        for _, bidx in sorted(opens.get(pos, ())):
            digit = in_use.index(False, 1)
            if digit > _MAX_RING_LABEL:
                raise RingClosureError("too many simultaneously open rings")
            digit_of[bidx] = digit
            in_use[digit] = True
            out.append(_DIGITS[digit])
        labels[pos] = "".join(out)
    return labels


def write_smiles(mol: MolGraph) -> str:
    """SMILES in the writer's canonical atom order, starting with the
    rank-0 atom's token.

    Equal graphs give byte-identical strings, and isomorphic graphs usually
    do; not always, since ``canonical_rank`` breaks ties by input index (the
    cage ``C12C3C1C1C3C3C2C13`` writes 3 strings over 200 permutations).
    """
    return write_smiles_with_order(mol)[0]


def write_smiles_with_order(
    mol: MolGraph, *, ranking: CanonicalRanking | None = None
) -> tuple[str, list[int]]:
    """Canonical SMILES plus the emission order of the input atom ids.

    ``order[i]`` is the input atom id written at position ``i``; parsing the
    returned string yields atom ``i`` for input atom ``order[i]``.
    ``ranking`` is ``canonical_rank(mol)`` where the caller already has it.

    Atoms are written in the preorder of one DFS that starts at the rank-0
    atom (so the string starts with that atom's ``atom_token``; see
    ``leading_key``) and takes neighbours in rank order; every tree child
    but the last is a parenthesized branch. A ring bond opens at its earlier atom and
    closes at its later one. Each atom first writes its closes, in digit
    order, freeing those digits, and then its opens, in (close position,
    bond) order, each taking the lowest free digit.
    """
    atoms, bonds = mol.atoms, mol.bonds
    n = len(atoms)
    if not n:
        raise ValueError("cannot serialize an empty molecule")
    if ranking is None:
        ranking = canonical_rank(mol)
    by_rank = [0] * n
    for atom, rank in enumerate(ranking.ranks):
        by_rank[rank] = atom
    # each atom's (neighbour, bond) pairs in neighbour rank order, from one
    # pass over the atoms in rank order
    ordered: list[list[tuple[int, int]]] = [[] for _ in atoms]
    adjacency = mol._adjacency
    for atom in by_rank:
        for nbr, bidx in adjacency[atom]:
            ordered[nbr].append((atom, bidx))
    aromatic = [atom.aromatic for atom in atoms]
    position = [-1] * n
    seen = [False] * len(bonds)
    rings: list[tuple[int, int, str, int]] = []
    root = by_rank[0]
    position[root] = 0
    preorder = [root]
    # out[i]: the text of the atom at preorder position i, led by ")" when it
    # ends the previous sibling's branch, "(" when a later sibling follows,
    # and its bond
    out = [atom_token(atoms[root])]
    stack = [[root, iter(ordered[root]), -1]]  # atom, neighbours to visit, last child's position
    while stack:
        frame = stack[-1]
        node = frame[0]
        for nbr, bidx in frame[1]:
            if seen[bidx]:
                continue
            seen[bidx] = True
            text = _BOND_TEXT[bonds[bidx].order]
            if not text and aromatic[node] and aromatic[nbr]:
                text = "-"
            if position[nbr] >= 0:
                # an undirected DFS finds a ring bond from its later atom
                rings.append((position[nbr], position[node], text, bidx))
                continue
            last = frame[2]
            if last >= 0:
                # the previous child's branch ends here, so it opens one
                piece = out[last]
                out[last] = ")(" + piece[1:] if piece[0] == ")" else "(" + piece
                text = ")" + text
            frame[2] = position[nbr] = len(preorder)
            preorder.append(nbr)
            out.append(text + atom_token(atoms[nbr]))
            stack.append([nbr, iter(ordered[nbr]), -1])
            break
        else:
            stack.pop()
    if len(preorder) < n:
        raise ValueError("cannot serialize a disconnected molecule")
    if rings:
        for pos, text in _ring_labels(rings).items():
            out[pos] += text
    return "".join(out), preorder
