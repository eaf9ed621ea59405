"""SMILES subset parser and canonical writer.

Supported subset: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
lowercase aromatic atoms (b, c, n, o, p, s), "*" connection sites, bracket
atoms with an H count and a charge in [-2, +2], bond symbols ``- = # :``,
branches, and ring-closure digits (``%nn`` for two-digit labels). Stereo
markers, isotopes, atom maps, and multi-component dots are rejected.

The writer is canonical: one DFS over the canonical ranking fixes the atom
order, and ring digits are assigned as atoms are written, closes before
opens, each open taking the lowest free digit. Aromatic bonds are always
written as ``:``, and single bonds between two aromatic atoms as ``-``.
Implicit hydrogens are never serialized; bracket atoms keep their explicit
H count and charge.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

from graphbpe.chem.canon import canonical_rank
from graphbpe.chem.mol import (
    AROMATIC,
    DOUBLE,
    ORDER_CODES,
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
    RingClosureError,
    SmilesSyntaxError,
    UnsupportedElementError,
)

BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_MAX_RING_LABEL = 99  # %99
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


class _Parser:
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
            if ch in BOND_CHARS:
                if self.pending is not None:
                    raise self.error("two bond symbols in a row")
                self.pending = BOND_CHARS[ch]
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
                raise UnsupportedElementError(f"unsupported element {sym!r}")
            raise self.error(f"unexpected character {ch!r}")
        if self.pending is not None:
            raise self.error("dangling bond symbol at end of input", self.pending_pos)
        if self.branch_stack:
            raise self.error("unclosed '('")
        if self.open_rings:
            label, (_, _, position) = sorted(self.open_rings.items())[0]
            raise RingClosureError(f"unmatched ring closure {label}", position)


def parse_smiles(text: str, validate: bool = True) -> MolGraph:
    """Parse a SMILES string into a MolGraph.

    With ``validate=True`` (the default) the molecule must pass the per-atom
    valence table and the aromatic-ring electron check; ``validate=False``
    skips both so callers can measure validity themselves.
    """
    parser = _Parser(text)
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
    if not mol.is_connected():
        raise SmilesSyntaxError("molecule is not connected")
    if validate:
        check_molecule(mol)
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


def graph_signature(mol: MolGraph, atom_ids=None, tokens=None, orders=None) -> str:
    """A cheap isomorphism invariant of ``mol``, or of its subgraph induced
    by ``atom_ids``: the sorted (atom token, degree inside) labels, then the
    sorted order codes of the induced bonds.

    Equal canonical strings give equal signatures:
    ``parse_smiles(write_smiles(G))`` is G again up to atom numbering, with
    the same atom tokens, degrees and bond orders. A caller that asks about
    many subgraphs of one molecule passes each atom's ``atom_token`` as
    ``tokens`` and each bond's ``ORDER_CODES`` character as ``orders``.
    """
    if tokens is None:
        tokens = [atom_token(atom) for atom in mol.atoms]
    if orders is None:
        orders = "".join(ORDER_CODES[bond.order] for bond in mol.bonds)
    if atom_ids is None:
        atom_ids = inside = range(len(mol.atoms))
    else:
        inside = set(atom_ids)
    labels = []
    codes = []
    for atom in atom_ids:
        degree = 0
        for nbr, bidx in mol.neighbors(atom):
            if nbr in inside:
                degree += 1
                if nbr > atom:
                    codes.append(orders[bidx])
        labels.append(f"{tokens[atom]}{degree}")
    labels.sort()
    codes.sort()
    return sys.intern(" ".join(labels) + "|" + "".join(codes))


def _bond_token(order: str, arom_a: bool, arom_b: bool) -> str:
    if order == SINGLE:
        return "-" if (arom_a and arom_b) else ""
    if order == AROMATIC:
        return ":"
    return "=" if order == DOUBLE else "#"


def _traverse(mol: MolGraph, ranks: list[int]) -> tuple[list[int], list, dict, dict]:
    """DFS from the rank-0 atom, taking neighbours in rank order.

    Returns the preorder, each atom's tree children as (child, bond), and
    the ring bonds: ``opens[earlier atom]`` holds (later atom's preorder
    position, bond) and ``closes[later atom]`` holds the bond.
    """
    root = ranks.index(0)
    position = {root: 0}
    preorder = [root]
    children: list[list[tuple[int, int]]] = [[] for _ in mol.atoms]
    opens: dict[int, list[tuple[int, int]]] = {}
    closes: dict[int, list[int]] = {}
    seen_bonds: set[int] = set()

    def todo(atom: int) -> list[tuple[int, int]]:
        # descending rank, so pop() takes the lowest-ranked neighbour
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
            # an undirected DFS finds a ring bond from its later atom
            opens.setdefault(nbr, []).append((position[node], bidx))
            closes.setdefault(node, []).append(bidx)
            continue
        children[node].append((nbr, bidx))
        position[nbr] = len(preorder)
        preorder.append(nbr)
        stack.append((nbr, todo(nbr)))
    return preorder, children, opens, closes


def may_fail_to_write(mol: MolGraph) -> bool:
    """False only where ``write_smiles(mol)`` cannot raise: a connected graph
    of cycle rank below 100, since an open ring label takes one ring bond and
    a connected graph has cycle-rank many of them."""
    return (
        not mol.atoms
        or len(mol.bonds) - len(mol.atoms) + 1 > _MAX_RING_LABEL
        or not mol.is_connected()
    )


def _digit_token(digit: int) -> str:
    return str(digit) if digit < 10 else f"%{digit:02d}"


def write_smiles(mol: MolGraph) -> str:
    """Canonical SMILES: isomorphic graphs yield byte-identical strings."""
    return write_smiles_with_order(mol)[0]


def write_smiles_with_order(mol: MolGraph) -> tuple[str, list[int]]:
    """Canonical SMILES plus the emission order of the input atom ids.

    ``order[i]`` is the input atom id written at position ``i``; parsing the
    returned string yields atom ``i`` for input atom ``order[i]``.

    Atoms are written in the preorder of one DFS that starts at the rank-0
    atom and takes neighbours in rank order; every tree child but the last
    is a parenthesized branch. A ring bond opens at its earlier atom and
    closes at its later one. Each atom first writes its closes, in digit
    order, freeing those digits, and then its opens, in (close position,
    bond) order, each taking the lowest free digit.
    """
    if not mol.atoms:
        raise ValueError("cannot serialize an empty molecule")
    if not mol.is_connected():
        raise ValueError("cannot serialize a disconnected molecule")
    ranks = list(canonical_rank(mol).ranks)
    preorder, children, opens, closes = _traverse(mol, ranks)
    atoms, bonds = mol.atoms, mol.bonds
    out: list[str] = []
    # text before each atom: ")" ending the previous sibling's branch,
    # "(" starting its own unless it is the last child, and its bond
    lead = {preorder[0]: ""}
    digit_of: dict[int, int] = {}
    in_use: set[int] = set()
    for atom in preorder:
        aromatic = atoms[atom].aromatic
        out.append(lead[atom] + atom_token(atoms[atom]))
        for digit, bidx in sorted((digit_of[b], b) for b in closes.get(atom, ())):
            in_use.discard(digit)
            other = atoms[bonds[bidx].other(atom)]
            out.append(_bond_token(bonds[bidx].order, aromatic, other.aromatic))
            out.append(_digit_token(digit))
        for _, bidx in sorted(opens.get(atom, ())):
            digit = 1
            while digit in in_use:
                digit += 1
            if digit > _MAX_RING_LABEL:
                raise RingClosureError("too many simultaneously open rings")
            digit_of[bidx] = digit
            in_use.add(digit)
            out.append(_digit_token(digit))
        kids = children[atom]
        for i, (child, bidx) in enumerate(kids):
            bond = _bond_token(bonds[bidx].order, aromatic, atoms[child].aromatic)
            lead[child] = (")" if i else "") + ("(" if i < len(kids) - 1 else "") + bond
    return "".join(out), preorder
