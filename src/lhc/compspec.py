"""Text format for composition trees.

S-expression style, one root expression followed by optional transform
clauses:

    leaf        (var k)                     k in 1..n
    node        (op "<q*q symbols row-major>" <left> <right>)
    clauses     (parastrophe p0 p1 ... pn)
                (isotopy "perm0" "perm1" ... "permn")

Each isotopy permutation is a comma-separated image list such as "0,2,1,3".
The transform clauses populate CompositionSpec.post_transform (isotopy
applied first, then the parastrophe).
"""

from __future__ import annotations

import math
import re

from .algebra import BinaryOp, CompositionSpec, Leaf, Node, TransformSpec
from .core import ParseError, StructuralError, _tokens

_TOKEN = re.compile(r"\(|\)|\"[^\"]*\"|[^\s()\"]+|\"")  # a lone " is a token too


class _Reader:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.q = None  # the order of the first operation table
        self.leaves: list[int] = []  # the k of every (var k) read so far

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise ParseError("unexpected end of input", last[1], last[2])
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok[0] != text:
            raise ParseError(f"expected {text!r}, got {tok[0]!r}", tok[1], tok[2])
        return tok


def _parse_int(tok):
    try:
        return int(tok[0])
    except ValueError:
        raise ParseError(f"expected an integer, got {tok[0]!r}", tok[1], tok[2]) from None


def _parse_quoted(reader, what):
    tok = reader.next()
    if not (tok[0].startswith('"') and tok[0].endswith('"')):
        raise ParseError(f"expected a quoted {what}, got {tok[0]!r}", tok[1], tok[2])
    return tok[0][1:-1], tok[1], tok[2]


def _parse_expr(reader):
    reader.expect("(")
    head = reader.next()
    if head[0] == "var":
        var = _parse_int(reader.next())
        if var < 1:
            raise ParseError(f"variable index must be >= 1, got {var}", head[1], head[2])
        reader.expect(")")
        reader.leaves.append(var)
        return Leaf(var)
    if head[0] == "op":
        body, ln, col = _parse_quoted(reader, "operation table")
        entries = body.split()
        q = math.isqrt(len(entries))
        if q * q != len(entries) or q < 1:
            raise ParseError(f"operation table needs q*q entries, got {len(entries)}", ln, col)
        try:
            flat = [int(e) for e in entries]
        except ValueError:
            raise ParseError("operation table entries must be integers", ln, col) from None
        try:
            op = BinaryOp.from_flat(q, flat)
        except StructuralError as e:
            raise ParseError(str(e), ln, col) from None
        if reader.q is None:
            reader.q = q
        elif q != reader.q:
            raise ParseError(f"operation table has order {q}, the first one has order {reader.q}", ln, col)
        left = _parse_expr(reader)
        right = _parse_expr(reader)
        reader.expect(")")
        return Node(op, left, right)
    raise ParseError(f"expected 'var' or 'op', got {head[0]!r}", head[1], head[2])


def _parse_perm_string(s, q, ln, col):
    parts = s.split(",")
    try:
        perm = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad permutation {s!r}", ln, col) from None
    if sorted(perm) != list(range(q)):
        raise ParseError(f"{s!r} is not a permutation of 0..{q - 1}", ln, col)
    return perm


def parse_composition_spec(text: str) -> CompositionSpec:
    tokens = _tokens(text, _TOKEN)
    if not tokens:
        raise ParseError("empty composition spec", 1, 1)
    reader = _Reader(tokens)
    root = _parse_expr(reader)
    leaves = sorted(reader.leaves)
    n = len(leaves)
    if leaves != list(range(1, n + 1)):
        tok = tokens[0]
        raise ParseError(f"leaf labels {leaves} are not 1..{n}", tok[1], tok[2])
    if reader.q is None:
        raise ParseError("a composition needs at least one operation node", 1, 1)
    q = reader.q

    parastrophe = None
    isotopy = None
    while reader.peek() is not None:
        reader.expect("(")
        head = reader.next()
        if head[0] == "parastrophe":
            if parastrophe is not None:
                raise ParseError("duplicate parastrophe clause", head[1], head[2])
            images = []
            while reader.peek() and reader.peek()[0] != ")":
                images.append(_parse_int(reader.next()))
            reader.expect(")")
            if sorted(images) != list(range(n + 1)):
                raise ParseError(
                    f"parastrophe must be a permutation of 0..{n}", head[1], head[2]
                )
            parastrophe = tuple(images)
        elif head[0] == "isotopy":
            if isotopy is not None:
                raise ParseError("duplicate isotopy clause", head[1], head[2])
            perms = []
            while reader.peek() and reader.peek()[0] != ")":
                s, ln, col = _parse_quoted(reader, "permutation")
                perms.append(_parse_perm_string(s, q, ln, col))
            reader.expect(")")
            if len(perms) != n + 1:
                raise ParseError(f"isotopy needs {n + 1} permutations", head[1], head[2])
            isotopy = tuple(perms)
        else:
            raise ParseError(
                f"expected 'parastrophe' or 'isotopy' clause, got {head[0]!r}",
                head[1],
                head[2],
            )
    transform = None
    if isotopy is not None or parastrophe is not None:
        transform = TransformSpec(isotopy, parastrophe)
    return CompositionSpec(n, root, transform)


def format_composition_spec(spec: CompositionSpec) -> str:
    def fmt(node) -> str:
        if isinstance(node, Leaf):
            return f"(var {node.var})"
        flat = " ".join(str(v) for row in node.op.table for v in row)
        return f'(op "{flat}" {fmt(node.left)} {fmt(node.right)})'

    out = [fmt(spec.root)]
    t = spec.post_transform
    if t is not None:
        if t.parastrophe is not None:
            out.append("(parastrophe " + " ".join(str(p) for p in t.parastrophe) + ")")
        if t.isotopy is not None:
            perms = " ".join('"' + ",".join(str(v) for v in p) + '"' for p in t.isotopy)
            out.append(f"(isotopy {perms})")
    return "\n".join(out) + "\n"
