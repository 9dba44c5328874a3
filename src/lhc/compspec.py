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


def parse_composition_spec(text: str) -> CompositionSpec:
    tokens = _tokens(text, _TOKEN)
    if not tokens:
        raise ParseError("empty composition spec", 1, 1)
    pos = 0
    q = None  # the order of the first operation table
    leaves: list[int] = []  # the k of every (var k) read so far

    def take(want=None):
        nonlocal pos
        if pos == len(tokens):
            raise ParseError("unexpected end of input", *tokens[-1][1:])
        tok = tokens[pos]
        pos += 1
        if want is not None and tok[0] != want:
            raise ParseError(f"expected {want!r}, got {tok[0]!r}", *tok[1:])
        return tok

    def integer():
        tok = take()
        try:
            return int(tok[0])
        except ValueError:
            raise ParseError(f"expected an integer, got {tok[0]!r}", *tok[1:]) from None

    def quoted(what):
        tok = take()
        if not (tok[0].startswith('"') and tok[0].endswith('"')):
            raise ParseError(f"expected a quoted {what}, got {tok[0]!r}", *tok[1:])
        return tok[0][1:-1], tok[1:]

    def expr():
        nonlocal q
        take("(")
        head = take()
        if head[0] == "var":
            var = integer()
            if var < 1:
                raise ParseError(f"variable index must be >= 1, got {var}", *head[1:])
            take(")")
            leaves.append(var)
            return Leaf(var)
        if head[0] != "op":
            raise ParseError(f"expected 'var' or 'op', got {head[0]!r}", *head[1:])
        body, at = quoted("operation table")
        entries = body.split()
        order = math.isqrt(len(entries))
        if order * order != len(entries) or order < 1:
            raise ParseError(f"operation table needs q*q entries, got {len(entries)}", *at)
        try:
            op = BinaryOp.from_flat(order, [int(e) for e in entries])
        except ValueError:
            raise ParseError("operation table entries must be integers", *at) from None
        except StructuralError as e:
            raise ParseError(str(e), *at) from None
        if q is None:
            q = order
        elif order != q:
            raise ParseError(f"operation table has order {order}, the first one has order {q}", *at)
        node = Node(op, expr(), expr())
        take(")")
        return node

    root = expr()
    leaves.sort()
    n = len(leaves)
    if leaves != list(range(1, n + 1)):
        raise ParseError(f"leaf labels {leaves} are not 1..{n}", *tokens[0][1:])
    if q is None:
        raise ParseError("a composition needs at least one operation node", 1, 1)

    # the two transform clauses, each at most once and in either order
    clauses = {}
    while pos < len(tokens):
        take("(")
        head = take()
        kind = head[0]
        if kind not in ("parastrophe", "isotopy"):
            raise ParseError(f"expected 'parastrophe' or 'isotopy' clause, got {kind!r}", *head[1:])
        if kind in clauses:
            raise ParseError(f"duplicate {kind} clause", *head[1:])
        items = []
        while pos < len(tokens) and tokens[pos][0] != ")":
            if kind == "parastrophe":
                items.append(integer())
                continue
            s, at = quoted("permutation")
            try:
                perm = tuple(int(p) for p in s.split(","))
            except ValueError:
                raise ParseError(f"bad permutation {s!r}", *at) from None
            if sorted(perm) != list(range(q)):
                raise ParseError(f"{s!r} is not a permutation of 0..{q - 1}", *at)
            items.append(perm)
        take(")")
        if kind == "parastrophe" and sorted(items) != list(range(n + 1)):
            raise ParseError(f"parastrophe must be a permutation of 0..{n}", *head[1:])
        if kind == "isotopy" and len(items) != n + 1:
            raise ParseError(f"isotopy needs {n + 1} permutations", *head[1:])
        clauses[kind] = tuple(items)
    transform = TransformSpec(clauses.get("isotopy"), clauses.get("parastrophe")) if clauses else None
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
