"""Core representation of latin hypercubes.

An n-dimensional latin hypercube of order q is an array over the symbols
0..q-1 in which every axis-parallel line contains q distinct symbols.  It is
the Cayley table of an n-ary quasigroup f, and the graph cell
(x0, x1, ..., xn) records x0 = f(x1, ..., xn).

Cells are indexed big-endian in x1: the table cell (x1, ..., xn) lives at
flat index sum(x_i * q**(n-i)), so x1 selects the outermost layer.  Symbols
are always the integers 0..q-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, cycle, repeat
from operator import add
from typing import Iterator

Cell = tuple[int, ...]

# Desk-scale bounds for the representation itself.
MAX_ORDER = 8
MAX_CELLS = 1 << 24
# The tighter bound of the exact search, whose preparation holds one mask
# per cell, and of find_factorization; engine and algebra both read it.
ENVELOPE_MAX_CELLS = 1 << 20


class LhcError(Exception):
    """Base class for errors raised by this package."""


class StructuralError(LhcError):
    """The payload is not a hypercube at all: wrong size or symbol range."""


class UnsupportedOrderError(LhcError):
    """Operation is defined only for order 4."""


class EnvelopeError(LhcError):
    """Requested computation exceeds the supported search envelope."""


class ParseError(LhcError):
    """Text input is malformed; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Indexing
# ---------------------------------------------------------------------------

def index_of(coords: Cell, n: int, q: int) -> int:
    """Flat index of the table cell (x1..xn), x1 most significant."""
    if len(coords) != n:
        raise ValueError(f"expected {n} coordinates, got {len(coords)}")
    idx = 0
    for x in coords:
        if not 0 <= x < q:
            raise ValueError(f"coordinate {x} out of range for order {q}")
        idx = idx * q + x
    return idx


def coords_of(index: int, n: int, q: int) -> Cell:
    """Inverse of index_of."""
    if not 0 <= index < q**n:
        raise ValueError(f"index {index} out of range for q**n = {q**n}")
    out = [0] * n
    for i in range(n - 1, -1, -1):
        index, out[i] = divmod(index, q)
    return tuple(out)


def cell_sums(weights) -> Iterator[int]:
    """For every cell of a table over the axes of `weights`, in index order,
    the sum of weights[i][x_i] over the axes i.

    The sums over the first and over the second half of the axes are listed
    apart and added as the cells stream past, so at most O(q^(n/2)) ints
    are held however large the table is.
    """
    half = len(weights) // 2
    high, low = _axis_sums(weights[:half]), _axis_sums(weights[half:])
    return map(add, chain.from_iterable(map(repeat, high, repeat(len(low)))), cycle(low))


def _axis_sums(weights) -> list[int]:
    sums = [0]
    for w in weights:
        sums = [s + x for s in sums for x in w]
    return sums


# ---------------------------------------------------------------------------
# The hypercube value type
# ---------------------------------------------------------------------------

def check_scale(n: int, q: int) -> int:
    """The cell count q**n, or StructuralError when the order is not in
    1..MAX_ORDER or the count exceeds MAX_CELLS.  Table builders call it
    before they allocate."""
    if not 1 <= q <= MAX_ORDER:
        raise StructuralError(f"order must be in 1..{MAX_ORDER}, got {q}")
    if q >= 2 and n >= MAX_CELLS.bit_length():
        raise StructuralError(f"q**n = {q}**{n} exceeds the supported scale {MAX_CELLS}")
    size = q**n
    if size > MAX_CELLS:
        raise StructuralError(f"q**n = {size} exceeds the supported scale {MAX_CELLS}")
    return size


@dataclass(frozen=True)
class LatinHypercube:
    """Immutable n-dimensional table of order q.

    Construction checks structure only (size and symbol range); latin-ness
    is a separate question answered by validate_latin.
    """

    n: int
    q: int
    values: bytes

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError(f"arity must be >= 1, got {self.n}")
        size = check_scale(self.n, self.q)
        if len(self.values) != size:
            raise StructuralError(f"expected {size} symbols, got {len(self.values)}")
        if size and max(self.values) >= self.q:
            raise StructuralError(f"symbol {max(self.values)} out of range for order {self.q}")

    @property
    def size(self) -> int:
        return self.q**self.n

    def __getitem__(self, coords: Cell) -> int:
        return self.values[index_of(coords, self.n, self.q)]


@dataclass(frozen=True)
class LineRef:
    """One axis-parallel line: the varying axis (1-based) plus the fixed values."""

    axis: int
    fixed: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[LineRef, ...]


def validate_latin(cube: LatinHypercube) -> ValidationReport:
    """Check that every line of every axis carries q distinct symbols.

    Returns a report listing each violating line, axis by axis and in index
    order; structural problems are impossible here because LatinHypercube
    construction already rejects them.

    Each cell becomes a one-hot byte lane of one big int.  Along an axis of
    stride s, OR-ing the copies shifted by 0, s, .., (q-1)s cells leaves in
    the lane of a line's first cell the set of symbols on that line; a line
    is latin exactly when that lane holds all q bits.
    """
    n, q, values = cube.n, cube.q, cube.values
    size = len(values)
    lanes = int.from_bytes(values.translate(_ONE_HOT), "little")
    all_ones = bytes([(1 << q) - 1])
    violations = []
    for axis in range(1, n + 1):
        stride = q ** (n - axis)
        seen = lanes
        for v in range(1, q):
            seen |= lanes >> (8 * v * stride)
        # all-ones in the lane of every line's first cell, zero elsewhere
        block = all_ones * stride + bytes(stride * (q - 1))
        firsts = int.from_bytes(block * (size // len(block)), "little")
        missing = (seen & firsts) ^ firsts
        if missing:
            for hit in _NONZERO_LANE.finditer(missing.to_bytes(size, "little")):
                coords = coords_of(hit.start(), n, q)
                violations.append(LineRef(axis, coords[: axis - 1] + coords[axis:]))
    return ValidationReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Text format
#
# Header "LHC <n> <q>", then q**n whitespace-separated symbols in index
# order.  Lines starting with '#' are comments.  LF and CRLF both accepted.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\S+")

# Blank or comment lines, then the header line, ending in LF or CRLF.  The
# character classes keep out every other line break str.splitlines knows,
# so the lines matched here are the lines the token route would see.
_PLAIN_HEADER = re.compile(
    rb"(?:[ \t]*(?:#[^\n\r\x0b\x0c\x1c-\x1e]*)?\r?\n)*"
    rb"[ \t]*LHC[ \t]+([0-9]{1,2})[ \t]+([1-8])[ \t]*\r?\n"
)
_SPACE = b" \t\n\r\x0b\x0c"
_SYMBOLS = b"01234567"
_FROM_DIGIT = bytes.maketrans(_SYMBOLS, bytes(range(8)))
_TO_DIGIT = bytes.maketrans(bytes(range(8)), _SYMBOLS)
# every byte to b" " (whitespace) or b"x" (anything else): a token longer
# than one character shows up as b"xx"
_SHAPE = bytes(32 if b in _SPACE else 120 for b in range(256))
_ONE_HOT = bytes(1 << b if b < 8 else 0 for b in range(256))
_NONZERO_LANE = re.compile(rb"[^\x00]")


def parse_lhc(text: str) -> LatinHypercube:
    """Parse the .lhc text format; raises ParseError with line/column.

    A plain file (ASCII, leading comments only, one single-digit token per
    symbol) is read as whole buffers.  Anything else, including every
    malformed file, takes the token route, which alone computes positions.
    """
    if text.isascii():
        data = text.encode("ascii")
        head = _PLAIN_HEADER.match(data)
        if head:
            n, q = int(head[1]), int(head[2])
            size = q**n
            if n >= 1 and size <= MAX_CELLS:
                body = data[head.end() :]
                digits = body.translate(None, _SPACE)
                if (
                    len(digits) == size
                    and not digits.translate(None, _SYMBOLS[:q])
                    and b"xx" not in body.translate(_SHAPE)
                ):
                    return LatinHypercube(n, q, digits.translate(_FROM_DIGIT))
    return _parse_tokens(text)


def _tokens(text: str, pattern: re.Pattern = _TOKEN) -> list[tuple[str, int, int]]:
    """The matches of `pattern` in `text`, each with its 1-based line and
    column, skipping the lines whose first non-blank character is '#'."""
    return [
        (m.group(), ln, m.start() + 1)
        for ln, raw in enumerate(text.splitlines(), start=1)
        if not raw.lstrip().startswith("#")
        for m in pattern.finditer(raw)
    ]


def _parse_tokens(text: str) -> LatinHypercube:
    """parse_lhc token by token, with the line and column of every token."""
    tokens = _tokens(text)
    if not tokens:
        raise ParseError("empty input, expected 'LHC <n> <q>' header", 1, 1)
    # the header is the first line that holds a token
    header_line = tokens[0][1]
    header = [tok for tok in tokens if tok[1] == header_line]
    body_tokens = tokens[len(header) :]
    if header[0][0] != "LHC":
        raise ParseError(f"expected 'LHC' header, got {header[0][0]!r}", header_line, header[0][2])
    if len(header) != 3:
        raise ParseError("header must be exactly 'LHC <n> <q>'", header_line, header[0][2])
    try:
        n = int(header[1][0])
        q = int(header[2][0])
    except ValueError:
        raise ParseError("header arity/order must be integers", header_line, header[1][2]) from None
    if n < 1 or not 1 <= q <= MAX_ORDER:
        raise ParseError(f"unsupported arity/order n={n} q={q}", header_line, header[1][2])
    # bound the arity before computing q**n: a huge header would otherwise
    # build (and fail to print) a huge power
    if q >= 2 and n > MAX_CELLS.bit_length():
        raise ParseError(f"q**n = {q}**{n} exceeds the supported scale", header_line, header[1][2])
    expected = q**n
    if expected > MAX_CELLS:
        raise ParseError(f"q**n = {expected} exceeds the supported scale", header_line, header[1][2])

    if len(body_tokens) > expected:
        tok, ln, col = body_tokens[expected]
        raise ParseError(f"expected {expected} symbols, found extra token {tok!r}", ln, col)
    if len(body_tokens) < expected:
        raise ParseError(f"expected {expected} symbols, got {len(body_tokens)}", len(text.splitlines()), 1)

    out = bytearray(expected)
    for i, (tok, ln, col) in enumerate(body_tokens):
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"not an integer: {tok!r}", ln, col) from None
        if not 0 <= v < q:
            raise ParseError(f"symbol {v} out of range for order {q}", ln, col)
        out[i] = v
    return LatinHypercube(n, q, bytes(out))


def serialize_lhc(cube: LatinHypercube) -> str:
    """Canonical rendering: header, then rows of q symbols, layers separated
    by blank lines for n >= 3 (x1 selects the layer)."""
    n, q = cube.n, cube.q
    digits = cube.values.translate(_TO_DIGIT)
    layers = q if n >= 3 else 1
    cells = len(digits) // layers
    # one layer: "d d .. d\n" per row, the digits landing on the even bytes
    layer = bytearray(b" " * (2 * cells))
    layer[2 * q - 1 :: 2 * q] = b"\n" * (cells // q)
    out = bytearray(f"LHC {n} {q}\n", "ascii")
    for k in range(layers):
        if k:
            out += b"\n"
        layer[::2] = digits[k * cells : (k + 1) * cells]
        out += layer
    return out.decode("ascii")
