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
from itertools import chain, cycle, repeat
from operator import add, attrgetter
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
# Value types
# ---------------------------------------------------------------------------


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in __slots__, in constructor order, may give
    defaults for trailing fields in a class-level _defaults dict, and may
    check its values in __post_init__.  An instance compares equal only to
    one of the same class with equal field values, hashes as the tuple of
    those values, prints as Name(field=value, ...), refuses assignment with
    dataclasses.FrozenInstanceError, and pickles and copies through its
    constructor: what @dataclass(frozen=True) would give it, without
    importing dataclasses or compiling methods for every class.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # the field values as a tuple, for one field as well as for several
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))
        # each field's slot setter, which the frozen __setattr__ does not reach
        cls._setters = tuple(getattr(cls, field).__set__ for field in cls.__slots__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._bind(args, kwargs)
        for put, value in zip(self._setters, args):
            put(self, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the field values; a subclass with conditions overrides it."""

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, from the arguments and then _defaults."""
        fields, name = cls.__slots__, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args) :]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument: {field!r}")
        for field in kwargs:
            what = "multiple values for argument" if field in fields else "an unexpected keyword argument"
            raise TypeError(f"{name}() got {what} {field!r}")
        return values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


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


def slabs(values, q: int, stride: int, symbols=None) -> list:
    """Slab x of a table along the axis of `stride`, for each x in `symbols`
    (all q when None), holds in index order the cells whose coordinate on
    that axis is x.  All q, joined in order, move that axis to the front.

    A slab is len(values)/(q*stride) runs of `stride` cells; they are
    joined when they are no more than the cells of one run, else the slab
    is copied as `stride` extended slices.
    """
    step = q * stride
    symbols = range(q) if symbols is None else symbols
    if len(values) <= step * stride:
        return [b"".join([values[o : o + stride] for o in range(x * stride, len(values), step)]) for x in symbols]
    if stride == 1:
        return [values[x::q] for x in symbols]
    parts = [bytearray(len(values) // q) for _ in symbols]
    for x, part in zip(symbols, parts):
        for j in range(stride):
            part[j::stride] = values[x * stride + j :: step]
    return parts


def inverse_slabs(parts, symbols) -> list[bytes]:
    """From the slabs of a table along an axis whose lines are permutations,
    slab y of the table with each of those lines inverted, for each y in
    `symbols`: at every cell, the x whose slab holds y there.  Slab x adds x
    times its indicator of y."""
    out = []
    for y in symbols:
        ones = _ONES[255 - y : 511 - y]
        total = sum(x * int.from_bytes(part.translate(ones), "little") for x, part in enumerate(parts[1:], 1))
        out.append(total.to_bytes(len(parts[0]), "little"))
    return out


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


class LatinHypercube(Record):
    """Immutable n-dimensional table of order q.

    Construction checks structure only (size and symbol range); latin-ness
    is a separate question answered by validate_latin.
    """

    __slots__ = ("n", "q", "values")
    n: int
    q: int
    values: bytes

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError(f"arity must be >= 1, got {self.n}")
        size = check_scale(self.n, self.q)
        if len(self.values) != size:
            raise StructuralError(f"expected {size} symbols, got {len(self.values)}")
        if self.values.translate(None, bytes(range(self.q))):
            raise StructuralError(f"symbol {max(self.values)} out of range for order {self.q}")

    @property
    def size(self) -> int:
        return self.q**self.n

    def __getitem__(self, coords: Cell) -> int:
        return self.values[index_of(coords, self.n, self.q)]


class LineRef(Record):
    """One axis-parallel line: the varying axis (1-based) plus the fixed values."""

    __slots__ = ("axis", "fixed")
    axis: int
    fixed: tuple[int, ...]


class ValidationReport(Record):
    __slots__ = ("ok", "violations")
    ok: bool
    violations: tuple[LineRef, ...]


def validate_latin(cube: LatinHypercube) -> ValidationReport:
    """Check that every line of every axis carries q distinct symbols.

    Returns a report listing each violating line, axis by axis and in index
    order; structural problems are impossible here because LatinHypercube
    construction already rejects them.

    Each cell becomes a one-hot byte.  OR-ing the q slabs along an axis, as
    big ints, leaves in lane j the set of symbols on the j-th line along
    that axis; a line is latin exactly when its lane holds all q bits.
    """
    n, q = cube.n, cube.q
    one_hot = cube.values.translate(_ONE_HOT)
    lines = len(one_hot) // q
    full = int.from_bytes(bytes([(1 << q) - 1]) * lines, "little")
    violations = []
    for axis in range(1, n + 1):
        seen = 0
        for part in slabs(one_hot, q, q ** (n - axis)):
            seen |= int.from_bytes(part, "little")
        if seen != full:
            for hit in _NONZERO_LANE.finditer((seen ^ full).to_bytes(lines, "little")):
                violations.append(LineRef(axis, coords_of(hit.start(), n - 1, q)))
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
# [255 - y : 511 - y] is the translation table of y to 1, every other byte to 0
_ONES = bytes(255) + b"\x01" + bytes(255)
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


def serialize_lhc(cube: LatinHypercube, as_bytes: bool = False) -> str | bytearray:
    """Canonical rendering: header, then rows of q symbols, layers separated
    by blank lines for n >= 3 (x1 selects the layer).  With as_bytes, the
    ASCII bytes of that text, for a caller that writes them out."""
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
    return out if as_bytes else out.decode("ascii")
