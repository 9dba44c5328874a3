"""Order-4 quasigroups driven by a Boolean orientation function.

A standardly semilinear quasigroup of order 4 is determined by a Boolean
function lam on the n-dimensional Boolean hypercube: its graph consists of
the cells (x0..xn) whose pair indicators l(x_i) have even parity and whose
bitwise XOR equals lam evaluated at the input pair-indicators.  Such a cube
splits into 2^n order-2 blocks, and every transversal selects its cells from
a block quadruple that is either "twin" (two complementary blocks used
twice, odd arity only) or "brindled" (four distinct blocks).  Counting
transversals therefore reduces to combinatorics over these quadruples,
which this module implements alongside an independent census recurrence.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import islice, takewhile
from operator import itemgetter
from typing import Iterator

from .core import (
    MAX_CELLS,
    EnvelopeError,
    LatinHypercube,
    ParseError,
    Record,
    UnsupportedOrderError,
    _tokens,
    cell_sums,
    check_scale,
)

# ---------------------------------------------------------------------------
# Boolean orientation functions
# ---------------------------------------------------------------------------


class BooleanFn(Record):
    """A function {0,1}^n -> {0,1}; bit i is the value at the point whose
    coordinates spell i in binary, z1 most significant."""

    __slots__ = ("n", "bits")
    n: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"arity must be >= 1, got {self.n}")
        if len(self.bits) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_string(cls, s: str) -> "BooleanFn":
        m = len(s)
        n = m.bit_length() - 1
        if m < 2 or (1 << n) != m:
            raise ValueError(f"bit string length {m} is not a power of two >= 2")
        if set(s) - {"0", "1"}:
            raise ValueError("bit string may contain only 0 and 1")
        return cls(n, tuple(int(c) for c in s))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __call__(self, z: tuple[int, ...]) -> int:
        idx = 0
        for b in z:
            idx = (idx << 1) | b
        return self.bits[idx]


def parse_lambda(text: str) -> BooleanFn:
    """Accept a bare bit string or the file form 'LAMBDA <n>' + bits."""
    tokens = _tokens(text)
    if not tokens:
        raise ParseError("empty orientation function", 1, 1)
    if tokens[0][0] == "LAMBDA":
        if len(tokens) != 3:
            raise ParseError("expected 'LAMBDA <n>' then one bit string", tokens[0][1], 1)
        try:
            n = int(tokens[1][0])
        except ValueError:
            raise ParseError("arity must be an integer", tokens[1][1], 1) from None
        bits, ln, _ = tokens[2]
        fn = _checked_lambda(bits, ln)
        if fn.n != n:
            raise ParseError(f"bit string length {len(bits)} does not match arity {n}", ln, 1)
        return fn
    if len(tokens) != 1:
        raise ParseError("expected a single bit string", tokens[1][1], 1)
    return _checked_lambda(tokens[0][0], tokens[0][1])


def _checked_lambda(bits, ln):
    try:
        return BooleanFn.from_string(bits)
    except ValueError as e:
        raise ParseError(str(e), ln, 1) from None


def lambda_z4(n: int) -> BooleanFn:
    """Orientation of the cyclic-group cube: 1 exactly at weights 1, 2 mod 4."""
    return BooleanFn(n, tuple(1 if z.bit_count() % 4 in (1, 2) else 0 for z in range(1 << n)))


def lambda_z22(n: int) -> BooleanFn:
    """Identically zero orientation (the XOR-group cube)."""
    return BooleanFn(n, (0,) * (1 << n))


# ---------------------------------------------------------------------------
# Building and recognizing standardly semilinear cubes
# ---------------------------------------------------------------------------

def gen_semilinear(lam: BooleanFn) -> LatinHypercube:
    """Order-4 cube with f(x) = x1 ^ ... ^ xn ^ lam(l(x1)..l(xn))."""
    check_scale(lam.n, 4)
    return LatinHypercube(lam.n, 4, _semilinear_table(lam.bits, [(0, 1, 2, 3)] * (lam.n + 1)))


def _semilinear_table(bits, labels, values=b"") -> bytes | None:
    """The table that relabelled by `labels`, one symbol -> label map per
    role with the output first, is gen_semilinear of the orientation bits;
    given a cube's `values`, None once a prefix it builds differs from theirs."""
    leaf, x1, x2, x3 = _output_xors(labels[0])
    # tables[p] is the table over the last axes at pair bits p of the axes
    # before them; an axis in front takes each symbol's pair-bit table, label XOR-ed in
    tables = list(map(leaf.__getitem__, bits))
    for lab in reversed(labels[1:]):
        pick = itemgetter(*lab)
        tables = [b"".join(pick([lo, lo.translate(x1), hi.translate(x2), hi.translate(x3)]))
                  for lo, hi in zip(tables[::2], tables[1::2])]
        if values and not values.startswith(tables[0]):
            return None
    return tables[0]


@lru_cache(maxsize=None)
def _output_xors(out):
    """The symbols of output labels 0 and 1, and the tables XOR-ing 1, 2, 3 into an output label."""
    symbol = sorted(range(4), key=out.__getitem__)
    leaf = [bytes([symbol[0]]), bytes([symbol[1]])]
    return leaf, *(bytes(symbol[out[v] ^ c] for v in range(4)) + bytes(252) for c in (1, 2, 3))


def detect_semilinear(cube: LatinHypercube) -> BooleanFn | None:
    """The orientation function of a cube that is gen_semilinear of it, else
    None: _semilinear_isotope finds the cube with every label the identity."""
    if cube.q != 4:
        raise UnsupportedOrderError(f"semilinearity is an order-4 notion, got q={cube.q}")
    found = _semilinear_isotope(cube, standard=True)
    return found[0] if found else None


def _semilinear_isotope(cube: LatinHypercube, standard: bool = False):
    """(lam, labels) when relabelling an order-4 cube by labels, one symbol ->
    label map per role with the output first, gives gen_semilinear(lam), else
    None.  A role's labels put one side of a pairing in the high bit, in symbol
    order within a side: the output pairs f(0) with each other symbol in turn,
    and an input's sides are f's on its axis line through 0, as f's high bit is
    the XOR of the inputs'.  Labellings with the same pairings differ by XORs
    with constants and pair bits, which keep a cube standardly semilinear, so
    the test is exact.  With `standard`, only identity labels are tried: a
    standard cube's first pairing gets them, and no other pairing can."""
    n, values = cube.n, cube.values
    lines = [values[: 4 ** (n - i + 1) : 4 ** (n - i)] for i in range(1, n + 1)]
    for partner in (v for v in range(4) if v != values[0]):
        side = bytes(v not in (values[0], partner) for v in range(4)) + bytes(252)
        labels = [tuple(map(sorted(range(4), key=sd.__getitem__).index, range(4)))
                  for sd in (side[:4], *(line.translate(side) for line in lines))]
        if standard and labels != [(0, 1, 2, 3)] * (n + 1):
            return None
        # lam is read at the cells whose input labels are 2h (symbol 0 is
        # labelled 0), up to the first off the side of h's parity
        corners = cell_sums([(0, lab.index(2) * 4 ** (n - i)) for i, lab in enumerate(labels[1:], 1)])
        read = (labels[0][values[idx]] ^ (h.bit_count() & 1) << 1 for h, idx in enumerate(corners))
        bits = tuple(takewhile((2).__gt__, read))
        if len(bits) == 1 << n and _semilinear_table(bits, labels, values):
            return BooleanFn(n, bits), labels
    return None


# ---------------------------------------------------------------------------
# Quadruples of Boolean vectors
#
# Vectors are (n+1)-tuples of bits, position 0 first (the output role).
# Internally they are packed into ints with position 0 as the top bit, so
# integer order coincides with lexicographic tuple order.
# ---------------------------------------------------------------------------


class QuadrupleClass(Enum):
    NOT_PROPER = "not-proper"
    PROPER_NOT_WORTHWHILE = "proper-not-worthwhile"
    TWIN = "twin"
    BRINDLED = "brindled"


class Quadruple(Record):
    """A multiset of four equal-length Boolean vectors, stored sorted."""

    __slots__ = ("vectors",)
    vectors: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, vectors) -> "Quadruple":
        vecs = tuple(sorted(tuple(v) for v in vectors))
        if len(vecs) != 4:
            raise ValueError(f"a quadruple has 4 vectors, got {len(vecs)}")
        return cls(vecs)


def classify_quadruple(qd: Quadruple) -> QuadrupleClass:
    """Proper: every position covers {0,0,1,1}.  Worthwhile: all weights
    even; then twin when two distinct vectors, brindled when four."""
    vecs = qd.vectors
    m = len(vecs[0])
    if any(len(v) != m for v in vecs):
        raise ValueError("quadruple vectors differ in length")
    for i in range(m):
        if vecs[0][i] + vecs[1][i] + vecs[2][i] + vecs[3][i] != 2:
            return QuadrupleClass.NOT_PROPER
    if any(sum(v) % 2 for v in vecs):
        return QuadrupleClass.PROPER_NOT_WORTHWHILE
    # A proper quadruple has either two distinct vectors (each twice,
    # complementary) or four distinct ones.
    return QuadrupleClass.TWIN if len(set(vecs)) == 2 else QuadrupleClass.BRINDLED


def _int_to_vec(v: int, m: int) -> tuple[int, ...]:
    return tuple((v >> (m - 1 - i)) & 1 for i in range(m))


# The arity bound of enumerate_brindled, which lists brindled_count_closed(n)
# quadruples, about 6^n/32: 1.9M at arity 10 and 11.3M at arity 11.
MAX_BRINDLED = 1 << 21


def _low_submasks(x: int) -> Iterator[int]:
    """The submasks of x > 0 below its highest bit, in increasing order."""
    rest = x ^ (1 << (x.bit_length() - 1))
    w = 0
    while True:
        yield w
        if w == rest:
            return
        w = (w - rest) & rest  # the next submask of rest


def _brindled_rows(n: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield all brindled quadruples of (n+1)-bit vectors as sorted int
    4-tuples, in lexicographic order; enumerate_brindled checks the arity
    against MAX_BRINDLED, and _brindled_directions reads only the rows
    through the zero vector, at every arity.

    Position 0 (the top bit) holds two zeros and two ones, so z1 < z2 are
    the even vectors with top bit 0 and z3, z4 have it set.  Where z1 and
    z2 agree, z3 and z4 take the complement; on d = z1 ^ z2 they split, so
    z3 = ~(z1 | z2) | w and z4 = z3 ^ d for a submask w of d without d's
    highest bit (that keeps z3 < z4) and of the parity that makes z3 even.
    Taking w in increasing order lists z3 in increasing order.  Each pair
    z1 < z2 is expanded as it is reached, so no table is built.
    """
    low = (1 << n) - 1
    halves = [v for v in range(1 << n) if v.bit_count() % 2 == 0]
    for i, z1 in enumerate(halves):
        for z2 in halves[i + 1 :]:
            d = z1 ^ z2
            base = low ^ (z1 | z2)
            parity = (base.bit_count() + 1) & 1
            base |= 1 << n
            for w in _low_submasks(d):
                if w.bit_count() & 1 == parity:
                    yield (z1, z2, base | w, base | w ^ d)


def enumerate_brindled(n: int):
    """Iterator over each unordered brindled quadruple of (n+1)-vectors
    once, vectors sorted, quadruples in lexicographic order.  Raises
    EnvelopeError at once above MAX_BRINDLED quadruples."""
    count = brindled_count_closed(n)
    if count > MAX_BRINDLED:
        raise EnvelopeError(f"arity {n} has {count} brindled quadruples, above the supported {MAX_BRINDLED}")
    m = n + 1
    return (Quadruple(tuple(_int_to_vec(v, m) for v in quad)) for quad in _brindled_rows(n))


def count_twin(n: int) -> int:
    """2^(n-1) for odd n, zero otherwise."""
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    return 1 << (n - 1) if n % 2 else 0


def brindled_count_closed(n: int) -> int:
    """Closed form for the number of brindled quadruples of (n+1)-vectors."""
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if n % 2 == 0:
        return (6**n - 2**n) // 32
    return (6**n - 3 * 2**n) // 32


# ---------------------------------------------------------------------------
# Census by recurrence
#
# Count 4 x (n+1) Boolean matrices whose every column holds two zeros and
# two ones, bucketed by row-sum parities (a00: all even, a01: two even two
# odd, a11: all odd) and, in the b-family, restricted to matrices made of
# two pairs of identical rows.  Brindled quadruples are the all-even
# matrices without repeated rows, divided by the 4! row orders.
# ---------------------------------------------------------------------------


class QuadrupleCensus(Record):
    __slots__ = ("n", "a00", "a01", "a11", "b00", "b01", "b11", "brindled")
    n: int
    a00: int
    a01: int
    a11: int
    b00: int
    b01: int
    b11: int
    brindled: int


def census_recurrence(n: int) -> QuadrupleCensus:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    # a01 extends by one column: 4 ways keep the even/odd split, and a
    # mixed split arises from all-even or all-odd matrices in 6 ways each.
    a01 = [6, 24]
    for k in range(2, n + 1):
        a01.append(4 * a01[k - 1] + 12 * a01[k - 2])
    a00 = a01[n - 1] if n >= 1 else 0
    a11 = a00
    b00 = 3 * 2**n if n % 2 else 0
    b11 = b00
    b01 = 6 * 2**n if n % 2 == 0 else 0
    diff = a00 - b00
    if diff % 24:
        raise AssertionError(f"census inconsistency at n={n}: {a00} - {b00} not divisible by 24")
    return QuadrupleCensus(n, a00, a01[n], a11, b00, b01, b11, diff // 24)


# ---------------------------------------------------------------------------
# Transversal counting through quadruples
# ---------------------------------------------------------------------------

def _shifts(lam: BooleanFn) -> list[int]:
    """lam as 2^n ints of 2^n bits: entry e holds lam(y ^ e) at bit y.

    Round j swaps the blocks of 2^j bits in every entry so far, giving the
    entries with bit j of e set.  The list holds 4^n bits, so it is refused
    above MAX_CELLS, the bound of the cube gen_semilinear builds from lam.
    """
    n = lam.n
    if 4**n > MAX_CELLS:
        raise EnvelopeError(f"arity {n} needs 4**{n} bits of shifted lambda, above the supported {MAX_CELLS}")
    ones = (1 << (1 << n)) - 1
    shifts = [int(lam.to_string()[::-1], 2)]  # bit y is lam at y
    for b in (1 << j for j in range(n)):
        block = ones // ((1 << 2 * b) - 1) * ((1 << b) - 1)  # the y with bit j clear
        shifts += [(s & block) << b | (s >> b) & block for s in shifts]
    return shifts


@lru_cache(maxsize=None)
def _brindled_directions(n: int) -> tuple[tuple[int, int, int], ...]:
    """The direction triples (e, f, e ^ f) of the brindled quadruples.

    Dropping position 0 maps the even (n+1)-vectors one to one onto the
    n-bit y, so a brindled quadruple is a coset y + {0, e, f, e ^ f}: every
    column holds two ones exactly when each bit lies in two of e, f, e ^ f,
    and two of the four y are odd exactly when one direction is.  So the
    cosets through 0, one per triple, are the rows of _brindled_rows with
    z1 = 0, and the triple is the low n bits of z2, z3, z4.  Those rows come
    first, and each triple has 2^(n-2) cosets, so they are the first
    brindled_count_closed(n) / 2^(n-2) rows.
    """
    low = (1 << n) - 1
    rows = islice(_brindled_rows(n), brindled_count_closed(n) * 4 >> n)
    return tuple((z2, z3 & low, z4 & low) for _, z2, z3, z4 in rows)


def _odd_cosets(shifts: list[int], directions) -> int:
    """The number of cosets y + {0, e, f, g} over the given directions on
    which lam sums to 1: the second differences of lam, each coset seen
    at its four y."""
    s = shifts[0]
    return sum((s ^ shifts[e] ^ shifts[f] ^ shifts[g]).bit_count() for e, f, g in directions) >> 2


def _block_test(lam: BooleanFn):
    """The exact triple test of gen_semilinear(lam): an input subset S is a
    block when block(i, j, k) holds for all i < j in S and k outside it,
    that is when lam sums to 0 on every coset y + {0, e, f, e ^ f} with
    e = e_i ^ e_j and f = e_k, variable v at bit 1 << (n - v)."""
    n = lam.n
    shifts = _shifts(lam)
    bit = [1 << (n - v) for v in range(n + 1)]

    def block(i: int, j: int, k: int) -> bool:
        e = bit[i] | bit[j]
        return not _odd_cosets(shifts, [(e, bit[k], e | bit[k])])

    return block


def _zero_sum_brindled(shifts: list[int]) -> int:
    """The number of brindled quadruples on whose four indices lam sums to 0,
    from shifts = _shifts(lam)."""
    n = len(shifts).bit_length() - 1
    return brindled_count_closed(n) - _odd_cosets(shifts, _brindled_directions(n))


def count_transversals_formula(lam: BooleanFn) -> int:
    """Exact transversal count of gen_semilinear(lam).

    Twin quadruples contribute 8^(n-1) in total (odd n only).  A brindled
    quadruple contributes 2*4^(n-1) when its four lam values XOR to zero,
    and nothing otherwise.
    """
    n = lam.n
    if n < 2:
        raise ValueError(f"formula counting needs arity >= 2, got {n}")
    twin = 8 ** (n - 1) if n % 2 else 0
    return twin + 2 * 4 ** (n - 1) * _zero_sum_brindled(_shifts(lam))


def zero_transversal_criterion(lam: BooleanFn) -> bool:
    """Even arity only: true iff every brindled quadruple has lam-sum 1,
    which is exactly when gen_semilinear(lam) has no transversals.

    Odd arity is rejected: twin quadruples alone already force 8^(n-1)
    transversals there.
    """
    if lam.n % 2:
        raise ValueError("criterion applies to even arity only")
    return _zero_sum_brindled(_shifts(lam)) == 0


# ---------------------------------------------------------------------------
# Structure diagnostics for orientation functions
# ---------------------------------------------------------------------------


class DeltaClass(Enum):
    CONSTANT0 = "constant-0"
    CONSTANT1 = "constant-1"
    NOT_CONSTANT = "not-constant"


class PlaneParity(Enum):
    ALL_EVEN = "all-even"
    ALL_ODD = "all-odd"
    MIXED = "mixed"


class DeltaReport(Record):
    __slots__ = ("delta_class", "zero_sum_brindled_count", "plane_parity")
    delta_class: DeltaClass
    zero_sum_brindled_count: int
    plane_parity: PlaneParity


def delta_report(lam: BooleanFn) -> DeltaReport:
    """Classify lam by its behaviour on brindled quadruples and on
    2-dimensional planes of its domain.

    Both views are computed directly; for even arity they are linked
    (constant sum 1 on quadruples matches all-odd planes, constant 0
    matches all-even), which the test suite checks from both sides.
    """
    n = lam.n
    total = brindled_count_closed(n)
    shifts = _shifts(lam)
    zero_sum = _zero_sum_brindled(shifts)
    if zero_sum == total:
        delta = DeltaClass.CONSTANT0
    elif zero_sum == 0 and total > 0:
        delta = DeltaClass.CONSTANT1
    else:
        delta = DeltaClass.NOT_CONSTANT

    # a 2-plane is a coset y + {0, e, f, e ^ f} with e and f single bits
    odd = _odd_cosets(shifts, [(1 << i, 1 << j, 1 << i | 1 << j) for j in range(n) for i in range(j)])
    even = (n * (n - 1) // 2 << n >> 2) - odd
    if odd and even:
        parity = PlaneParity.MIXED
    elif odd:
        parity = PlaneParity.ALL_ODD
    else:
        parity = PlaneParity.ALL_EVEN
    return DeltaReport(delta, zero_sum, parity)
