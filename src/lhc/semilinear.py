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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

from .core import EnvelopeError, LatinHypercube, ParseError, UnsupportedOrderError, _tokens, cell_sums, check_scale

# ---------------------------------------------------------------------------
# Boolean orientation functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BooleanFn:
    """A function {0,1}^n -> {0,1}; bit i is the value at the point whose
    coordinates spell i in binary, z1 most significant."""

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
    n, bits = lam.n, lam.bits
    check_scale(n, 4)
    # x_i adds its pair bit l(x_i) at bit n-i of the block index and its
    # low bit to a count kept above bit n; the XOR of the x_i is the
    # parity of that count plus twice the parity of the block
    block = (1 << n) - 1
    table = [((s >> n) & 1 | ((s & block).bit_count() & 1) << 1) ^ bits[s & block]
             for s in range((n + 1) << n)]
    weights = [[(x >> 1) << (n - i) | (x & 1) << n for x in range(4)] for i in range(1, n + 1)]
    return LatinHypercube(n, 4, bytes(map(table.__getitem__, cell_sums(weights))))


def detect_semilinear(cube: LatinHypercube) -> BooleanFn | None:
    """Recover the orientation function, or None if the cube is not exactly
    of the gen_semilinear form.

    The only candidate is read at the 2^n cells x = 2h, where x1 ^ .. ^ xn
    is twice the parity of h; the cube is semilinear exactly when the cube
    built from it is the same table.
    """
    if cube.q != 4:
        raise UnsupportedOrderError(f"semilinearity is an order-4 notion, got q={cube.q}")
    n, values = cube.n, cube.values
    corners = cell_sums([(0, 2 * 4 ** (n - i)) for i in range(1, n + 1)])
    bits = tuple(values[idx] ^ (h.bit_count() & 1) << 1 for h, idx in enumerate(corners))
    if max(bits) > 1:
        return None
    lam = BooleanFn(n, bits)
    return lam if gen_semilinear(lam).values == values else None


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


@dataclass(frozen=True)
class Quadruple:
    """A multiset of four equal-length Boolean vectors, stored sorted."""

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


@lru_cache(maxsize=None)
def _even_vectors(m: int) -> tuple[int, ...]:
    return tuple(v for v in range(1 << m) if v.bit_count() % 2 == 0)


# The arity envelope of everything brindled: a table (enumerate_brindled,
# the flat zero-sum pass) holds brindled_count_closed(n) quadruples, about
# 6^n/32, 1.9M at arity 10 and 11.3M at arity 11; the zero-sum count refuses
# the same arities, whichever route it takes.
MAX_BRINDLED = 1 << 21


def _check_brindled(n: int) -> int:
    """brindled_count_closed(n), or EnvelopeError above MAX_BRINDLED."""
    count = brindled_count_closed(n)
    if count > MAX_BRINDLED:
        raise EnvelopeError(
            f"arity {n} has {count} brindled quadruples, above the supported {MAX_BRINDLED}"
        )
    return count


def _brindled_rows(n: int, top: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield all brindled quadruples of (n+1)-bit vectors as sorted int
    4-tuples, in lexicographic order, with the top bit of z3 and z4 set to
    `top`; the caller checks the arity against MAX_BRINDLED.

    Position 0 (the top bit) holds two zeros and two ones, so z1 < z2 are
    the even vectors with top bit 0 and z3, z4 have it set.  Where z1 and
    z2 agree, z3 and z4 take the complement; on d = z1 ^ z2 they split, so
    z3 = ~(z1 | z2) | w and z4 = z3 ^ d for a submask w of d without d's
    highest bit (that keeps z3 < z4) and of the parity that makes z3 even.
    Taking w in increasing order lists z3 in increasing order.  Each pair
    z1 < z2 is expanded as it is reached, so no table is built.
    """
    low = (1 << n) - 1
    ints = list(range(1 << (n + 1)))  # shared int objects for the tuples
    halves = _even_vectors(n)
    for i, z1 in enumerate(halves):
        for z2 in halves[i + 1 :]:
            d = z1 ^ z2
            base = low ^ (z1 | z2)
            parity = (base.bit_count() + 1) & 1
            rest = d ^ (1 << (d.bit_length() - 1))
            base |= top
            w = 0
            while True:
                if w.bit_count() & 1 == parity:
                    yield (z1, z2, ints[base | w], ints[base | w ^ d])
                if w == rest:
                    break
                w = (w - rest) & rest  # next submask of rest, in increasing order


def enumerate_brindled(n: int):
    """Iterator over each unordered brindled quadruple of (n+1)-vectors
    once, vectors sorted, quadruples in lexicographic order.  Raises
    EnvelopeError at once above MAX_BRINDLED quadruples."""
    _check_brindled(n)
    m = n + 1
    return (Quadruple(tuple(_int_to_vec(v, m) for v in quad)) for quad in _brindled_rows(n, 1 << n))


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


@dataclass(frozen=True)
class QuadrupleCensus:
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

@lru_cache(maxsize=None)
def _brindled_bar_indices(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """For every brindled quadruple, the four lam-domain indices obtained by
    dropping position 0 of each vector."""
    _check_brindled(n)
    return tuple(_brindled_rows(n, 0))


def _zero_sum_brindled(lam: BooleanFn) -> int:
    """The number of brindled quadruples on whose four indices lam sums to 0.

    A flat pass over the cached table where the table is no longer than the
    3^n faces the table-free count reads (arity <= 5, every claim call),
    the table-free count above that.
    """
    n = lam.n
    if _check_brindled(n) > 3**n:
        return _zero_sum_brindled_faces(lam)
    bits = lam.bits
    quads = _brindled_bar_indices(n)
    return sum(1 for i1, i2, i3, i4 in quads if not bits[i1] ^ bits[i2] ^ bits[i3] ^ bits[i4])


def _zero_sum_brindled_faces(lam: BooleanFn) -> int:
    """_zero_sum_brindled without the table, in O(2^n) ints of 2^n bits.

    Dropping position 0 maps the even (n+1)-vectors one to one onto the
    n-bit bar vectors y, so a brindled quadruple is four distinct y whose
    columns each hold two ones and of which exactly two are odd.  Its 24
    orders are the tuples with e = y1^y2 = y3^y4 != 0 and y3 the complement
    of y1 off e, once the twins {y, ~y, y, ~y} (e full, odd n only, 2^(n+1)
    tuples) are set aside.  With g = (-1)^lam, the sum of g(y1)g(y2)g(y3)g(y4)
    over the brindled quadruples is 2Z - brindled_count_closed(n).  Write
    y1 = c|a and y3 = (~e^c)|b with c inside ~e and a, b inside e; the sum
    over a of parity p of g(y1)g(y1^e) is the face value
    F(c) = |M_p| - 2*popcount((diff >> c) & M_p), diff the bits of
    lam(y) ^ lam(y^e) and M_p the submasks of e of parity p.  Every (p, p') pairs up when |e|
    is odd; when |e| is even the parity rule keeps p + p' = n + 1 (mod 2).
    That reads 3^n faces.
    """
    n = lam.n
    size = 1 << n
    full = size - 1
    ones = (1 << size) - 1
    lam_int = int(lam.to_string()[::-1], 2)  # bit y is lam at y
    # blocks[j]: the y with bit j clear, for swapping y and y ^ (1 << j)
    blocks = [ones // ((1 << 2 * b) - 1) * ((1 << b) - 1) for b in (1 << j for j in range(n))]
    masks = [(1, 0)]  # per e, the submasks of e of even and of odd weight, as sets of y
    for e in range(1, size):
        low = e & -e
        even, odd = masks[e ^ low]
        masks.append((even | odd << low, odd | even << low))
    total = 0
    swapped = lam_int  # lam(y ^ e), e running through the Gray code
    for k in range(1, size):
        e = k ^ (k >> 1)
        j = (k & -k).bit_length() - 1  # the bit that e flips
        b, block = 1 << j, blocks[j]
        swapped = (swapped & block) << b | (swapped >> b) & block
        diff = lam_int ^ swapped
        even, odd = masks[e]
        subs = [0]  # submasks of ~e in increasing order: subs[-1-i] = ~e ^ subs[i]
        rest = full ^ e
        while rest:
            low = rest & -rest
            subs += [c | low for c in subs]
            rest ^= low
        weight = e.bit_count()
        half = 1 << (weight - 1)  # |M_0| = |M_1|
        if weight & 1:
            both = even | odd
            f = [2 * half - 2 * (diff >> c & both).bit_count() for c in subs]
            total += sum(map(int.__mul__, f, reversed(f)))
            continue
        f0 = [half - 2 * (diff >> c & even).bit_count() for c in subs]
        f1 = [half - 2 * (diff >> c & odd).bit_count() for c in subs]
        if n & 1:
            total += sum(map(int.__mul__, f0, reversed(f0))) + sum(map(int.__mul__, f1, reversed(f1)))
        else:
            total += 2 * sum(map(int.__mul__, f0, reversed(f1)))
    if n & 1:
        total -= 2 << n
    return (brindled_count_closed(n) + total // 24) // 2


def count_transversals_formula(lam: BooleanFn) -> int:
    """Exact transversal count of gen_semilinear(lam).

    Twin quadruples contribute 8^(n-1) in total (odd n only).  A brindled
    quadruple contributes 2*4^(n-1) when its four lam values XOR to zero,
    and nothing otherwise.
    """
    n = lam.n
    if n < 2:
        raise ValueError(f"formula counting needs arity >= 2, got {n}")
    return _formula_count(n, _zero_sum_brindled(lam))


def _formula_count(n: int, zero_sum: int) -> int:
    """count_transversals_formula from the number of zero-sum brindled
    quadruples, for callers that hold it already (DeltaReport does)."""
    twin = 8 ** (n - 1) if n % 2 else 0
    return twin + 2 * 4 ** (n - 1) * zero_sum


def zero_transversal_criterion(lam: BooleanFn) -> bool:
    """Even arity only: true iff every brindled quadruple has lam-sum 1,
    which is exactly when gen_semilinear(lam) has no transversals.

    Odd arity is rejected: twin quadruples alone already force 8^(n-1)
    transversals there.
    """
    if lam.n % 2:
        raise ValueError("criterion applies to even arity only")
    return _formula_count(lam.n, _zero_sum_brindled(lam)) == 0


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


@dataclass(frozen=True)
class DeltaReport:
    delta_class: DeltaClass
    zero_sum_brindled_count: int
    plane_parity: PlaneParity


@lru_cache(maxsize=None)
def _two_planes(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Index quadruples of all C(n,2)*2^(n-2) two-dimensional planes."""
    planes = []
    positions = range(n)
    for p1 in positions:
        for p2 in range(p1 + 1, n):
            b1 = 1 << (n - 1 - p1)
            b2 = 1 << (n - 1 - p2)
            for base in range(1 << n):
                if base & (b1 | b2):
                    continue
                planes.append((base, base | b1, base | b2, base | b1 | b2))
    return tuple(planes)


def delta_report(lam: BooleanFn) -> DeltaReport:
    """Classify lam by its behaviour on brindled quadruples and on
    2-dimensional planes of its domain.

    Both views are computed directly; for even arity they are linked
    (constant sum 1 on quadruples matches all-odd planes, constant 0
    matches all-even), which the test suite checks from both sides.
    """
    n = lam.n
    bits = lam.bits
    zero_sum = _zero_sum_brindled(lam)
    total = brindled_count_closed(n)
    if zero_sum == total:
        delta = DeltaClass.CONSTANT0
    elif zero_sum == 0 and total > 0:
        delta = DeltaClass.CONSTANT1
    else:
        delta = DeltaClass.NOT_CONSTANT

    planes = _two_planes(n)
    odd = sum(1 for i1, i2, i3, i4 in planes if bits[i1] ^ bits[i2] ^ bits[i3] ^ bits[i4])
    even = len(planes) - odd
    if odd and even:
        parity = PlaneParity.MIXED
    elif odd:
        parity = PlaneParity.ALL_ODD
    else:
        parity = PlaneParity.ALL_EVEN
    return DeltaReport(delta, zero_sum, parity)
