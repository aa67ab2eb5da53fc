"""Partially ordered vector space backends with exact order tests.

Four finite-dimensional backends are supported:

* ``Reals`` -- the real line (one coordinate);
* ``CoordRn(n)`` -- R^n with the coordinatewise order;
* ``EntrywiseMat(r, c)`` -- r x c matrices with the entrywise order;
* ``LoewnerSym(d)`` -- symmetric d x d matrices with the Loewner order
  (``a <= b`` iff ``b - a`` is positive semidefinite).

The first three are lattices and have every completeness property a
finite-dimensional coordinatewise space enjoys.  ``LoewnerSym(d)`` for
``d >= 2`` is monotone complete but is *not* a lattice and not
sigma-Dedekind complete; pair suprema generically do not exist there, and
`sup_pair` declines honestly instead of fabricating one.

All coordinates are exact rationals, every order test is exact, and every
value is immutable.  An `Element` stores its coordinates as integer
numerators over one common denominator, in the canonical form ``den > 0``
and ``gcd(den, *nums) == 1`` (as FLINT's ``fmpq_mat`` does), so equal
elements have equal fields and hashes.  Two values are added, subtracted,
compared, met and joined only by the row kernels (`row_add`, `row_sub`,
`row_leq`, `row_eq`, `row_lattice`), on rows ``(nums, den)`` with None for
infinity: `add`, `sub`, `leq`, the lattice pair operations, `extended` and
the integer tables of `measures`, `outer` and `integral` each call one.
``b - a`` is tested by `is_positive_row`, the one definition of the order:
every numerator nonnegative, or in the Loewner order one fraction-free
symmetric elimination in O(d^3) integer operations.  The exhaustive passes
of `outer` and `measures` take their table and kernels from
`table_kernels`, which packs a coordinatewise table of nonnegative
numerators over one denominator into one int per value, so that a sum, an
order test and an equality are each a few integer operations, and interns
a Loewner table whose pass must ask some question twice, so that each
distinct sum and order test is computed once; any other table keeps its
rows and the row kernels.

Values are validated where they enter.  ``Element(space, coords)`` (and
`element`, `sym_matrix` and the scenario parser, which call it) checks the
coordinate count, that every coordinate is a Fraction, and the Loewner
symmetry.  Results of the arithmetic and lattice operations (and
`Measure.evaluate`'s sums of atom rows) are built by `_element`, the one
trusted constructor, which does the one gcd, because those operations
preserve the count and the symmetry.  ``coords`` derives the Fraction
tuple for the encoders.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence, Union

from .errors import (MAX_COORDINATES, MAX_LOEWNER_DIM, Frozen, SpaceMismatchError,
                     check_cap)


class SpaceKind(Enum):
    REALS = "reals"
    COORD = "coord"
    ENTRYWISE_MAT = "entrywise_mat"
    LOEWNER_SYM = "loewner_sym"


class SpaceDescriptor(Frozen):
    """Identifies a backend together with its completeness capabilities."""

    __slots__ = ("kind", "dim", "rows", "cols")

    def __init__(self, kind: SpaceKind, dim: int = 1, rows: int = 1, cols: int = 1):
        if kind in (SpaceKind.COORD, SpaceKind.LOEWNER_SYM) and dim < 1:
            raise ValueError("dimension must be positive")
        if kind is SpaceKind.ENTRYWISE_MAT and (rows < 1 or cols < 1):
            raise ValueError("matrix shape must be positive")
        if kind is SpaceKind.LOEWNER_SYM:
            check_cap("Loewner backend dim", dim, MAX_LOEWNER_DIM)
        self._set(kind, dim, rows, cols)
        check_cap("backend coordinates", self.ncoords, MAX_COORDINATES)

    @property
    def ncoords(self) -> int:
        if self.kind is SpaceKind.REALS:
            return 1
        if self.kind is SpaceKind.COORD:
            return self.dim
        if self.kind is SpaceKind.ENTRYWISE_MAT:
            return self.rows * self.cols
        return self.dim * self.dim

    @property
    def is_lattice(self) -> bool:
        # Incomparable symmetric matrices have no least upper bound in
        # the Loewner order once dim >= 2.
        return not (self.kind is SpaceKind.LOEWNER_SYM and self.dim >= 2)

    @property
    def is_sigma_dedekind_complete(self) -> bool:
        return self.is_lattice

    def describe(self) -> str:
        if self.kind is SpaceKind.REALS:
            return "Reals"
        if self.kind is SpaceKind.COORD:
            return f"CoordRn({self.dim})"
        if self.kind is SpaceKind.ENTRYWISE_MAT:
            return f"EntrywiseMat({self.rows},{self.cols})"
        return f"LoewnerSym({self.dim})"


def reals() -> SpaceDescriptor:
    return SpaceDescriptor(SpaceKind.REALS)


def coord(dim: int) -> SpaceDescriptor:
    return SpaceDescriptor(SpaceKind.COORD, dim=dim)


def entrywise_mat(rows: int, cols: int) -> SpaceDescriptor:
    return SpaceDescriptor(SpaceKind.ENTRYWISE_MAT, rows=rows, cols=cols)


def loewner_sym(dim: int) -> SpaceDescriptor:
    return SpaceDescriptor(SpaceKind.LOEWNER_SYM, dim=dim)


class Element(Frozen):
    """A point of a backend: integer numerators over one denominator.

    ``Element(space, coords)`` takes Fractions, row-major for matrix kinds,
    and validates them; ``nums`` and ``den`` hold the canonical form
    (``den > 0``, ``gcd(den, *nums) == 1``).
    """

    __slots__ = ("space", "nums", "den")

    def __init__(self, space: SpaceDescriptor, coords: tuple):
        if len(coords) != space.ncoords:
            raise ValueError(
                f"{space.describe()} needs {space.ncoords} coordinates, "
                f"got {len(coords)}"
            )
        if not all(isinstance(c, Fraction) for c in coords):
            raise TypeError("coordinates must be Fractions")
        if space.kind is SpaceKind.LOEWNER_SYM:
            d = space.dim
            for i in range(d):
                for j in range(i + 1, d):
                    if coords[i * d + j] != coords[j * d + i]:
                        raise ValueError(f"matrix not symmetric at ({i},{j})")
        # Over the lcm of reduced denominators the form is already canonical.
        den = math.lcm(*(c.denominator for c in coords))
        self._set(space, tuple(c.numerator * (den // c.denominator) for c in coords), den)

    @property
    def coords(self) -> tuple:
        """The coordinates as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def entry(self, i: int, j: int) -> Fraction:
        if self.space.kind is SpaceKind.ENTRYWISE_MAT:
            return Fraction(self.nums[i * self.space.cols + j], self.den)
        if self.space.kind is SpaceKind.LOEWNER_SYM:
            return Fraction(self.nums[i * self.space.dim + j], self.den)
        raise TypeError(f"{self.space.describe()} has no matrix entries")

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.den == other.den and self.nums == other.nums
                and self.space == other.space)

    def __hash__(self):
        return hash((self.space, self.nums, self.den))

    def __repr__(self):
        body = ",".join(str(c) for c in self.coords)
        return f"<{self.space.describe()} {body}>"


def canonical(nums: tuple, den: int) -> tuple:
    """nums over den in canonical form, ``gcd(den, *nums) == 1``, by one gcd."""
    g = math.gcd(den, *nums)
    return (nums, den) if g == 1 else (tuple(n // g for n in nums), den // g)


def _element(space: SpaceDescriptor, nums: tuple, den: int) -> Element:
    """The trusted constructor: `nums` over `den > 0`, reduced by their gcd.

    Only for results of operations that keep the coordinate count and the
    Loewner symmetry of valid elements; nothing else is checked.
    """
    nums, den = canonical(nums, den)
    el = object.__new__(Element)
    object.__setattr__(el, "space", space)
    object.__setattr__(el, "nums", nums)
    object.__setattr__(el, "den", den)
    return el


def element(space: SpaceDescriptor, values: Iterable) -> Element:
    return Element(space, tuple(Fraction(v) for v in values))


def sym_matrix(rows: Sequence[Sequence]) -> Element:
    """Build a LoewnerSym element from nested rows."""
    d = len(rows)
    flat = [Fraction(v) for row in rows for v in row]
    return Element(loewner_sym(d), tuple(flat))


def zero(space: SpaceDescriptor) -> Element:
    return _element(space, (0,) * space.ncoords, 1)


def order_unit(space: SpaceDescriptor) -> Element:
    """The all-ones vector, or the identity matrix in the Loewner order."""
    if space.kind is SpaceKind.LOEWNER_SYM:
        d = space.dim
        return _element(space, tuple(int(i == j) for i in range(d) for j in range(d)), 1)
    return _element(space, (1,) * space.ncoords, 1)


def basis_vector(space: SpaceDescriptor, index: int) -> Element:
    nums = [0] * space.ncoords
    nums[index] = 1
    return _element(space, tuple(nums), 1)


def require_same_space(a, b):
    """Reject two values (elements or extended elements) of different spaces."""
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError(
            f"cannot combine {a.space.describe()} with {b.space.describe()}"
        )


def add(a: Element, b: Element) -> Element:
    require_same_space(a, b)
    return _element(a.space, *row_add((a.nums, a.den), (b.nums, b.den)))


def sub(a: Element, b: Element) -> Element:
    require_same_space(a, b)
    return _element(a.space, *row_sub((a.nums, a.den), (b.nums, b.den)))


def neg(a: Element) -> Element:
    return _element(a.space, tuple(-x for x in a.nums), a.den)


def scale(r, a: Element) -> Element:
    """r * a, for an int or Fraction r (or anything Fraction takes)."""
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    return _element(a.space, tuple(r.numerator * x for x in a.nums), r.denominator * a.den)


def is_positive_row(space: SpaceDescriptor, nums) -> bool:
    """Whether the integer numerators `nums`, over any positive denominator,
    are a positive element of `space`.  This is the one definition of the
    order: a <= b iff the numerators of b - a pass it (`row_leq`).

    Coordinatewise backends need every numerator nonnegative.  In the
    Loewner order the matrix must be positive semidefinite, which scaling
    by the positive denominator keeps.  That is decided by one symmetric
    elimination, O(d^3) integer operations.  Pivots are eliminated in
    order, fraction-free in the style of Bareiss: with pivot p > 0 each
    later entry becomes ``(p * a_ij - a_ik * a_kj) / q``, where q is the
    previous positive pivot (1 at first) and the division is exact.  That
    is the Schur complement scaled by a positive number, so it is positive
    semidefinite iff the matrix is.  A negative pivot, or a zero pivot with
    a nonzero entry left in its row, means a principal minor is negative;
    a zero pivot whose row is zero is skipped.
    """
    if space.kind is not SpaceKind.LOEWNER_SYM:
        return min(nums) >= 0
    d = space.dim
    m = [list(nums[i * d:(i + 1) * d]) for i in range(d)]
    # Only entries on and above the diagonal are read or updated.
    previous = 1
    for k in range(d):
        row = m[k]
        p = row[k]
        if p < 0:
            return False
        if p == 0:
            if any(row[k + 1:]):
                return False
            continue
        for i in range(k + 1, d):
            target, factor = m[i], row[i]
            for j in range(i, d):
                target[j] = (p * target[j] - factor * row[j]) // previous
        previous = p
    return True


def row_add(a, b):
    """The sum of two rows; infinity (None) absorbs."""
    if a is None or b is None:
        return None
    (x, dx), (y, dy) = a, b
    if dx == dy:
        return tuple(map(operator.add, x, y)), dx
    return tuple([p * dy + q * dx for p, q in zip(x, y)]), dx * dy


def row_sub(a, b):
    """a - b for a finite row b; infinity (None) minus it stays infinity."""
    if a is None:
        return None
    (x, dx), (y, dy) = a, b
    if dx == dy:
        return tuple(map(operator.sub, x, y)), dx
    return tuple([p * dy - q * dx for p, q in zip(x, y)]), dx * dy


def row_leq(space: SpaceDescriptor, a, b) -> bool:
    """a <= b for two rows (None is infinity): one positivity test of b - a."""
    if b is None:
        return True
    if a is None:
        return False
    (x, dx), (y, dy) = a, b
    if dx == dy:
        return is_positive_row(space, list(map(operator.sub, y, x)))
    return is_positive_row(space, [q * dx - p * dy for p, q in zip(x, y)])


def row_eq(a, b) -> bool:
    """Whether two rows (None is infinity) are the same value."""
    if a is None or b is None:
        return a is b
    if a[1] == b[1]:
        return a[0] == b[0]
    return not any(row_sub(a, b)[0])


def table_kernels(space: SpaceDescriptor, rows: list, visits: int) -> tuple:
    """``(values, add, leq, eq)`` for one exhaustive pass over the table
    `rows` (None is infinity) that makes `visits` pair visits: the values in
    the form the kernels take, and the sum, order test and equality of two
    of them.

    A Loewner table is interned (`_interned`) when its D distinct finite
    values make fewer unordered pairs, D(D + 1)/2, than the pass makes
    visits, so that some question must repeat.  Otherwise it keeps its rows.

    The table is packed when the order is coordinatewise, every finite row
    has the same denominator and no numerator is negative.  Each row then
    becomes one nonnegative int that holds its numerators in fields of W
    bits, W a multiple of 8 with 2 * top < 2^(W - 1) for the largest
    numerator top: broadword arithmetic (L. Lamport, CACM 18(8), 1975;
    D. E. Knuth, TAOCP 4A, 7.1.3).  A sum of two values has at most
    2 * top in a field, so `add` is one integer add with no carry between
    fields, `eq` is integer equality, and ``leq(x, y)`` is one test of
    y + G - x against G, the top bit of every field: each field of
    y + G - x stays in [1, 2^W), and keeps its top bit exactly when that
    field of y - x is nonnegative.  A pass may compare values and sums of
    two values, nothing larger.  None absorbs in `add` and is the largest
    value in `leq`.  A table neither interned nor packed keeps its rows,
    with `row_add`, `row_leq` on `space` and `row_eq`, which stay the oracle.
    """
    if space.kind is SpaceKind.LOEWNER_SYM:
        return _interned(space, rows, visits)
    finite = [row for row in rows if row is not None]
    if len({den for _, den in finite}) > 1 or any(min(nums) < 0 for nums, _ in finite):
        return rows, row_add, partial(row_leq, space), row_eq
    top = max((max(nums) for nums, _ in finite), default=0)
    size = -(-((2 * top).bit_length() + 1) // 8)  # bytes per field
    guard = int.from_bytes((1 << (8 * size - 1)).to_bytes(size, "little") * space.ncoords,
                           "little")

    def pack(row):
        if row is None:
            return None
        return int.from_bytes(b"".join([n.to_bytes(size, "little") for n in row[0]]),
                              "little")

    def add(x, y):
        return None if x is None or y is None else x + y

    def leq(x, y):
        return y is None or x is not None and (y + guard - x) & guard == guard

    return list(map(pack, rows)), add, leq, operator.eq


def _interned(space: SpaceDescriptor, rows: list, visits: int) -> tuple:
    """The kernels of `table_kernels` on a Loewner table, by hash-consing
    (E. Goto, 1974) and memo functions (D. Michie, Nature 218, 1968).

    Each finite row becomes the index of its canonical form, so that `eq`
    is index equality.  `add` interns the sum of each unordered pair of
    indices once, and `leq` decides each ordered pair once: x <= x holds,
    and any other pair is one `row_leq`.  The order is not symmetric, so
    (x, y) and (y, x) are two questions.  When the D distinct values make
    no fewer unordered pairs than the pass makes `visits`, no question need
    repeat, and the rows and row kernels are returned instead.
    """
    index, table = {}, []

    def intern(row):
        if row is None:
            return None
        row = canonical(*row)
        i = index.get(row)
        if i is None:
            i = index[row] = len(table)
            table.append(row)
        return i

    values = list(map(intern, rows))
    if len(table) * (len(table) + 1) // 2 >= visits:
        return rows, row_add, partial(row_leq, space), row_eq
    sums, order = {}, {}

    def add(x, y):
        if x is None or y is None:
            return None
        pair = (x, y) if x < y else (y, x)
        s = sums.get(pair)
        if s is None:
            s = sums[pair] = intern(row_add(table[x], table[y]))
        return s

    def leq(x, y):
        if y is None or x == y:
            return True
        if x is None:
            return False
        question = x, y
        answer = order.get(question)
        if answer is None:
            answer = order[question] = row_leq(space, table[x], table[y])
        return answer

    return values, add, leq, operator.eq


def row_lattice(op, a, b) -> tuple:
    """`op` (min or max) of two finite rows, coordinatewise over the lcm of
    their denominators: their infimum or supremum on a lattice backend."""
    (x, dx), (y, dy) = a, b
    g = math.gcd(dx, dy)
    return tuple([op(p * (dy // g), q * (dx // g)) for p, q in zip(x, y)]), dx // g * dy


def scaled_unit(space: SpaceDescriptor, r) -> tuple:
    """The row of r times the order unit of `space`, for an int or Fraction r."""
    r = Fraction(r)
    return tuple([r.numerator * n for n in order_unit(space).nums]), r.denominator


def is_psd(a: Element) -> bool:
    """Exact positive semidefiniteness test for a symmetric matrix."""
    if a.space.kind is not SpaceKind.LOEWNER_SYM:
        raise TypeError("PSD test applies to LoewnerSym elements only")
    return is_positive_row(a.space, a.nums)


def leq(a: Element, b: Element) -> bool:
    """Exact order test: coordinatewise, or Loewner for symmetric matrices."""
    require_same_space(a, b)
    return row_leq(a.space, (a.nums, a.den), (b.nums, b.den))


class NoSupremum(Frozen):
    """Returned when a pair supremum is declined or does not exist."""

    __slots__ = ("reason",)
    _defaults = {"reason": "incomparable pair in a non-lattice backend"}


def sup_pair(a: Element, b: Element) -> Union[Element, NoSupremum]:
    """Least upper bound of two elements, when this is decidable.

    Lattice backends get the coordinatewise maximum.  In the Loewner order
    the supremum of an incomparable pair generically does not exist (the
    space is not a lattice), so the procedure is deliberately partial: it
    returns the larger element of a comparable pair and otherwise declines
    with `NoSupremum`.  It never fabricates an upper bound.
    """
    require_same_space(a, b)
    if a.space.is_lattice:
        return _element(a.space, *row_lattice(max, (a.nums, a.den), (b.nums, b.den)))
    if leq(a, b):
        return b
    if leq(b, a):
        return a
    return NoSupremum()


def inf_pair(a: Element, b: Element) -> Union[Element, NoSupremum]:
    require_same_space(a, b)
    if a.space.is_lattice:
        return _element(a.space, *row_lattice(min, (a.nums, a.den), (b.nums, b.den)))
    if leq(a, b):
        return a
    if leq(b, a):
        return b
    return NoSupremum(reason="incomparable pair has no infimum candidate")


def abs_element(a: Element) -> Element:
    if not a.space.is_lattice:
        raise TypeError("absolute value needs a lattice backend")
    return _element(a.space, tuple(abs(x) for x in a.nums), a.den)
