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
value is immutable.  A Loewner order test is one fraction-free symmetric
elimination of ``b - a`` in O(d^3) integer operations (see `is_psd`); the
dimension stays capped at ``MAX_LOEWNER_DIM = 6``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import MAX_LOEWNER_DIM, CertificationError, SpaceMismatchError, check_cap
from .sequences import (
    DEFAULT_EPSILONS,
    DEFAULT_HORIZON,
    DeclaredLimit,
    SequenceSpec,
    StabilizesAt,
    detect_stable_tail,
)


class SpaceKind(Enum):
    REALS = "reals"
    COORD = "coord"
    ENTRYWISE_MAT = "entrywise_mat"
    LOEWNER_SYM = "loewner_sym"


@dataclass(frozen=True)
class SpaceDescriptor:
    """Identifies a backend together with its completeness capabilities."""

    kind: SpaceKind
    dim: int = 1
    rows: int = 1
    cols: int = 1

    def __post_init__(self):
        if self.kind in (SpaceKind.COORD, SpaceKind.LOEWNER_SYM) and self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.kind is SpaceKind.ENTRYWISE_MAT and (self.rows < 1 or self.cols < 1):
            raise ValueError("matrix shape must be positive")
        if self.kind is SpaceKind.LOEWNER_SYM:
            check_cap("Loewner backend dim", self.dim, MAX_LOEWNER_DIM)

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


@dataclass(frozen=True)
class Element:
    """A point of a backend; coordinates are row-major for matrix kinds."""

    space: SpaceDescriptor
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.space.ncoords:
            raise ValueError(
                f"{self.space.describe()} needs {self.space.ncoords} coordinates, "
                f"got {len(self.coords)}"
            )
        if not all(isinstance(c, Fraction) for c in self.coords):
            raise TypeError("coordinates must be Fractions")
        if self.space.kind is SpaceKind.LOEWNER_SYM:
            d = self.space.dim
            for i in range(d):
                for j in range(i + 1, d):
                    if self.coords[i * d + j] != self.coords[j * d + i]:
                        raise ValueError(f"matrix not symmetric at ({i},{j})")

    def entry(self, i: int, j: int) -> Fraction:
        if self.space.kind is SpaceKind.ENTRYWISE_MAT:
            return self.coords[i * self.space.cols + j]
        if self.space.kind is SpaceKind.LOEWNER_SYM:
            return self.coords[i * self.space.dim + j]
        raise TypeError(f"{self.space.describe()} has no matrix entries")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        body = ",".join(str(c) for c in self.coords)
        return f"<{self.space.describe()} {body}>"


def element(space: SpaceDescriptor, values: Iterable) -> Element:
    return Element(space, tuple(Fraction(v) for v in values))


def sym_matrix(rows: Sequence[Sequence]) -> Element:
    """Build a LoewnerSym element from nested rows."""
    d = len(rows)
    flat = [Fraction(v) for row in rows for v in row]
    return Element(loewner_sym(d), tuple(flat))


def zero(space: SpaceDescriptor) -> Element:
    return Element(space, (Fraction(0),) * space.ncoords)


def order_unit(space: SpaceDescriptor) -> Element:
    """The all-ones vector, or the identity matrix in the Loewner order."""
    if space.kind is SpaceKind.LOEWNER_SYM:
        d = space.dim
        coords = tuple(
            Fraction(1) if i == j else Fraction(0) for i in range(d) for j in range(d)
        )
        return Element(space, coords)
    return Element(space, (Fraction(1),) * space.ncoords)


def basis_vector(space: SpaceDescriptor, index: int) -> Element:
    coords = [Fraction(0)] * space.ncoords
    coords[index] = Fraction(1)
    return Element(space, tuple(coords))


def require_same_space(a, b):
    """Reject two values (elements or extended elements) of different spaces."""
    if a.space != b.space:
        raise SpaceMismatchError(
            f"cannot combine {a.space.describe()} with {b.space.describe()}"
        )


def add(a: Element, b: Element) -> Element:
    require_same_space(a, b)
    return Element(a.space, tuple(x + y for x, y in zip(a.coords, b.coords)))


def sub(a: Element, b: Element) -> Element:
    require_same_space(a, b)
    return Element(a.space, tuple(x - y for x, y in zip(a.coords, b.coords)))


def neg(a: Element) -> Element:
    return Element(a.space, tuple(-x for x in a.coords))


def scale(r: Fraction, a: Element) -> Element:
    r = Fraction(r)
    return Element(a.space, tuple(r * x for x in a.coords))


def is_psd(a: Element) -> bool:
    """Exact positive semidefiniteness test for a symmetric matrix.

    One symmetric elimination, O(d^3) integer operations.  The matrix is
    first multiplied by the lcm of its denominators, which keeps the
    answer and makes every entry an integer.  Pivots are then eliminated
    in order, fraction-free in the style of Bareiss: with pivot p > 0
    each later entry becomes ``(p * a_ij - a_ik * a_kj) / q``, where q is
    the previous positive pivot (1 at first) and the division is exact.
    That is the Schur complement scaled by a positive number, so it is
    positive semidefinite iff the matrix is.  A negative pivot, or a zero
    pivot with a nonzero entry left in its row, means a principal minor is
    negative; a zero pivot whose row is zero is skipped.
    """
    if a.space.kind is not SpaceKind.LOEWNER_SYM:
        raise TypeError("PSD test applies to LoewnerSym elements only")
    d = a.space.dim
    lcm = math.lcm(*(c.denominator for c in a.coords))
    flat = [c.numerator * (lcm // c.denominator) for c in a.coords]
    m = [flat[i * d:(i + 1) * d] for i in range(d)]
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


def leq(a: Element, b: Element) -> bool:
    """Exact order test: coordinatewise, or Loewner for symmetric matrices."""
    require_same_space(a, b)
    if a.space.kind is SpaceKind.LOEWNER_SYM:
        return is_psd(sub(b, a))
    return all(x <= y for x, y in zip(a.coords, b.coords))


@dataclass(frozen=True)
class NoSupremum:
    """Returned when a pair supremum is declined or does not exist."""

    reason: str = "incomparable pair in a non-lattice backend"


@dataclass(frozen=True)
class GapReport:
    """Residual evidence when a sequence supremum cannot be certified."""

    horizon: int
    last_value: Element
    bound: Optional[Element] = None
    residual: Optional[Element] = None
    message: str = "no stabilization and no declared limit within horizon"


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
        return Element(a.space, tuple(max(x, y) for x, y in zip(a.coords, b.coords)))
    if leq(a, b):
        return b
    if leq(b, a):
        return a
    return NoSupremum()


def inf_pair(a: Element, b: Element) -> Union[Element, NoSupremum]:
    require_same_space(a, b)
    if a.space.is_lattice:
        return Element(a.space, tuple(min(x, y) for x, y in zip(a.coords, b.coords)))
    if leq(a, b):
        return a
    if leq(b, a):
        return b
    return NoSupremum(reason="incomparable pair has no infimum candidate")


def abs_element(a: Element) -> Element:
    if not a.space.is_lattice:
        raise TypeError("absolute value needs a lattice backend")
    return Element(a.space, tuple(abs(x) for x in a.coords))


def sup_increasing(
    seq: SequenceSpec,
    bound: Optional[Element] = None,
    horizon: Optional[int] = None,
    epsilons: Optional[Sequence[Fraction]] = None,
) -> Union[Element, GapReport]:
    """Supremum of an increasing sequence of elements, certified from samples.

    The sequence is validated to be increasing at every index up to the
    horizon, and to stay below `bound` when one is given.  The result is

    * the stabilized value, when the sampled tail is constant;
    * the declared limit L, when the spec carries one and both
      ``seq(n) <= L`` (all samples) and, for each epsilon of the schedule,
      ``L <= seq(n) + epsilon * unit`` at some sample are verified;
    * a `GapReport` otherwise.
    """
    horizon = horizon if horizon is not None else (seq.horizon or DEFAULT_HORIZON)
    epsilons = list(epsilons) if epsilons is not None else list(DEFAULT_EPSILONS)
    terms = [seq.term(n) for n in range(1, horizon + 1)]
    space = terms[0].space
    unit = order_unit(space)

    for n in range(1, horizon):
        if not leq(terms[n - 1], terms[n]):
            raise CertificationError(
                f"monotonicity violation: term {n} > term {n + 1}"
            )
    if bound is not None:
        for n, t in enumerate(terms, start=1):
            if not leq(t, bound):
                raise CertificationError(f"bound violated at n={n}")

    stable_at = detect_stable_tail(terms)
    if isinstance(seq.metadata, StabilizesAt):
        k = seq.metadata.index
        if k <= horizon and all(terms[n] == terms[k - 1] for n in range(k - 1, horizon)):
            return terms[k - 1]
        raise CertificationError(f"sequence does not stabilize at declared index {k}")
    if stable_at is not None and stable_at < horizon:
        return terms[stable_at - 1]

    if isinstance(seq.metadata, DeclaredLimit):
        limit = seq.metadata.value
        if not isinstance(limit, Element):
            raise CertificationError("declared limit must be a finite element here")
        for n, t in enumerate(terms, start=1):
            if not leq(t, limit):
                raise CertificationError(
                    f"declared limit is not an upper bound at n={n}"
                )
        # The terms increase, so if any term comes within eps of the limit,
        # the last one does.
        for eps in epsilons:
            if not leq(limit, add(terms[-1], scale(eps, unit))):
                raise CertificationError(
                    f"gap {eps} to declared limit not reached within horizon {horizon}"
                )
        return limit

    residual = sub(bound, terms[-1]) if bound is not None else None
    return GapReport(horizon=horizon, last_value=terms[-1], bound=bound, residual=residual)
