"""Exception types, size caps and the immutable base shared across the library.

Check-style operations report theorem violations in their result objects;
exceptions are reserved for *inputs* that break a contract: mismatched
spaces, invalid axioms, hypotheses that a theorem requires, and claims
that cannot be certified from the sampled evidence.
"""

import operator


class Frozen:
    """Base of the immutable value classes, with one value protocol.

    A class's fields are the ``__slots__`` of its bases and then its own, in
    order; a ``__dict__`` slot holds caches, not fields.  What a frozen
    dataclass generates is derived from the fields.  The constructor takes
    them by position or by name, a field left out takes its class's
    ``_defaults`` entry, and a call that a dataclass refuses is a TypeError.
    Two values are equal when they are of the same class and their field
    tuples are equal, the hash is the hash of the field tuple (a TypeError
    when a field is unhashable), and the repr is ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises AttributeError.

    A constructor that checks its arguments is written out and stores the
    fields with `_set`.  `spaces.Element` and `extended.ExtElement`, the
    arithmetic hot path, write their own equality, hashing and short repr:
    the generic methods measured slower.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(name for klass in reversed(cls.__mro__)
                      for name in vars(klass).get("__slots__", ()) if name != "__dict__")
        if len(names) > 1:
            values = operator.attrgetter(*names)
        else:  # attrgetter returns one name's value bare, and needs a name
            def values(value):
                return tuple(getattr(value, name) for name in names)
        cls._fields = names
        cls._field_values = staticmethod(values)

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):  # complete the call as a dataclass would
            rest, given = fields[len(values):], {**self._defaults, **named}
            # every name is a field not given by position, every other field is given
            if len(values) > len(fields) or not named.keys() <= set(rest) <= given.keys():
                raise TypeError(f"{type(self).__qualname__} takes the fields "
                                f"({', '.join(fields)}), not {len(values)} by position "
                                f"and {sorted(named)} by name, and has defaults for "
                                f"{sorted(self._defaults)}")
            values = [*values, *map(given.get, rest)]
        self._set(*values)

    def _set(self, *values):
        """`self` with its fields set to `values`, in order; nothing is checked."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class OrdMeasureError(Exception):
    """Base class for all errors raised by this package."""


class SpaceMismatchError(OrdMeasureError):
    """Two values from different space descriptors were combined."""


class DimensionLimitError(OrdMeasureError):
    """A backend or ground set exceeds the supported desk-scale size."""


# Size caps, each compared through `check_cap` in one function only.
MAX_GROUND_SIZE = 16  # scenario ground points: a listed family has up to 2^16 sets
MAX_OUTER_GROUND_SIZE = 12  # outer measures: about 3^n axiom and 4^n splitting tests
MAX_EXHAUSTIVE_ATOMS = 8  # the identity suite's 4^k pairs of measurable sets
MAX_LOEWNER_DIM = 6  # Loewner elements: d^2 numerators, O(d^3) per order test
MAX_COORDINATES = 1024  # numerators of an element: every value of a document has this many
MAX_TRUNCATION = 64  # `compare` experiments: O(n^2) coordinates in each report
MAX_HORIZON = 1024  # `RunConfig.horizon`: h terms per convergence check, rationals grow in h
MAX_EPSILON_EXPONENT = 1024  # the bit size of 2^-k and of every gap scaled by it


def check_cap(what: str, value: int, cap: int) -> int:
    """`value`, or DimensionLimitError when it is above `cap`."""
    if value > cap:
        raise DimensionLimitError(f"{what} limited to <= {cap}, got {value}")
    return value


class ValidationError(OrdMeasureError):
    """An object violates its defining axioms.

    `witness` carries a small JSON-able structure pointing at the violation
    (for example the pair of sets whose union is missing from a family).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class HypothesisError(OrdMeasureError):
    """A theorem's hypothesis is not met by the given scenario."""


class CertificationError(OrdMeasureError):
    """A declared claim about a sequence failed at a sampled index."""


class NotIntegrableError(HypothesisError):
    """A signed function is outside the integrable class (infinite |f| integral),
    which an L^1 statement assumes it is in."""


class SchemaError(OrdMeasureError):
    """A scenario file violates the JSON schema.

    `path` is a JSON-pointer-style location of the offending value.
    """

    def __init__(self, message, path=""):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path
