"""Exception types shared across the library.

Check-style operations report theorem violations in their result objects;
exceptions are reserved for *inputs* that break a contract: mismatched
spaces, invalid axioms, hypotheses that a theorem requires, and claims
that cannot be certified from the sampled evidence.
"""


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
MAX_LOEWNER_DIM = 6  # Loewner elements: d^2 Fractions, O(d^3) per order test
MAX_TRUNCATION = 64  # `compare` experiments: O(n^2) coordinates in each report
MAX_HORIZON = 1024  # `run --horizon`: h terms per convergence check, rationals grow in h
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


class NotIntegrableError(OrdMeasureError):
    """A signed function is outside the integrable class (infinite |f| integral)."""


class SchemaError(OrdMeasureError):
    """A scenario file violates the JSON schema.

    `path` is a JSON-pointer-style location of the offending value.
    """

    def __init__(self, message, path=""):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path
