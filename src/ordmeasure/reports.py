"""The one builder of check results, and the status vocabulary.

A check ends in one of four statuses: it holds, it fails, a hypothesis of
its theorem is not met, or its claim is not certifiable from the sampled
evidence.  No other module spells a status: `verdict` reports whether a
conclusion holds, `word` names that outcome inside a report's details, and
`refused` reports a check that raised one of `REFUSALS`, each class with
its one status (`NotIntegrableError` is a `HypothesisError`).
"""

from __future__ import annotations

from .errors import CertificationError, Frozen, HypothesisError

HOLDS = "holds"
FAILS = "fails"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
NOT_CERTIFIABLE = "not-certifiable"
STATUSES = (HOLDS, FAILS, HYPOTHESIS_NOT_MET, NOT_CERTIFIABLE)
REFUSALS = (HypothesisError, CertificationError)


class CheckResult(Frozen):
    """Outcome of a single check: a status plus JSON-able details.

    `details` holds witnesses, computed values (exact rationals rendered as
    strings) and certification trails; it must stay deterministic for a
    fixed scenario and configuration.
    """

    __slots__ = ("name", "status", "details")

    @property
    def ok(self) -> bool:
        return self.status == HOLDS

    def to_json(self) -> dict:
        return {"check": self.name, "status": self.status, "details": self.details}


def word(ok: bool) -> str:
    """The status of a conclusion: holds when `ok`, else fails."""
    return HOLDS if ok else FAILS


def verdict(name: str, ok: bool, /, **details) -> CheckResult:
    """The result of check `name`, which holds when `ok` and fails otherwise."""
    return CheckResult(name, word(ok), details)


def refused(name: str, exc: Exception) -> CheckResult:
    """The result of check `name` that raised `exc`, one of `REFUSALS`, with
    its text as the reason."""
    status = HYPOTHESIS_NOT_MET if isinstance(exc, HypothesisError) else NOT_CERTIFIABLE
    return CheckResult(name, status, {"reason": str(exc)})
