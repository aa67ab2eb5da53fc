"""Uniform result objects for theorem-check operations."""

from __future__ import annotations

HOLDS = "holds"
FAILS = "fails"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
NOT_CERTIFIABLE = "not-certifiable"
STATUSES = (HOLDS, FAILS, HYPOTHESIS_NOT_MET, NOT_CERTIFIABLE)


class CheckResult:
    """Outcome of a single check: a status plus JSON-able details.

    `details` holds witnesses, computed values (exact rationals rendered as
    strings) and certification trails; it must stay deterministic for a
    fixed scenario and configuration.
    """

    __slots__ = ("name", "status", "details")

    def __init__(self, name: str, status: str, details: dict):
        self.name = name
        self.status = status
        self.details = details

    @property
    def ok(self) -> bool:
        return self.status == HOLDS

    def to_json(self) -> dict:
        return {"check": self.name, "status": self.status, "details": self.details}


def holds(name: str, **details) -> CheckResult:
    return CheckResult(name, HOLDS, details)


def fails(name: str, **details) -> CheckResult:
    return CheckResult(name, FAILS, details)
