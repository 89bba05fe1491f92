"""Pass/fail records produced by the identity checks."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
EXPECTED_DISCREPANCY = "expected-discrepancy"

_STATUSES = (PASS, FAIL, SKIPPED, EXPECTED_DISCREPANCY)


class Mismatch(NamedTuple):
    n: int
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check at one grid point.

    ``first_mismatch`` is present exactly when the check found unequal
    coefficients; skipped checks record why in ``detail``.
    """

    identity: str
    order: int
    ks: Optional[tuple[int, ...]] = None
    dist: Optional[str] = None
    status: str = PASS
    first_mismatch: Optional[Mismatch] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        has_mismatch = self.first_mismatch is not None
        if self.status in (PASS, SKIPPED) and has_mismatch:
            raise ValueError(f"status {self.status!r} cannot carry a mismatch")
        if self.status in (FAIL, EXPECTED_DISCREPANCY) and not has_mismatch:
            raise ValueError(f"status {self.status!r} requires a mismatch")

