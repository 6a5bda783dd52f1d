"""Three-valued verdicts for certified inequality checks."""
from __future__ import annotations

from dataclasses import dataclass

from mpmath.libmp import mpf_sub, round_nearest, to_float

from .intervals import RealInterval

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one inequality check, lhs >= rhs.

    For interval-route checks the verdict follows the endpoint rule
    (holds iff lhs.lo >= rhs.hi, fails iff lhs.hi < rhs.lo).  When
    ``exact`` is set the verdict was decided by exact arithmetic and the
    intervals are tight enclosures of the two sides for reporting.
    """

    name: str
    lhs: RealInterval
    rhs: RealInterval
    verdict: str
    margin: float
    exact: bool = False

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def interval_verdict(lhs: RealInterval, rhs: RealInterval) -> str:
    if lhs.lo >= rhs.hi:
        return HOLDS
    if lhs.hi < rhs.lo:
        return FAILS
    return INCONCLUSIVE


def sign_verdict(sign: int) -> str:
    """Verdict from an exact three-way comparison of lhs - rhs."""
    return HOLDS if sign >= 0 else FAILS


def margin_of(lhs: RealInterval, rhs: RealInterval) -> float:
    """lhs.lo - rhs.hi, rounded to nearest at 53 bits."""
    return to_float(mpf_sub(lhs.lo._mpf_, rhs.hi._mpf_, 53, round_nearest))
