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


def margin_of(lhs: RealInterval, rhs: RealInterval) -> float:
    """lhs.lo - rhs.hi, rounded to nearest at 53 bits."""
    return to_float(mpf_sub(lhs.lo._mpf_, rhs.hi._mpf_, 53, round_nearest))


def interval_check(name: str, lhs: RealInterval, rhs: RealInterval) -> BoundCheck:
    """The check lhs >= rhs decided by the endpoint rule on its enclosures."""
    verdict = HOLDS if lhs.lo >= rhs.hi else FAILS if lhs.hi < rhs.lo else INCONCLUSIVE
    return BoundCheck(name, lhs, rhs, verdict, margin_of(lhs, rhs))


def exact_check(name: str, lhs, rhs, lhs_iv: RealInterval,
                rhs_iv: RealInterval) -> BoundCheck:
    """The check lhs >= rhs decided by the exact comparison of the two
    sides (SqrtValues), reported with lhs_iv and rhs_iv, the enclosures
    of the inequality in its displayed form."""
    return BoundCheck(name, lhs_iv, rhs_iv, HOLDS if lhs.compare(rhs) >= 0 else FAILS,
                      margin_of(lhs_iv, rhs_iv), exact=True)
