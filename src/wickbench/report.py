"""Uniform pass/fail record for inequality, PSD, and identity checks.

Every check reduces to one invariant: ``passed`` iff ``gap >= -tolerance``.
Three row shapes share it:

  inequality  lhs <= rhs        gap = rhs - lhs
  PSD         matrix >= 0       lhs = 0, rhs = min eigenvalue, gap = rhs
  identity    mismatch == 0     lhs = mismatch, rhs = 0, gap = -mismatch

A side that is NaN or infinite is no verdict: from_sides and from_mismatch
raise OverflowError on it, so the task cannot run and the CLI exits 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


def _finite_sides(check, lhs, rhs):
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise OverflowError(f"{check} has a non-finite side: lhs={lhs!r}, rhs={rhs!r}")


@dataclass(frozen=True)
class InequalityReport:
    check: str
    params: dict = field(compare=False)
    lhs: float
    rhs: float
    gap: float
    tolerance: float
    passed: bool
    method_lhs: str = "exact"
    method_rhs: str = "exact"

    @classmethod
    def from_sides(cls, check, params, lhs, rhs, tolerance,
                   method_lhs="exact", method_rhs="exact") -> "InequalityReport":
        lhs, rhs = float(lhs), float(rhs)
        _finite_sides(check, lhs, rhs)
        gap = rhs - lhs
        return cls(check, params, lhs, rhs, gap, float(tolerance),
                   gap >= -tolerance, method_lhs, method_rhs)

    @classmethod
    def from_mismatch(cls, check, params, mismatch, tolerance) -> "InequalityReport":
        mismatch = float(mismatch)
        _finite_sides(check, mismatch, 0.0)
        return cls(check, params, mismatch, 0.0, -mismatch, float(tolerance),
                   -mismatch >= -tolerance, "exact", "exact")

    @classmethod
    def from_json_line(cls, line: str) -> "InequalityReport":
        """The row whose as_dict() a report.json line encodes; floats,
        the sign of zero included, round-trip exactly."""
        row = json.loads(line)
        return cls(row["check"], row["params"], row["lhs"], row["rhs"], row["gap"],
                   row["tolerance"], row["pass"], row["method"]["lhs"], row["method"]["rhs"])

    def negated(self) -> "InequalityReport":
        """Swap the sides; debug path used by the harness self-test."""
        gap = self.lhs - self.rhs
        return InequalityReport(self.check, self.params, self.rhs, self.lhs, gap,
                                self.tolerance, gap >= -self.tolerance,
                                self.method_rhs, self.method_lhs)

    @property
    def method(self) -> str:
        if self.method_lhs == self.method_rhs:
            return self.method_lhs
        return f"{self.method_lhs}/{self.method_rhs}"

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "method": {"lhs": self.method_lhs, "rhs": self.method_rhs},
        }
