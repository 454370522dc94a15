"""Result records for predicate and property checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class ResidualCheck:
    """Boolean verdict together with the residual it was decided on.

    ``borderline`` is set when the residual lands within a factor of 10 of
    the decision threshold; callers should surface such cases instead of
    trusting the bare boolean.
    """

    ok: bool
    residual: float
    threshold: float

    def __bool__(self) -> bool:
        return self.ok

    @property
    def borderline(self) -> bool:
        lo, hi = self.threshold / 10.0, self.threshold * 10.0
        return lo <= self.residual <= hi

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "residual": self.residual,
            "threshold": self.threshold,
            "borderline": self.borderline,
        }


@dataclass
class CheckReport:
    """Outcome of a property/theorem check over a batch of trials."""

    name: str
    passed: bool
    trials: int
    max_residual: float
    witness: Any = None
    expected_fail: bool = False
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "passed": self.passed,
            "trials": self.trials,
            "max_residual": self.max_residual,
            "expected_fail": self.expected_fail,
        }
        if self.witness is not None:
            doc["witness"] = _jsonable(self.witness)
        if self.details:
            doc["details"] = _jsonable(self.details)
        return doc


def _jsonable(value):
    """Best-effort conversion of witnesses/details to JSON-safe values."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def worst_over_trials(
    name: str, rng, trials: int, tol: float, trial: Callable, start: float = 0.0, **details
) -> CheckReport:
    """Run ``trial(rng)`` ``trials`` times and keep the worst residual.

    ``trial`` returns (residual, witness), or None for a draw that does not
    count.  The worst residual is counted from ``start``; the witness kept
    is that of the worst draw when it exceeds ``tol``.  ``trials`` in the
    report is the number of draws that counted, and a report that counted
    none does not pass.
    """
    worst, witness, counted = start, None, 0
    for _ in range(trials):
        drawn = trial(rng)
        if drawn is None:
            continue
        counted += 1
        residual, w = drawn
        if residual > worst:
            worst = residual
            if residual > tol:
                witness = w
    return CheckReport(name, counted > 0 and worst <= tol, counted, worst, witness, details=details)


def merge_reports(name: str, reports: list[CheckReport]) -> CheckReport:
    """Combine independent trial batches into one report (max residual wins)."""
    passed = all(r.passed for r in reports)
    trials = sum(r.trials for r in reports)
    worst = max(reports, key=lambda r: r.max_residual)
    witness = None
    for r in reports:
        if not r.passed and r.witness is not None:
            witness = r.witness
            break
    return CheckReport(name, passed, trials, worst.max_residual, witness=witness)
