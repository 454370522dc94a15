"""Result records for predicate and property checks.

``WorstResidual`` is the one fold of every check: a loop feeds it the
residuals of each chunk of draws, or of each single draw, with a witness
for each, and it keeps the worst residual and the witness of its first
draw.  Without a tolerance it keeps just the largest residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


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
        return bool(self.ok)

    @property
    def borderline(self) -> bool:
        lo, hi = self.threshold / 10.0, self.threshold * 10.0
        return lo <= self.residual <= hi


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


CHUNK = 64  # draws a stacked check evaluates at once: its memory is bounded in the trials


def chunk_sizes(trials: int) -> list[int]:
    """Sizes of the consecutive chunks, at most CHUNK draws each, of ``trials``."""
    return [min(CHUNK, trials - i) for i in range(0, trials, CHUNK)]


@dataclass
class WorstResidual:
    """Worst residual of a check's draws, fed in draw order, counted from a
    start (the initial ``worst``): the first of equal residuals wins, and
    the first NaN wins for good, so that its report fails; the witness is
    kept only above ``tol`` (or at a NaN); a report of no draw does not
    pass.  Without ``tol``, the largest residual alone, or NaN."""

    tol: float = math.inf
    worst: float = 0.0
    witness: Any = None
    counted: int = 0

    def add(self, residuals, witness: Callable = lambda i: None) -> None:
        """Fold in the residuals of one draw or of a stack of draws;
        ``witness(i)`` is the witness of its i-th draw."""
        rows = np.ravel(residuals).tolist()
        self.counted += len(rows)
        best = None
        for i, r in enumerate(rows):
            if r > self.worst or (r != r and self.worst == self.worst):
                self.worst, best = r, i
        if best is not None and not self.worst <= self.tol:
            self.witness = witness(best)

    def report(self, name: str, **details) -> CheckReport:
        passed = self.counted > 0 and self.worst <= self.tol
        return CheckReport(name, passed, self.counted, self.worst, self.witness, details=details)
