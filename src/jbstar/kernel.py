"""Comparison thresholds, operator norms and scalar root finding.

``Tolerance`` holds the thresholds every model carries.  ``operator_norm``
is the largest singular value of a complex matrix or of each matrix of a
stack; ``real_roots`` gives the distinct real roots of a real polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput

__all__ = [
    "Tolerance",
    "operator_norm",
    "real_roots",
]


@dataclass(frozen=True)
class Tolerance:
    """Comparison thresholds used throughout the package.

    ``cluster_eps`` controls merging of nearly coincident eigenvalues (their
    idempotents are summed) and of polynomial roots.
    """

    abs_eps: float = 1e-9
    cluster_eps: float = 1e-7

    def __post_init__(self):
        for name in ("abs_eps", "cluster_eps"):
            v = getattr(self, name)
            if not (0.0 < v < 1e-2):
                raise ValueError(f"{name} must lie strictly in (0, 1e-2), got {v}")


def operator_norm(m):
    """Largest singular value; an array of them for a stack (..., p, q)."""
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0.0
    top = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(top) if a.ndim == 2 else top


def real_roots(coeffs, tol: Tolerance = Tolerance()) -> list[float]:
    """Distinct real roots of a real polynomial with ascending coefficients.

    Roots come from the companion matrix (``numpy.roots``), keep only those
    with imaginary part below ``cluster_eps``, get one Newton polish, and
    merge clusters closer than ``cluster_eps * (1 + max |root|)``.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need ascending coefficients of degree >= 1")
    if np.max(np.abs(c)) < tol.abs_eps:
        raise DegenerateInput("all coefficients below tolerance")
    if c[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    roots = np.roots(c[::-1])
    imag_gate = tol.cluster_eps * (1.0 + np.max(np.abs(roots), initial=0.0))
    cand = sorted(r.real for r in roots if abs(r.imag) <= imag_gate)
    if not cand:
        return []
    deriv = np.polynomial.polynomial.polyder(c)
    polished = []
    for r in cand:
        for _ in range(2):
            p = np.polynomial.polynomial.polyval(r, c)
            dp = np.polynomial.polynomial.polyval(r, deriv)
            if abs(dp) < 1e3 * np.finfo(float).tiny:
                break
            step = p / dp
            # a step is only trusted if it actually reduces |p|; near
            # multiple roots the derivative is roundoff noise
            if not np.isfinite(step) or abs(np.polynomial.polynomial.polyval(r - step, c)) >= abs(p):
                break
            r -= step
        polished.append(float(r))
    polished.sort()
    gap = tol.cluster_eps * (1.0 + max(abs(r) for r in polished))
    merged: list[list[float]] = [[polished[0]]]
    for r in polished[1:]:
        if r - merged[-1][-1] <= gap:
            merged[-1].append(r)
        else:
            merged.append([r])
    return [float(np.mean(group)) for group in merged]
