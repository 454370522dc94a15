"""Dense complex linear algebra and scalar root finding.

Everything downstream (algebra models, spectral machinery, harnesses) goes
through this module for matrix work.  Matrices are plain 2-D complex
``numpy`` arrays (``operator_norm`` also takes stacks); the helpers here add
the contract checks (rank, finiteness) that the rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, RankDeficient

__all__ = [
    "Tolerance",
    "as_complex_matrix",
    "operator_norm",
    "real_roots",
    "solve_least_squares",
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


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


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


def solve_least_squares(a, b, tol: Tolerance = Tolerance()) -> tuple[np.ndarray, float]:
    """Minimize ||a x - b||_F; returns (x, residual).

    Raises RankDeficient when the smallest singular value of ``a`` drops
    below ``abs_eps * ||a||``.
    """
    am = as_complex_matrix(a)
    bm = np.asarray(b, dtype=complex)
    squeeze = bm.ndim == 1
    if squeeze:
        bm = bm[:, None]
    if am.shape[0] < am.shape[1]:
        raise ValueError("need at least as many rows as columns")
    sv = np.linalg.svd(am, compute_uv=False)
    if sv.size and sv[-1] < tol.abs_eps * sv[0]:
        raise RankDeficient(f"smallest singular value {sv[-1]:.3e} below threshold")
    x, *_ = np.linalg.lstsq(am, bm, rcond=None)
    residual = float(np.linalg.norm(am @ x - bm))
    return (x[:, 0] if squeeze else x), residual
