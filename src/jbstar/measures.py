"""Finitely additive vector measures on projection lattices.

Desk-scale verification of the linearity-from-boundedness result: a
homogeneous map on the self-adjoint part that is additive on operator
commuting elements and bounded on the unit ball agrees with a bounded
linear map, provided the algebra has no spin (type I2) summand.  The spin
exclusion is enforced mechanically by a detector, and the spin(3)
counterexample exercises the sharpness of the hypothesis in exploratory
mode.

Target spaces X are finite-dimensional real coordinate spaces with the
max-norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebras import (
    AlgebraHandle,
    Element,
    _random,
    jbstar_norm,
    jordan_product,
    sa_coords,
    selfadjoint_basis,
)
from .calculus import operator_commutes, spectral_decomposition
from .errors import (
    AdditivityViolation,
    HypothesisFailed,
    PreconditionFailed,
    ProjectionsDoNotSpan,
    TypeI2Present,
)
from .kernel import solve_least_squares
from .reports import CheckReport
from .samplers import default_oc_sampler, orthogonal_projection_pair

__all__ = [
    "ProjectionMeasure",
    "LinearReconstruction",
    "is_spin_summand",
    "spin_summands",
    "vectorize_map",
    "canonical_projections",
    "measure_from_map",
    "linear_reconstruction",
    "verify_linearity_theorem",
]


@dataclass
class ProjectionMeasure:
    """Restriction of a map to the projection lattice, with a norm bound."""

    algebra: AlgebraHandle
    eval: Callable[[Element], np.ndarray]
    bound: float


@dataclass
class LinearReconstruction:
    """Least-squares linear map T fitted to (projection, value) data."""

    matrix: np.ndarray  # k x d_sa, acting on self-adjoint real coordinates
    residual: float  # max data misfit in the X max-norm
    sa_basis: list


def _xnorm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def is_spin_summand(A: AlgebraHandle, samples: int = 10, seed: int = 7) -> bool:
    """Mechanical spin detector on a single (non-sum) algebra.

    A summand is flagged as spin when its self-adjoint part has real
    dimension >= 3 and every sampled self-adjoint a satisfies
    a o a in span{a, 1}.  This catches spin factors and the 2x2 hermitian
    model (whose self-adjoint part is a 4-dimensional spin factor) alike.
    """
    if A.summands[0][0] is not A:
        raise ValueError("pass a single summand; use spin_summands for sums")
    if len(selfadjoint_basis(A)) < 3:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        a = _random(A, rng, "self_adjoint")
        sq = jordan_product(A, a, a)
        P = np.stack([A.unit.coords, a.coords], axis=1)
        c, *_ = np.linalg.lstsq(P, sq.coords, rcond=None)
        if np.linalg.norm(P @ c - sq.coords) > 1e-8 * (1.0 + np.linalg.norm(sq.coords)):
            return False
    return True


def spin_summands(A: AlgebraHandle) -> list[str]:
    """Ids of direct summands flagged as spin (type I2)."""
    return [p.id for p, _ in A.summands if is_spin_summand(p)]


def vectorize_map(fn: Callable[[Element], Element], target: AlgebraHandle):
    """Adapt an element-valued map to an X-valued one by realifying the
    target coordinates."""

    def f(a: Element) -> np.ndarray:
        out = fn(a)
        return np.concatenate([out.coords.real, out.coords.imag])

    return f


def canonical_projections(A: AlgebraHandle) -> list[Element]:
    """Deterministic spanning family of projections.

    Matrix models contribute the diagonal and rank-one sum/phase
    projections derived from matrix units; spin factors the projections
    (1 +/- b)/2 along each H^- axis; direct sums those of their summands
    and the unit.
    """
    return A.canonical_projections()


def measure_from_map(
    A: AlgebraHandle, f: Callable[[Element], np.ndarray], bound_probe: int = 50, seed: int = 0
) -> ProjectionMeasure:
    """Restrict f to projections after verifying homogeneity and finite
    additivity on orthogonal pairs from common spectral decompositions."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        # positive homogeneity; the negative-scalar case follows from
        # OC-additivity (a operator commutes with -a)
        a = _random(A, rng, "self_adjoint")
        tau = float(rng.uniform(0.3, 3.0))
        dev = _xnorm(f(tau * a) - tau * np.asarray(f(a)))
        if dev > 1e-7 * (1.0 + abs(tau)) * (1.0 + _xnorm(f(a))):
            raise PreconditionFailed(f"map is not homogeneous (residual {dev:.3e})")
    for _ in range(bound_probe):
        pq = orthogonal_projection_pair(A, rng)
        if pq is None:
            continue
        p, q = pq
        if not operator_commutes(A, p, q):
            raise PreconditionFailed("orthogonal projections failed to operator commute")
        dev = _xnorm(np.asarray(f(p + q)) - np.asarray(f(p)) - np.asarray(f(q)))
        if dev > 1e-7 * (1.0 + _xnorm(f(p)) + _xnorm(f(q))):
            raise AdditivityViolation(
                f"measure not additive on an orthogonal pair (residual {dev:.3e})"
            )
    bound = 0.0
    for _ in range(bound_probe):
        p = _random(A, rng, "projection")
        bound = max(bound, _xnorm(np.asarray(f(p))))
    return ProjectionMeasure(algebra=A, eval=f, bound=bound)


def linear_reconstruction(
    mu: ProjectionMeasure, probes: int = 60, seed: int = 0
) -> LinearReconstruction:
    """Assemble the linear map agreeing with mu on projections.

    Least squares over (projection, mu(projection)) pairs spanning the
    self-adjoint part; raises ProjectionsDoNotSpan when the sampled family
    has deficient rank.
    """
    A = mu.algebra
    rng = np.random.default_rng(seed)
    basis = selfadjoint_basis(A)
    projections = list(canonical_projections(A))
    while len(projections) < probes:
        projections.append(_random(A, rng, "projection"))
    rows = np.stack([sa_coords(A, p, basis) for p in projections])
    vals = np.stack([np.asarray(mu.eval(p), dtype=float) for p in projections])
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv[-1] <= 1e-9 * max(sv[0], 1.0):
        raise ProjectionsDoNotSpan(
            f"projection family spans only rank {int(np.sum(sv > 1e-9 * sv[0]))}"
        )
    sol, _ = solve_least_squares(rows, vals, A.tol)
    T = np.real(sol).T  # k x d_sa
    misfit = max(_xnorm(T @ r - v) for r, v in zip(rows, vals))
    return LinearReconstruction(matrix=T, residual=misfit, sa_basis=basis)


def verify_linearity_theorem(
    A: AlgebraHandle,
    f: Callable[[Element], np.ndarray],
    trials: int = 100,
    seed: int = 0,
    theorem_grade: bool = True,
    pass_tol: float = 1e-7,
) -> CheckReport:
    """Desk check of linearity-from-boundedness.

    Verifies the hypotheses (homogeneity, OC-additivity, boundedness on the
    unit ball), reconstructs the linear candidate T from projection values,
    checks the spectral approximation identity f(sum a_j p_j) = sum a_j
    f(p_j), and finally compares f with T on random self-adjoint elements.

    In theorem-grade mode the presence of any spin summand raises
    TypeI2Present; exploratory mode proceeds and reports the misfit.
    """
    flagged = spin_summands(A)
    if flagged and theorem_grade:
        raise TypeI2Present(f"spin summands present: {flagged}")
    rng = np.random.default_rng(seed)
    sampler = default_oc_sampler(A)
    oc_dev = 0.0
    for _ in range(min(trials, 50)):
        a, b = sampler(rng)
        if not operator_commutes(A, a, b):
            continue
        oc_dev = max(
            oc_dev,
            _xnorm(np.asarray(f(a + b)) - np.asarray(f(a)) - np.asarray(f(b)))
            / (1.0 + jbstar_norm(A, a) + jbstar_norm(A, b)),
        )
    if oc_dev > pass_tol:
        raise HypothesisFailed(f"f is not OC-additive (residual {oc_dev:.3e})")
    bound = 0.0
    for _ in range(min(trials, 50)):
        a = _random(A, rng, "self_adjoint")
        na = jbstar_norm(A, a)
        if na > 1e-9:
            bound = max(bound, _xnorm(np.asarray(f((1.0 / na) * a))))
    mu = measure_from_map(A, f, bound_probe=min(trials, 50), seed=seed + 1)
    recon = linear_reconstruction(mu, probes=max(trials // 2, 40), seed=seed + 2)
    spectral_dev = 0.0
    agree = 0.0
    for _ in range(trials):
        a = _random(A, rng, "self_adjoint")
        dec = spectral_decomposition(A, a)
        zero = np.zeros_like(np.asarray(mu.eval(A.unit), dtype=float))
        total = sum((lam * np.asarray(f(p), dtype=float) for lam, p in dec.pairs), zero)
        fa = np.asarray(f(a), dtype=float)
        scale = 1.0 + jbstar_norm(A, a)
        spectral_dev = max(spectral_dev, _xnorm(fa - total) / scale)
        agree = max(agree, _xnorm(fa - recon.matrix @ sa_coords(A, a, recon.sa_basis)) / scale)
    passed = (
        not flagged
        and spectral_dev <= pass_tol
        and recon.residual <= pass_tol * (1.0 + mu.bound)
        and agree <= pass_tol * (1.0 + mu.bound)
    )
    return CheckReport(
        name=f"linearity-theorem[{A.id}]",
        passed=passed,
        trials=trials,
        max_residual=max(agree, recon.residual),
        details={
            "bound_estimate": bound,
            "measure_bound": mu.bound,
            "reconstruction_misfit": recon.residual,
            "spectral_identity_residual": spectral_dev,
            "agreement_residual": agree,
            "spin_summands": flagged,
            "theorem_grade": theorem_grade,
            "pass_tol": pass_tol,
        },
    )
