"""Finitely additive vector measures on projection lattices.

Desk-scale verification of the linearity-from-boundedness result: a
homogeneous map on the self-adjoint part that is additive on operator
commuting elements and bounded on the unit ball agrees with a bounded
linear map, provided the algebra has no spin (type I2) summand.  The spin
exclusion reads the type data of the models (a summand of rank 2 with
trivial centre), and the spin(3) counterexample exercises the sharpness of
the hypothesis in exploratory mode.

Target spaces X are finite-dimensional real coordinate spaces with the
max-norm.  Check bodies compute on coordinate arrays; the map under test
still receives an ``Element``, built at the call (``_on_coords``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebras import AlgebraHandle, Element, _random, _realify, _sa_coords, selfadjoint_basis
from .calculus import _commute_gate, _decompose, _require
from .errors import (
    AdditivityViolation,
    HypothesisFailed,
    PreconditionFailed,
    ProjectionsDoNotSpan,
    TypeI2Present,
)
from .reports import CheckReport, WorstResidual
from .samplers import _draw_oc_pair, _orthogonal_projection_pair

__all__ = [
    "ProjectionMeasure",
    "LinearReconstruction",
    "spin_summands",
    "vectorize_map",
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


def _on_coords(A: AlgebraHandle, f: Callable[[Element], np.ndarray]):
    """f on coordinate arrays: the one place a check body builds an Element."""
    return lambda x: np.asarray(f(Element(A.id, x)))


def spin_summands(A: AlgebraHandle) -> list[str]:
    """Ids of the direct summands of type I2 (``AlgebraHandle.is_type_i2``)."""
    return [p.id for p, _ in A.summands if p.is_type_i2]


def vectorize_map(fn: Callable[[Element], Element]):
    """Adapt an element-valued map to an X-valued one by realifying the
    target coordinates."""
    return lambda a: _realify(fn(a).coords)


def measure_from_map(
    A: AlgebraHandle, f: Callable[[Element], np.ndarray], bound_probe: int = 50, seed: int = 0
) -> ProjectionMeasure:
    """Restrict f to projections after verifying homogeneity and finite
    additivity on orthogonal pairs from common spectral decompositions."""
    rng = np.random.default_rng(seed)
    fx = _on_coords(A, f)
    for _ in range(10):
        # positive homogeneity; the negative-scalar case follows from
        # OC-additivity (a operator commutes with -a)
        a = _random(A, rng, "self_adjoint")
        tau = float(rng.uniform(0.3, 3.0))
        fta, fa = fx(tau * a), fx(a)
        dev = _xnorm(fta - tau * fa)
        if not dev <= 1e-7 * (1.0 + abs(tau)) * (1.0 + _xnorm(fa)):
            raise PreconditionFailed(f"map is not homogeneous (residual {dev:.3e})")
    for _ in range(bound_probe):
        pq = _orthogonal_projection_pair(A, rng)
        if pq is None:
            continue
        p, q = pq
        message = "orthogonal projections failed to operator commute"
        _require(_commute_gate(A, p, q), PreconditionFailed, message)
        fpq, fp, fq = fx(p + q), fx(p), fx(q)
        dev = _xnorm(fpq - fp - fq)
        if not dev <= 1e-7 * (1.0 + _xnorm(fp) + _xnorm(fq)):
            raise AdditivityViolation(
                f"measure not additive on an orthogonal pair (residual {dev:.3e})"
            )
    bound = WorstResidual()
    for _ in range(bound_probe):
        bound.add(_xnorm(fx(_random(A, rng, "projection"))))
    return ProjectionMeasure(algebra=A, eval=f, bound=bound.worst)


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
    projections = A._canonical_projections()
    while len(projections) < probes:
        projections.append(_random(A, rng, "projection"))
    rows = np.stack([_sa_coords(A, p, basis) for p in projections])
    fx = _on_coords(A, mu.eval)
    vals = np.stack([np.asarray(fx(p), dtype=float) for p in projections])
    # fewer rows than the dimension have fewer singular values: count the rank
    sv = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * max(sv[0], 1.0)))
    if rank < len(basis):
        raise ProjectionsDoNotSpan(f"projection family spans only rank {rank} of {len(basis)}")
    # complex: a real-valued solve rounds the reported misfit differently,
    # by about 4e-16
    sol = np.linalg.lstsq(rows.astype(complex), vals.astype(complex), rcond=None)[0]
    T = np.real(sol).T  # k x d_sa
    misfit = WorstResidual()
    misfit.add([_xnorm(T @ r - v) for r, v in zip(rows, vals)])
    return LinearReconstruction(matrix=T, residual=misfit.worst, sa_basis=basis)


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
    fx = _on_coords(A, f)
    oc_dev = WorstResidual()
    for _ in range(min(trials, 50)):
        a, b = _draw_oc_pair(A, rng, 1)[:, 0]
        scale = 1.0 + A._norm(a) + A._norm(b)
        oc_dev.add(_xnorm(fx(a + b) - fx(a) - fx(b)) / scale)
    if not oc_dev.worst <= pass_tol:
        raise HypothesisFailed(f"f is not OC-additive (residual {oc_dev.worst:.3e})")
    bound = WorstResidual()
    for _ in range(min(trials, 50)):
        a = _random(A, rng, "self_adjoint")
        na = A._norm(a)
        if na > 1e-9:
            bound.add(_xnorm(fx((1.0 / na) * a)))
    mu = measure_from_map(A, f, bound_probe=min(trials, 50), seed=seed + 1)
    recon = linear_reconstruction(mu, probes=max(trials // 2, 40), seed=seed + 2)
    spectral_dev, agree = WorstResidual(), WorstResidual()
    for _ in range(trials):
        a = _random(A, rng, "self_adjoint")
        nodes, idems = _decompose(A, a)
        total = nodes @ np.stack([np.asarray(fx(p), dtype=float) for p in idems])
        fa = np.asarray(fx(a), dtype=float)
        scale = 1.0 + A._norm(a)
        spectral_dev.add(_xnorm(fa - total) / scale)
        agree.add(_xnorm(fa - recon.matrix @ _sa_coords(A, a, recon.sa_basis)) / scale)
    worst = WorstResidual()
    worst.add([agree.worst, recon.residual])
    passed = (
        not flagged
        and spectral_dev.worst <= pass_tol
        and recon.residual <= pass_tol * (1.0 + mu.bound)
        and agree.worst <= pass_tol * (1.0 + mu.bound)
    )
    return CheckReport(
        name=f"linearity-theorem[{A.id}]",
        passed=passed,
        trials=trials,
        max_residual=worst.worst,
        details={
            "bound_estimate": bound.worst,
            "measure_bound": mu.bound,
            "reconstruction_misfit": recon.residual,
            "spectral_identity_residual": spectral_dev.worst,
            "agreement_residual": agree.worst,
            "spin_summands": flagged,
            "theorem_grade": theorem_grade,
            "pass_tol": pass_tol,
        },
    )
