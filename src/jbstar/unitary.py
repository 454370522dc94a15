"""Unitaries, symmetries, logs, and metric inequalities as executable checks.

Unitary powers are always taken through the spectral decomposition of the
unitary (equivalently, functional calculus on its log), never by repeated
Jordan products: powers are only unambiguous inside the associative
subalgebra generated by the unitary, and the spectral route stays there by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraHandle, Element, _random, involution, jbstar_norm, jordan_product
from .calculus import (
    _abelian_decomposition,
    exp_from_decomposition,
    exp_i,
    is_self_adjoint,
    operator_commutes,
    spectral_decomposition,
    u_operator,
    triple_product,
)
from .errors import NotProjection, NotUnitary, VerificationFailed
from .reports import CheckReport, ResidualCheck
from .samplers import noncommuting_pair, same_generator_pair

__all__ = [
    "UnitaryLog",
    "is_unitary",
    "is_symmetry",
    "unitary_log",
    "unitary_power",
    "oc_unitary_product_check",
    "oc_unitary_equivalences_check",
    "circle_inequality_check",
    "symmetric_difference",
]


@dataclass(frozen=True)
class UnitaryLog:
    """Principal-branch logarithm of a unitary: u = exp(i h).

    ``ambiguous`` flags spectra within cluster_eps of -1, where the choice
    arg = pi is forced by convention rather than by continuity.
    """

    h: Element
    branch: str = "principal"
    ambiguous: bool = False


def is_unitary(A: AlgebraHandle, u: Element) -> ResidualCheck:
    """Invertible with inverse u*: checks u o u* = 1 and u^2 o u* = u."""
    us = involution(A, u)
    r1 = jbstar_norm(A, jordan_product(A, u, us) - A.unit)
    u2 = jordan_product(A, u, u)
    r2 = jbstar_norm(A, jordan_product(A, u2, us) - u)
    residual = max(r1, r2)
    threshold = A.tol.abs_eps * (1.0 + jbstar_norm(A, u)) ** 3
    return ResidualCheck(residual <= threshold, residual, threshold)


def is_symmetry(A: AlgebraHandle, s: Element) -> bool:
    """Self-adjoint with s o s = 1."""
    if not is_self_adjoint(A, s):
        return False
    dev = jbstar_norm(A, jordan_product(A, s, s) - A.unit)
    return dev <= A.tol.abs_eps * (1.0 + jbstar_norm(A, s)) ** 2


def _unitary_decomposition(A: AlgebraHandle, u: Element):
    """Circle-spectrum nodes and idempotents of a unitary element."""
    chk = is_unitary(A, u)
    if not chk:
        raise NotUnitary(f"unitarity defect {chk.residual:.3e} exceeds {chk.threshold:.3e}")
    nodes, idems, residual = _abelian_decomposition(A, u.coords, real_nodes=False)
    off = max(abs(abs(z) - 1.0) for z in nodes)
    if off > 1e-6:
        raise NotUnitary(f"minimal-polynomial roots leave the unit circle by {off:.3e}")
    return nodes, idems, residual


def unitary_log(A: AlgebraHandle, u: Element) -> UnitaryLog:
    """Self-adjoint h with exp_i(h, 1) = u, arguments in (-pi, pi]."""
    nodes, idems, _ = _unitary_decomposition(A, u)
    ambiguous = any(abs(z + 1.0) <= A.tol.cluster_eps for z in nodes)
    h = A.zero()
    for z, e in zip(nodes, idems):
        # the branch cut is pinned at arg = pi; nodes numerically at -1 may
        # carry a tiny negative imaginary part that would flip the sign
        ang = math.pi if abs(z + 1.0) <= A.tol.cluster_eps else float(np.angle(z))
        h = h + ang * e
    back = exp_i(A, h, 1.0)
    r = jbstar_norm(A, back - u)
    if r > 1e-6 * (1.0 + jbstar_norm(A, u)):
        raise VerificationFailed(f"log round trip failed (residual {r:.3e})")
    return UnitaryLog(h=h, ambiguous=ambiguous)


def unitary_power(A: AlgebraHandle, u: Element, n: int) -> Element:
    """u^n through the spectral decomposition (stays in the generated
    associative subalgebra)."""
    nodes, idems, _ = _unitary_decomposition(A, u)
    return sum(((z / abs(z)) ** n * e for z, e in zip(nodes, idems)), A.zero())


def oc_unitary_product_check(A: AlgebraHandle, trials: int, seed: int) -> CheckReport:
    """Jordan products of operator-commuting unitary pairs stay unitary.

    Pairs are built as exponentials of operator-commuting self-adjoint
    generators; each residual is the is_unitary defect of u o v.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    for _ in range(trials):
        h, k = same_generator_pair(A, rng)
        if not operator_commutes(A, h, k):
            continue
        u = exp_i(A, h, 1.0)
        v = exp_i(A, k, 1.0)
        chk = is_unitary(A, jordan_product(A, u, v))
        if chk.residual > worst:
            worst = chk.residual
            if chk.residual > 1e-7:
                witness = {"h": h.coords.tolist(), "k": k.coords.tolist()}
    return CheckReport(
        name=f"oc-unitary-product[{A.id}]",
        passed=worst <= 1e-7,
        trials=trials,
        max_residual=worst,
        witness=witness,
    )


def oc_unitary_equivalences_check(
    A: AlgebraHandle, trials: int, seed: int, adversarial: int = 0
) -> CheckReport:
    """Equivalent characterizations of operator commutativity for unitaries.

    For operator-commuting self-adjoint h, k and grid values s, t in
    {-1, -1/2, 1/2, 1} this checks: (a) the exponentials operator commute,
    (b) u also operator commutes with v*, (c) sampled elements of the
    generated subalgebra associate, (d) the exchange identity
    U_{e^{ith}}(e^{2isk}) = U_{e^{isk}}(e^{2ith}), with the left side also
    evaluated through the triple product {e^{ith}, e^{-2isk}, e^{ith}}.
    Adversarial trials confirm that non-commuting generators violate at
    least one of these identities by a factor >= 10 over tolerance.
    """
    rng = np.random.default_rng(seed)
    grid = (-1.0, -0.5, 0.5, 1.0)
    worst = 0.0
    witness = None
    details: dict = {"grid": list(grid)}
    for _ in range(trials):
        h, k = same_generator_pair(A, rng)
        if not operator_commutes(A, h, k):
            continue
        dech = spectral_decomposition(A, h)
        deck = spectral_decomposition(A, k)
        residual = 0.0
        # (a) + (b): commutation of exponentials, including with the star
        for t in grid:
            u = exp_from_decomposition(A, dech, t)
            v = exp_from_decomposition(A, deck, t)
            residual = max(residual, operator_commutes(A, u, v).residual)
            residual = max(residual, operator_commutes(A, u, involution(A, v)).residual)
        # (c): associativity inside the generated subalgebra
        u1 = exp_from_decomposition(A, dech, 1.0)
        v1 = exp_from_decomposition(A, deck, 1.0)
        words = [u1, v1, jordan_product(A, u1, v1), jordan_product(A, u1, u1)]
        for i in range(len(words)):
            for j in range(len(words)):
                x, y = words[i], words[j]
                lhs = jordan_product(A, jordan_product(A, x, y), v1)
                rhs = jordan_product(A, x, jordan_product(A, y, v1))
                residual = max(residual, jbstar_norm(A, lhs - rhs))
        # (d): exchange identity, two evaluation paths for the left side
        for t in grid:
            for s in grid:
                uth = exp_from_decomposition(A, dech, t)
                usk = exp_from_decomposition(A, deck, s)
                u2t = exp_from_decomposition(A, dech, 2.0 * t)
                v2s = exp_from_decomposition(A, deck, 2.0 * s)
                lhs = u_operator(A, uth, v2s)
                lhs_triple = triple_product(
                    A, uth, exp_from_decomposition(A, deck, -2.0 * s), uth
                )
                rhs = u_operator(A, usk, u2t)
                residual = max(residual, jbstar_norm(A, lhs - rhs))
                residual = max(residual, jbstar_norm(A, lhs - lhs_triple))
        if residual > worst:
            worst = residual
            if residual > 1e-7:
                witness = {"h": h.coords.tolist(), "k": k.coords.tolist()}
    passed = worst <= 1e-7
    if adversarial:
        min_violation = math.inf
        found = 0
        for _ in range(adversarial):
            pair = noncommuting_pair(A, rng)
            if pair is None:
                break
            h, k = pair
            found += 1
            u = exp_i(A, h, 1.0)
            v = exp_i(A, k, 1.0)
            oc = operator_commutes(A, u, v)
            exch = jbstar_norm(
                A,
                u_operator(A, u, exp_i(A, k, 2.0)) - u_operator(A, v, exp_i(A, h, 2.0)),
            )
            violation = max(oc.residual / oc.threshold, exch / oc.threshold)
            min_violation = min(min_violation, violation)
        details["adversarial_found"] = found
        if found:
            details["adversarial_min_violation_factor"] = min_violation
            passed = passed and min_violation >= 10.0
    return CheckReport(
        name=f"oc-unitary-equivalences[{A.id}]",
        passed=passed,
        trials=trials,
        max_residual=worst,
        witness=witness,
        details=details,
    )


def circle_inequality_check(A: AlgebraHandle, trials: int, seed: int) -> CheckReport:
    """n ||u - 1|| <= (pi/2) ||u^n - 1|| for unitaries with n ||u - 1|| < 2."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    witness = None
    count = 0
    while count < trials:
        h = _random(A, rng, "self_adjoint")
        nh = jbstar_norm(A, h)
        if nh < 1e-12:
            continue
        h = (1.0 / nh) * h
        dec = spectral_decomposition(A, h)
        tau = rng.uniform(0.01, 0.6)
        u = exp_from_decomposition(A, dec, tau)
        r = jbstar_norm(A, u - A.unit)
        if r < 1e-9:
            continue
        nmax = int(min(1.999 / r, 64.0))
        if nmax < 1:
            continue
        n = int(rng.integers(1, nmax + 1))
        un = exp_from_decomposition(A, dec, tau * n)
        margin = n * r - (math.pi / 2.0) * jbstar_norm(A, un - A.unit)
        count += 1
        if margin > worst:
            worst = margin
            witness = {"n": n, "tau": tau} if margin > 1e-9 else witness
    return CheckReport(
        name=f"circle-inequality[{A.id}]",
        passed=worst <= 1e-9,
        trials=trials,
        max_residual=worst,
        witness=witness,
        details={"slack": 1e-9},
    )


def _require_projection(A: AlgebraHandle, p: Element, label: str):
    thr = A.tol.abs_eps * (1.0 + jbstar_norm(A, p)) ** 2 + A.tol.cluster_eps
    r = max(
        jbstar_norm(A, jordan_product(A, p, p) - p),
        jbstar_norm(A, involution(A, p) - p),
    )
    if r > thr:
        raise NotProjection(f"{label} is not a projection (residual {r:.3e})")


def symmetric_difference(A: AlgebraHandle, p: Element, q: Element) -> Element:
    """p Delta q = p + q - 2 p o q.

    When p and q operator commute the result is verified to be a projection
    and to satisfy 1 - 2(p Delta q) = (1 - 2p) o (1 - 2q).
    """
    _require_projection(A, p, "p")
    _require_projection(A, q, "q")
    d = p + q - 2.0 * jordan_product(A, p, q)
    if operator_commutes(A, p, q):
        _require_projection(A, d, "p Delta q")
        ups = A.unit - 2.0 * d
        prod = jordan_product(A, A.unit - 2.0 * p, A.unit - 2.0 * q)
        r = jbstar_norm(A, ups - prod)
        if r > 1e-8 * (1.0 + jbstar_norm(A, p)) * (1.0 + jbstar_norm(A, q)):
            raise VerificationFailed(f"symmetric-difference identity violated ({r:.3e})")
    return d
