"""Unitaries, symmetries, logs, and metric inequalities as executable checks.

Logs of unitaries, and the powers exp(i n t h) of the circle inequality,
are always taken through a spectral decomposition, never by repeated
Jordan products: powers are only unambiguous inside the associative
subalgebra generated by the unitary, and the spectral route stays there by
construction.  The check bodies compute on coordinate arrays.  Unitarity,
symmetry and projections are each stated once, as a predicate
(``_unitary``, ``_symmetry``, ``_projection``) of defects and threshold;
every gate (those three, the log round trip, the symmetric-difference
identity) is a ``calculus._gate``, raised by ``calculus._require``, and
``is_unitary`` is the predicate's exact check.  Each check folds its draws
into a ``reports.WorstResidual``.  The log also takes a (k, dim) stack of
unitaries, with one batched eigensolve, row by row as one element (one
off-circle test for both).  ``oc_unitary_equivalences_check`` runs by chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraHandle, Element, _owned, _random
from .calculus import (
    _abelian_decomposition,
    _abelian_rows,
    _commute_gate,
    _decompose,
    _exact,
    _exp,
    _exp_i,
    _gate,
    _operator_commutes,
    _require,
    _u_operator,
)
from .errors import NotProjection, NotUnitary, VerificationFailed
from .reports import CheckReport, ResidualCheck, WorstResidual, chunk_sizes
from .samplers import _draw_oc_pair, _noncommuting_pair

__all__ = [
    "UnitaryLog",
    "is_unitary",
    "is_symmetry",
    "unitary_log",
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
    ambiguous: bool = False


def is_unitary(A: AlgebraHandle, u: Element) -> ResidualCheck:
    """Invertible with inverse u*: checks u o u* = 1 and u^2 o u* = u."""
    return _is_unitary(A, _owned(A, u))


def _unitary(A: AlgebraHandle, x: np.ndarray):
    """Unitarity of one element or of every row of a stack, as a predicate:
    ||x o x* - 1|| and ||x^2 o x* - x|| at most abs_eps (1 + ||x||)^3."""
    xs, eps = A._inv(x), A.tol.abs_eps
    defects = A._prod(x, xs) - A.unit.coords, A._prod(A._prod(x, x), xs) - x
    return defects, eps, lambda: eps * (1.0 + A._norm(x)) ** 3


def _is_unitary(A: AlgebraHandle, x: np.ndarray) -> ResidualCheck:
    """is_unitary on coordinates; on a (k, dim) stack, the residuals and
    thresholds of its rows as arrays (the check has no truth value then)."""
    defects, _, threshold = _unitary(A, x)
    return _exact(A, defects, threshold)


def is_symmetry(A: AlgebraHandle, s: Element) -> bool:
    """Self-adjoint with s o s = 1."""
    return bool(_gate(A, *_symmetry(A, _owned(A, s))))


def _symmetry(A: AlgebraHandle, x: np.ndarray):
    """Symmetry as a predicate: ||x* - x|| <= abs_eps (1 + ||x||) and
    ||x o x - 1|| <= abs_eps (1 + ||x||)^2, on one ||x||."""
    eps = A.tol.abs_eps
    limits = lambda n: (eps * n, eps * n**2)  # of n = 1 + ||x||
    return (A._inv(x) - x, A._prod(x, x) - A.unit.coords), eps, lambda: limits(1.0 + A._norm(x))


_NOT_UNITARY = "unitarity defect {:.3e} exceeds {:.3e}"
_OFF_CIRCLE = "spectrum points leave the unit circle by {:.3e}"


def _off_circle(nodes: np.ndarray) -> np.ndarray:
    """How far circle-spectrum nodes leave the unit circle, of one element
    or of each row of a (k, m) stack."""
    return np.max(np.abs(np.abs(nodes) - 1.0), axis=-1)


def _require_on_circle(off: np.ndarray) -> None:
    """NotUnitary, with the first failing row's, unless each ``_off_circle``
    is at most 1e-6 (a NaN fails)."""
    on = off <= 1e-6
    if not on.all():  # _require costs µs
        _require(ResidualCheck(on, off, 1e-6), NotUnitary, _OFF_CIRCLE)


def _unitary_decomposition(A: AlgebraHandle, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circle-spectrum nodes and idempotents (rows) of a unitary element."""
    _require(_gate(A, *_unitary(A, x)), NotUnitary, _NOT_UNITARY)
    nodes, idems = _abelian_decomposition(A, x, real_nodes=False)
    _require_on_circle(_off_circle(nodes))
    return nodes, idems


def unitary_log(A: AlgebraHandle, u: Element) -> UnitaryLog:
    """Self-adjoint h with exp_i(h, 1) = u, arguments in (-pi, pi]."""
    h, ambiguous = _unitary_log(A, _owned(A, u))
    return UnitaryLog(h=Element(A.id, h), ambiguous=ambiguous)


def _unitary_log(A: AlgebraHandle, x: np.ndarray):
    """(h, ambiguous) of unitary_log on coordinates; of each row of a
    (k, dim) stack, the (k, dim) logs and the (k,) mask of ambiguous rows.

    A stack is taken as ``_decompose_rows`` takes one: the unitarity gate
    over the rows, one batched ``_eigenpieces``, the rows with ``_near``
    nodes through ``_abelian_decomposition``, then the off-circle test of
    each row and one stacked round trip.  Each row equals its one-element
    log bit for bit, and a stage that fails raises with its first failing
    row."""
    if x.ndim == 1:
        h, ambiguous = _log(A, *_unitary_decomposition(A, x))
    else:
        _require(_gate(A, *_unitary(A, x)), NotUnitary, _NOT_UNITARY)
        nodes, idems, clustered = _abelian_rows(A, x, False)
        off = _off_circle(nodes)
        h, ambiguous = _log(A, nodes, idems)
        for i in np.flatnonzero(clustered):
            nodes, idems = _abelian_decomposition(A, x[i], real_nodes=False)
            off[i] = _off_circle(nodes)
            h[i], ambiguous[i] = _log(A, nodes, idems)
        _require_on_circle(off)
    check = _gate(A, (_exp_i(A, h, 1.0) - x,), 1e-6, lambda: 1e-6 * (1.0 + A._norm(x)))
    _require(check, VerificationFailed, "log round trip failed (residual {:.3e})")
    return (h, bool(ambiguous)) if x.ndim == 1 else (h, ambiguous)


def _log(A: AlgebraHandle, nodes: np.ndarray, idems: np.ndarray):
    """Sum of arg(node) times idempotent, arguments in (-pi, pi], and
    whether a node sits at the cut; of one decomposition or of each row of
    a stack of them."""
    # the branch cut is pinned at arg = pi; nodes numerically at -1 may
    # carry a tiny negative imaginary part that would flip the sign
    at_cut = np.abs(nodes + 1.0) <= A.tol.cluster_eps
    w = np.where(at_cut, math.pi, np.angle(nodes))
    return (w @ idems if w.ndim == 1 else (w[:, None] @ idems)[:, 0]), at_cut.any(axis=-1)


def oc_unitary_product_check(A: AlgebraHandle, trials: int, seed: int) -> CheckReport:
    """Jordan products of operator-commuting unitary pairs stay unitary.

    Pairs are built as exponentials of operator-commuting self-adjoint
    generators (``samplers._draw_oc_pair``, SamplerViolation on a pair that
    does not operator commute); each residual is the is_unitary defect of
    u o v.  The pairs are drawn and evaluated in chunks of at most
    ``reports.CHUNK``: one stacked draw, one stacked ``_exp_i`` for the
    h's, one for the k's, and one stacked product and is_unitary defect.
    """
    rng = np.random.default_rng(seed)
    acc = WorstResidual(1e-7)
    for size in chunk_sizes(trials):
        h, k = _draw_oc_pair(A, rng, size)
        u, v = _exp_i(A, h, 1.0), _exp_i(A, k, 1.0)
        residual = _is_unitary(A, A._prod(u, v)).residual
        acc.add(residual, lambda i: {"h": h[i].tolist(), "k": k[i].tolist()})
    return acc.report(f"oc-unitary-product[{A.id}]")


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
    Pairs are drawn by chunk, on the stream of one pair at a time; one
    exponent-grid ``_exp_i`` (t and 2t) serves a chunk's h's, one its k's.
    """
    grid = (-1.0, -0.5, 0.5, 1.0)
    exponents = np.concatenate([grid, np.multiply(2.0, grid)])  # t, then 2t, for t in the grid
    rng = np.random.default_rng(seed)
    acc = WorstResidual(1e-7)
    for size in chunk_sizes(trials):
        h, k = _draw_oc_pair(A, rng, size)
        eh, ek = _exp_i(A, h, exponents), _exp_i(A, k, exponents)  # (size, 8, dim)
        # (a) + (b): commutation of exponentials, including with the star
        u, v = eh[:, :4], ek[:, :4]
        residuals = [np.maximum(A._commutator_norm(u, v), A._commutator_norm(u, A._inv(v))).max(axis=1)]
        # (c): associativity inside the generated subalgebra, all 16 words x, y
        u1, v1 = eh[:, 3], ek[:, 3]
        words = np.stack([u1, v1, A._prod(u1, v1), A._prod(u1, u1)], axis=1)
        x, y, v1 = words[:, :, None], words[:, None, :], v1[:, None, None]
        defects = [A._prod(A._prod(x, y), v1) - A._prod(x, A._prod(y, v1))]
        # (d): exchange identity for all 16 pairs (t on axis 1, s on axis 2),
        # two evaluation paths for the left side; -2s runs over 2t reversed
        uth = eh[:, :4, None]
        lhs = _u_operator(A, uth, ek[:, None, 4:])
        defects.append(lhs - _u_operator(A, ek[:, None, :4], eh[:, 4:, None]))
        defects.append(lhs - A._triple(uth, ek[:, None, :3:-1], uth))
        residuals += [A._norm(d).max(axis=(1, 2)) for d in defects]  # np.max keeps a NaN
        acc.add(np.max(residuals, axis=0), lambda i: {"h": h[i].tolist(), "k": k[i].tolist()})
    rep = acc.report(f"oc-unitary-equivalences[{A.id}]", grid=list(grid))
    if adversarial:
        min_violation = math.inf
        found = 0
        for _ in range(adversarial):
            pair = _noncommuting_pair(A, rng)
            if pair is None:
                break
            found += 1
            (u, u2), (v, v2) = _exp_i(A, np.stack(pair), np.array([1.0, 2.0]))
            oc = _operator_commutes(A, u, v)
            exch = A._norm(_u_operator(A, u, v2) - _u_operator(A, v, u2))
            violation = max(oc.residual / oc.threshold, exch / oc.threshold)
            min_violation = min(min_violation, violation)
        rep.details["adversarial_found"] = found
        if found:
            rep.details["adversarial_min_violation_factor"] = min_violation
            rep.passed = rep.passed and min_violation >= 10.0
    return rep


def circle_inequality_check(A: AlgebraHandle, trials: int, seed: int) -> CheckReport:
    """n ||u - 1|| <= (pi/2) ||u^n - 1|| for unitaries with n ||u - 1|| < 2."""
    one = A.unit.coords
    rng = np.random.default_rng(seed)
    acc = WorstResidual(1e-9, -math.inf)
    for _ in range(trials):
        while True:  # redraw until n ||u - 1|| < 2 leaves a choice of n
            h = _random(A, rng, "self_adjoint")
            nh = A._norm(h)
            if nh < 1e-12:
                continue
            dec = _decompose(A, (1.0 / nh) * h)
            tau = rng.uniform(0.01, 0.6)
            r = A._norm(_exp(*dec, tau) - one)
            if r < 1e-9:
                continue
            nmax = int(min(1.999 / r, 64.0))
            if nmax >= 1:
                break
        n = int(rng.integers(1, nmax + 1))
        margin = n * r - (math.pi / 2.0) * A._norm(_exp(*dec, tau * n) - one)
        acc.add(margin, lambda i: {"n": n, "tau": tau})
    return acc.report(f"circle-inequality[{A.id}]", slack=1e-9)


def _projection(A: AlgebraHandle, x: np.ndarray):
    """Projection as a predicate, of one element or of each row of a stack:
    ||x o x - x|| and ||x* - x|| at most abs_eps (1 + ||x||)^2 + cluster_eps."""
    tol = A.tol
    threshold = lambda: tol.abs_eps * (1.0 + A._norm(x)) ** 2 + tol.cluster_eps
    return (A._prod(x, x) - x, A._inv(x) - x), tol.abs_eps + tol.cluster_eps, threshold


def _projection_defect(A: AlgebraHandle, x: np.ndarray):
    """max(||x o x - x||, ||x* - x||), of one element or of each row of a stack."""
    return np.maximum(*(A._norm(d) for d in _projection(A, x)[0]))


def _require_projection(A: AlgebraHandle, x: np.ndarray, label: str) -> None:
    """NotProjection unless x is a projection (``_projection``)."""
    _require(_gate(A, *_projection(A, x)), NotProjection, f"{label} is not a projection (residual {{:.3e}})")


def _symmetric_difference_defects(A: AlgebraHandle, x: np.ndarray, y: np.ndarray):
    """x Delta y and the defect of 1 - 2(x Delta y) = (1 - 2x) o (1 - 2y);
    on (k, dim) stacks, of each pair of rows."""
    one = A.unit.coords
    d = x + y - 2.0 * A._prod(x, y)
    return d, (one - 2.0 * d) - A._prod(one - 2.0 * x, one - 2.0 * y)


def symmetric_difference(A: AlgebraHandle, p: Element, q: Element) -> Element:
    """p Delta q = p + q - 2 p o q.

    When p and q operator commute the result is verified to be a projection
    and to satisfy 1 - 2(p Delta q) = (1 - 2p) o (1 - 2q).  Every gate is
    decided by ``_small`` or the commutator bound first.
    """
    x, y = _owned(A, p), _owned(A, q)
    _require_projection(A, x, "p")
    _require_projection(A, y, "q")
    d, e = _symmetric_difference_defects(A, x, y)
    if _commute_gate(A, x, y):
        _require_projection(A, d, "p Delta q")
        check = _gate(A, (e,), 1e-8, lambda: 1e-8 * (1.0 + A._norm(x)) * (1.0 + A._norm(y)))
        _require(check, VerificationFailed, "symmetric-difference identity violated ({:.3e})")
    return Element(A.id, d)
