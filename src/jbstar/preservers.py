"""Verification harness for preserver-type hypotheses and conclusions.

A candidate map is wrapped in a MapUnderTest and probed against the
structural hypotheses this package can verify at desk scale: additivity
and quadratic multiplicativity on operator-commuting pairs, piecewise
Jordan homomorphism behaviour on unitaries, one-parameter generator
extraction, the exponential structure form, the factor dichotomy, the
Peirce-2 structure recovery, and the sharp spin-factor counterexample.

All checks report residuals; pass thresholds are parameters with uniform
defaults, never hard-wired booleans.  Residuals recorded in reports are
normalized by the per-trial scale (1 + norms of the inputs involved) so
that thresholds are comparable across trials.

Check bodies compute on coordinate arrays.  The maps take and return
``Element``s; ``MapUnderTest._eval`` and ``_inverse``, the map calls, are the
only place a check body meets one.  They also take (k, dim) stacks: a map
callable that carries a ``rows`` attribute, its form on coordinate stacks,
maps a stack in one call, and any other is called once per row.  Every
map built from a descriptor carries one.  Every operator-commuting pair is
a same-generator draw from ``samplers._draw_oc_pair``, which raises
SamplerViolation on a pair that does not operator commute.

The OC checks, the piecewise-homomorphism check, the loops of
``recover_structure``, ``verify_counterexample`` and
``classify_factor_dichotomy``, ``verify_jordan_star_isomorphism`` and
``check_generator_properties`` consume the generator as one draw at a time
would, and evaluate chunks of at most ``reports.CHUNK`` draws as stacks
whose rows equal the one-draw results bit for bit; the generator map of a
stack (``_generator``) takes one spectral decomposition, one map call and
one stacked ``unitary._unitary_log``.  A chunk's draws are all taken, and
its map calls all made, before any of its residuals is looked at: a draw's
SamplerViolation comes before a map error of an earlier draw of its chunk.  The checks left
one draw at a time feed each draw to the same fold, ``reports.WorstResidual``,
which also keeps the raw and unreported maxima.  Every gate, on the
images of unitaries, the generator's halving, unitality, round trips,
centrality (the predicate ``_central``) or the counterexample's domain,
goes through ``calculus._gate`` and ``calculus._require``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebras import (
    AlgebraHandle,
    Element,
    HermitianMatrixAlgebra,
    SpinFactor,
    _owned,
    _random,
    _random_rows,
    _rows_from_normals,
    _unitary_generator,
    element_from_json,
)
from .calculus import _exp_i, _gate, _require, _self_adjoint, _u_operator, is_invertible
from .errors import (
    BranchAmbiguity,
    HypothesisFailed,
    Inconsistent,
    NonUnitaryImage,
    NotAFactor,
    ParamOutOfRange,
    PreconditionFailed,
)
from .kernel import Tolerance
from .peirce import _is_tripotent, _peirce2_algebra, _tripotent
from .reports import CheckReport, ResidualCheck, WorstResidual, chunk_sizes
from .samplers import _commuting_projection_pair, _draw_oc_pair
from .unitary import _symmetry, _unitary, _unitary_log

__all__ = [
    "MapUnderTest",
    "StructureRecovery",
    "SpinCounterexample",
    "DichotomyResult",
    "check_oc_additive",
    "check_oc_quadratic",
    "check_piecewise_hom_on_unitaries",
    "derive_generator_map",
    "check_generator_properties",
    "verify_jordan_star_isomorphism",
    "verify_unitary_preserver_form",
    "classify_factor_dichotomy",
    "recover_structure",
    "build_spin_counterexample",
    "verify_counterexample",
    "check_central_preservation",
    "check_i_unit_image",
    "map_from_descriptor",
]


@dataclass
class MapUnderTest:
    """Candidate map between two algebra handles.

    ``eval`` must be deterministic and reentrant.  ``inverse`` is optional;
    bijectivity is never inferred, only probed by round trips against a
    supplied inverse.  Either callable may carry a ``rows`` attribute: the
    same map on a (k, dim) stack of coordinates, returning the stack of the
    images' coordinates, which the checks call on a chunk of draws in
    place of k calls.  It travels with its callable, so a map rebuilt with
    another ``eval`` or ``inverse`` never reaches the old stacked form.
    """

    source: AlgebraHandle
    target: AlgebraHandle
    eval: Callable[[Element], Element]
    label: str = ""
    inverse: Callable[[Element], Element] | None = None

    def __call__(self, a: Element) -> Element:
        if a.algebra_id != self.source.id:
            raise PreconditionFailed(f"map {self.label!r} got element of {a.algebra_id}")
        return self._checked(self.eval(a), self.target)

    def _eval(self, x: np.ndarray) -> np.ndarray:
        """The map on source coordinates, as target coordinates; of one
        element or of each row of a (k, dim) stack."""
        return self._apply(self.eval, x, self.source, self.target, "")

    def _inverse(self, y: np.ndarray) -> np.ndarray:
        """The supplied inverse on target coordinates, as source coordinates."""
        return self._apply(self.inverse, y, self.target, self.source, " inverse")

    def _apply(self, fn, x, domain: AlgebraHandle, codomain: AlgebraHandle, role: str) -> np.ndarray:
        """``fn`` on coordinates: one element through ``fn`` itself, a stack
        through ``fn.rows`` when it has one and row by row otherwise.  A
        stacked output of the wrong shape, or with a non-finite entry,
        raises what ``_checked`` and ``Element`` raise for one element."""
        if x.ndim == 1:
            return self._checked(fn(Element(domain.id, x)), codomain, role).coords
        rows = getattr(fn, "rows", None)
        if rows is None:
            return np.stack([self._checked(fn(Element(domain.id, r)), codomain, role).coords for r in x])
        out = np.asarray(rows(x), dtype=complex)
        if out.shape != (len(x), codomain.dim):
            raise PreconditionFailed(f"map {self.label!r}{role} returned shape {out.shape}")
        if not np.isfinite(out).all():
            raise ValueError("element coordinates must be finite")
        return out

    def _checked(self, e: Element, codomain: AlgebraHandle, role: str = "") -> Element:
        if e.algebra_id != codomain.id:
            raise PreconditionFailed(f"map {self.label!r}{role} returned element of {e.algebra_id}")
        if e.coords.shape != (codomain.dim,):
            raise PreconditionFailed(f"map {self.label!r}{role} returned shape {e.coords.shape}")
        return e


@dataclass
class StructureRecovery:
    """Outcome of the Peirce-2 structure recovery for a candidate map."""

    w: Element
    peirce2: AlgebraHandle
    hom_residual: float
    linearity_residual: float
    w_central_symmetry: bool | None
    details: dict = field(default_factory=dict)


@dataclass
class DichotomyResult:
    label: str  # identity_case | inverse_case | neither
    identity_residual: float
    inverse_residual: float
    witness: dict | None = None


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x for each row x of a stack, as ``M @ x`` gives it for one row bit
    for bit (``x @ M.T`` takes another BLAS route, which rounds otherwise)."""
    return (M @ x[..., None])[..., 0]


def _oc_pair_check(name, m: MapUnderTest, trials, seed, pass_tol, residual, **details):
    """Worst normalized residual over operator-commuting pairs, where
    ``residual(x, y)`` returns (raw residuals, scales) for (k, dim) stacks
    of pair coordinates.  The pairs are same-generator draws
    (``samplers._draw_oc_pair``), in chunks."""
    rng = np.random.default_rng(seed)
    acc, raw = WorstResidual(pass_tol), WorstResidual()
    for size in chunk_sizes(trials):
        x, y = _draw_oc_pair(m.source, rng, size)
        r, scale = residual(x, y)
        raw.add(r)
        acc.add(r / scale, lambda i: {"a": x[i].tolist(), "b": y[i].tolist(), "residual": float(r[i])})
    return acc.report(f"{name}[{m.label}]", pass_tol=pass_tol, **details, max_raw_residual=raw.worst)


def check_oc_additive(
    m: MapUnderTest, trials: int = 200, seed: int = 0, pass_tol: float = 1e-7
) -> CheckReport:
    """Additivity on operator-commuting self-adjoint pairs."""
    src, tgt, f = m.source, m.target, m._eval

    def residual(x, y):
        r = tgt._norm(f(x + y) - f(x) - f(y))
        return r, 1.0 + src._norm(x) + src._norm(y)

    return _oc_pair_check("oc-additive", m, trials, seed, pass_tol, residual)


def check_oc_quadratic(
    m: MapUnderTest,
    trials: int = 200,
    seed: int = 0,
    pass_tol: float = 1e-7,
    starred: bool = False,
) -> CheckReport:
    """Phi(U_a(b)) = U_{Phi(a)}(Phi(b)) on operator-commuting pairs.

    ``starred`` switches to the triple-product variant used for
    full-algebra maps: Phi(U_a(b*)) = U_{Phi(a)}(Phi(b)*).
    """
    src, tgt, f = m.source, m.target, m._eval

    def residual(x, y):
        if starred:
            lhs = f(_u_operator(src, x, src._inv(y)))
            rhs = _u_operator(tgt, f(x), tgt._inv(f(y)))
        else:
            lhs = f(_u_operator(src, x, y))
            rhs = _u_operator(tgt, f(x), f(y))
        r = tgt._norm(lhs - rhs)
        return r, (1.0 + src._norm(x)) ** 2 * (1.0 + src._norm(y))

    return _oc_pair_check("oc-quadratic", m, trials, seed, pass_tol, residual, starred=starred)


_NOT_UNITARY_IMAGES = np.array(["image of u is not unitary", "image of v is not unitary"])


def check_piecewise_hom_on_unitaries(
    m: MapUnderTest, trials: int = 100, seed: int = 0, pass_tol: float = 1e-7
) -> CheckReport:
    """Unit preservation plus multiplicativity and commutativity preservation
    on operator-commuting unitary pairs."""
    src, tgt, f = m.source, m.target, m._eval
    rng = np.random.default_rng(seed)
    img_unit = f(src.unit.coords)
    _require(_gate(tgt, *_unitary(tgt, img_unit)), NonUnitaryImage, "image of the unit is not unitary")
    unit_residual = tgt._norm(img_unit - tgt.unit.coords)
    acc = WorstResidual(pass_tol, unit_residual)
    for size in chunk_sizes(trials):
        h, k = _draw_oc_pair(src, rng, size)
        u, v = _exp_i(src, h, 1.0), _exp_i(src, k, 1.0)
        fu, fv = f(u), f(v)
        images = np.stack([fu, fv], axis=1)  # in draw order: u, then v, of each pair
        _require(_gate(tgt, *_unitary(tgt, images)), NonUnitaryImage, _NOT_UNITARY_IMAGES)
        mult = tgt._norm(f(src._prod(u, v)) - tgt._prod(fu, fv))
        r = np.maximum(mult, tgt._commutator_norm(fu, fv))
        acc.add(r, lambda i: {"h": h[i].tolist(), "k": k[i].tolist(), "residual": float(r[i])})
    name = f"piecewise-hom-unitaries[{m.label}]"
    return acc.report(name, unit_residual=unit_residual, pass_tol=pass_tol)


def derive_generator_map(m: MapUnderTest, a: Element, t_small: float = 1.0 / 16.0) -> Element:
    """Generator f(a) with Phi(exp(i t a)) = exp(i t f(a)), from the log at
    t = min(t_small, 1/|a|), consistency-checked against t/2; t |a| <= 1
    keeps the spectrum of exp(i t a) away from the branch cut of the log."""
    return Element(m.target.id, _generator(m, _owned(m.source, a)[None], t_small)[0])


def _generator(m: MapUnderTest, x: np.ndarray, t_small: float = 1.0 / 16.0) -> np.ndarray:
    """derive_generator_map of each row of a (k, dim) stack, as one stack:
    one stacked ``_exp_i`` over the (k, 2) grid of t and t/2, the map takes
    the 2k exponentials (each row's at t, then at t/2) in one call, and one
    stacked ``_unitary_log`` takes their images.  Each stage, and the
    branch and halving gates after them, raises with its first failing row."""
    tgt = m.target
    step = t_small / np.maximum(1.0, t_small * m.source._norm(x))  # min(t_small, 1/|x|)
    t = np.stack([step, step / 2.0], axis=-1)
    h, ambiguous = _unitary_log(tgt, m._eval(_exp_i(m.source, x, t).reshape(2 * len(x), -1)))
    if np.any(ambiguous):
        raise BranchAmbiguity("image spectrum touches -1; shrink t_small")
    f1, f2 = ((1.0 / t)[..., None] * h.reshape(len(x), 2, -1)).swapaxes(0, 1)
    eps = 10.0 * tgt.tol.abs_eps
    check = _gate(tgt, (f1 - f2,), eps + 1e-9, lambda: eps * (1.0 + tgt._norm(f1)) + 1e-9)
    _require(check, Inconsistent, "halving t_small moved the generator by {:.3e}")
    return f1


def check_generator_properties(
    m: MapUnderTest, trials: int = 20, seed: int = 0, pass_tol: float = 1e-6
) -> CheckReport:
    """Homogeneity, OC-additivity, and OC-preservation of the derived
    generator map, with a boundedness estimate.  Each chunk of draws, taken
    in the order of one draw at a time (its pair, then its factor tau),
    goes through ``_generator`` as one stack of a, b, a + b and tau a."""
    src, tgt = m.source, m.target
    rng = np.random.default_rng(seed)
    acc, bound = WorstResidual(pass_tol), WorstResidual()
    draw = lambda: (*_draw_oc_pair(src, rng, 1)[:, 0], rng.choice([-2.0, -1.0, 0.5, 3.0]))
    for size in chunk_sizes(trials):
        a, b, tau = (np.array(column) for column in zip(*(draw() for _ in range(size))))
        tau = tau[:, None]
        fa, fb, fab, fta = _generator(m, np.concatenate([a, b, a + b, tau * a])).reshape(4, size, -1)
        r_add = tgt._norm(fab - fa - fb)
        r_hom = tgt._norm(fta - tau * fa)
        na = src._norm(a)
        scale = 1.0 + na + src._norm(b)
        r = np.maximum(np.maximum(r_add, r_hom), tgt._commutator_norm(fa, fb)) / scale
        acc.add(r, lambda i: {"a": a[i].tolist(), "b": b[i].tolist()})
        bound.add(tgt._norm(fa)[na > 1e-9] / na[na > 1e-9])
    name = f"generator-properties[{m.label}]"
    return acc.report(name, pass_tol=pass_tol, bound_estimate=bound.worst)


_ISOMORPHISM_FAILURES = (
    "theta is not complex linear (residual {:.3e})",
    "theta is not Jordan multiplicative ({:.3e})",
    "theta does not preserve the involution ({:.3e})",
    "theta round trip failed ({:.3e})",
)


def verify_jordan_star_isomorphism(
    theta: MapUnderTest, trials: int = 30, seed: int = 0, pass_tol: float = 1e-7
) -> float:
    """Re-verify a claimed Jordan *-isomorphism on samples.

    Checks unitality, complex linearity, Jordan multiplicativity, star
    preservation, and (when an inverse is supplied) the round trip.  Raises
    PreconditionFailed naming the first broken hypothesis.
    """
    src, tgt, f = theta.source, theta.target, theta._eval
    rng = np.random.default_rng(seed)
    worst = WorstResidual()
    check = _gate(tgt, (f(src.unit.coords) - tgt.unit.coords,), pass_tol, lambda: pass_tol)
    _require(check, PreconditionFailed, "theta is not unital (residual {:.3e})")
    for size in chunk_sizes(trials):
        # each draw's a, b (2 dim normals each) and complex factor (2 normals)
        z = rng.standard_normal((size, 4 * src.dim + 2))
        a, b = _rows_from_normals(src, z[:, :-2].reshape(size, 2, 2, src.dim), "general").swapaxes(0, 1)
        al = (z[:, -2] + 1j * z[:, -1])[:, None]
        scale = (1.0 + src._norm(a)) * (1.0 + src._norm(b))
        fa, fb = f(a), f(b)
        residuals = [
            tgt._norm(f(a * al + b) - fa * al - fb),
            tgt._norm(f(src._prod(a, b)) - tgt._prod(fa, fb)),
            tgt._norm(f(src._inv(a)) - tgt._inv(fa)),
        ]
        if theta.inverse is not None:
            residuals.append(src._norm(theta._inverse(fa) - a))
        residuals, limit = np.transpose(residuals), pass_tol * scale[:, None]  # draw by draw
        check = ResidualCheck(residuals <= limit, residuals, limit)  # a NaN fails
        _require(check, PreconditionFailed, _ISOMORPHISM_FAILURES[: residuals.shape[1]])
        worst.add(residuals)
    return worst.worst


def _central_projection_residual(A: AlgebraHandle, x: np.ndarray) -> np.floating:
    """The coordinate 2-norm of x's part off the centre."""
    B = np.stack(A._center_rows, axis=1)
    return np.linalg.norm(x - B @ (B.conj().T @ x))


def _central(A: AlgebraHandle, x: np.ndarray, eps: float):
    """Central self-adjointness as a predicate: ``_self_adjoint``, and
    ``_central_projection_residual`` at most eps (1 + ||x||), on one ||x||."""
    (skew,), sa_eps, _ = _self_adjoint(A, x)
    limits = lambda n: (sa_eps * n, eps * n)  # of n = 1 + ||x||
    return (skew, _central_projection_residual(A, x)), min(sa_eps, eps), lambda: limits(1.0 + A._norm(x))


def verify_unitary_preserver_form(
    m: MapUnderTest,
    theta: MapUnderTest,
    beta: Callable[[Element], Element],
    c: Element,
    trials: int = 50,
    seed: int = 0,
    pass_tol: float = 1e-6,
) -> CheckReport:
    """Compare Phi(exp(i a)) against both closed forms of the structure
    theorem: exp(i beta(a)) o exp(i c o theta(a)) and
    exp(i beta(a)) o theta(exp(i theta^{-1}(c) o a))."""
    src, tgt, f, th = m.source, m.target, m._eval, theta._eval
    if (theta.source.id, theta.target.id) != (src.id, tgt.id):
        raise PreconditionFailed("theta must map between the algebras of Phi")
    verify_jordan_star_isomorphism(theta, trials=10, seed=seed)
    if theta.inverse is None:
        raise PreconditionFailed("theta must carry an inverse for the second closed form")
    z = _owned(tgt, c)
    _require(_gate(tgt, *_central(tgt, z, 1e-8)), PreconditionFailed, "c is not central self-adjoint")
    if is_invertible(tgt, c) is None:
        raise PreconditionFailed("c is not invertible")
    z_back = theta._inverse(z)
    rng = np.random.default_rng(seed)
    acc = WorstResidual(pass_tol)
    for _ in range(trials):
        a = _random(src, rng, "self_adjoint")
        na = src._norm(a)
        if na > 2.5:
            a = (2.5 / na) * a
        ba = _owned(tgt, beta(Element(src.id, a)))
        message = "beta(a) is not central self-adjoint"
        _require(_gate(tgt, *_central(tgt, ba, 1e-8)), PreconditionFailed, message)
        v0 = f(_exp_i(src, a, 1.0))
        phase = _exp_i(tgt, ba, 1.0)
        v1 = tgt._prod(phase, _exp_i(tgt, tgt._prod(z, th(a)), 1.0))
        v2 = tgt._prod(phase, th(_exp_i(src, src._prod(z_back, a), 1.0)))
        r = float(np.max([tgt._norm(v0 - v1), tgt._norm(v0 - v2), tgt._norm(v1 - v2)]))  # keeps a NaN
        acc.add(r, lambda i: {"a": a.tolist(), "residual": r})
    return acc.report(f"unitary-preserver-form[{m.label}]", pass_tol=pass_tol)


def classify_factor_dichotomy(
    m: MapUnderTest, theta: MapUnderTest, trials: int = 100, seed: int = 0, pass_tol: float = 1e-7
) -> DichotomyResult:
    """Decide between Phi = theta and Phi = theta(inverse) on random unitaries
    of a factor source not of type I2 (``AlgebraHandle.is_type_i2``)."""
    src, tgt = m.source, m.target
    if len(src._center_rows) != 1:
        raise NotAFactor("source centre has dimension > 1")
    if src.is_type_i2:
        raise NotAFactor("source is a spin factor (type I2), dichotomy does not apply")
    if (theta.source.id, theta.target.id) != (src.id, tgt.id):
        raise PreconditionFailed("theta must map between the algebras of Phi")
    verify_jordan_star_isomorphism(theta, trials=10, seed=seed)
    rng = np.random.default_rng(seed)
    r_id, r_inv, either = WorstResidual(), WorstResidual(), WorstResidual(pass_tol)
    for size in chunk_sizes(trials):
        # the draws of _random(src, rng, "unitary"), exponentiated as one stack
        u = _exp_i(src, np.array([_unitary_generator(src, rng) for _ in range(size)]), 1.0)
        fu = m._eval(u)
        scale = 1.0 + src._norm(u)
        d_id = tgt._norm(fu - theta._eval(u)) / scale
        d_inv = tgt._norm(fu - theta._eval(src._inv(u))) / scale
        r_id.add(d_id)
        r_inv.add(d_inv)
        either.add(np.fmax(d_id, d_inv), lambda i: {"u": u[i].tolist()})
    residuals = r_id.worst, r_inv.worst
    if r_id.worst <= pass_tol:
        return DichotomyResult("identity_case", *residuals)
    if r_inv.worst <= pass_tol:
        return DichotomyResult("inverse_case", *residuals)
    return DichotomyResult("neither", *residuals, witness=either.witness)


def recover_structure(
    m: MapUnderTest,
    trials: int = 100,
    seed: int = 0,
    pass_tol: float = 1e-6,
) -> StructureRecovery:
    """Structure recovery for an OC-additive, OC-quadratic map.

    Verifies the two hypotheses, forms w = Phi(1) (checked tripotent) and
    the Peirce-2 algebra at w, then reports two normalized residuals:

    * ``hom_residual``: multiplicativity into the Peirce-2 product plus
      additivity, both on operator-commuting pairs;
    * ``linearity_residual``: real-linear combination defects on general
      (not necessarily commuting) pairs.

    When an inverse is supplied and round-trips pass, w is additionally
    tested for being a central symmetry of the target.
    """
    src, tgt, f = m.source, m.target, m._eval
    add = check_oc_additive(m, max(trials // 2, 20), seed, pass_tol=pass_tol)
    if not add.passed:
        raise HypothesisFailed(f"OC-additivity fails (residual {add.max_residual:.3e})")
    quad = check_oc_quadratic(m, max(trials // 2, 20), seed + 1, pass_tol=pass_tol)
    if not quad.passed:
        raise HypothesisFailed(f"OC-quadratic identity fails (residual {quad.max_residual:.3e})")
    w = f(src.unit.coords)
    trip = _is_tripotent(tgt, w)
    _require(trip, HypothesisFailed, "Phi(1) is not a tripotent (residual {:.3e})")
    sub = _peirce2_algebra(tgt, w)
    project, embed = sub.project, sub.embed  # as peirce2_project and peirce2_embed
    rng = np.random.default_rng(seed + 2)
    hom, lin, isom, rt = WorstResidual(), WorstResidual(), WorstResidual(), WorstResidual()
    for size in chunk_sizes(trials):
        a, b = _draw_oc_pair(src, rng, size)
        fa, fb = f(a), f(b)
        lhs = f(src._prod(a, b))
        rhs = _matvec(embed, sub._prod(_matvec(project, fa), _matvec(project, fb)))
        scale = (1.0 + src._norm(a)) * (1.0 + src._norm(b))
        hom.add([tgt._norm(lhs - rhs) / scale, tgt._norm(f(a + b) - fa - fb) / scale])
    sa = lambda: _random(src, rng, "self_adjoint")
    for size in chunk_sizes(trials):
        drawn = [(sa(), sa(), rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=2)) for _ in range(size)]
        a, b, coeffs = (np.array(column) for column in zip(*drawn))
        al, be = coeffs[:, :1], coeffs[:, 1:]
        r = tgt._norm(f(al * a + be * b) - al * f(a) - be * f(b))
        scale = 1.0 + abs(al[:, 0]) * src._norm(a) + abs(be[:, 0]) * src._norm(b)
        lin.add(r / scale)
    # sampled isometry of Phi into the Peirce-2 norm; reported, never gated
    for size in chunk_sizes(min(trials, 50)):
        a = _random_rows(src, rng, size, "self_adjoint")
        na = src._norm(a)
        isom.add(abs(sub._norm(_matvec(project, f(a))) - na) / (1.0 + na))
    central_symmetry = None
    if m.inverse is not None:
        a = _random_rows(src, rng, 10, "self_adjoint")
        rt.add(src._norm(m._inverse(f(a)) - a) / (1.0 + src._norm(a)))
        if rt.worst <= pass_tol:
            central_symmetry = bool(_gate(tgt, *_symmetry(tgt, w)) and _gate(tgt, *_central(tgt, w, 1e-7)))
    return StructureRecovery(
        w=Element(tgt.id, w),
        peirce2=sub,
        hom_residual=hom.worst,
        linearity_residual=lin.worst,
        w_central_symmetry=central_symmetry,
        details={
            "oc_additive": add.to_json(),
            "oc_quadratic": quad.to_json(),
            "tripotent_residual": trip.residual,
            "isometry_residual": isom.worst,
        },
    )


# -- the sharp spin-factor counterexample ------------------------------------


@dataclass
class SpinCounterexample:
    """Norm-preserving angle warp on H^-, extended by identity on the unit."""

    algebra: AlgebraHandle
    epsilon: float
    map: MapUnderTest


def _warp_angle(phi: float, eps: float) -> float:
    return phi + eps * math.sin(2.0 * phi)


def _unwarp_angle(phi_out: float, eps: float) -> float:
    # contraction iteration; |d(eps sin 2phi)/dphi| = 2 eps < 1
    psi = phi_out
    for _ in range(200):
        nxt = phi_out - eps * math.sin(2.0 * psi)
        if abs(nxt - psi) < 1e-15:
            return nxt
        psi = nxt
    return psi


def _warp_vector(v: np.ndarray, eps: float, invert: bool) -> np.ndarray:
    out = v.astype(float).copy()
    r = math.hypot(out[0], out[1])
    if r == 0.0:
        return out
    phi = math.atan2(out[1], out[0])
    phi2 = _unwarp_angle(phi, eps) if invert else _warp_angle(phi, eps)
    out[0] = r * math.cos(phi2)
    out[1] = r * math.sin(phi2)
    return out


def build_spin_counterexample(
    n: int, epsilon: float, tol: Tolerance = Tolerance()
) -> SpinCounterexample:
    """Phi(lambda 1 + h) = lambda 1 + F(h) on the self-adjoint part of
    spin(n) (tolerances tol), with F the polar warp (r, phi) ->
    (r, phi + eps sin 2 phi) in the first two H^- coordinates.

    F is 1-homogeneous for all real scalars (the warp commutes with the
    antipode phi -> phi + pi) and preserves the H^- norm, but is not
    additive; Phi is therefore additive and quadratic on operator-commuting
    pairs while failing global additivity.
    """
    if n < 3:
        raise ParamOutOfRange(f"need n >= 3, got {n}")
    if not (0.0 < epsilon < 0.5):
        raise ParamOutOfRange(f"epsilon must lie in (0, 0.5), got {epsilon}")
    V = SpinFactor(n, tol)

    def warp(invert: bool):
        def rows(x: np.ndarray) -> np.ndarray:
            message = "counterexample map is defined on self-adjoints only"
            _require(_gate(V, *_self_adjoint(V, x)), PreconditionFailed, message)
            out = np.empty(x.shape, dtype=complex)
            out[:, 0] = x[:, 0].real
            out[:, 1:] = 1j * np.array([_warp_vector(r.imag, epsilon, invert) for r in x[:, 1:]])
            return out

        return _with_rows(lambda a: Element(V.id, rows(_owned(V, a)[None])[0]), rows)

    label = f"spin-counterexample(n={n},eps={epsilon})"
    mp = MapUnderTest(V, V, warp(False), label=label, inverse=warp(True))
    return SpinCounterexample(algebra=V, epsilon=epsilon, map=mp)


def _spin_u_closed_form(V: AlgebraHandle, alphas, ss, ts, h: np.ndarray) -> np.ndarray:
    """Closed-form U_a(b) for a = alpha 1 + h and b = (t + s alpha) 1 + s h,
    for each row of a (k, dim) stack h, with the floats alpha, s and t of
    each row.  The coefficients are
        (alpha^2 t + s alpha^3 + (3 alpha s + t) |h|^2) 1
      + (2 alpha t + 3 s alpha^2 + s |h|^2) h,
    verified against the associative 2x2 embedding and the a = b => a^3
    special case in the test suite.  They are Python float arithmetic row
    by row: numpy's ``**`` on arrays rounds otherwise."""
    h2s = np.sum(np.abs(h) ** 2, axis=-1).tolist()
    coeffs = np.array([
        (
            alpha**2 * t + s * alpha**3 + (3.0 * alpha * s + t) * h2,
            2.0 * alpha * t + 3.0 * s * alpha**2 + s * h2,
        )
        for alpha, s, t, h2 in zip(alphas, ss, ts, h2s)
    ])
    return coeffs[:, :1] * V.unit.coords + coeffs[:, 1:] * h


def verify_counterexample(cx: SpinCounterexample, trials: int = 500, seed: int = 0) -> CheckReport:
    """Run the four counterexample verdicts.

    (i) OC-additivity on spin lines, (ii) OC-quadratic identity including a
    closed-form spot check of U_a(b), (iii) existence of a global
    additivity violation witness, (iv) bijectivity via the supplied
    angle-unwarp inverse, on trials // 5 draws and at least one.  The
    witness in (iii) is an expected failure of global additivity, so it
    counts toward pass, not against it.
    """
    V, m = cx.algebra, cx.map
    f, one = m._eval, V.unit.coords
    # same-generator pairs: in a spin factor they lie on spin lines span{1, a}
    add = check_oc_additive(m, trials, seed)
    quad = check_oc_quadratic(m, trials, seed + 1)
    rng = np.random.default_rng(seed + 2)
    drawn = [(rng.standard_normal(3), rng.standard_normal(V.dim - 1)) for _ in range(50)]
    normals, v = (np.array(column) for column in zip(*drawn))
    alpha, s, t = normals.T[:, :, None]
    h = np.zeros((50, V.dim), dtype=complex)
    h[:, 1:] = 1j * v
    a = alpha * one + h
    b = (t + s * alpha) * one + s * h
    ua = _u_operator(V, a, b)
    closed, closed_img = (_spin_u_closed_form(V, *normals.T.tolist(), x) for x in (h, f(h)))
    spot = WorstResidual()
    spot.add([V._norm(ua - closed), V._norm(f(ua) - closed_img)])
    # global additivity witness: unit vectors along the two warped axes
    e1, e2 = 1j * np.eye(V.dim)[1:3]
    witness_gap = V._norm(f(e1) + f(e2) - f(e1 + e2))
    rt = WorstResidual()
    for size in chunk_sizes(max(trials // 5, 1)):
        a = _random_rows(V, rng, size, "self_adjoint")
        rt.add([V._norm(m._inverse(f(a)) - a), V._norm(f(m._inverse(a)) - a)])
    verdicts = {
        "oc_additive": add.passed and add.details["max_raw_residual"] <= 1e-9,
        "oc_quadratic": quad.passed and spot.worst <= 1e-8,
        "global_additivity_witness": witness_gap >= 0.05,
        "bijective_on_samples": rt.worst <= 1e-9,
    }
    return CheckReport(
        name=f"spin-counterexample[eps={cx.epsilon}]",
        passed=all(verdicts.values()),
        trials=trials,
        max_residual=float(np.max([add.details["max_raw_residual"], quad.details["max_raw_residual"]])),
        details={
            "verdicts": verdicts,
            "oc_additive_raw": add.details["max_raw_residual"],
            "oc_quadratic_raw": quad.details["max_raw_residual"],
            "closed_form_spot_residual": spot.worst,
            "witness_gap": witness_gap,
            "roundtrip_residual": rt.worst,
        },
    )


def check_central_preservation(
    m: MapUnderTest, trials: int = 50, seed: int = 0, pass_tol: float = 1e-7
) -> CheckReport:
    """Central unitaries map to central unitaries, symmetries to symmetries,
    and the induced projection map preserves operator commutativity."""
    src, tgt, f = m.source, m.target, m._eval
    if m.inverse is None:
        raise PreconditionFailed("central-preservation check needs a supplied inverse")
    rng = np.random.default_rng(seed)
    a0 = _random(src, rng, "unitary")
    check = _gate(src, (m._inverse(f(a0)) - a0,), 1e-6, lambda: 1e-6 * (1.0 + src._norm(a0)))
    _require(check, PreconditionFailed, "supplied inverse fails the round trip")
    zbasis = src._center_rows
    one_s, one_t = src.unit.coords, tgt.unit.coords
    acc = WorstResidual(pass_tol)
    for _ in range(trials):
        # central unitary -> central unitary
        coeffs = rng.standard_normal(len(zbasis))
        z = sum((float(cf) * zb for cf, zb in zip(coeffs, zbasis)), np.zeros(src.dim, complex))
        fu = f(_exp_i(src, z, 1.0))
        parts = [0.0 if _gate(tgt, *_unitary(tgt, fu)) else 1.0, _central_projection_residual(tgt, fu)]
        # symmetry -> symmetry
        p = _random(src, rng, "projection")
        fs = f(one_s - 2.0 * p)
        symmetry = _symmetry(tgt, fs)
        if not _gate(tgt, *symmetry):
            parts += [tgt._norm(d) for d in symmetry[0]]
        # induced projection map preserves operator commutativity
        pq = _commuting_projection_pair(src, rng)
        if pq is not None:
            p1, q1 = pq
            psi_p = 0.5 * (one_t - f(one_s - 2.0 * p1))
            psi_q = 0.5 * (one_t - f(one_s - 2.0 * q1))
            parts.append(tgt._commutator_norm(psi_p, psi_q))
        acc.add(float(np.max(parts)), lambda i: {"z": z.tolist()})  # np.max keeps a NaN; max() drops a later one
    return acc.report(f"central-preservation[{m.label}]", pass_tol=pass_tol)


def check_i_unit_image(m: MapUnderTest, trials: int = 20, seed: int = 0) -> CheckReport:
    """Optional check of the Phi(i 1) form for full-algebra maps.

    Under the layered hypotheses (OC-quadratic on the full algebra,
    self-adjoint part additive and onto the Peirce-2 self-adjoint part),
    Phi(i 1) = i (z - (Phi(1) - z)) for a central projection z of the
    Peirce-2 algebra.  This verifies the decomposition for a supplied map.
    """
    src, tgt, f = m.source, m.target, m._eval
    w = f(src.unit.coords)
    _require(_gate(tgt, *_tripotent(tgt, w)), HypothesisFailed, "Phi(1) is not a tripotent")
    sub = _peirce2_algebra(tgt, w)
    x = f(1j * src.unit.coords)
    z = sub.project @ (0.5 * (w - 1j * x))  # as peirce2_project
    r_proj = sub._norm(sub._prod(z, z) - z)
    r_sa = sub._norm(sub._inv(z) - z)
    recon = 1j * (2.0 * (sub.embed @ z) - w)
    r_recon = tgt._norm(x - recon)
    rng = np.random.default_rng(seed)
    central = WorstResidual()
    for size in chunk_sizes(trials):
        # z central in a JBW*-algebra iff z o y = U_z(y) on self-adjoints
        y = _random_rows(sub, rng, size, "self_adjoint")
        central.add(sub._norm(sub._prod(z, y) - _u_operator(sub, z, y)))
    r_central = central.worst
    worst = float(np.max([r_proj, r_sa, r_recon, r_central]))  # keeps a NaN
    return CheckReport(
        name=f"i-unit-image[{m.label}]",
        passed=worst <= 1e-7,
        trials=trials,
        max_residual=worst,
        details={
            "projection_residual": r_proj,
            "selfadjoint_residual": r_sa,
            "reconstruction_residual": r_recon,
            "centrality_residual": r_central,
        },
    )


# -- JSON map descriptors -----------------------------------------------------


def _with_rows(f, rows):
    """The map callable ``f`` carrying ``rows``, its form on (k, dim)
    coordinate stacks (see ``MapUnderTest``)."""
    f.rows = rows
    return f


def _blockwise_eval(A: AlgebraHandle, act, name: str):
    """Map applying ``act(part, coords, slice)`` on each summand, where
    coords is one element's block or a stack of them; refused when it is
    built unless every summand is a hermitian-matrix algebra."""
    if not all(isinstance(p, HermitianMatrixAlgebra) for p, _ in A.summands):
        raise PreconditionFailed(f"{name} needs hermitian-matrix (sums) algebras")

    def rows(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape, dtype=complex)
        for p, s in A.summands:
            out[..., s] = act(p, x[..., s], s)
        return out

    return _with_rows(lambda a: Element(A.id, rows(a.coords)), rows)


def _conjugation_eval(A: AlgebraHandle, w: Element, adjoint: bool):
    """x -> W X W* per hermitian-matrix part (W* X W when adjoint)."""

    def act(p: HermitianMatrixAlgebra, coords: np.ndarray, s: slice) -> np.ndarray:
        W = w.coords[s].reshape(p.n, p.n)
        X = p._mat(coords)
        return (W.conj().T @ X @ W if adjoint else W @ X @ W.conj().T).reshape(coords.shape)

    return _blockwise_eval(A, act, "theta_conjugation")


def _transpose_eval(A: AlgebraHandle):
    act = lambda p, coords, s: p._mat(coords).swapaxes(-1, -2).reshape(coords.shape)
    return _blockwise_eval(A, act, "transpose")


def map_from_descriptor(desc: dict, source: AlgebraHandle) -> MapUnderTest:
    """Build a MapUnderTest of ``source`` to itself from its JSON descriptor.

    Kinds: identity | star | transpose | theta_conjugation {w} |
    composition {maps: [...]} (rightmost applied first) |
    spin_counterexample {epsilon} | exp_form {beta, c, theta}.  A malformed
    descriptor raises ValueError; transpose and theta_conjugation on an
    algebra with a spin summand, and spin_counterexample on one that is not
    a spin factor, raise PreconditionFailed.
    """
    try:
        return _build_map(desc, source)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed map descriptor ({type(exc).__name__}: {exc})") from exc


def _build_map(desc: dict, source: AlgebraHandle) -> MapUnderTest:
    kind = desc.get("kind")
    if kind == "identity":
        f = _with_rows(lambda a: a, np.copy)
        return MapUnderTest(source, source, f, label="identity", inverse=f)
    if kind == "star":
        f = _with_rows(lambda a: Element(source.id, source._inv(_owned(source, a))), source._inv)
        return MapUnderTest(source, source, f, label="star", inverse=f)
    if kind == "transpose":
        f = _transpose_eval(source)
        return MapUnderTest(source, source, f, label="transpose", inverse=f)
    if kind == "theta_conjugation":
        w = element_from_json(source, desc["w"])
        return MapUnderTest(
            source,
            source,
            _conjugation_eval(source, w, adjoint=False),
            label="theta_conjugation",
            inverse=_conjugation_eval(source, w, adjoint=True),
        )
    if kind == "composition":
        if not isinstance(desc["maps"], list) or not desc["maps"]:
            raise ValueError("composition needs a non-empty list of maps")
        maps = [map_from_descriptor(d, source) for d in desc["maps"]]
        f = _chained([mp.eval for mp in reversed(maps)])
        inverse = None
        if all(mp.inverse is not None for mp in maps):
            inverse = _chained([mp.inverse for mp in maps])
        label = "composition(" + ",".join(mp.label for mp in maps) + ")"
        return MapUnderTest(source, source, f, label=label, inverse=inverse)
    if kind == "spin_counterexample":
        if not isinstance(source, SpinFactor):
            raise PreconditionFailed("spin_counterexample needs a spin source algebra")
        return build_spin_counterexample(source.n, float(desc["epsilon"]), source.tol).map
    if kind == "exp_form":
        theta = map_from_descriptor(desc["theta"], source)
        c = element_from_json(source, desc["c"])
        beta = _beta_from_descriptor(desc.get("beta", {"kind": "zero"}), source)

        def rows(x: np.ndarray) -> np.ndarray:
            h = _unitary_log(source, x)[0]
            return _exp_i(source, beta(h) + source._prod(c.coords, theta._eval(h)), 1.0)

        f = _with_rows(lambda u: Element(source.id, rows(_owned(source, u))), rows)
        return MapUnderTest(source, source, f, label="exp_form")
    raise ValueError(f"unknown map descriptor kind {kind!r}")


def _chained(fns):
    """The map callables ``fns`` applied in turn, carrying their stacked
    forms in turn when every one has one."""
    f = functools.partial(_chain, fns)
    forms = [getattr(fn, "rows", None) for fn in fns]
    return f if any(r is None for r in forms) else _with_rows(f, functools.partial(_chain, forms))


def _chain(fns, a):
    """fns applied in turn; a nested composition runs one frame per level."""
    for fn in fns:
        a = fn(a)
    return a


def _beta_from_descriptor(desc: dict, A: AlgebraHandle):
    """beta on the coordinates of one element or of each row of a stack."""
    kind = desc.get("kind")
    if kind == "zero":
        return lambda x: np.zeros(x.shape, dtype=complex)
    if kind == "scaled_trace":
        scale = float(desc["scale"])
        if not math.isfinite(scale):
            raise ValueError(f"scaled_trace scale must be finite, got {desc['scale']!r}")
        trace = lambda x: A.trace(x) if x.ndim == 1 else np.array([A.trace(r) for r in x])[:, None]
        return lambda x: (scale * trace(x)) * A.unit.coords
    raise ValueError(f"unknown beta descriptor kind {kind!r}")
