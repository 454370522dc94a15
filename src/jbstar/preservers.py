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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebras import (
    AlgebraHandle,
    Element,
    HermitianMatrixAlgebra,
    SpinFactor,
    _random,
    element_from_json,
    involution,
    jbstar_norm,
    jordan_product,
)
from .calculus import (
    center_basis,
    exp_i,
    is_self_adjoint,
    is_invertible,
    operator_commutes,
    u_operator,
)
from .errors import (
    BranchAmbiguity,
    HypothesisFailed,
    Inconsistent,
    NonUnitaryImage,
    NotAFactor,
    ParamOutOfRange,
    PreconditionFailed,
    SamplerViolation,
)
from .peirce import is_tripotent, peirce2_algebra, peirce2_embed, peirce2_project
from .reports import CheckReport
from .samplers import commuting_projection_pair, default_oc_sampler, oc_pair_sampler
from .unitary import is_symmetry, is_unitary, unitary_log

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
    "spin_u_closed_form",
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
    supplied inverse.
    """

    source: AlgebraHandle
    target: AlgebraHandle
    eval: Callable[[Element], Element]
    label: str = ""
    inverse: Callable[[Element], Element] | None = None

    def __call__(self, a: Element) -> Element:
        if a.algebra_id != self.source.id:
            raise PreconditionFailed(f"map {self.label!r} got element of {a.algebra_id}")
        out = self.eval(a)
        if out.algebra_id != self.target.id:
            raise PreconditionFailed(f"map {self.label!r} returned element of {out.algebra_id}")
        return out


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


def _draw_oc_pair(m: MapUnderTest, sampler, rng) -> tuple[Element, Element]:
    a, b = sampler(rng)
    chk = operator_commutes(m.source, a, b)
    if not chk:
        raise SamplerViolation(
            f"sampler produced a non-commuting pair (residual {chk.residual:.3e})"
        )
    return a, b


def _oc_pair_check(name, m: MapUnderTest, sampler, trials, seed, pass_tol, residual, **details):
    """Worst normalized residual over operator-commuting pairs, where
    ``residual(a, b)`` returns (raw residual, scale)."""
    sampler = sampler or default_oc_sampler(m.source)
    rng = np.random.default_rng(seed)
    worst = worst_raw = 0.0
    witness = None
    for _ in range(trials):
        a, b = _draw_oc_pair(m, sampler, rng)
        r, scale = residual(a, b)
        worst_raw = max(worst_raw, r)
        if r / scale > worst:
            worst = r / scale
            if worst > pass_tol:
                witness = {"a": a.coords.tolist(), "b": b.coords.tolist(), "residual": r}
    return CheckReport(
        name=f"{name}[{m.label}]",
        passed=worst <= pass_tol,
        trials=trials,
        max_residual=worst,
        witness=witness,
        details={"max_raw_residual": worst_raw, "pass_tol": pass_tol, **details},
    )


def check_oc_additive(
    m: MapUnderTest, sampler=None, trials: int = 200, seed: int = 0, pass_tol: float = 1e-7
) -> CheckReport:
    """Additivity on operator-commuting self-adjoint pairs."""

    def residual(a, b):
        r = jbstar_norm(m.target, m(a + b) - m(a) - m(b))
        return r, 1.0 + jbstar_norm(m.source, a) + jbstar_norm(m.source, b)

    return _oc_pair_check("oc-additive", m, sampler, trials, seed, pass_tol, residual)


def check_oc_quadratic(
    m: MapUnderTest,
    sampler=None,
    trials: int = 200,
    seed: int = 0,
    pass_tol: float = 1e-7,
    starred: bool = False,
) -> CheckReport:
    """Phi(U_a(b)) = U_{Phi(a)}(Phi(b)) on operator-commuting pairs.

    ``starred`` switches to the triple-product variant used for
    full-algebra maps: Phi(U_a(b*)) = U_{Phi(a)}(Phi(b)*).
    """

    def residual(a, b):
        if starred:
            lhs = m(u_operator(m.source, a, involution(m.source, b)))
            rhs = u_operator(m.target, m(a), involution(m.target, m(b)))
        else:
            lhs = m(u_operator(m.source, a, b))
            rhs = u_operator(m.target, m(a), m(b))
        r = jbstar_norm(m.target, lhs - rhs)
        return r, (1.0 + jbstar_norm(m.source, a)) ** 2 * (1.0 + jbstar_norm(m.source, b))

    return _oc_pair_check(
        "oc-quadratic", m, sampler, trials, seed, pass_tol, residual, starred=starred
    )


def check_piecewise_hom_on_unitaries(
    m: MapUnderTest, trials: int = 100, seed: int = 0, pass_tol: float = 1e-7
) -> CheckReport:
    """Unit preservation plus multiplicativity and commutativity preservation
    on operator-commuting unitary pairs."""
    src, tgt = m.source, m.target
    rng = np.random.default_rng(seed)
    img_unit = m(src.unit)
    if not is_unitary(tgt, img_unit):
        raise NonUnitaryImage("image of the unit is not unitary")
    unit_residual = jbstar_norm(tgt, img_unit - tgt.unit)
    sampler = default_oc_sampler(src)
    worst = unit_residual
    witness = None
    for _ in range(trials):
        h, k = _draw_oc_pair(m, sampler, rng)
        u = exp_i(src, h, 1.0)
        v = exp_i(src, k, 1.0)
        fu, fv = m(u), m(v)
        for name, x in (("u", fu), ("v", fv)):
            if not is_unitary(tgt, x):
                raise NonUnitaryImage(f"image of {name} is not unitary")
        mult = jbstar_norm(tgt, m(jordan_product(src, u, v)) - jordan_product(tgt, fu, fv))
        occ = operator_commutes(tgt, fu, fv)
        r = max(mult, occ.residual)
        if r > worst:
            worst = r
            if r > pass_tol:
                witness = {"h": h.coords.tolist(), "k": k.coords.tolist(), "residual": r}
    return CheckReport(
        name=f"piecewise-hom-unitaries[{m.label}]",
        passed=worst <= pass_tol,
        trials=trials,
        max_residual=worst,
        witness=witness,
        details={"unit_residual": unit_residual, "pass_tol": pass_tol},
    )


def derive_generator_map(m: MapUnderTest, a: Element, t_small: float = 1.0 / 16.0) -> Element:
    """Generator f(a) with Phi(exp(i t a)) = exp(i t f(a)), from the log at
    t_small, consistency-checked against t_small/2."""
    def f_at(t: float) -> Element:
        u = exp_i(m.source, a, t)
        lg = unitary_log(m.target, m(u))
        if lg.ambiguous:
            raise BranchAmbiguity("image spectrum touches -1; shrink t_small")
        return (1.0 / t) * lg.h

    f1 = f_at(t_small)
    f2 = f_at(t_small / 2.0)
    dev = jbstar_norm(m.target, f1 - f2)
    thr = 10.0 * m.target.tol.abs_eps * (1.0 + jbstar_norm(m.target, f1)) + 1e-9
    if dev > thr:
        raise Inconsistent(f"halving t_small moved the generator by {dev:.3e}")
    return f1


def check_generator_properties(
    m: MapUnderTest, trials: int = 20, seed: int = 0, pass_tol: float = 1e-6
) -> CheckReport:
    """Homogeneity, OC-additivity, and OC-preservation of the derived
    generator map, with a boundedness estimate."""
    src, tgt = m.source, m.target
    rng = np.random.default_rng(seed)
    sampler = default_oc_sampler(src)
    worst = 0.0
    bound = 0.0
    witness = None
    for _ in range(trials):
        a, b = _draw_oc_pair(m, sampler, rng)
        fa = derive_generator_map(m, a)
        fb = derive_generator_map(m, b)
        fab = derive_generator_map(m, a + b)
        r_add = jbstar_norm(tgt, fab - fa - fb)
        tau = float(rng.choice([-2.0, -1.0, 0.5, 3.0]))
        r_hom = jbstar_norm(tgt, derive_generator_map(m, tau * a) - tau * fa)
        r_oc = operator_commutes(tgt, fa, fb).residual
        scale = 1.0 + jbstar_norm(src, a) + jbstar_norm(src, b)
        r = max(r_add, r_hom, r_oc) / scale
        na = jbstar_norm(src, a)
        if na > 1e-9:
            bound = max(bound, jbstar_norm(tgt, fa) / na)
        if r > worst:
            worst = r
            if r > pass_tol:
                witness = {"a": a.coords.tolist(), "b": b.coords.tolist()}
    return CheckReport(
        name=f"generator-properties[{m.label}]",
        passed=worst <= pass_tol,
        trials=trials,
        max_residual=worst,
        witness=witness,
        details={"bound_estimate": bound, "pass_tol": pass_tol},
    )


def verify_jordan_star_isomorphism(
    theta: MapUnderTest, trials: int = 30, seed: int = 0, pass_tol: float = 1e-7
) -> float:
    """Re-verify a claimed Jordan *-isomorphism on samples.

    Checks unitality, complex linearity, Jordan multiplicativity, star
    preservation, and (when an inverse is supplied) the round trip.  Raises
    PreconditionFailed naming the first broken hypothesis.
    """
    src, tgt = theta.source, theta.target
    rng = np.random.default_rng(seed)
    worst = 0.0
    r = jbstar_norm(tgt, theta(src.unit) - tgt.unit)
    if r > pass_tol:
        raise PreconditionFailed(f"theta is not unital (residual {r:.3e})")
    for _ in range(trials):
        a = _random(src, rng)
        b = _random(src, rng)
        al = complex(rng.standard_normal(), rng.standard_normal())
        scale = (1.0 + jbstar_norm(src, a)) * (1.0 + jbstar_norm(src, b))
        r_lin = jbstar_norm(tgt, theta(al * a + b) - al * theta(a) - theta(b))
        if r_lin > pass_tol * scale:
            raise PreconditionFailed(f"theta is not complex linear (residual {r_lin:.3e})")
        r_mult = jbstar_norm(
            tgt, theta(jordan_product(src, a, b)) - jordan_product(tgt, theta(a), theta(b))
        )
        if r_mult > pass_tol * scale:
            raise PreconditionFailed(f"theta is not Jordan multiplicative ({r_mult:.3e})")
        r_star = jbstar_norm(tgt, theta(involution(src, a)) - involution(tgt, theta(a)))
        if r_star > pass_tol * scale:
            raise PreconditionFailed(f"theta does not preserve the involution ({r_star:.3e})")
        if theta.inverse is not None:
            r_rt = jbstar_norm(src, theta.inverse(theta(a)) - a)
            if r_rt > pass_tol * scale:
                raise PreconditionFailed(f"theta round trip failed ({r_rt:.3e})")
            worst = max(worst, r_rt)
        worst = max(worst, r_lin, r_mult, r_star)
    return worst


def _central_projection_residual(A: AlgebraHandle, x: Element) -> float:
    basis = center_basis(A)
    B = np.stack([z.coords for z in basis], axis=1)
    proj = B @ (B.conj().T @ x.coords)
    return float(np.linalg.norm(x.coords - proj))


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
    src, tgt = m.source, m.target
    verify_jordan_star_isomorphism(theta, trials=10, seed=seed)
    if theta.inverse is None:
        raise PreconditionFailed("theta must carry an inverse for the second closed form")
    if not is_self_adjoint(tgt, c):
        raise PreconditionFailed("c is not self-adjoint")
    if _central_projection_residual(tgt, c) > 1e-8 * (1.0 + jbstar_norm(tgt, c)):
        raise PreconditionFailed("c is not central")
    if is_invertible(tgt, c) is None:
        raise PreconditionFailed("c is not invertible")
    c_back = theta.inverse(c)
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    for _ in range(trials):
        a = _random(src, rng, "self_adjoint")
        na = jbstar_norm(src, a)
        if na > 2.5:
            a = (2.5 / na) * a
        ba = beta(a)
        if not is_self_adjoint(tgt, ba) or _central_projection_residual(tgt, ba) > 1e-8 * (
            1.0 + jbstar_norm(tgt, ba)
        ):
            raise PreconditionFailed("beta(a) is not central self-adjoint")
        v0 = m(exp_i(src, a, 1.0))
        phase = exp_i(tgt, ba, 1.0)
        v1 = jordan_product(tgt, phase, exp_i(tgt, jordan_product(tgt, c, theta(a)), 1.0))
        v2 = jordan_product(tgt, phase, theta(exp_i(src, jordan_product(src, c_back, a), 1.0)))
        r = max(jbstar_norm(tgt, v0 - v1), jbstar_norm(tgt, v0 - v2), jbstar_norm(tgt, v1 - v2))
        if r > worst:
            worst = r
            if r > pass_tol:
                witness = {"a": a.coords.tolist(), "residual": r}
    return CheckReport(
        name=f"unitary-preserver-form[{m.label}]",
        passed=worst <= pass_tol,
        trials=trials,
        max_residual=worst,
        witness=witness,
        details={"pass_tol": pass_tol},
    )


def classify_factor_dichotomy(
    m: MapUnderTest, theta: MapUnderTest, trials: int = 100, seed: int = 0, pass_tol: float = 1e-7
) -> DichotomyResult:
    """Decide between Phi = theta and Phi = theta(inverse) on random
    unitaries of a non-spin factor source."""
    src, tgt = m.source, m.target
    if len(center_basis(src)) != 1:
        raise NotAFactor("source centre has dimension > 1")
    from .measures import is_spin_summand  # late import; measures has no back-dependency

    if is_spin_summand(src):
        raise NotAFactor("source is a spin factor (type I2), dichotomy does not apply")
    verify_jordan_star_isomorphism(theta, trials=10, seed=seed)
    rng = np.random.default_rng(seed)
    r_id = r_inv = 0.0
    worst_witness = None
    for _ in range(trials):
        u = _random(src, rng, "unitary")
        fu = m(u)
        scale = 1.0 + jbstar_norm(src, u)
        d_id = jbstar_norm(tgt, fu - theta(u)) / scale
        d_inv = jbstar_norm(tgt, fu - theta(involution(src, u))) / scale
        if max(d_id, d_inv) > max(r_id, r_inv):
            worst_witness = {"u": u.coords.tolist()}
        r_id = max(r_id, d_id)
        r_inv = max(r_inv, d_inv)
    if r_id <= pass_tol:
        return DichotomyResult("identity_case", r_id, r_inv)
    if r_inv <= pass_tol:
        return DichotomyResult("inverse_case", r_id, r_inv)
    return DichotomyResult("neither", r_id, r_inv, witness=worst_witness)


def recover_structure(
    m: MapUnderTest,
    trials: int = 100,
    seed: int = 0,
    sampler=None,
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
    src, tgt = m.source, m.target
    sampler = sampler or default_oc_sampler(src)
    add = check_oc_additive(m, sampler, max(trials // 2, 20), seed, pass_tol=pass_tol)
    if not add.passed:
        raise HypothesisFailed(f"OC-additivity fails (residual {add.max_residual:.3e})")
    quad = check_oc_quadratic(m, sampler, max(trials // 2, 20), seed + 1, pass_tol=pass_tol)
    if not quad.passed:
        raise HypothesisFailed(f"OC-quadratic identity fails (residual {quad.max_residual:.3e})")
    w = m(src.unit)
    trip = is_tripotent(tgt, w)
    if not trip:
        raise HypothesisFailed(f"Phi(1) is not a tripotent (residual {trip.residual:.3e})")
    sub = peirce2_algebra(tgt, w)
    rng = np.random.default_rng(seed + 2)
    hom = 0.0
    for _ in range(trials):
        a, b = _draw_oc_pair(m, sampler, rng)
        fa, fb = peirce2_project(sub, m(a)), peirce2_project(sub, m(b))
        lhs = m(jordan_product(src, a, b))
        rhs = peirce2_embed(sub, jordan_product(sub, fa, fb))
        scale = (1.0 + jbstar_norm(src, a)) * (1.0 + jbstar_norm(src, b))
        hom = max(hom, jbstar_norm(tgt, lhs - rhs) / scale)
        hom = max(hom, jbstar_norm(tgt, m(a + b) - m(a) - m(b)) / scale)
    lin = 0.0
    for _ in range(trials):
        a = _random(src, rng, "self_adjoint")
        b = _random(src, rng, "self_adjoint")
        al, be = (float(x) for x in rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=2))
        r = jbstar_norm(tgt, m(al * a + be * b) - al * m(a) - be * m(b))
        scale = 1.0 + abs(al) * jbstar_norm(src, a) + abs(be) * jbstar_norm(src, b)
        lin = max(lin, r / scale)
    # sampled isometry of Phi into the Peirce-2 norm; reported, never gated
    isom = 0.0
    for _ in range(min(trials, 50)):
        a = _random(src, rng, "self_adjoint")
        isom = max(
            isom,
            abs(jbstar_norm(sub, peirce2_project(sub, m(a))) - jbstar_norm(src, a))
            / (1.0 + jbstar_norm(src, a)),
        )
    central_symmetry = None
    if m.inverse is not None:
        rt = 0.0
        for _ in range(10):
            a = _random(src, rng, "self_adjoint")
            rt = max(
                rt,
                jbstar_norm(src, m.inverse(m(a)) - a) / (1.0 + jbstar_norm(src, a)),
            )
        if rt <= pass_tol:
            central_symmetry = bool(
                is_symmetry(tgt, w)
                and _central_projection_residual(tgt, w) <= 1e-7 * (1.0 + jbstar_norm(tgt, w))
            )
    return StructureRecovery(
        w=w,
        peirce2=sub,
        hom_residual=hom,
        linearity_residual=lin,
        w_central_symmetry=central_symmetry,
        details={
            "oc_additive": add.to_json(),
            "oc_quadratic": quad.to_json(),
            "tripotent_residual": trip.residual,
            "isometry_residual": isom,
        },
    )


# -- the sharp spin-factor counterexample ------------------------------------


@dataclass
class SpinCounterexample:
    """Norm-preserving angle warp on H^-, extended by identity on the unit."""

    algebra: AlgebraHandle
    epsilon: float
    map: MapUnderTest
    seed: int = 0


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


def build_spin_counterexample(n: int, epsilon: float, seed: int = 0) -> SpinCounterexample:
    """Phi(lambda 1 + h) = lambda 1 + F(h) on the self-adjoint part of
    spin(n), with F the polar warp (r, phi) -> (r, phi + eps sin 2 phi) in
    the first two H^- coordinates.

    F is 1-homogeneous for all real scalars (the warp commutes with the
    antipode phi -> phi + pi) and preserves the H^- norm, but is not
    additive; Phi is therefore additive and quadratic on operator-commuting
    pairs while failing global additivity.
    """
    if n < 3:
        raise ParamOutOfRange(f"need n >= 3, got {n}")
    if not (0.0 < epsilon < 0.5):
        raise ParamOutOfRange(f"epsilon must lie in (0, 0.5), got {epsilon}")
    V = SpinFactor(n)

    def _split(a: Element) -> tuple[float, np.ndarray]:
        if not is_self_adjoint(V, a):
            raise PreconditionFailed("counterexample map is defined on self-adjoints only")
        return float(a.coords[0].real), np.asarray(a.coords[1:].imag, dtype=float)

    def _join(lam: float, v: np.ndarray) -> Element:
        return V.element(np.concatenate([[complex(lam)], 1j * v]))

    def fwd(a: Element) -> Element:
        lam, v = _split(a)
        return _join(lam, _warp_vector(v, epsilon, invert=False))

    def bwd(a: Element) -> Element:
        lam, v = _split(a)
        return _join(lam, _warp_vector(v, epsilon, invert=True))

    mp = MapUnderTest(V, V, fwd, label=f"spin-counterexample(n={n},eps={epsilon})", inverse=bwd)
    return SpinCounterexample(algebra=V, epsilon=epsilon, map=mp, seed=seed)


def spin_u_closed_form(V: AlgebraHandle, alpha: float, s: float, t: float, h: Element) -> Element:
    """Closed-form U_a(b) for a = alpha 1 + h and b = (t + s alpha) 1 + s h.

    The coefficients are
        (alpha^2 t + s alpha^3 + (3 alpha s + t) |h|^2) 1
      + (2 alpha t + 3 s alpha^2 + s |h|^2) h,
    verified against the associative 2x2 embedding and the a = b => a^3
    special case in the test suite.
    """
    h2 = float(np.sum(np.abs(h.coords) ** 2))
    c1 = alpha**2 * t + s * alpha**3 + (3.0 * alpha * s + t) * h2
    ch = 2.0 * alpha * t + 3.0 * s * alpha**2 + s * h2
    return float(c1) * V.unit + float(ch) * h


def verify_counterexample(cx: SpinCounterexample, trials: int = 500, seed: int = 0) -> CheckReport:
    """Run the four counterexample verdicts.

    (i) OC-additivity on spin lines, (ii) OC-quadratic identity including a
    closed-form spot check of U_a(b), (iii) existence of a global
    additivity violation witness, (iv) bijectivity via the supplied
    angle-unwarp inverse.  The witness in (iii) is an expected failure of
    global additivity, so it counts toward pass, not against it.
    """
    V = cx.algebra
    m = cx.map
    sampler = oc_pair_sampler(V, "spin_line")
    add = check_oc_additive(m, sampler, trials, seed)
    quad = check_oc_quadratic(m, sampler, trials, seed + 1)
    rng = np.random.default_rng(seed + 2)
    spot_worst = 0.0
    for _ in range(50):
        alpha, s, t = (float(x) for x in rng.standard_normal(3))
        v = rng.standard_normal(V.dim - 1)
        h = V.element(np.concatenate([[0.0 + 0j], 1j * v]))
        a = float(alpha) * V.unit + h
        b = float(t + s * alpha) * V.unit + float(s) * h
        ua = u_operator(V, a, b)
        closed = spin_u_closed_form(V, alpha, s, t, h)
        spot_worst = max(spot_worst, jbstar_norm(V, ua - closed))
        fh = m(h)
        closed_img = spin_u_closed_form(V, alpha, s, t, fh)
        spot_worst = max(spot_worst, jbstar_norm(V, m(ua) - closed_img))
    # global additivity witness: unit vectors along the two warped axes
    e1 = V.element(np.concatenate([[0.0 + 0j], [1j], np.zeros(V.dim - 2)]))
    e2 = V.element(np.concatenate([[0.0 + 0j], [0.0], [1j], np.zeros(V.dim - 3)]))
    witness_gap = jbstar_norm(V, m(e1) + m(e2) - m(e1 + e2))
    rt = 0.0
    for _ in range(trials // 5):
        a = _random(V, rng, "self_adjoint")
        rt = max(rt, jbstar_norm(V, m.inverse(m(a)) - a))
        rt = max(rt, jbstar_norm(V, m(m.inverse(a)) - a))
    verdicts = {
        "oc_additive": add.passed and add.details["max_raw_residual"] <= 1e-9,
        "oc_quadratic": quad.passed and spot_worst <= 1e-8,
        "global_additivity_witness": witness_gap >= 0.05,
        "bijective_on_samples": rt <= 1e-9,
    }
    return CheckReport(
        name=f"spin-counterexample[eps={cx.epsilon}]",
        passed=all(verdicts.values()),
        trials=trials,
        max_residual=max(add.details["max_raw_residual"], quad.details["max_raw_residual"]),
        details={
            "verdicts": verdicts,
            "oc_additive_raw": add.details["max_raw_residual"],
            "oc_quadratic_raw": quad.details["max_raw_residual"],
            "closed_form_spot_residual": spot_worst,
            "witness_gap": witness_gap,
            "roundtrip_residual": rt,
        },
    )


def check_central_preservation(
    m: MapUnderTest, trials: int = 50, seed: int = 0, pass_tol: float = 1e-7
) -> CheckReport:
    """Central unitaries map to central unitaries, symmetries to symmetries,
    and the induced projection map preserves operator commutativity."""
    src, tgt = m.source, m.target
    if m.inverse is None:
        raise PreconditionFailed("central-preservation check needs a supplied inverse")
    rng = np.random.default_rng(seed)
    a0 = _random(src, rng, "unitary")
    if jbstar_norm(src, m.inverse(m(a0)) - a0) > 1e-6 * (1.0 + jbstar_norm(src, a0)):
        raise PreconditionFailed("supplied inverse fails the round trip")
    zbasis = center_basis(src)
    worst = 0.0
    witness = None
    for _ in range(trials):
        # central unitary -> central unitary
        coeffs = rng.standard_normal(len(zbasis))
        z = sum((float(cf) * zb for cf, zb in zip(coeffs, zbasis)), src.zero())
        uz = exp_i(src, z, 1.0)
        fu = m(uz)
        r = 0.0
        if not is_unitary(tgt, fu):
            r = 1.0
        r = max(r, _central_projection_residual(tgt, fu))
        # symmetry -> symmetry
        p = _random(src, rng, "projection")
        s = src.unit - 2.0 * p
        fs = m(s)
        if not is_symmetry(tgt, fs):
            r = max(r, jbstar_norm(tgt, jordan_product(tgt, fs, fs) - tgt.unit))
        # induced projection map preserves operator commutativity
        pq = commuting_projection_pair(src, rng)
        if pq is not None:
            p1, q1 = pq
            psi_p = 0.5 * (tgt.unit - m(src.unit - 2.0 * p1))
            psi_q = 0.5 * (tgt.unit - m(src.unit - 2.0 * q1))
            r = max(r, operator_commutes(tgt, psi_p, psi_q).residual)
        if r > worst:
            worst = r
            if r > pass_tol:
                witness = {"z": z.coords.tolist()}
    return CheckReport(
        name=f"central-preservation[{m.label}]",
        passed=worst <= pass_tol,
        trials=trials,
        max_residual=worst,
        witness=witness,
        details={"pass_tol": pass_tol},
    )


def check_i_unit_image(m: MapUnderTest, trials: int = 20, seed: int = 0) -> CheckReport:
    """Optional check of the Phi(i 1) form for full-algebra maps.

    Under the layered hypotheses (OC-quadratic on the full algebra,
    self-adjoint part additive and onto the Peirce-2 self-adjoint part),
    Phi(i 1) = i (z - (Phi(1) - z)) for a central projection z of the
    Peirce-2 algebra.  This verifies the decomposition for a supplied map.
    """
    src, tgt = m.source, m.target
    w = m(src.unit)
    trip = is_tripotent(tgt, w)
    if not trip:
        raise HypothesisFailed("Phi(1) is not a tripotent")
    sub = peirce2_algebra(tgt, w)
    x = m(1j * src.unit)
    z_amb = 0.5 * (w - 1j * x)
    z = peirce2_project(sub, z_amb)
    r_proj = jbstar_norm(sub, jordan_product(sub, z, z) - z)
    r_sa = jbstar_norm(sub, involution(sub, z) - z)
    recon = 1j * (2.0 * peirce2_embed(sub, z) - w)
    r_recon = jbstar_norm(tgt, x - recon)
    rng = np.random.default_rng(seed)
    r_central = 0.0
    for _ in range(trials):
        # z central in a JBW*-algebra iff z o y = U_z(y) on self-adjoints
        y = _random(sub, rng, "self_adjoint")
        r_central = max(
            r_central, jbstar_norm(sub, jordan_product(sub, z, y) - u_operator(sub, z, y))
        )
    worst = max(r_proj, r_sa, r_recon, r_central)
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


def _blockwise_eval(A: AlgebraHandle, act, name: str):
    """Map applying ``act(part, coords)`` on each summand, all of which must
    be hermitian-matrix algebras."""

    def f(a: Element) -> Element:
        out = np.empty(A.dim, dtype=complex)
        for p, s in A.summands:
            if not isinstance(p, HermitianMatrixAlgebra):
                raise PreconditionFailed(f"{name} needs hermitian-matrix (sums) algebras")
            out[s] = act(p, a.coords[s], s)
        return Element(A.id, out)

    return f


def _conjugation_eval(A: AlgebraHandle, w: Element, adjoint: bool):
    """x -> W X W* per hermitian-matrix part (W* X W when adjoint)."""

    def act(p: HermitianMatrixAlgebra, coords: np.ndarray, s: slice) -> np.ndarray:
        W = w.coords[s].reshape(p.n, p.n)
        X = coords.reshape(p.n, p.n)
        return (W.conj().T @ X @ W if adjoint else W @ X @ W.conj().T).ravel()

    return _blockwise_eval(A, act, "theta_conjugation")


def _transpose_eval(A: AlgebraHandle):
    return _blockwise_eval(A, lambda p, coords, s: coords.reshape(p.n, p.n).T.ravel(), "transpose")


def map_from_descriptor(
    desc: dict, source: AlgebraHandle, target: AlgebraHandle | None = None
) -> MapUnderTest:
    """Build a MapUnderTest from its JSON descriptor.

    Kinds: identity | star | transpose | theta_conjugation {w} |
    composition {maps: [...]} (rightmost applied first) |
    spin_counterexample {epsilon} | exp_form {beta, c, theta}.
    """
    tgt = target or source
    kind = desc.get("kind")
    if kind == "identity":
        f = lambda a: Element(tgt.id, a.coords)
        return MapUnderTest(source, tgt, f, label="identity", inverse=f)
    if kind == "star":
        f = lambda a: involution(source, a)
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
        maps = [map_from_descriptor(d, source, tgt) for d in desc["maps"]]

        def f(a, _maps=maps):
            for mp in reversed(_maps):
                a = mp.eval(a)
            return a

        inverse = None
        if all(mp.inverse is not None for mp in maps):

            def inverse(a, _maps=maps):
                for mp in _maps:
                    a = mp.inverse(a)
                return a

        label = "composition(" + ",".join(mp.label for mp in maps) + ")"
        return MapUnderTest(source, tgt, f, label=label, inverse=inverse)
    if kind == "spin_counterexample":
        if not isinstance(source, SpinFactor):
            raise PreconditionFailed("spin_counterexample needs a spin source algebra")
        return build_spin_counterexample(source.n, float(desc["epsilon"])).map
    if kind == "exp_form":
        theta = map_from_descriptor(desc["theta"], source, tgt)
        c = element_from_json(tgt, desc["c"])
        beta_desc = desc.get("beta", {"kind": "zero"})
        beta = _beta_from_descriptor(beta_desc, source, tgt)

        def f(u):
            h = unitary_log(source, u).h
            arg = beta(h) + jordan_product(tgt, c, theta(h))
            return exp_i(tgt, arg, 1.0)

        return MapUnderTest(source, tgt, f, label="exp_form")
    raise ValueError(f"unknown map descriptor kind {kind!r}")


def _beta_from_descriptor(desc: dict, source: AlgebraHandle, target: AlgebraHandle):
    kind = desc.get("kind")
    if kind == "zero":
        return lambda a: target.zero()
    if kind == "scaled_trace":
        scale = float(desc["scale"])
        return lambda a: (scale * source.trace(a.coords)) * target.unit
    raise ValueError(f"unknown beta descriptor kind {kind!r}")
