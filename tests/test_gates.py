"""The bound-first gate, ``calculus._gate``, and its raise, ``calculus._require``.

A gate passes outright when every defect is ``_small``; otherwise it is the
exact check, the largest defect norm against the threshold, row by row on a
stack.  ``_require`` raises with the residual and the threshold of the first
failing row, and a NaN fails: every raising site below refuses an element
with a NaN coordinate on spin(4), whose norm is a closed form that carries
the NaN through.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from jbstar import calculus, cli, measures, peirce, preservers, samplers, unitary
from jbstar.algebras import _random, build_direct_sum, build_hermitian_matrix_algebra, build_spin_factor
from jbstar.errors import (
    HypothesisFailed,
    Inconsistent,
    NonUnitaryImage,
    NotProjection,
    NotSelfAdjoint,
    NotTripotent,
    NotUnitary,
    PreconditionFailed,
    SamplerViolation,
    VerificationFailed,
)
from jbstar.reports import CheckReport, ResidualCheck

S4 = build_spin_factor(4)


def _with_nan(x):
    y = np.array(x, dtype=complex)
    y[..., 1] = np.nan
    return y


# -- the pair itself ---------------------------------------------------------


def test_gate_is_true_when_every_defect_is_small():
    d = np.zeros(S4.dim, dtype=complex)
    d[0] = 1e-13
    assert calculus._gate(S4, (d, 0.5 * d), 1e-9, lambda: pytest.fail("threshold taken")) is True


def test_gate_is_the_exact_check_otherwise():
    x = _random(S4, np.random.default_rng(1))
    d1, d2 = 1e-6 * x, 2e-6 * x
    chk = calculus._gate(S4, (d1, d2), 1e-9, lambda: 7.0)
    assert chk == ResidualCheck(True, S4._norm(d2), 7.0)
    chk = calculus._gate(S4, (d1, d2), 1e-9, lambda: 1e-7)
    assert not chk and chk.residual == S4._norm(d2)


def test_gate_on_a_stack_is_row_by_row():
    rng = np.random.default_rng(2)
    d = np.stack([_random(S4, rng) for _ in range(3)])
    scale = np.array([1e-12, 1.0, 3.0])[:, None]
    chk = calculus._gate(S4, (scale * d,), 1e-9, lambda: np.array([1.0, 1e-3, 1e6]))
    assert list(chk.ok) == [True, False, True]
    assert np.array_equal(chk.residual, S4._norm(scale * d))


def test_require_raises_with_the_first_failing_row():
    chk = ResidualCheck(np.array([True, False, False]), np.array([1.0, 2.0, 3.0]), np.array([4.0, 1.5, 0.5]))
    with pytest.raises(VerificationFailed, match=re.escape("2.000e+00 over 1.500e+00")):
        calculus._require(chk, VerificationFailed, "{:.3e} over {:.3e}")
    # one threshold for every row
    chk = ResidualCheck(np.array([True, False]), np.array([1.0, 5.0]), 2.0)
    with pytest.raises(VerificationFailed, match=re.escape("5.000e+00 over 2.000e+00")):
        calculus._require(chk, VerificationFailed, "{:.3e} over {:.3e}")
    calculus._require(True, VerificationFailed, "")
    calculus._require(ResidualCheck(np.array([True, True]), np.zeros(2), 1.0), VerificationFailed, "")
    calculus._require(ResidualCheck(True, 0.0, 1.0), VerificationFailed, "")


def test_a_nan_fails_the_gate_and_is_reported():
    nan = calculus._gate(S4, (_with_nan(S4.unit.coords),), 1e-9, lambda: 1.0)
    assert not nan and np.isnan(nan.residual)
    with pytest.raises(VerificationFailed, match="nan"):
        calculus._require(nan, VerificationFailed, "residual {:.3e}")


# -- every raising site refuses a NaN element --------------------------------


def _self_adjoint():
    return _random(S4, np.random.default_rng(3), "self_adjoint")


def test_nan_fails_the_self_adjoint_gates():
    x = _with_nan(_self_adjoint())
    with pytest.raises(NotSelfAdjoint):
        calculus._decompose(S4, x)
    with pytest.raises(NotSelfAdjoint):
        calculus._decompose_rows(S4, np.stack([_self_adjoint(), x]))
    assert not calculus._gate(S4, *calculus._self_adjoint(S4, x))


def test_nan_fails_the_exp_i_unitarity_check(monkeypatch):
    exp = calculus._exp
    monkeypatch.setattr(calculus, "_exp", lambda nodes, idems, t: _with_nan(exp(nodes, idems, t)))
    h = _self_adjoint()
    with pytest.raises(VerificationFailed, match="non-unitary"):
        calculus._exp_i(S4, h, 1.0)
    with pytest.raises(VerificationFailed, match="non-unitary"):
        calculus._exp_i(S4, np.stack([h, 2.0 * h]), 1.0)


def test_nan_fails_the_inverse_identities(monkeypatch):
    # the candidate inverse is what the model's U-solve returns
    solve = S4._u_solve
    monkeypatch.setattr(S4, "_u_solve", lambda x, b: _with_nan(solve(x, b)))
    with pytest.raises(VerificationFailed, match="defining identities"):
        calculus.is_invertible(S4, S4.element(_self_adjoint() + 3.0 * S4.unit.coords))


def test_nan_fails_the_unitary_gates(monkeypatch):
    u = _random(S4, np.random.default_rng(4), "unitary")
    with pytest.raises(NotUnitary):
        unitary._unitary_decomposition(S4, _with_nan(u))
    assert not calculus._gate(S4, *unitary._unitary(S4, _with_nan(u)))
    exp_i = unitary._exp_i
    monkeypatch.setattr(unitary, "_exp_i", lambda B, y, t: _with_nan(exp_i(B, y, t)))
    with pytest.raises(VerificationFailed, match="round trip"):
        unitary._unitary_log(S4, u)


def test_nan_fails_the_projection_gates(monkeypatch):
    p, q = samplers._orthogonal_projection_pair(S4, np.random.default_rng(5))
    with pytest.raises(NotProjection, match="p is not a projection"):
        unitary._require_projection(S4, _with_nan(p), "p")
    defects = unitary._symmetric_difference_defects
    broken = lambda A, x, y: (lambda d, e: (d, _with_nan(e)))(*defects(A, x, y))
    monkeypatch.setattr(unitary, "_symmetric_difference_defects", broken)
    with pytest.raises(VerificationFailed, match="identity violated"):
        unitary.symmetric_difference(S4, S4.element(p), S4.element(q))


def test_nan_fails_the_tripotent_gate():
    e = peirce._sample_tripotent(S4, np.random.default_rng(6))
    with pytest.raises(NotTripotent):
        peirce._peirce_projections(S4, _with_nan(e))
    assert not calculus._gate(S4, *peirce._tripotent(S4, _with_nan(e)))


def test_nan_fails_the_counterexample_domain_gate():
    f = preservers.build_spin_counterexample(4, 0.3).map.eval.rows
    x = np.stack([_self_adjoint(), _with_nan(_self_adjoint())])
    with pytest.raises(PreconditionFailed, match="self-adjoints only"):
        f(x)
    f(x[:1])


# -- what a failing gate reports ----------------------------------------------


def test_a_failing_stack_reports_its_first_failing_row(monkeypatch):
    # rows 1 and 3 of a stacked exp_i are moved off the unitaries, row 3
    # further: the message carries row 1's residual
    rng = np.random.default_rng(7)
    h = np.stack([_random(S4, rng, "self_adjoint") for _ in range(4)])
    shift = np.zeros((4, S4.dim), dtype=complex)
    shift[1], shift[3] = 1e-3 * _random(S4, rng), 1e-2 * _random(S4, rng)
    u = calculus._exp_i(S4, h, 1.0) + shift
    residual = S4._norm(S4._prod(u[1], S4._inv(u[1])) - S4.unit.coords)
    exp = calculus._exp
    monkeypatch.setattr(calculus, "_exp", lambda nodes, idems, t: exp(nodes, idems, t) + shift)
    with pytest.raises(VerificationFailed, match=re.escape(f"(residual {residual:.3e})")):
        calculus._exp_i(S4, h, 1.0)


def test_the_unitary_and_tripotent_messages_print_residual_and_threshold():
    x = 1.5 * S4.unit.coords
    chk = unitary._is_unitary(S4, x)
    with pytest.raises(NotUnitary) as raised:
        unitary._unitary_decomposition(S4, x)
    assert str(raised.value) == f"unitarity defect {chk.residual:.3e} exceeds {chk.threshold:.3e}"
    chk = peirce._is_tripotent(S4, x)
    with pytest.raises(NotTripotent) as raised:
        peirce._peirce_projections(S4, x)
    assert str(raised.value) == f"tripotent defect {chk.residual:.3e} exceeds {chk.threshold:.3e}"


# -- a NaN row at every raising site, where the exact norm is an SVD --------------

M3 = build_hermitian_matrix_algebra(3)
M2S3 = build_direct_sum([build_hermitian_matrix_algebra(2), build_spin_factor(3)])


def _identity(A):
    f = lambda a: a
    return preservers.MapUnderTest(A, A, f, label="identity", inverse=f)


def _nan_from(fn, at=0):
    """``fn``, but with a NaN coordinate in every row of the value of its
    call numbered ``at`` (from 0)."""
    count = [0]

    def f(*args):
        count[0] += 1
        out = fn(*args)
        return _with_nan(out) if count[0] - 1 == at else out

    return f


def _site_decompose(A, mp):
    calculus._decompose(A, _with_nan(_random(A, np.random.default_rng(3), "self_adjoint")))


def _site_decompose_rows(A, mp):
    rng = np.random.default_rng(3)
    x = np.stack([_random(A, rng, "self_adjoint") for _ in range(3)])
    x[1] = _with_nan(x[1])
    calculus._decompose_rows(A, x)


def _site_exp_i(A, mp):
    mp.setattr(calculus, "_exp", _nan_from(calculus._exp))
    calculus._exp_i(A, _random(A, np.random.default_rng(3), "self_adjoint"), 1.0)


def _site_exp_i_rows(A, mp):
    mp.setattr(calculus, "_exp", _nan_from(calculus._exp))
    rng = np.random.default_rng(3)
    calculus._exp_i(A, np.stack([_random(A, rng, "self_adjoint") for _ in range(3)]), 1.0)


def _site_inverse(A, mp):
    mp.setattr(A, "_u_solve", _nan_from(A._u_solve))
    calculus.is_invertible(A, A.element(_random(A, np.random.default_rng(3), "self_adjoint") + 3.0 * A.unit.coords))


def _site_unitary_decomposition(A, mp):
    unitary._unitary_decomposition(A, _with_nan(_random(A, np.random.default_rng(4), "unitary")))


def _site_unitary_log(A, mp):
    mp.setattr(unitary, "_exp_i", _nan_from(unitary._exp_i))
    unitary._unitary_log(A, _random(A, np.random.default_rng(4), "unitary"))


def _site_projection(A, mp):
    p, _ = samplers._orthogonal_projection_pair(A, np.random.default_rng(5))
    unitary._require_projection(A, _with_nan(p), "p")


def _site_symmetric_difference(A, mp):
    defects = unitary._symmetric_difference_defects
    mp.setattr(unitary, "_symmetric_difference_defects", lambda B, x, y: (lambda d, e: (d, _with_nan(e)))(*defects(B, x, y)))
    p, q = samplers._orthogonal_projection_pair(A, np.random.default_rng(5))
    unitary.symmetric_difference(A, A.element(p), A.element(q))


def _site_tripotent(A, mp):
    peirce._peirce_projections(A, _with_nan(peirce._sample_tripotent(A, np.random.default_rng(6))))


def _site_oc_draw(A, mp):
    draw = samplers._same_generator_pair
    with_nan = lambda B, r, k: (lambda a, b: np.stack([a, _with_nan(b)]))(*draw(B, r, k))
    mp.setattr(samplers, "_same_generator_pair", with_nan)
    samplers._draw_oc_pair(A, np.random.default_rng(7), 3)


def _site_orthogonal_pair(A, mp):
    pair = samplers._orthogonal_projection_pair
    mp.setattr(measures, "_orthogonal_projection_pair", lambda B, r: (lambda p, q: (p, _with_nan(q)))(*pair(B, r)))
    measures.measure_from_map(A, lambda a: a.coords.real, bound_probe=1)


def _site_unit_image(A, mp):
    m = _identity(A)
    m._eval = _nan_from(m._eval)
    preservers.check_piecewise_hom_on_unitaries(m, trials=3)


def _site_unitary_images(A, mp):
    m = _identity(A)
    m._eval = _nan_from(m._eval, at=1)  # the stack of the u's
    preservers.check_piecewise_hom_on_unitaries(m, trials=3)


def _site_generator(A, mp):
    # the logs at t / 2, the second row of each element in _generator's one stacked log
    def log(B, y, log=preservers._unitary_log):
        h = log(B, y)[0]
        h[1::2] = _with_nan(h[1::2])
        return h, False

    mp.setattr(preservers, "_unitary_log", log)
    preservers.derive_generator_map(_identity(A), A.element(_random(A, np.random.default_rng(8), "self_adjoint")))


def _site_unital(A, mp):
    m = _identity(A)
    m._eval = _nan_from(m._eval)
    preservers.verify_jordan_star_isomorphism(m, trials=2)


def _site_central_round_trip(A, mp):
    m = _identity(A)
    m._inverse = _nan_from(m._inverse)
    preservers.check_central_preservation(m, trials=2)


def _site_central_c(A, mp):
    mp.setattr(preservers, "_owned", lambda B, e: _with_nan(e.coords))
    m = _identity(A)
    preservers.verify_unitary_preserver_form(m, m, lambda a: A.zero(), A.unit, trials=2)


def _site_central_beta(A, mp):
    owned = preservers._owned
    mp.setattr(preservers, "_owned", _nan_from(lambda B, e: owned(B, e), at=1))
    m = _identity(A)
    preservers.verify_unitary_preserver_form(m, m, lambda a: A.zero(), A.unit, trials=2)


def _site_i_unit_image(A, mp):
    m = _identity(A)
    m._eval = _nan_from(m._eval)
    preservers.check_i_unit_image(m, trials=2)


NAN_SITES = {
    "decompose": (_site_decompose, NotSelfAdjoint, "deviation from self-adjointness nan"),
    "decompose_rows": (_site_decompose_rows, NotSelfAdjoint, "deviation from self-adjointness nan"),
    "exp_i": (_site_exp_i, VerificationFailed, "exp_i produced a non-unitary element (residual nan)"),
    "exp_i_rows": (_site_exp_i_rows, VerificationFailed, "exp_i produced a non-unitary element (residual nan)"),
    "inverse": (_site_inverse, VerificationFailed, "candidate inverse failed defining identities (residual nan)"),
    "unitary_decomposition": (_site_unitary_decomposition, NotUnitary, "unitarity defect nan exceeds nan"),
    "unitary_log": (_site_unitary_log, VerificationFailed, "log round trip failed (residual nan)"),
    "projection": (_site_projection, NotProjection, "p is not a projection (residual nan)"),
    "symmetric_difference": (_site_symmetric_difference, VerificationFailed, "symmetric-difference identity violated (nan)"),
    "tripotent": (_site_tripotent, NotTripotent, "tripotent defect nan exceeds nan"),
    "oc_draw": (_site_oc_draw, SamplerViolation, "sampler produced a non-commuting pair (residual nan)"),
    "orthogonal_pair": (_site_orthogonal_pair, PreconditionFailed, "orthogonal projections failed to operator commute"),
    "unit_image": (_site_unit_image, NonUnitaryImage, "image of the unit is not unitary"),
    "unitary_images": (_site_unitary_images, NonUnitaryImage, "image of u is not unitary"),
    "generator": (_site_generator, Inconsistent, "halving t_small moved the generator by nan"),
    "unital": (_site_unital, PreconditionFailed, "theta is not unital (residual nan)"),
    "central_round_trip": (_site_central_round_trip, PreconditionFailed, "supplied inverse fails the round trip"),
    "central_c": (_site_central_c, PreconditionFailed, "c is not central self-adjoint"),
    "central_beta": (_site_central_beta, PreconditionFailed, "beta(a) is not central self-adjoint"),
    "i_unit_image": (_site_i_unit_image, HypothesisFailed, "Phi(1) is not a tripotent"),
}


@pytest.mark.parametrize("A", [M3, S4], ids=lambda A: A.id)
@pytest.mark.parametrize("site", NAN_SITES)
def test_a_nan_row_fails_every_raising_site(A, site):
    call, error, message = NAN_SITES[site]
    with pytest.MonkeyPatch.context() as mp, pytest.raises(error) as raised:
        call(A, mp)
    assert type(raised.value) is error and str(raised.value) == message


def test_exp_i_of_an_overflowing_element_fails_verification():
    # the spin closed form overflows to NaN nodes; the M2 block's norm is an SVD
    h = 1e160 * _random(M2S3, np.random.default_rng(3), "self_adjoint")
    with pytest.raises(VerificationFailed, match=re.escape("exp_i produced a non-unitary element (residual nan)")):
        calculus.exp_i(M2S3, M2S3.element(h), 1.0)


def test_a_nan_in_a_later_summand_fails_the_commutation_gate():
    # the sum's bound is the largest of its summands', which a NaN must not lose
    p, q = samplers._orthogonal_projection_pair(M2S3, np.random.default_rng(5))
    q = q.copy()
    q[-1] = np.nan
    chk = calculus._commute_gate(M2S3, p, q)
    assert chk is not True and not chk and np.isnan(chk.residual)


@pytest.mark.parametrize("at", [4, 6])
def test_the_one_element_and_stacked_sum_norms_agree_on_nan_rows(at):
    # max() over the summands' norms kept a finite one and dropped a NaN of
    # a later summand (the spin(3) one, coordinates 4 to 6; an SVD refuses a
    # NaN in the M2 one); the stacked form's np.max carries it
    x = _random(M2S3, np.random.default_rng(9))
    y = x.copy()
    y[at] = np.nan
    stacked = M2S3._norm(np.stack([x, y]))
    assert M2S3._norm(x) == stacked[0] == max(p._norm(x[s]) for p, s in M2S3.summands)
    assert np.isnan(M2S3._norm(y)) and np.isnan(stacked[1])


def test_the_kaup_suite_keeps_a_nan_residual_of_a_later_tripotent(monkeypatch):
    # the builtin max kept the unit's finite residual and dropped the NaN
    residuals = iter([1e-16, float("nan"), 2e-16])
    fake = lambda A, e, per, seed: CheckReport("kaup", True, per, next(residuals))
    monkeypatch.setattr(cli, "kaup_identity_check", fake)
    (rep,) = cli._suite_kaup(M3, 30, 0)
    assert np.isnan(rep.max_residual)


# -- folds that keep a NaN of a later residual ----------------------------------
# max(1.0, nan) is 1.0: each site once kept its finite residuals over a NaN
# after them.  Without the NaN, each report is still the largest of its
# parts.  On spin(4), whose closed-form norm carries a NaN (an SVD refuses it).


def test_the_unitary_preserver_form_keeps_a_nan_of_its_second_closed_form():
    m, theta = _identity(S4), _identity(S4)
    form = lambda: preservers.verify_unitary_preserver_form(m, theta, lambda a: S4.zero(), S4.unit, trials=2)
    rep = form()
    assert rep.passed and math.isfinite(rep.max_residual)
    # theta's calls: 6 in its isomorphism check, then per draw theta(a) and
    # theta of the second closed form's exponential, which gets the NaN
    theta._eval = _nan_from(theta._eval, at=7)
    rep = form()
    assert np.isnan(rep.max_residual) and not rep.passed


def test_the_counterexample_keeps_a_nan_quadratic_residual(monkeypatch):
    run = lambda: preservers.verify_counterexample(preservers.build_spin_counterexample(4, 0.3), trials=10, seed=1)
    rep = run()
    assert rep.max_residual == max(rep.details["oc_additive_raw"], rep.details["oc_quadratic_raw"])
    # the second U-operator is the right side of the quadratic check's first chunk
    monkeypatch.setattr(preservers, "_u_operator", _nan_from(preservers._u_operator, at=1))
    rep = run()
    assert np.isnan(rep.details["oc_quadratic_raw"]) and np.isnan(rep.max_residual) and not rep.passed


def _central_preservation():
    return preservers.check_central_preservation(_identity(S4), trials=2)


def test_central_preservation_keeps_a_nan_central_part(monkeypatch):
    # the unitarity gate passes (0.0), and max(0.0, nan) is 0.0
    assert _central_preservation().passed
    monkeypatch.setattr(preservers, "_central_projection_residual", lambda B, x: np.float64(np.nan))
    rep = _central_preservation()
    assert np.isnan(rep.max_residual) and not rep.passed


def test_central_preservation_keeps_a_nan_symmetry_defect():
    m = _identity(S4)
    m._eval = _nan_from(m._eval, at=2)  # the round trip, the first draw's unitary, then its symmetry
    rep = preservers.check_central_preservation(m, trials=2)
    assert np.isnan(rep.max_residual) and not rep.passed


def test_central_preservation_keeps_a_nan_commutation_residual(monkeypatch):
    nan = ResidualCheck(False, math.nan, math.nan)
    monkeypatch.setattr(preservers, "_operator_commutes", lambda B, x, y: nan)
    rep = _central_preservation()
    assert np.isnan(rep.max_residual) and not rep.passed


def test_the_i_unit_image_keeps_a_nan_centrality_residual(monkeypatch):
    parts = ("projection_residual", "selfadjoint_residual", "reconstruction_residual", "centrality_residual")
    rep = preservers.check_i_unit_image(_identity(S4), trials=2)
    assert rep.passed and rep.max_residual == max(rep.details[k] for k in parts)
    monkeypatch.setattr(preservers, "_u_operator", _nan_from(preservers._u_operator))
    rep = preservers.check_i_unit_image(_identity(S4), trials=2)
    assert np.isnan(rep.details["centrality_residual"]) and np.isnan(rep.max_residual) and not rep.passed


def test_the_structure_recovery_suite_keeps_a_nan_linearity_residual(monkeypatch):
    (rep,) = cli._suite_structure_recovery(_identity(S4), 20, 0)
    assert rep.passed and rep.max_residual == max(rep.details["hom_residual"], rep.details["linearity_residual"])
    recover = cli.recover_structure
    with_nan = lambda m, **kw: dataclasses.replace(recover(m, **kw), linearity_residual=math.nan)
    monkeypatch.setattr(cli, "recover_structure", with_nan)
    (rep,) = cli._suite_structure_recovery(_identity(S4), 20, 0)
    assert np.isnan(rep.max_residual) and not rep.passed
