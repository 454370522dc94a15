"""The bound-first gate, ``calculus._gate``, and its raise, ``calculus._require``.

A gate passes outright when every defect is ``_small``; otherwise it is the
exact check, the largest defect norm against the threshold, row by row on a
stack.  ``_require`` raises with the residual and the threshold of the first
failing row, and a NaN fails: every raising site below refuses an element
with a NaN coordinate on spin(4), whose norm is a closed form that carries
the NaN through.
"""

import re

import numpy as np
import pytest

from jbstar import calculus, peirce, preservers, samplers, unitary
from jbstar.algebras import _random, build_spin_factor
from jbstar.errors import (
    NotProjection,
    NotSelfAdjoint,
    NotTripotent,
    NotUnitary,
    PreconditionFailed,
    VerificationFailed,
)
from jbstar.reports import ResidualCheck

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
    assert not calculus._is_self_adjoint(S4, x)


def test_nan_fails_the_exp_i_unitarity_check(monkeypatch):
    exp = calculus._exp
    monkeypatch.setattr(calculus, "_exp", lambda nodes, idems, t: _with_nan(exp(nodes, idems, t)))
    h = _self_adjoint()
    with pytest.raises(VerificationFailed, match="non-unitary"):
        calculus._exp_i(S4, h, 1.0)
    with pytest.raises(VerificationFailed, match="non-unitary"):
        calculus._exp_i(S4, np.stack([h, 2.0 * h]), 1.0)


def test_nan_fails_the_inverse_identities(monkeypatch):
    # the candidate inverse is what the solve returns
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: _with_nan(solve(a, b)))
    with pytest.raises(VerificationFailed, match="defining identities"):
        calculus.is_invertible(S4, S4.element(_self_adjoint() + 3.0 * S4.unit.coords))


def test_nan_fails_the_unitary_gates(monkeypatch):
    u = _random(S4, np.random.default_rng(4), "unitary")
    with pytest.raises(NotUnitary):
        unitary._unitary_decomposition(S4, _with_nan(u))
    assert not unitary._unitary_gate(S4, _with_nan(u))
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
    assert not peirce._tripotent_gate(S4, _with_nan(e))


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
