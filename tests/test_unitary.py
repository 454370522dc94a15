import math

import numpy as np
import pytest

from jbstar.algebras import (
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    involution,
    jbstar_norm,
    jordan_product,
    random_element,
)
from jbstar.calculus import _abelian_rows, exp_i, operator_commutes, u_operator
from jbstar.errors import NotProjection, NotUnitary
from jbstar.kernel import Tolerance
from jbstar.reports import CHUNK
from jbstar.samplers import _noncommuting_pair
from jbstar.unitary import (
    _unitary_decomposition,
    _unitary_log,
    circle_inequality_check,
    is_symmetry,
    is_unitary,
    oc_unitary_equivalences_check,
    oc_unitary_product_check,
    symmetric_difference,
    unitary_log,
)

import oracles


H2 = build_hermitian_matrix_algebra(2)
H3 = build_hermitian_matrix_algebra(3)
H4 = build_hermitian_matrix_algebra(4)
S3 = build_spin_factor(3)
MODELS = [H2, H3, S3]


def test_is_unitary_examples():
    assert bool(is_unitary(H2, H2.unit))
    p = random_element(H2, 1, "projection")
    assert bool(is_unitary(H2, H2.unit - 2.0 * p))
    assert not is_unitary(H2, H2.element(np.diag([1.0, 0.0]).ravel()))


def test_is_symmetry_examples():
    assert is_symmetry(H2, H2.unit)
    assert is_symmetry(H2, -1.0 * H2.unit)
    p = random_element(H3, 2, "projection")
    assert is_symmetry(H3, H3.unit - 2.0 * p)
    # spin: a unit-norm H^- element squares to 1
    h = S3.element([0.0, 0.6j, 0.8j])
    assert is_symmetry(S3, h)


def test_every_symmetry_is_one_minus_two_projection():
    rng = np.random.default_rng(3)
    for A in MODELS:
        for _ in range(10):
            p = random_element(A, int(rng.integers(1 << 30)), "projection")
            s = A.unit - 2.0 * p
            assert is_symmetry(A, s)
            q = 0.5 * (A.unit - s)
            assert np.allclose(q.coords, p.coords)


def test_unitary_log_examples():
    lg = unitary_log(H2, H2.unit)
    assert jbstar_norm(H2, lg.h) <= 1e-10
    p = random_element(H2, 4, "projection")
    lg = unitary_log(H2, H2.unit - 2.0 * p)
    assert jbstar_norm(H2, lg.h - math.pi * p) <= 1e-8
    assert lg.ambiguous  # spectrum touches -1, arg pinned at pi
    u = random_element(H2, 5, "unitary")
    lg = unitary_log(H2, u)
    assert jbstar_norm(H2, exp_i(H2, lg.h, 1.0) - u) <= 1e-7


def test_unitary_log_roundtrip_branch_safe():
    rng = np.random.default_rng(6)
    for A in MODELS:
        for _ in range(10):
            h = random_element(A, int(rng.integers(1 << 30)), "self_adjoint")
            nh = jbstar_norm(A, h)
            h = (2.8 / max(nh, 2.8)) * h  # spectrum inside (-pi, pi)
            u = exp_i(A, h, 1.0)
            lg = unitary_log(A, u)
            assert not lg.ambiguous
            assert jbstar_norm(A, lg.h - h) <= 1e-7 * (1 + nh)


def test_unitary_log_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        unitary_log(H2, H2.element(np.diag([1.0, 0.0]).ravel()))


def test_oc_unitary_product_check_models():
    for A in MODELS:
        rep = oc_unitary_product_check(A, trials=50, seed=8)
        assert rep.passed, (A.id, rep.max_residual)


def test_noncommuting_unitaries_break_jordan_product():
    # negative control: some non-commuting pair has a non-unitary product
    rng = np.random.default_rng(9)
    found = 0.0
    for _ in range(50):
        hk = _noncommuting_pair(H2, rng)
        assert hk is not None
        u = exp_i(H2, H2.element(hk[0]), 1.0)
        v = exp_i(H2, H2.element(hk[1]), 1.0)
        found = max(found, is_unitary(H2, jordan_product(H2, u, v)).residual)
        if found > 0.1:
            break
    assert found > 0.1


def test_oc_unitary_equivalences():
    for A in MODELS:
        rep = oc_unitary_equivalences_check(A, trials=10, seed=10, adversarial=10)
        assert rep.passed, (A.id, rep.details)
        assert rep.details["adversarial_found"] > 0
        assert rep.details["adversarial_min_violation_factor"] >= 10.0


def test_oc_equivalences_on_commuting_diagonals():
    # diagonal generators commute in the associative sense; all four
    # characterizations must agree
    rng = np.random.default_rng(11)
    for _ in range(10):
        h, k = (H3.element(np.diag(rng.standard_normal(3)).ravel()) for _ in range(2))
        assert bool(operator_commutes(H3, h, k))
        u = exp_i(H3, h, 1.0)
        v = exp_i(H3, k, 1.0)
        assert bool(operator_commutes(H3, u, v))
        assert bool(operator_commutes(H3, u, involution(H3, v)))
        lhs = u_operator(H3, u, exp_i(H3, k, 2.0))
        rhs = u_operator(H3, v, exp_i(H3, h, 2.0))
        assert jbstar_norm(H3, lhs - rhs) <= 1e-9


def test_circle_inequality_scalar_case():
    # scalar unitaries: |e^{i theta} - 1| = 2 sin(theta/2)
    for theta in (0.1, 0.5, 1.0):
        for n in (1, 2, 3):
            u = exp_i(H2, theta * H2.unit, 1.0)
            r = jbstar_norm(H2, u - H2.unit)
            assert abs(r - 2.0 * math.sin(theta / 2.0)) <= 1e-10
            if n * r < 2.0:
                nodes, idems = _unitary_decomposition(H2, u.coords)
                un = H2.element(nodes**n @ idems)
                assert n * r <= (math.pi / 2.0) * jbstar_norm(H2, un - H2.unit) + 1e-9


def test_circle_inequality_check_models():
    for A in (H3, S3):
        rep = circle_inequality_check(A, trials=100, seed=12)
        assert rep.passed, rep.max_residual


def test_symmetric_difference_examples():
    p = random_element(H3, 13, "projection")
    assert np.allclose(symmetric_difference(H3, p, H3.zero()).coords, p.coords)
    assert jbstar_norm(H3, symmetric_difference(H3, p, p)) <= 1e-10


def test_symmetric_difference_diagonal_xor():
    bits_p = np.array([1.0, 1.0, 0.0])
    bits_q = np.array([0.0, 1.0, 1.0])
    p = H3.element(np.diag(bits_p).ravel())
    q = H3.element(np.diag(bits_q).ravel())
    d = symmetric_difference(H3, p, q)
    want = np.diag((bits_p + bits_q) % 2.0)
    assert np.allclose(oracles.to_matrix(H3, d), want)


def test_symmetric_difference_upsilon_identity():
    rng = np.random.default_rng(14)
    from jbstar.samplers import commuting_projection_pair

    for _ in range(20):
        pq = commuting_projection_pair(H4, rng)
        if pq is None:
            continue
        p, q = pq
        d = symmetric_difference(H4, p, q)
        lhs = H4.unit - 2.0 * d
        rhs = jordan_product(H4, H4.unit - 2.0 * p, H4.unit - 2.0 * q)
        assert jbstar_norm(H4, lhs - rhs) <= 1e-8


def test_symmetric_difference_rejects_nonprojections():
    with pytest.raises(NotProjection):
        symmetric_difference(H3, 0.5 * H3.unit, H3.zero())


def test_u_of_unitaries_stays_unitary():
    rng = np.random.default_rng(15)
    for A in MODELS:
        for _ in range(70):
            u = random_element(A, int(rng.integers(1 << 30)), "unitary")
            v = random_element(A, int(rng.integers(1 << 30)), "unitary")
            assert bool(is_unitary(A, u_operator(A, u, v)))
            assert bool(is_unitary(A, u_operator(A, u, involution(A, v))))


@pytest.mark.parametrize(
    "A",
    [H3, build_spin_factor(4), build_direct_sum([H3, S3]), build_hermitian_matrix_algebra(6)],
    ids=lambda A: A.id,
)
def test_oc_equivalences_equals_the_one_draw_at_a_time_loop(A):
    # across a chunk boundary, bit for bit
    trials = CHUNK + 5
    rep = oc_unitary_equivalences_check(A, trials, 4)
    draws = oracles.oc_equivalences_one_at_a_time(A, trials, 4)
    assert rep.passed and rep.trials == trials and rep.witness is None
    assert rep.max_residual == max(r for r, _, _ in draws)


# -- the off-circle test: a loose unitarity gate passes a scaled unitary ---------

LOOSE = Tolerance(abs_eps=1e-3)
LOOSE_MODELS = [build_hermitian_matrix_algebra(3, LOOSE), build_spin_factor(4, LOOSE)]
_OFF = "spectrum points leave the unit circle by {:.3e}"


@pytest.mark.parametrize("A", LOOSE_MODELS, ids=lambda A: A.id)
def test_a_scaled_unitary_passes_the_gate_and_leaves_the_circle(A):
    u = (1.0 + 1e-5) * random_element(A, 3, "unitary").coords
    assert is_unitary(A, A.element(u))
    for call in (lambda: unitary_log(A, A.element(u)), lambda: _unitary_decomposition(A, u)):
        with pytest.raises(NotUnitary) as raised:
            call()
        assert str(raised.value) == _OFF.format(1e-5)


def _clustered_off_circle(A):
    """A unitary scaled by 1 + 2e-5 with two nodes z and z (1 + 1e-7), within
    the cluster gap: off the circle by 2.010e-5 before their merge, and by
    2.005e-5 after it."""
    z = np.exp(0.3j) * (1.0 + 2e-5)
    if A.dim == 9:
        return np.diag([z, z * (1.0 + 1e-7), np.exp(1.5j)]).ravel()
    return np.array([z * (1.0 + 5e-8), z * 5e-8, 0.0, 0.0])  # z (1 + 5e-8) -/+ z 5e-8


@pytest.mark.parametrize("A", LOOSE_MODELS, ids=lambda A: A.id)
def test_the_stacked_log_refuses_its_first_row_off_the_circle(A):
    # the clustered row takes the one-element decomposition, and its merged nodes
    u = np.stack([random_element(A, seed, "unitary").coords for seed in (4, 5)])
    clustered = _clustered_off_circle(A)
    assert _abelian_rows(A, np.stack([u[0], clustered]), False)[2].tolist() == [False, True]
    with pytest.raises(NotUnitary) as raised:
        unitary_log(A, A.element(clustered))
    assert str(raised.value) == _OFF.format(2.005e-5)
    cases = [
        ([u[0], (1.0 + 1e-5) * u[1], clustered], 1e-5),
        ([u[0], clustered, (1.0 + 1e-5) * u[1]], 2.005e-5),
        ([u[0], u[1], (1.0 + 1e-5) * u[1]], 1e-5),
    ]
    for rows, off in cases:
        with pytest.raises(NotUnitary) as raised:
            _unitary_log(A, np.stack(rows))
        assert str(raised.value) == _OFF.format(off)
    h, ambiguous = _unitary_log(A, u)
    assert h.shape == (2, A.dim) and not ambiguous.any()
