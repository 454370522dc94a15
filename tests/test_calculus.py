import math

import numpy as np
import pytest

from jbstar.algebras import (
    AlgebraHandle,
    DirectSum,
    _random,
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    involution,
    jbstar_norm,
    jordan_product,
    random_element,
)
from jbstar.calculus import (
    _decompose,
    center_basis,
    exp_i,
    is_invertible,
    is_self_adjoint,
    jordan_spectrum,
    mult_operator,
    operator_commutes,
    spectral_decomposition,
    triple_product,
    u_operator,
    u_operator_matrix,
)
from jbstar.errors import NotSelfAdjoint
from jbstar.kernel import operator_norm
from jbstar.peirce import peirce2_algebra
from jbstar.samplers import same_generator_pair

import oracles


H2 = build_hermitian_matrix_algebra(2)
H3 = build_hermitian_matrix_algebra(3)
S3 = build_spin_factor(3)
SUM = build_direct_sum([build_hermitian_matrix_algebra(1), build_hermitian_matrix_algebra(1)])
MODELS = [H2, H3, S3, SUM]


def test_mult_operator_unit_and_zero():
    for A in MODELS:
        assert np.allclose(mult_operator(A, A.unit), np.eye(A.dim))
        assert np.allclose(mult_operator(A, A.zero()), 0.0)


def test_mult_operator_columns_against_oracle():
    a = H2.element(np.diag([1.0, 0.0]).ravel())
    m = mult_operator(H2, a)
    am = oracles.to_matrix(H2, a)
    for j, b in enumerate(H2.basis):
        want = oracles.assoc_jordan(am, oracles.to_matrix(H2, b)).ravel()
        assert np.allclose(m[:, j], want)


def test_mult_operator_closed_form_vs_generic():
    # kron/outer closed forms against plain column-by-column application
    for A in (H3, S3):
        a = random_element(A, 1)
        m = mult_operator(A, a)
        cols = np.stack(
            [jordan_product(A, a, b).coords for b in A.basis], axis=1
        )
        assert np.allclose(m, cols)


def test_u_operator_examples():
    b = random_element(H2, 2)
    assert np.allclose(u_operator(H2, H2.unit, b).coords, b.coords)
    sx = H2.element(oracles.SX.ravel())
    p = H2.element(np.diag([1.0, 0.0]).ravel())
    got = u_operator(H2, sx, p)
    assert np.allclose(oracles.to_matrix(H2, got), np.diag([0.0, 1.0]))


def test_u_operator_associative_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_element(H3, int(rng.integers(1 << 30)))
        b = random_element(H3, int(rng.integers(1 << 30)))
        got = u_operator(H3, a, b)
        want = oracles.assoc_u(oracles.to_matrix(H3, a), oracles.to_matrix(H3, b))
        assert np.allclose(oracles.to_matrix(H3, got), want)


def test_u_operator_matrix_consistent():
    a = random_element(H3, 4)
    b = random_element(H3, 5)
    assert np.allclose(u_operator_matrix(H3, a) @ b.coords, u_operator(H3, a, b).coords)


def test_spin_u_closed_form_matches_pauli_oracle():
    # U_a(b) for a = alpha 1 + h, b = (t + s alpha) 1 + s h has coefficients
    #   (alpha^2 t + s alpha^3 + (3 alpha s + t)|h|^2) on 1
    #   (2 alpha t + 3 s alpha^2 + s |h|^2) on h
    # cross-checked against the associative 2x2 embedding
    rng = np.random.default_rng(6)
    S4 = build_spin_factor(4)
    for _ in range(20):
        alpha, s, t = rng.standard_normal(3)
        tv = rng.standard_normal(3)
        h2 = float(tv @ tv)
        a = S4.element(np.concatenate([[alpha], 1j * tv]))
        b = S4.element(np.concatenate([[t + s * alpha], 1j * s * tv]))
        got = u_operator(S4, a, b)
        c1 = alpha**2 * t + s * alpha**3 + (3 * alpha * s + t) * h2
        ch = 2 * alpha * t + 3 * s * alpha**2 + s * h2
        want = np.concatenate([[c1], 1j * ch * tv])
        assert np.allclose(got.coords, want)
        am = oracles.spin_sa_to_pauli(alpha, tv)
        bm = oracles.spin_sa_to_pauli(t + s * alpha, s * tv)
        wl, wt = oracles.pauli_to_spin_sa(oracles.assoc_u(am, bm))
        assert np.allclose(got.coords, np.concatenate([[wl], 1j * wt]))


def test_spin_u_diagonal_spot_value_is_cube():
    # a = b = 1 + h with |h| = 1: U_a(a) = a^3 = 4*1 + 4h
    a = S3.element([1.0, 1j, 0.0])
    got = u_operator(S3, a, a)
    a2 = jordan_product(S3, a, a)
    cube = jordan_product(S3, a2, a)
    assert np.allclose(got.coords, cube.coords)
    assert np.allclose(got.coords, [4.0, 4.0j, 0.0])


def test_triple_product_examples_and_oracle():
    z = random_element(H2, 12)
    assert np.allclose(triple_product(H2, H2.unit, H2.unit, z).coords, z.coords)
    a = random_element(H2, 13, "self_adjoint")
    c = random_element(H2, 14, "self_adjoint")
    assert np.allclose(
        triple_product(H2, a, H2.unit, c).coords, jordan_product(H2, a, c).coords
    )
    x, y = random_element(H2, 15), random_element(H2, 16)
    got = triple_product(H2, x, y, z)
    want = oracles.assoc_triple(
        oracles.to_matrix(H2, x), oracles.to_matrix(H2, y), oracles.to_matrix(H2, z)
    )
    assert np.allclose(oracles.to_matrix(H2, got), want)
    assert np.allclose(got.coords, triple_product(H2, z, y, x).coords)
    # conjugate-linear in the middle slot
    lam = 0.7 - 1.3j
    lhs = triple_product(H2, x, lam * y, z)
    assert jbstar_norm(H2, lhs - np.conj(lam) * got) <= 1e-9 * (1 + jbstar_norm(H2, got))


def test_operator_commutes_reports_borderline():
    a = random_element(H2, 33, "self_adjoint")
    chk = operator_commutes(H2, a, jordan_product(H2, a, a))
    assert chk.residual < chk.threshold / 10.0 and not chk.borderline
    b = random_element(H2, 34, "self_adjoint")
    chk = operator_commutes(H2, a, b)
    assert chk.residual > 10.0 * chk.threshold and not chk.borderline


def test_operator_commutes_examples():
    a = random_element(H2, 19, "self_adjoint")
    assert bool(operator_commutes(H2, a, jordan_product(H2, a, a)))
    p = H2.element(np.diag([1.0, 0.0]).ravel())
    sx = H2.element(oracles.SX.ravel())
    assert not operator_commutes(H2, p, sx)
    # spin factor: only the line through a and 1 commutes with a
    h = S3.element([0.0, 1j, 0.0])
    k = S3.element([0.0, 0.0, 1j])
    a = S3.element([0.5, 1.2j, -0.3j])
    assert bool(operator_commutes(S3, a, 0.7 * S3.unit + 1.9 * a))
    assert not operator_commutes(S3, h, k)


def test_operator_commutes_iff_associator_vanishes():
    rng = np.random.default_rng(20)
    for A in (H2, S3):
        for _ in range(150):
            a = random_element(A, int(rng.integers(1 << 30)), "self_adjoint")
            b = random_element(A, int(rng.integers(1 << 30)), "self_adjoint")
            oc = operator_commutes(A, a, b)
            worst = max(
                np.linalg.norm(oracles.associator(A, a, e, b), 2) for e in A.basis
            )
            assert bool(oc) == (worst <= 1e-8 * (1 + jbstar_norm(A, a)) * (1 + jbstar_norm(A, b)))


M6 = build_hermitian_matrix_algebra(6)
COMMUTATOR_MODELS = [H3, M6, build_hermitian_matrix_algebra(10), build_direct_sum([H3, S3])]
COMMUTATOR_MODELS.append(build_direct_sum([H3, build_hermitian_matrix_algebra(4)]))


@pytest.mark.parametrize("A", COMMUTATOR_MODELS, ids=lambda A: A.id)
def test_commutator_norm_matches_generic_route(A):
    # the model's closed form against the SVD of M_a M_b - M_b M_a
    rng = np.random.default_rng(21)
    for _ in range(10):
        a, b = (random_element(A, int(rng.integers(1 << 30)), "self_adjoint") for _ in range(2))
        c = jordan_product(A, a, a) - 0.5 * a  # commutes with a
        for y, commuting in ((b, False), (c, True)):
            slack = 1e-6 * operator_commutes(A, a, y).threshold
            got = A._commutator_norm(a.coords, y.coords, slack)
            want = AlgebraHandle._commutator_norm(A, a.coords, y.coords, slack)
            if commuting:
                scale = (1 + jbstar_norm(A, a)) * (1 + jbstar_norm(A, y))
                assert abs(got - want) <= 1e-13 * scale
            else:
                assert abs(got - want) <= 1e-13 * want


def test_commutator_norm_route_follows_the_commutator(monkeypatch):
    # self-adjoint pairs on M_n take the n x n eigensolve; unitary pairs and
    # general pairs, whose commutator need not be normal, take the generic SVD
    rng = np.random.default_rng(23)
    route = AlgebraHandle._commutator_norm
    calls = []

    def spy(A, x, y, slack):
        calls.append(A.id)
        return route(A, x, y, slack)

    pairs = {}
    for A in (H3, M6, build_direct_sum([H3, build_hermitian_matrix_algebra(4)])):
        for flavor in ("self_adjoint", "unitary", "general"):
            pairs[A, flavor] = [random_element(A, int(rng.integers(1 << 30)), flavor) for _ in range(2)]
    monkeypatch.setattr(AlgebraHandle, "_commutator_norm", spy)
    for (A, flavor), (x, y) in pairs.items():
        slack = 1e-6 * operator_commutes(A, x, y).threshold
        calls.clear()
        got = A._commutator_norm(x.coords, y.coords, slack)
        if flavor == "self_adjoint":
            assert calls == []
        else:
            assert len(calls) == len(A.summands)
            if len(A.summands) == 1:
                assert got == route(A, x.coords, y.coords, slack)


U_MODELS = [build_hermitian_matrix_algebra(1), H2, H3, M6, S3, build_spin_factor(5), SUM]
U_MODELS += [build_direct_sum([H3, S3]), build_direct_sum([build_direct_sum([H2, S3]), H3])]
U_MODELS.append(peirce2_algebra(H3, H3.element(np.diag([1.0, 1.0, 0.0]).ravel())))


@pytest.mark.parametrize("A", U_MODELS, ids=lambda A: A.id)
def test_u_matrix_matches_generic_form(A):
    for seed in (24, 25):
        x = random_element(A, seed).coords
        want = AlgebraHandle._u_matrix(A, x)  # 2 M_x^2 - M_{x o x}
        assert operator_norm(A._u_matrix(x) - want) <= 1e-13 * (1 + A._norm(x)) ** 2


S4 = build_spin_factor(4)
U_SOLVE_MODELS = [*U_MODELS, build_hermitian_matrix_algebra(12), build_direct_sum([H2, H3, M6])]
U_SOLVE_MODELS.append(peirce2_algebra(S4, random_element(S4, 26, "unitary")))


@pytest.mark.parametrize("A", U_SOLVE_MODELS, ids=lambda A: A.id)
def test_u_solve_matches_the_dense_solve(A):
    # a^-1 b a^-1 by two n x n solves on M_n, blockwise on sums, against one
    # solve with the dense U-operator matrix; they agree to rounding times
    # the condition number of U_x, cond(a)^2 on M_n
    rng = np.random.default_rng(27)
    for _ in range(3):
        x, b = _random(A, rng), _random(A, rng)
        u = A._u_matrix(x)
        want = np.linalg.solve(u, b)
        got = A._u_solve(x, b)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.cond(u) * np.linalg.norm(want)


GUARD_MODELS = [build_hermitian_matrix_algebra(12), build_direct_sum([H3, build_spin_factor(5)])]


@pytest.mark.parametrize("A", GUARD_MODELS, ids=lambda A: A.id)
def test_is_invertible_solves_no_operator_system(A, monkeypatch):
    # U_x y = x is solved by n x n solves on the M_n summands, and by a
    # summand-sized one on the spin summand; no dim x dim system remains
    def guarded(name):
        routine = getattr(np.linalg, name)

        def call(a, *args):
            if np.shape(a)[-1] >= A.dim:
                raise AssertionError(f"{name} of a {np.shape(a)} system")
            return routine(a, *args)

        return call

    rng = np.random.default_rng(28)
    xs = [_random(A, rng) + 3.0 * A.unit.coords for _ in range(3)]
    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, guarded(name))
    for x in xs:
        y = is_invertible(A, A.element(x)).coords
        assert A._norm(A._prod(x, y) - A.unit.coords) <= 1e-12 * A._norm(x) * A._norm(y)


def test_center_basis():
    for A, dim in ((H2, 1), (H3, 1), (S3, 1), (SUM, 2)):
        basis = center_basis(A)
        assert len(basis) == dim
        unit_dir = A.unit.coords / np.linalg.norm(A.unit.coords)
        assert np.allclose(basis[0].coords, unit_dir)
        gram = np.array([[np.vdot(y.coords, z.coords) for z in basis] for y in basis])
        assert np.allclose(gram, np.eye(dim))
        assert all(is_self_adjoint(A, z) for z in basis)


CENTRE_MODELS = [build_hermitian_matrix_algebra(n) for n in range(1, 5)]
CENTRE_MODELS += [build_spin_factor(n) for n in range(3, 6)]
CENTRE_MODELS += [
    build_direct_sum([H3, S3]),
    build_direct_sum([build_hermitian_matrix_algebra(1), build_hermitian_matrix_algebra(1)]),
    build_direct_sum([build_direct_sum([H2, S3]), build_hermitian_matrix_algebra(1)]),
]


def _projector(vectors):
    B = np.stack(vectors, axis=1)
    return B @ B.conj().T


@pytest.mark.parametrize("A", CENTRE_MODELS, ids=lambda A: A.id)
def test_closed_form_centre_matches_kernel_oracle(A):
    # the generic route: joint kernel of z -> [M_z, M_{e_k}] over the basis
    oracle = oracles.GenericModel._center(A)
    got = [z.coords for z in center_basis(A)]
    assert len(got) == len(oracle) == len(A.summands)
    assert operator_norm(_projector(got) - _projector(oracle)) <= 1e-12


def test_concrete_centres_skip_the_kernel_route(monkeypatch):
    def refuse(A):
        raise AssertionError(f"generic centre computed for {A.id}")

    monkeypatch.setattr(oracles.GenericModel, "_center", refuse)
    sub = peirce2_algebra(H3, H3.element(np.diag([1.0, 1.0, 0.0]).ravel()))
    for A in [*CENTRE_MODELS, sub, peirce2_algebra(H2, H2.unit)]:
        center_basis(A)
        A._center()  # the closed form itself, whether or not the handle cached it
    # the oracle Peirce-2 algebra is the one model left on the generic route
    with pytest.raises(AssertionError):
        center_basis(oracles.peirce2_oracle(H2, H2.unit.coords))


def test_centre_is_computed_once_per_handle(monkeypatch):
    A = build_direct_sum([build_hermitian_matrix_algebra(2), build_spin_factor(3)])
    calls = []
    monkeypatch.setattr(DirectSum, "_center", lambda self: calls.append(self) or [self.unit.coords])
    rows = A._center_rows
    assert A._center_rows is rows and len(calls) == 1
    assert not rows.flags.writeable
    center_basis(A)
    same_generator_pair(A, np.random.default_rng(0))
    assert len(calls) == 1


@pytest.mark.parametrize("n", [3, 4, 12])
def test_same_generator_pairs_lie_on_spin_lines(n):
    # a o a = 2 a_0 a - <a|a-bar> 1 in spin(n), so b lies in span{1, a}
    V = build_spin_factor(n)
    rng = np.random.default_rng(n)
    for _ in range(20):
        a, b = same_generator_pair(V, rng)
        basis = np.column_stack([V.unit.coords, a.coords])
        coef, *_ = np.linalg.lstsq(basis, b.coords, rcond=None)
        residual = np.linalg.norm(basis @ coef - b.coords)
        assert residual <= 1e-12 * (1.0 + np.linalg.norm(b.coords))


def test_is_invertible():
    assert np.allclose(is_invertible(H2, H2.unit).coords, H2.unit.coords)
    d = H2.element(np.diag([2.0, 1.0]).ravel())
    inv = is_invertible(H2, d)
    assert np.allclose(oracles.to_matrix(H2, inv), np.diag([0.5, 1.0]))
    assert is_invertible(H2, H2.element(np.diag([1.0, 0.0]).ravel())) is None


OVERFLOW_MODELS = [build_spin_factor(4), build_direct_sum([H2, build_spin_factor(3)]), H3]


@pytest.mark.parametrize("A", OVERFLOW_MODELS, ids=lambda A: A.id)
@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_is_invertible_of_a_large_finite_element(A, scale):
    # U_x and x^2 o y = x would overflow; the decision, the solve and the
    # defining identities run on the scaled element, so the inverse is
    # found; a singular element stays singular
    x = random_element(A, 3).coords
    y = is_invertible(A, A.element(x)).coords / scale
    assert np.allclose(is_invertible(A, A.element(scale * x)).coords, y, rtol=1e-9, atol=0.0)
    assert is_invertible(A, A.element(scale * random_element(A, 3, "projection").coords)) is None


@pytest.mark.parametrize("A", OVERFLOW_MODELS, ids=lambda A: A.id)
@pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e100])
def test_is_invertible_scales_as_the_inverse(A, scale):
    x = random_element(A, 3).coords
    y = is_invertible(A, A.element(x)).coords
    assert np.allclose(scale * is_invertible(A, A.element(scale * x)).coords, y, rtol=1e-9, atol=0.0)


def test_jordan_spectrum_examples():
    p = random_element(H3, 21, "projection")
    if jbstar_norm(H3, p) > 0.5 and jbstar_norm(H3, p - H3.unit) > 0.5:
        assert np.allclose(jordan_spectrum(H3, p), [0.0, 1.0], atol=1e-8)
    d = H3.element(np.diag([1.0, 2.0, 2.0]).ravel())
    assert np.allclose(jordan_spectrum(H3, d), [1.0, 2.0], atol=1e-8)
    # spin(3): two-point spectrum lambda +/- |h|_2, via the brute-force
    # quadratic minimal polynomial (x - r1)(x - r2) annihilating a
    lam, t = 0.4, np.array([1.2, -0.5])
    a = S3.element(np.concatenate([[lam], 1j * t]))
    r = np.linalg.norm(t)
    roots = sorted([lam - r, lam + r])
    a2 = jordan_product(S3, a, a)
    annihilate = a2 - (roots[0] + roots[1]) * a + (roots[0] * roots[1]) * S3.unit
    assert jbstar_norm(S3, annihilate) <= 1e-10
    assert np.allclose(jordan_spectrum(S3, a), roots, atol=1e-8)


def test_jordan_spectrum_matches_matrix_oracle():
    rng = np.random.default_rng(22)
    for _ in range(50):
        a = random_element(H3, int(rng.integers(1 << 30)), "self_adjoint")
        got = np.array(jordan_spectrum(H3, a))
        want = np.unique(np.round(np.linalg.eigvalsh(oracles.to_matrix(H3, a)), 10))
        assert len(got) == len(want)
        assert np.max(np.abs(got - want)) <= 1e-7 * (1 + np.max(np.abs(want)))


def test_jordan_spectrum_requires_selfadjoint():
    with pytest.raises(NotSelfAdjoint):
        jordan_spectrum(H2, H2.element([0.0, 1.0, 0.0, 0.0]))


def test_spectral_decomposition_examples():
    dec = spectral_decomposition(H2, H2.unit)
    assert len(dec.pairs) == 1
    lam, e = dec.pairs[0]
    assert abs(lam - 1.0) <= 1e-12 and np.allclose(e.coords, H2.unit.coords)
    p = H2.element(np.diag([1.0, 0.0]).ravel())
    dec = spectral_decomposition(H2, p)
    assert np.allclose([l for l, _ in dec.pairs], [0.0, 1.0], atol=1e-10)


def test_spectral_decomposition_invariants_and_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = random_element(H2, int(rng.integers(1 << 30)), "self_adjoint")
        dec = spectral_decomposition(H2, a)
        total = H2.zero()
        recon = H2.zero()
        for lam, e in dec.pairs:
            assert jbstar_norm(H2, jordan_product(H2, e, e) - e) <= 1e-8
            assert jbstar_norm(H2, involution(H2, e) - e) <= 1e-8
            total = total + e
            recon = recon + lam * e
        for i in range(len(dec.pairs)):
            for j in range(i + 1, len(dec.pairs)):
                assert (
                    jbstar_norm(
                        H2, jordan_product(H2, dec.pairs[i][1], dec.pairs[j][1])
                    )
                    <= 1e-8
                )
        assert jbstar_norm(H2, total - H2.unit) <= 1e-8
        assert jbstar_norm(H2, recon - a) <= 1e-7 * (1 + jbstar_norm(H2, a))
        # eigen-projector oracle
        om = oracles.eig_projectors(oracles.to_matrix(H2, a))
        assert len(om) == len(dec.pairs)
        for (lam, e), (wl, wp) in zip(dec.pairs, om):
            assert abs(lam - wl) <= 1e-7 * (1 + abs(wl))
            assert operator_norm(oracles.to_matrix(H2, e) - wp) <= 1e-7


def test_exp_i_examples():
    h = random_element(H2, 26, "self_adjoint")
    assert jbstar_norm(H2, exp_i(H2, h, 0.0) - H2.unit) <= 1e-10
    p = random_element(H2, 27, "projection")
    got = exp_i(H2, math.pi * p, 1.0)
    assert jbstar_norm(H2, got - (H2.unit - 2.0 * p)) <= 1e-8
    sx = H2.element(oracles.SX.ravel())
    got = exp_i(H2, sx, math.pi / 2.0)
    assert np.allclose(oracles.to_matrix(H2, got), 1j * oracles.SX, atol=1e-10)


def test_exp_i_group_law_and_unitarity():
    rng = np.random.default_rng(28)
    for A in (H3, S3):
        h = random_element(A, 29, "self_adjoint")
        for _ in range(20):
            s, t = rng.uniform(-2, 2, size=2)
            lhs = jordan_product(A, exp_i(A, h, s), exp_i(A, h, t))
            rhs = exp_i(A, h, s + t)
            assert jbstar_norm(A, lhs - rhs) <= 1e-8
            u = exp_i(A, h, t)
            us = involution(A, u)
            assert jbstar_norm(A, jordan_product(A, u, us) - A.unit) <= 1e-9


def test_fundamental_identity():
    rng = np.random.default_rng(31)
    for A in (H2, H3, S3):
        for _ in range(100):
            a = random_element(A, int(rng.integers(1 << 30)))
            b = random_element(A, int(rng.integers(1 << 30)))
            c = random_element(A, int(rng.integers(1 << 30)))
            lhs = u_operator(A, u_operator(A, a, b), c)
            rhs = u_operator(A, a, u_operator(A, b, u_operator(A, a, c)))
            scale = (1 + jbstar_norm(A, a)) ** 4 * (1 + jbstar_norm(A, b)) ** 2 * (
                1 + jbstar_norm(A, c)
            )
            assert jbstar_norm(A, lhs - rhs) <= 1e-7 * scale


def _apply_on_spectrum(A, a, f):
    """Sum of f(node) times idempotent over the decomposition of a."""
    nodes, idems = _decompose(A, a.coords)
    return A.element(np.array([f(float(lam)) for lam in nodes]) @ idems)


def test_positive_pair_identity():
    # for operator-commuting positive a, b: U_{a^(1/2)}(b) = U_{b^(1/2)}(a)
    rng = np.random.default_rng(32)
    for A in (H3, S3):
        for _ in range(10):
            c = random_element(A, int(rng.integers(1 << 30)), "self_adjoint")
            a = _apply_on_spectrum(A, c, lambda t: t * t + 0.5)
            b = _apply_on_spectrum(A, c, lambda t: abs(t) + 1.0)
            assert bool(operator_commutes(A, a, b))
            ra = _apply_on_spectrum(A, a, lambda t: math.sqrt(max(t, 0.0)))
            rb = _apply_on_spectrum(A, b, lambda t: math.sqrt(max(t, 0.0)))
            lhs = u_operator(A, ra, b)
            rhs = u_operator(A, rb, a)
            scale = (1 + jbstar_norm(A, a)) * (1 + jbstar_norm(A, b)) * (
                1 + jbstar_norm(A, a) + jbstar_norm(A, b)
            )
            assert jbstar_norm(A, lhs - rhs) <= 1e-7 * scale
