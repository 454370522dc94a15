import numpy as np
import pytest

from jbstar import calculus, unitary
from jbstar.algebras import (
    algebra_from_descriptor,
    algebra_to_descriptor,
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    element_from_json,
    element_to_json,
    involution,
    jbstar_norm,
    jordan_product,
    random_element,
    sa_coords,
    sa_from_coords,
    selfadjoint_basis,
)
from jbstar.calculus import exp_i, is_self_adjoint, jordan_spectrum, u_operator
from jbstar.errors import AlgebraMismatch, EmptyParts, SizeOutOfRange
from jbstar.peirce import peirce2_algebra

import oracles


H1 = build_hermitian_matrix_algebra(1)
H2 = build_hermitian_matrix_algebra(2)
H3 = build_hermitian_matrix_algebra(3)
S3 = build_spin_factor(3)
S4 = build_spin_factor(4)
SUM = build_direct_sum([S3, H3])
MODELS = [H1, H2, H3, S3, S4, SUM]


def test_builder_bounds():
    with pytest.raises(SizeOutOfRange):
        build_hermitian_matrix_algebra(0)
    with pytest.raises(SizeOutOfRange):
        build_hermitian_matrix_algebra(13)
    with pytest.raises(SizeOutOfRange):
        build_spin_factor(2)
    with pytest.raises(SizeOutOfRange):
        build_spin_factor(145)  # refused before any n^2 allocation
    assert build_spin_factor(144).dim == 144
    with pytest.raises(EmptyParts):
        build_direct_sum([])


def test_matrix_model_shape():
    assert H1.dim == 1
    assert H2.dim == 4
    assert np.array_equal(H2.unit.coords, np.eye(2, dtype=complex).ravel())


def test_unit_law_on_basis():
    for A in MODELS:
        for b in A.basis:
            assert jbstar_norm(A, jordan_product(A, A.unit, b) - b) <= 1e-12


def test_jordan_product_examples():
    a = H2.element(np.diag([1.0, 0.0]).ravel())
    sx = H2.element(oracles.SX.ravel())
    got = jordan_product(H2, a, sx)
    want = oracles.assoc_jordan(oracles.to_matrix(H2, a), oracles.to_matrix(H2, sx))
    assert np.allclose(oracles.to_matrix(H2, got), want)
    assert np.allclose(oracles.to_matrix(H2, got), [[0.0, 0.5], [0.5, 0.0]])


def test_jordan_product_exactly_commutative():
    rng = np.random.default_rng(0)
    for A in MODELS:
        for _ in range(20):
            a = random_element(A, int(rng.integers(1 << 30)))
            b = random_element(A, int(rng.integers(1 << 30)))
            ab = jordan_product(A, a, b)
            ba = jordan_product(A, b, a)
            assert np.array_equal(ab.coords, ba.coords)


def test_jordan_product_bilinear():
    rng = np.random.default_rng(1)
    for A in MODELS:
        a = random_element(A, 1)
        b = random_element(A, 2)
        c = random_element(A, 3)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        lhs = jordan_product(A, lam * a + b, c)
        rhs = lam * jordan_product(A, a, c) + jordan_product(A, b, c)
        assert jbstar_norm(A, lhs - rhs) <= 1e-10 * (1 + jbstar_norm(A, lhs))


def test_element_accepts_strided_coordinates():
    # a column slice is not contiguous
    col = np.eye(4, dtype=complex)[:, 1]
    a = H2.element(col)
    assert np.array_equal(a.coords, col) and a.coords.flags.c_contiguous
    bad = np.eye(4, dtype=complex)
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        H2.element(bad[:, 1])


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        jordan_product(H2, H2.unit, H3.unit)


def test_involution_involutive_and_conjugate_linear():
    rng = np.random.default_rng(2)
    for A in MODELS:
        a = random_element(A, 4)
        b = random_element(A, 5)
        assert np.array_equal(involution(A, involution(A, a)).coords, a.coords)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        lhs = involution(A, lam * a + b)
        rhs = np.conj(lam) * involution(A, a) + involution(A, b)
        assert jbstar_norm(A, lhs - rhs) <= 1e-10 * (1 + jbstar_norm(A, lhs))


def test_involution_matrix_example():
    a = H2.element([0.0, 1j, 0.0, 0.0])
    got = involution(H2, a)
    assert np.array_equal(oracles.to_matrix(H2, got), np.array([[0, 0], [-1j, 0]]))


def test_spin_selfadjoint_fixed_by_involution():
    x = S3.element([0.7, 0.2j, -1.1j])
    assert is_self_adjoint(S3, x)
    assert np.allclose(involution(S3, x).coords, x.coords)


def test_spin_product_selfadjoint_formula():
    # a o b = (alpha beta + <h|k>) 1 + alpha k + beta h, symbolic expansion
    rng = np.random.default_rng(3)
    for _ in range(20):
        alpha, beta = rng.standard_normal(2)
        t = rng.standard_normal(S3.dim - 1)
        s = rng.standard_normal(S3.dim - 1)
        a = S3.element(np.concatenate([[alpha], 1j * t]))
        b = S3.element(np.concatenate([[beta], 1j * s]))
        got = jordan_product(S3, a, b)
        want = np.concatenate([[alpha * beta + t @ s], 1j * (alpha * s + beta * t)])
        assert np.allclose(got.coords, want)


def test_spin_product_matches_pauli_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        lam, mu = rng.standard_normal(2)
        t = rng.standard_normal(3)
        s = rng.standard_normal(3)
        a = S4.element(np.concatenate([[lam], 1j * t]))
        b = S4.element(np.concatenate([[mu], 1j * s]))
        got = jordan_product(S4, a, b)
        m = oracles.assoc_jordan(oracles.spin_sa_to_pauli(lam, t), oracles.spin_sa_to_pauli(mu, s))
        wl, wt = oracles.pauli_to_spin_sa(m)
        assert np.allclose(got.coords, np.concatenate([[wl], 1j * wt]))


def test_matrix_operators_match_kron_bit_for_bit():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 5, 12):
        A = build_hermitian_matrix_algebra(n)
        for _ in range(10):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert np.array_equal(A._mult_matrix(m.ravel()), oracles.kron_mult_matrix(m))
            assert np.array_equal(A._u_matrix(m.ravel()), np.kron(m, m.T))


def test_spin_product_and_norm_match_np_sum_bit_for_bit():
    rng = np.random.default_rng(42)
    for d in (3, 4, 8, 17, 40):
        A = build_spin_factor(d)
        for _ in range(20):
            x, y = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
            assert np.array_equal(A._prod(x, y), oracles.spin_prod_np_sum(x, y))
            assert A._norm(x) == oracles.spin_norm_np_sum(x)


def test_spin_norm_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = rng.standard_normal()
        t = rng.standard_normal(S4.dim - 1)
        x = S4.element(np.concatenate([[lam], 1j * t]))
        assert abs(jbstar_norm(S4, x) - (abs(lam) + np.linalg.norm(t))) <= 1e-10


def test_norm_basics():
    for A in MODELS:
        assert abs(jbstar_norm(A, A.unit) - 1.0) <= 1e-12
        a = random_element(A, 6)
        for tt in (-2.0, 0.5):
            assert abs(jbstar_norm(A, tt * a) - abs(tt) * jbstar_norm(A, a)) <= 1e-9


def test_jbstar_axiom_sampled():
    for A in MODELS:
        for seed in range(30):
            a = random_element(A, 1000 + seed)
            ua = u_operator(A, a, involution(A, a))
            na = jbstar_norm(A, a)
            assert abs(jbstar_norm(A, ua) - na**3) <= 1e-6 * (1.0 + na**3)


def test_jordan_identity_sampled():
    for A in MODELS:
        for seed in range(30):
            a = random_element(A, 2000 + seed)
            b = random_element(A, 3000 + seed)
            b2 = jordan_product(A, b, b)
            lhs = jordan_product(A, jordan_product(A, a, b), b2)
            rhs = jordan_product(A, jordan_product(A, a, b2), b)
            scale = (1 + jbstar_norm(A, a)) * (1 + jbstar_norm(A, b)) ** 3
            assert jbstar_norm(A, lhs - rhs) <= 1e-8 * scale


def test_spin_involution_is_isometric():
    rng = np.random.default_rng(40)
    for A in (S3, S4):
        for _ in range(50):
            a = random_element(A, int(rng.integers(1 << 30)))
            na = jbstar_norm(A, a)
            assert abs(jbstar_norm(A, involution(A, a)) - na) <= 1e-9 * (1.0 + na)


def test_spin_vector_selfadjoint_invariant():
    # self-adjoint iff the unit coefficient is real and the H-part is
    # purely imaginary componentwise
    assert is_self_adjoint(S3, S3.element([0.4, 1.2j, -0.7j]))
    assert not is_self_adjoint(S3, S3.element([0.4 + 0.2j, 1.2j, -0.7j]))
    assert not is_self_adjoint(S3, S3.element([0.4, 1.2, -0.7j]))

def test_random_element_contracts():
    for A in MODELS:
        p = random_element(A, 7, "projection")
        assert jbstar_norm(A, jordan_product(A, p, p) - p) <= 1e-9
        assert jbstar_norm(A, involution(A, p) - p) <= 1e-9
        u = random_element(A, 8, "unitary")
        us = involution(A, u)
        assert jbstar_norm(A, jordan_product(A, u, us) - A.unit) <= 1e-9
        u2 = jordan_product(A, u, u)
        assert jbstar_norm(A, jordan_product(A, u2, us) - u) <= 1e-9
        sa = random_element(A, 9, "self_adjoint")
        assert is_self_adjoint(A, sa)
        pos = random_element(A, 10, "positive")
        assert min(jordan_spectrum(A, pos)) >= -1e-8


def test_random_element_deterministic():
    for A in MODELS:
        x = random_element(A, 11, "general")
        y = random_element(A, 11, "general")
        assert np.array_equal(x.coords, y.coords)


def test_random_unitary_via_exponential():
    # unitary flavor agrees with exp_i of a self-adjoint generator
    u = random_element(H3, 12, "unitary")
    assert jbstar_norm(H3, jordan_product(H3, u, involution(H3, u)) - H3.unit) <= 1e-9
    h = random_element(H3, 13, "self_adjoint")
    v = exp_i(H3, h, 1.0)
    m = oracles.expm_hermitian(oracles.to_matrix(H3, h))
    assert np.allclose(oracles.to_matrix(H3, v), m)


def test_direct_sum_componentwise():
    a = random_element(SUM, 14)
    b = random_element(SUM, 15)
    ab = jordan_product(SUM, a, b)
    a1, a2 = a.coords[:3], a.coords[3:]
    b1, b2 = b.coords[:3], b.coords[3:]
    p1 = jordan_product(S3, S3.element(a1), S3.element(b1))
    p2 = jordan_product(H3, H3.element(a2), H3.element(b2))
    assert np.array_equal(ab.coords[:3], p1.coords)
    assert np.array_equal(ab.coords[3:], p2.coords)
    assert abs(
        jbstar_norm(SUM, a)
        - max(jbstar_norm(S3, S3.element(a1)), jbstar_norm(H3, H3.element(a2)))
    ) == 0.0


def test_direct_sum_single_part():
    one = build_direct_sum([H2])
    a = random_element(one, 16)
    b = random_element(one, 17)
    got = jordan_product(one, a, b)
    want = jordan_product(H2, H2.element(a.coords), H2.element(b.coords))
    assert np.array_equal(got.coords, want.coords)


def test_selfadjoint_basis_dimensions():
    assert len(selfadjoint_basis(H2)) == 4
    assert len(selfadjoint_basis(H3)) == 9
    assert len(selfadjoint_basis(S3)) == 3
    assert len(selfadjoint_basis(S4)) == 4
    assert len(selfadjoint_basis(SUM)) == 12


def test_sa_coords_roundtrip():
    for A in (H3, S4, SUM):
        basis = selfadjoint_basis(A)
        a = random_element(A, 18, "self_adjoint")
        rho = sa_coords(A, a, basis)
        back = sa_from_coords(A, rho, basis)
        assert jbstar_norm(A, back - a) <= 1e-10


def test_element_json_roundtrip():
    a = random_element(H2, 19)
    doc = element_to_json(a)
    b = element_from_json(H2, doc)
    assert np.allclose(a.coords, b.coords)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_public_boundary_rejects_non_finite_coordinates(bad):
    # elements are validated where they enter: internals trust coordinate arrays
    coords = np.zeros(H2.dim, dtype=complex)
    coords[1] = bad
    with pytest.raises(ValueError, match="finite"):
        H2.element(coords)
    doc = {"coords": [[0.0, 0.0]] * H2.dim}
    doc["coords"][1] = [complex(bad).real, complex(bad).imag]
    with pytest.raises(ValueError, match="finite"):
        element_from_json(H2, doc)


def test_algebra_descriptor_roundtrip():
    doc = {
        "kind": "direct_sum",
        "parts": [{"kind": "hermitian_matrix", "n": 2}, {"kind": "spin", "n": 4}],
    }
    A = algebra_from_descriptor(doc)
    assert A.dim == 8
    assert algebra_to_descriptor(A) == doc


def _m4_partial_isometry_peirce2():
    M4 = build_hermitian_matrix_algebra(4)
    e = np.zeros((4, 4), dtype=complex)
    e[0, 1] = e[1, 2] = 1.0  # not self-adjoint: e e* and e* e differ
    return peirce2_algebra(M4, M4.element(e.ravel()))


STACK_MODELS = {
    "M1": H1,
    "M2": H2,
    "M3": H3,
    "M5": build_hermitian_matrix_algebra(5),
    "spin(3)": S3,
    "spin(4)": S4,
    "spin(5)": build_spin_factor(5),
    "H3+S3": build_direct_sum([H3, S3]),
    "M2+M3": build_direct_sum([H2, H3]),
    "M3+spin(5)": build_direct_sum([H3, build_spin_factor(5)]),
    "nested-sum": build_direct_sum([build_direct_sum([S3, H2]), H1, S4]),
    "peirce2(M4)": _m4_partial_isometry_peirce2(),
}


@pytest.mark.parametrize("name", list(STACK_MODELS))
def test_stacked_model_ops_match_rowwise(name):
    A = STACK_MODELS[name]
    rng = np.random.default_rng(80)
    T = 6
    X, Y, Z = (rng.standard_normal((T, A.dim)) + 1j * rng.standard_normal((T, A.dim)) for _ in range(3))
    y = Y[0]

    def close(stacked, rowwise):
        stacked, rowwise = list(stacked), list(rowwise)
        assert len(stacked) == len(rowwise), name
        for got, want in zip(stacked, rowwise):
            if isinstance(want, tuple):  # several results of one row
                close(got, want)
                continue
            assert np.max(np.abs(got - want)) <= 1e-15 * (1.0 + np.max(np.abs(want))), name

    rows = range(T)
    close(A._prod(X, Y), [A._prod(X[i], Y[i]) for i in rows])
    close(A._prod(X, y), [A._prod(X[i], y) for i in rows])  # stack against a single
    close(A._prod(y, X), [A._prod(y, X[i]) for i in rows])
    close(A._inv(X), [A._inv(X[i]) for i in rows])
    close(A._norm(X), [A._norm(X[i]) for i in rows])
    close(A._triple(X, Y, Z), [A._triple(X[i], Y[i], Z[i]) for i in rows])
    close(A._triple(X, y, X), [A._triple(X[i], y, X[i]) for i in rows])
    sd = unitary._symmetric_difference_defects
    close(zip(*sd(A, X, Y)), [sd(A, X[i], Y[i]) for i in rows])
    # self-adjoint rows: the spectral hook (a batched eigh, the spin closed
    # form, summands side by side) and exp_i; none of these rows is scalar
    # on a spin summand or has close nodes, so every row is decomposed stacked
    H = 0.5 * (X + A._inv(X))
    nodes, idems, clustered = calculus._decompose_rows(A, H)
    assert not clustered.any()
    close(zip(nodes, idems), [calculus._decompose(A, H[i]) for i in rows])
    close(zip(*A._eigenpieces(H, True)), [A._eigenpieces(H[i], True) for i in rows])
    close(calculus._exp_i(A, H, 0.7), [calculus._exp_i(A, H[i], 0.7) for i in rows])
    # two batch axes broadcast as an outer product
    outer = A._prod(X[:3, None], Y[None, :2])
    assert outer.shape == (3, 2, A.dim)
    close(outer.reshape(6, A.dim), [A._prod(X[i], Y[j]) for i in range(3) for j in range(2)])
    # one vector: the one-vector formulas bit for bit, and a float norm
    for i in rows:
        assert np.array_equal(A._prod(X[i], Y[i]), oracles.vector_prod(A, X[i], Y[i])), name
        assert np.array_equal(A._inv(X[i]), oracles.vector_inv(A, X[i])), name
        assert type(A._norm(X[i])) is float


@pytest.mark.parametrize("n", [3, 4, 12])
def test_spin_norm_of_unitaries_is_one(n):
    # Lagrange's form keeps |a ^ b| at rounding level near a unitary, where
    # the cancelling formula's inner root returns about sqrt(eps)
    A = build_spin_factor(n)
    us = [random_element(A, seed, "unitary") for seed in range(200)]
    assert max(abs(jbstar_norm(A, u) - 1.0) for u in us) <= 1e-14
    assert max(abs(oracles.spin_norm_cancelling(u.coords) - 1.0) for u in us) > 1e-9


def test_spin_norm_stacked_rows_equal_1d_calls_bit_for_bit():
    rng = np.random.default_rng(43)
    for d in (3, 4, 17, 144):
        A = build_spin_factor(d)
        X = rng.standard_normal((4, 5, d)) + 1j * rng.standard_normal((4, 5, d))
        X[0, 0].real, X[0, 1].imag, X[0, 2] = 0.0, 0.0, 0.0  # a = 0, b = 0, x = 0
        stacked = A._norm(X)
        assert stacked.shape == (4, 5)
        for i, j in np.ndindex(4, 5):
            assert stacked[i, j] == A._norm(X[i, j])
            assert abs(A._norm(X[i, j]) - oracles.spin_norm_cancelling(X[i, j])) <= 1e-7 * (1.0 + stacked[i, j])
