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
from jbstar.calculus import center_basis
from jbstar.errors import NotTripotent
from jbstar.kernel import operator_norm
from jbstar.peirce import (
    is_tripotent,
    kaup_identity_check,
    peirce2_algebra,
    peirce2_embed,
    peirce2_project,
    peirce_invariants_check,
    peirce_system,
    sample_tripotent,
)

import oracles


H2 = build_hermitian_matrix_algebra(2)
H3 = build_hermitian_matrix_algebra(3)
S3 = build_spin_factor(3)


def test_is_tripotent_examples():
    p = random_element(H3, 1, "projection")
    assert bool(is_tripotent(H3, p))
    u = random_element(H3, 2, "unitary")
    assert bool(is_tripotent(H3, u))
    assert not is_tripotent(H3, 2.0 * H3.unit)  # {2,2,2} = 8 != 2


def test_peirce_system_unit_and_zero():
    sys = peirce_system(H2, H2.unit)
    assert np.allclose(sys.p2, np.eye(4))
    assert np.allclose(sys.p1, 0.0)
    assert np.allclose(sys.p0, 0.0)
    sys = peirce_system(H2, H2.zero())
    assert np.allclose(sys.p0, np.eye(4))


def test_peirce_system_projection_blocks():
    # e = diag(1,0): P2 = upper-left entry, P1 = off-diagonals, P0 = lower-right
    e = H2.element(np.diag([1.0, 0.0]).ravel())
    sys = peirce_system(H2, e)
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.eye(2) - p
    for b in H2.basis:
        x = oracles.to_matrix(H2, b)
        assert np.allclose((sys.p2 @ b.coords).reshape(2, 2), p @ x @ p)
        assert np.allclose((sys.p1 @ b.coords).reshape(2, 2), p @ x @ q + q @ x @ p)
        assert np.allclose((sys.p0 @ b.coords).reshape(2, 2), q @ x @ q)


def test_peirce_system_eigenprojection_oracle():
    # projections agree with eigenprojections of L(e,e) at {1, 1/2, 0},
    # computed through numpy's general eigendecomposition
    rng = np.random.default_rng(3)
    for A in (H3, S3):
        for _ in range(5):
            e = sample_tripotent(A, rng)
            sys = peirce_system(A, e)
            eye = np.eye(A.dim, dtype=complex)
            lee = np.stack(
                [A._triple(e.coords, e.coords, eye[:, j]) for j in range(A.dim)], axis=1
            )
            vals, vecs = np.linalg.eig(lee)
            vinv = np.linalg.inv(vecs)
            for target, want in ((1.0, sys.p2), (0.5, sys.p1), (0.0, sys.p0)):
                idx = [j for j, v in enumerate(vals) if abs(v - target) < 1e-6]
                proj = sum(
                    (np.outer(vecs[:, j], vinv[j, :]) for j in idx),
                    start=np.zeros((A.dim, A.dim), dtype=complex),
                )
                assert operator_norm(proj - want) <= 1e-7


def test_unitary_peirce2_is_identity():
    for A in (H2, S3):
        u = random_element(A, 4, "unitary")
        sys = peirce_system(A, u)
        assert operator_norm(sys.p2 - np.eye(A.dim)) <= 1e-8
        assert 0.0 <= sys.residual <= 1e-8


def test_peirce2_algebra_unit_tripotent():
    sub = peirce2_algebra(H2, H2.unit)
    assert sub.dim == H2.dim
    a = random_element(sub, 5)
    b = random_element(sub, 6)
    got = jordan_product(sub, a, b)
    # carrier is an isometric copy: products agree through the embedding
    ea, eb = peirce2_embed(sub, a), peirce2_embed(sub, b)
    want = peirce2_project(sub, jordan_product(H2, ea, eb))
    assert jbstar_norm(sub, got - want) <= 1e-9 * (1 + jbstar_norm(sub, got))


def test_peirce2_algebra_minus_unit():
    # e = -1: same carrier, product (a,b) -> -(a o b), same involution
    sub = peirce2_algebra(H2, -1.0 * H2.unit)
    assert sub.dim == H2.dim
    a = random_element(sub, 7)
    b = random_element(sub, 8)
    ea, eb = peirce2_embed(sub, a), peirce2_embed(sub, b)
    got = peirce2_embed(sub, jordan_product(sub, a, b))
    want = -1.0 * jordan_product(H2, ea, eb)
    assert jbstar_norm(H2, got - want) <= 1e-9 * (1 + jbstar_norm(H2, want))
    gi = peirce2_embed(sub, involution(sub, a))
    assert jbstar_norm(H2, gi - involution(H2, ea)) <= 1e-9


def test_peirce2_projection_rank_one():
    sub = peirce2_algebra(H2, H2.element(np.diag([1.0, 0.0]).ravel()))
    assert sub.dim == 1


def test_peirce2_central_symmetry_isometric():
    HH = build_direct_sum([H3, H3])
    p_coords = np.concatenate([np.zeros(9), np.eye(3).ravel()])
    s = HH.unit - 2.0 * HH.element(p_coords)
    assert len(center_basis(HH)) == 2
    sub = peirce2_algebra(HH, s)
    assert sub.dim == HH.dim
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = random_element(sub, int(rng.integers(1 << 30)))
        assert abs(jbstar_norm(sub, a) - jbstar_norm(HH, peirce2_embed(sub, a))) <= 1e-12


def test_not_tripotent_error():
    with pytest.raises(NotTripotent):
        peirce_system(H2, 2.0 * H2.unit)


def test_peirce_invariants_check():
    for A in (H2, H3, S3):
        rep = peirce_invariants_check(A, trials=5, seed=10)
        assert rep.passed, rep.max_residual


def test_kaup_identity_examples():
    rep = kaup_identity_check(H2, H2.unit, trials=20, seed=11)
    assert rep.passed and rep.max_residual <= 1e-12
    e = H3.element(np.diag([1.0, 1.0, 0.0]).ravel())
    assert kaup_identity_check(H3, e, trials=20, seed=12).passed
    assert kaup_identity_check(S3, S3.unit, trials=20, seed=13).passed
