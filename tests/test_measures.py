import numpy as np
import pytest

import jbstar.samplers as samplers
from jbstar.algebras import (
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    jbstar_norm,
    random_element,
    sa_coords,
    selfadjoint_basis,
)
from jbstar.calculus import functional_calculus, operator_commutes
from jbstar.errors import AdditivityViolation, HypothesisFailed, SamplerViolation, TypeI2Present
from jbstar.measures import (
    canonical_projections,
    is_spin_summand,
    linear_reconstruction,
    measure_from_map,
    spin_summands,
    verify_linearity_theorem,
    vectorize_map,
)
from jbstar.preservers import build_spin_counterexample
from jbstar.samplers import orthogonal_projection_pair

H1 = build_hermitian_matrix_algebra(1)
H2 = build_hermitian_matrix_algebra(2)
H3 = build_hermitian_matrix_algebra(3)
S3 = build_spin_factor(3)


def linear_f(A, seed, k=3):
    basis = selfadjoint_basis(A)
    T = np.random.default_rng(seed).standard_normal((k, len(basis)))
    return (lambda a: T @ sa_coords(A, a, basis)), T, basis


def test_spin_detector():
    assert is_spin_summand(S3)
    assert is_spin_summand(H2)  # 4-dim self-adjoint part = R1 + 3-dim spin
    assert not is_spin_summand(H3)
    assert not is_spin_summand(H1)
    mixed = build_direct_sum([H3, S3])
    assert spin_summands(mixed) == [S3.id]
    assert spin_summands(build_direct_sum([H3, H3])) == []


def test_canonical_projections_are_projections_and_span():
    from jbstar.algebras import involution, jordan_product

    for A in (H2, H3, S3):
        projs = canonical_projections(A)
        basis = selfadjoint_basis(A)
        rows = np.stack([sa_coords(A, p, basis) for p in projs])
        assert np.linalg.matrix_rank(rows, tol=1e-9) == len(basis)
        for p in projs:
            assert jbstar_norm(A, jordan_product(A, p, p) - p) <= 1e-10
            assert jbstar_norm(A, involution(A, p) - p) <= 1e-10


def test_orthogonal_projections_operator_commute():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pq = orthogonal_projection_pair(H3, rng)
        assert pq is not None
        p, q = pq
        from jbstar.algebras import jordan_product

        assert jbstar_norm(H3, jordan_product(H3, p, q)) <= 1e-9
        assert bool(operator_commutes(H3, p, q))


def test_measure_from_map_linear():
    f, T, basis = linear_f(H3, 1)
    mu = measure_from_map(H3, f, bound_probe=30, seed=2)
    assert mu.bound <= np.linalg.norm(T, 2) * 2.0 + 1.0


def test_measure_from_map_counterexample_still_additive():
    # spin(3) has only trivially orthogonal projection pairs p, 1-p, on
    # which the warp map is additive by construction
    cx = build_spin_counterexample(3, 0.3)
    f = vectorize_map(cx.map.eval, S3)
    mu = measure_from_map(S3, f, bound_probe=30, seed=3)
    assert mu.bound <= 1.0 + 1e-9


def test_measure_from_map_norm_map_violates_additivity():
    f = lambda a: np.array([jbstar_norm(H3, a)])
    with pytest.raises(AdditivityViolation):
        measure_from_map(H3, f, bound_probe=50, seed=4)


def test_linear_reconstruction_recovers_linear_map():
    f, T, basis = linear_f(H3, 5)
    mu = measure_from_map(H3, f, bound_probe=30, seed=6)
    recon = linear_reconstruction(mu, probes=50, seed=7)
    assert recon.residual <= 1e-7
    # same self-adjoint basis is deterministic, so matrices are comparable
    assert np.max(np.abs(recon.matrix - T)) <= 1e-7


def test_linear_reconstruction_trace_functional():
    basis = selfadjoint_basis(H3)

    def f(a):
        return np.array([float(np.trace(a.coords.reshape(3, 3)).real)])

    mu = measure_from_map(H3, f, bound_probe=30, seed=8)
    recon = linear_reconstruction(mu, probes=50, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = random_element(H3, int(rng.integers(1 << 30)), "self_adjoint")
        got = recon.matrix @ sa_coords(H3, a, recon.sa_basis)
        assert abs(got[0] - np.trace(a.coords.reshape(3, 3)).real) <= 1e-8


def test_linear_reconstruction_idempotent():
    f, T, basis = linear_f(H3, 11)
    mu = measure_from_map(H3, f, bound_probe=30, seed=12)
    recon = linear_reconstruction(mu, probes=50, seed=13)

    def f2(a):
        return recon.matrix @ sa_coords(H3, a, recon.sa_basis)

    mu2 = measure_from_map(H3, f2, bound_probe=30, seed=14)
    recon2 = linear_reconstruction(mu2, probes=50, seed=15)
    assert np.max(np.abs(recon2.matrix - recon.matrix)) <= 1e-9


def test_verify_linearity_theorem_linear_passes():
    f, T, basis = linear_f(H3, 16)
    rep = verify_linearity_theorem(H3, f, trials=40, seed=17)
    assert rep.passed
    assert rep.details["reconstruction_misfit"] <= 1e-7
    assert rep.details["agreement_residual"] <= 1e-7


def test_verify_linearity_theorem_refuses_a_non_commuting_draw(monkeypatch):
    # every OC-additivity draw is checked to operator commute; none is skipped
    monkeypatch.setitem(samplers._DEFAULT_DRAWS, H3.oc_strategy, samplers._noncommuting_pair)
    f, T, basis = linear_f(H3, 16)
    with pytest.raises(SamplerViolation):
        verify_linearity_theorem(H3, f, trials=10, seed=17)


def test_verify_linearity_theorem_rejects_spin():
    cx = build_spin_counterexample(3, 0.3)
    f = vectorize_map(cx.map.eval, S3)
    with pytest.raises(TypeI2Present):
        verify_linearity_theorem(S3, f, trials=10, seed=18)


def test_verify_linearity_theorem_rejects_h2():
    # the detector flags the 2x2 matrix model itself as a spin factor
    f, T, basis = linear_f(H2, 19)
    with pytest.raises(TypeI2Present):
        verify_linearity_theorem(H2, f, trials=10, seed=20)


def test_verify_linearity_theorem_exploratory_counterexample():
    cx = build_spin_counterexample(3, 0.3)
    f = vectorize_map(cx.map.eval, S3)
    rep = verify_linearity_theorem(S3, f, trials=40, seed=21, theorem_grade=False)
    assert not rep.passed
    assert rep.details["spin_summands"] == [S3.id]
    assert rep.details["reconstruction_misfit"] >= 0.05


def test_verify_linearity_theorem_nonadditive_candidate_rejected():
    # functional-calculus composition with a nonlinear scalar function is
    # homogeneous-looking but fails OC-additivity; the harness must find
    # the hypothesis violation rather than certify linearity
    def f(a):
        out = functional_calculus(H3, a, lambda t: t + 0.1 * t**3)
        return np.concatenate([out.coords.real, out.coords.imag])

    with pytest.raises(HypothesisFailed):
        verify_linearity_theorem(H3, f, trials=30, seed=22)
