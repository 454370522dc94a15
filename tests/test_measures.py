import dataclasses

import numpy as np
import pytest

from jbstar import algebras, calculus, measures
from jbstar.algebras import (
    _realify,
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    jbstar_norm,
    random_element,
    sa_coords,
    selfadjoint_basis,
)
from jbstar.calculus import _decompose, operator_commutes
from jbstar.errors import (
    AdditivityViolation,
    HypothesisFailed,
    NotAFactor,
    PreconditionFailed,
    ProjectionsDoNotSpan,
    TypeI2Present,
)
from jbstar.measures import (
    ProjectionMeasure,
    linear_reconstruction,
    measure_from_map,
    spin_summands,
    verify_linearity_theorem,
    vectorize_map,
)
from jbstar.peirce import peirce2_algebra
from jbstar.preservers import MapUnderTest, build_spin_counterexample, classify_factor_dichotomy
from jbstar.samplers import _orthogonal_projection_pair

import oracles

H1 = build_hermitian_matrix_algebra(1)
H2 = build_hermitian_matrix_algebra(2)
H3 = build_hermitian_matrix_algebra(3)
S3 = build_spin_factor(3)


def linear_f(A, seed, k=3):
    basis = selfadjoint_basis(A)
    T = np.random.default_rng(seed).standard_normal((k, len(basis)))
    return (lambda a: T @ sa_coords(A, a, basis)), T, basis


def _peirce2(A, diag=None):
    """Peirce-2 algebra of the unit, or of the diagonal projection ``diag`` of M_n."""
    e = A.unit if diag is None else A.element(np.diag(np.asarray(diag, dtype=complex)).ravel())
    return peirce2_algebra(A, e)


H3S3 = build_direct_sum([H3, S3])
# case -> model; spin_summands must give the ids of the summands that the
# sampled oracle flags, and FLAGGED names the cases with one
TYPE_CASES = {
    "M1": lambda: H1,
    "M2": lambda: H2,  # 4-dim self-adjoint part = R1 + 3-dim spin
    "M3": lambda: H3,
    "M12": lambda: build_hermitian_matrix_algebra(12),
    "spin3": lambda: S3,
    "spin4": lambda: build_spin_factor(4),
    "M3+spin3": lambda: H3S3,
    "M3+M3": lambda: build_direct_sum([H3, H3]),
    "P2[M3,rank-2]": lambda: _peirce2(H3, [1, 1, 0]),
    "P2[spin6]": lambda: _peirce2(build_spin_factor(6)),
    # rank 2 but centre C + C: the factor test keeps it out
    "P2[C+C]": lambda: _peirce2(build_direct_sum([H1, H1])),
    "P2[C+spin3]": lambda: _peirce2(build_direct_sum([H1, S3])),
    "P2[M3+spin3]": lambda: _peirce2(H3S3),
    "P2[M4,rank-3]": lambda: _peirce2(build_hermitian_matrix_algebra(4), [1, 1, 1, 0]),
}
FLAGGED = {"M2", "spin3", "spin4", "M3+spin3", "P2[M3,rank-2]", "P2[spin6]", "P2[C+spin3]", "P2[M3+spin3]"}


@pytest.mark.parametrize("case", list(TYPE_CASES))
def test_type_data_agrees_with_the_sampled_oracle(case):
    A = TYPE_CASES[case]()
    want = [p.id for p, _ in A.summands if oracles.is_spin_summand(p)]
    assert spin_summands(A) == want
    assert bool(want) == (case in FLAGGED)


def test_type_data_does_not_sample(monkeypatch):
    # fresh handles, so no rank is cached yet; (model, indices of its type
    # I_2 summands, what classify_factor_dichotomy raises on it)
    M = build_hermitian_matrix_algebra
    cases = [
        (M(1), [], PreconditionFailed),
        (M(2), [0], NotAFactor),
        (M(7), [], PreconditionFailed),
        (build_spin_factor(5), [0], NotAFactor),
        (build_direct_sum([M(2), build_spin_factor(3), M(3)]), [0, 1], NotAFactor),
        (build_direct_sum([M(3)]), [], PreconditionFailed),
        (build_direct_sum([build_spin_factor(4)]), [0], NotAFactor),
    ]
    cases.append((_peirce2(M(3), [1, 1, 0]), [0], NotAFactor))  # M_2
    cases.append((_peirce2(build_direct_sum([M(3), build_spin_factor(3)])), [1], NotAFactor))
    other = M(4)
    theta = MapUnderTest(other, other, lambda a: a)  # refused right after the type test

    def refuse(*args, **kwargs):
        raise AssertionError("type data sampled")

    monkeypatch.setattr(algebras, "_random", refuse)
    monkeypatch.setattr(calculus, "_decompose", refuse)
    for A, flagged, raised in cases:
        assert spin_summands(A) == [A.summands[i][0].id for i in flagged]
        with pytest.raises(raised):
            classify_factor_dichotomy(MapUnderTest(A, A, lambda a: a), theta, trials=5, seed=0)


def test_type_i2_summands_of_a_peirce2_algebra_are_seen():
    # the Peirce-2 algebra of the unit of M3 + spin(3) is M3 + spin(3) again,
    # and its spin summand keeps the theorem-grade desk check from running
    sub = _peirce2(H3S3)
    assert spin_summands(sub) == [sub.summands[1][0].id] == [S3.id]
    with pytest.raises(TypeI2Present):
        verify_linearity_theorem(sub, lambda a: a.coords.real, trials=5, seed=0)


def test_canonical_projections_are_projections_and_span():
    from jbstar.algebras import involution, jordan_product

    for A in (H2, H3, S3):
        projs = [A.element(p) for p in A._canonical_projections()]
        basis = selfadjoint_basis(A)
        rows = np.stack([sa_coords(A, p, basis) for p in projs])
        assert np.linalg.matrix_rank(rows, tol=1e-9) == len(basis)
        for p in projs:
            assert jbstar_norm(A, jordan_product(A, p, p) - p) <= 1e-10
            assert jbstar_norm(A, involution(A, p) - p) <= 1e-10


def test_orthogonal_projections_operator_commute():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pq = _orthogonal_projection_pair(H3, rng)
        assert pq is not None
        p, q = (H3.element(x) for x in pq)
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
    f = vectorize_map(cx.map.eval)
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


def test_verify_linearity_theorem_rejects_spin():
    cx = build_spin_counterexample(3, 0.3)
    f = vectorize_map(cx.map.eval)
    with pytest.raises(TypeI2Present):
        verify_linearity_theorem(S3, f, trials=10, seed=18)


def test_verify_linearity_theorem_rejects_h2():
    # M_2 has rank 2 and is a factor: type I_2, refused like a spin factor
    f, T, basis = linear_f(H2, 19)
    with pytest.raises(TypeI2Present):
        verify_linearity_theorem(H2, f, trials=10, seed=20)


def test_verify_linearity_theorem_exploratory_counterexample():
    cx = build_spin_counterexample(3, 0.3)
    f = vectorize_map(cx.map.eval)
    rep = verify_linearity_theorem(S3, f, trials=40, seed=21, theorem_grade=False)
    assert not rep.passed
    assert rep.details["spin_summands"] == [S3.id]
    assert rep.details["reconstruction_misfit"] >= 0.05


def test_verify_linearity_theorem_nonadditive_candidate_rejected():
    # functional-calculus composition with a nonlinear scalar function is
    # homogeneous-looking but fails OC-additivity; the harness must find
    # the hypothesis violation rather than certify linearity
    def f(a):
        nodes, idems = _decompose(H3, a.coords)
        out = (nodes + 0.1 * nodes**3) @ idems
        return np.concatenate([out.real, out.imag])

    with pytest.raises(HypothesisFailed):
        verify_linearity_theorem(H3, f, trials=30, seed=22)


def _nan_above(A, cut):
    """The realified identity, but NaN wherever a coordinate exceeds cut."""
    return lambda a: np.full(2 * A.dim, np.nan) if np.abs(a.coords).max() > cut else _realify(a.coords)


def test_a_map_that_returns_nan_fails_the_linearity_check():
    # the builtin max(0.0, nan) is 0.0: folded that way, this map passed
    # with max_residual 1.7e-15
    with pytest.raises(HypothesisFailed, match=r"residual nan"):
        verify_linearity_theorem(H3, _nan_above(H3, 1.5), trials=60, seed=3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (1, PreconditionFailed, "map is not homogeneous (residual nan)"),
        (2 * 10 + 1, AdditivityViolation, "measure not additive on an orthogonal pair (residual nan)"),
    ],
)
def test_a_nan_fails_each_measure_gate(call, error, message):
    # NaN at the first homogeneity call, or at f(p + q) of the first
    # orthogonal pair, past 10 homogeneity draws of two calls
    f, _, _ = linear_f(H3, 1)
    calls = []

    def g(a):
        calls.append(a)
        return np.full(3, np.nan) if len(calls) == call else f(a)

    with pytest.raises(error) as raised:
        measure_from_map(H3, g, bound_probe=20, seed=2)
    assert str(raised.value) == message


def test_a_nan_on_one_projection_is_the_measure_bound():
    # NaN at the 7th call of the bound loop, past 10 homogeneity draws of
    # two calls and 20 orthogonal pairs of three
    f, _, _ = linear_f(H3, 1)
    calls = []

    def g(a):
        calls.append(a)
        return np.full(3, np.nan) if len(calls) == 2 * 10 + 3 * 20 + 7 else f(a)

    mu = measure_from_map(H3, g, bound_probe=20, seed=2)
    assert np.isnan(mu.bound)


def test_a_nan_spectral_or_reconstruction_residual_fails_the_report(monkeypatch):
    f, _, _ = linear_f(H3, 16)
    decompose, calls = measures._decompose, []

    def nan_fifth(A, x):
        calls.append(x)
        nodes, idems = decompose(A, x)
        return (np.full_like(nodes, np.nan) if len(calls) == 5 else nodes), idems

    monkeypatch.setattr(measures, "_decompose", nan_fifth)
    rep = verify_linearity_theorem(H3, f, trials=40, seed=17)
    assert not rep.passed and np.isnan(rep.details["spectral_identity_residual"])
    monkeypatch.undo()
    nan_misfit = lambda mu, **kw: dataclasses.replace(linear_reconstruction(mu, **kw), residual=float("nan"))
    monkeypatch.setattr(measures, "linear_reconstruction", nan_misfit)
    rep = verify_linearity_theorem(H3, f, trials=40, seed=17)
    assert not rep.passed and np.isnan(rep.max_residual)


def test_projections_that_do_not_span_are_refused(monkeypatch):
    # two projections of M3, once and repeated: rank 2 of 9 either way
    A = build_hermitian_matrix_algebra(3)
    two = A._canonical_projections()[:2]
    mu = ProjectionMeasure(A, lambda a: _realify(a.coords), 1.0)
    for copies in (1, 10):
        monkeypatch.setattr(A, "_canonical_projections", lambda: [p.copy() for p in two * copies])
        with pytest.raises(ProjectionsDoNotSpan, match="spans only rank 2 of 9"):
            linear_reconstruction(mu, probes=2)
