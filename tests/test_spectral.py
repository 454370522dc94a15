"""Spectral decompositions against numpy's hermitian eigensolver, the
two spectral routes against each other, and the no-merge fast path of
``_abelian_decomposition`` against the cluster merge.

Inputs are built in a faithful block-matrix representation with a known
spectrum, often with one pair of eigenvalues only g apart; every check
compares with ``np.linalg.eigvalsh``/``eigh`` (and ``scipy.linalg.expm``
for exponentials) on that representation; a Hypothesis property runs the
same comparison over random spectra on every closed form.  On M_n the
decomposition comes from one n x n eigensolve of the matrix
(``HermitianMatrixAlgebra._eigenpieces``), on spin factors from the closed
form x_0 -/+ s, and on direct sums from the summands' pieces; Peirce-2
algebras are models of these kinds.  The generic Krylov route,
``oracles.GenericModel._eigenpieces``, is called unbound here as the oracle
of the closed forms.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from jbstar import calculus, unitary
from jbstar.algebras import (
    algebra_from_descriptor,
    algebra_to_descriptor,
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    jbstar_norm,
    random_element,
)
from jbstar.calculus import (
    exp_from_decomposition,
    exp_i,
    is_invertible,
    spectral_decomposition,
    u_operator_matrix,
)
from jbstar.errors import NotSelfAdjoint, VerificationFailed
from jbstar.kernel import Tolerance
from jbstar.peirce import peirce2_algebra, sample_tripotent
from jbstar.unitary import _unitary_decomposition, unitary_log

import oracles

M10 = build_hermitian_matrix_algebra(10)
S12 = build_spin_factor(12)
H3S3 = build_direct_sum([build_hermitian_matrix_algebra(3), build_spin_factor(3)])
M3S5 = build_direct_sum([build_hermitian_matrix_algebra(3), build_spin_factor(5)])
GAPS = (1e-2, 1e-4, 1e-6)
SEEDS = range(50)


def _element(A, rng, values, unitary=False):
    """Self-adjoint element with the given eigenvalues per summand: n of
    them for M_n (random unitary frame), two for a spin factor (lambda +/-
    r along a random H^- direction); or the unitary with eigenvalues
    exp(i value) in the same frame."""
    coords, i = [], 0
    for part, _ in A.summands:
        if part.kind == "hermitian_matrix":
            vals = values[i : i + part.n]
            q, _ = np.linalg.qr(rng.standard_normal((part.n, part.n)) + 1j * rng.standard_normal((part.n, part.n)))
            m = (q * (np.exp(1j * vals) if unitary else vals)) @ q.conj().T
            coords.append((m if unitary else 0.5 * (m + m.conj().T)).ravel())
            i += part.n
        else:
            lo, hi = np.exp(1j * np.sort(values[i : i + 2])) if unitary else sorted(values[i : i + 2])
            t = rng.standard_normal(part.dim - 1)
            t = t * (0.5 * (hi - lo) / np.linalg.norm(t))
            coords.append(np.concatenate([[0.5 * (lo + hi)], 1j * t]))
            i += 2
    return A.element(np.concatenate(coords))


def _slots(A):
    return sum(p.rank for p, _ in A.summands)


def _clustered(A, rng, g):
    """Values from a grid on [-2, 2] of spacing 4 / (4 count - 1), except
    one pair only g apart."""
    count = _slots(A)
    vals = np.sort(rng.permutation(np.linspace(-2.0, 2.0, 4 * count))[:count])
    vals[1] = vals[0] + g
    return _element(A, rng, rng.permutation(vals))


def _check(A, a):
    m = oracles.to_block_matrix(A, a.coords)
    scale = 1.0 + np.linalg.norm(m, 2)
    dec = spectral_decomposition(A, a)
    want = oracles.distinct_eigenvalues(m, 1e-9 * scale)
    got = dec.values
    assert got.shape == want.shape, (got, want)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    P = [oracles.to_block_matrix(A, p) for p in dec.idempotents]
    recon = sum(lam * p for lam, p in zip(got, P))
    assert np.linalg.norm(recon - m, 2) <= 1e-8 * scale
    for i, p in enumerate(P):
        assert np.linalg.norm(p @ p - p, 2) <= 1e-7
        for q in P[i + 1 :]:
            assert np.linalg.norm(p @ q, 2) <= 1e-7


@pytest.mark.parametrize("g", GAPS)
def test_m10_clustered_pair_against_eigh(g):
    for seed in SEEDS:
        _check(M10, _clustered(M10, np.random.default_rng(seed), g))


@pytest.mark.parametrize("A", [S12, H3S3, M3S5], ids=lambda A: A.id)
@pytest.mark.parametrize("g", GAPS)
def test_spin_and_sums_against_eigh(A, g):
    # the clustered pair can straddle two summands
    for seed in range(20):
        _check(A, _clustered(A, np.random.default_rng(seed), g))


@pytest.mark.parametrize("g", [1e-12, 1e-8])
def test_pair_within_cluster_eps_is_merged(g):
    # cluster_eps = 1e-7: one idempotent, the sum of the pair's projectors
    for seed in range(10):
        a = _clustered(M10, np.random.default_rng(seed), g)
        m = oracles.to_block_matrix(M10, a.coords)
        vals, vecs = np.linalg.eigh(m)
        dec = spectral_decomposition(M10, a)
        assert dec.values.size == 9
        assert abs(dec.values[0] - 0.5 * (vals[0] + vals[1])) <= 1e-12 * (1 + np.max(np.abs(vals)))
        pair = vecs[:, :2] @ vecs[:, :2].conj().T
        assert np.linalg.norm(dec.idempotents[0].reshape(10, 10) - pair, 2) <= 1e-10


def test_decomposition_arrays_match_pairs():
    dec = spectral_decomposition(H3S3, _clustered(H3S3, np.random.default_rng(0), 1e-4))
    assert not dec.idempotents.flags.writeable
    assert dec.idempotents.shape == (dec.values.size, H3S3.dim)
    assert dec.eigenvalues == [lam for lam, _ in dec.pairs] == list(dec.values)
    for (_, e), row in zip(dec.pairs, dec.idempotents):
        assert np.array_equal(e.coords, row)
    # the vector-matrix product against the sum over pairs it replaced
    loop = sum((np.exp(0.7j * lam) * e for lam, e in dec.pairs), H3S3.zero())
    assert np.max(np.abs(exp_from_decomposition(H3S3, dec, 0.7).coords - loop.coords)) <= 1e-14


@pytest.mark.parametrize("A", [M10, S12, M3S5], ids=lambda A: A.id)
def test_exp_i_against_scipy_expm(A):
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = _clustered(A, rng, 1e-6)
        t = float(rng.uniform(-2.0, 2.0))
        want = scipy.linalg.expm(1j * t * oracles.to_block_matrix(A, a.coords))
        got = oracles.to_block_matrix(A, exp_i(A, a, t).coords)
        assert np.linalg.norm(got - want, 2) <= 1e-9


@pytest.mark.parametrize("g", GAPS)
def test_clustered_unitary_log_and_power(g):
    # arguments of u = exp(i h) inside (-pi, pi), one pair g apart
    for seed in range(10):
        rng = np.random.default_rng(seed)
        h = _clustered(M10, rng, g)
        mh = oracles.to_block_matrix(M10, h.coords)
        u = M10.element(oracles.expm_hermitian(mh).ravel())
        lg = unitary_log(M10, u)
        assert not lg.ambiguous
        assert np.linalg.norm(oracles.to_block_matrix(M10, lg.h.coords) - mh, 2) <= 1e-8
        nodes, idems = _unitary_decomposition(M10, u.coords)
        for n in (2, -3, 5):
            got = oracles.to_block_matrix(M10, nodes**n @ idems)
            assert np.linalg.norm(got - oracles.expm_hermitian(mh, n), 2) <= 1e-9


def test_non_hermitian_compression_is_not_self_adjoint(monkeypatch):
    # E_12 is not self-adjoint: L on C(1, E_12) is nilpotent, not hermitian
    H2 = build_hermitian_matrix_algebra(2)
    e12 = np.array([0, 1, 0, 0], dtype=complex)
    with pytest.raises(NotSelfAdjoint):
        calculus._abelian_decomposition(H2, e12, real_nodes=True)
    _use_krylov(monkeypatch, H2)
    with pytest.raises(NotSelfAdjoint):
        calculus._abelian_decomposition(H2, e12, real_nodes=True)


def test_broken_idempotents_fail_verification(monkeypatch):
    h = _clustered(M10, np.random.default_rng(1), 1e-2)
    u = exp_i(M10, h, 1.0)
    route = calculus._abelian_decomposition

    def skewed(*args, **kwargs):
        nodes, idems = route(*args, **kwargs)
        return nodes, 1.01 * idems

    monkeypatch.setattr(unitary, "_abelian_decomposition", skewed)
    with pytest.raises(VerificationFailed):
        unitary_log(M10, u)
    monkeypatch.setattr(calculus, "_abelian_decomposition", skewed)
    with pytest.raises(VerificationFailed):
        exp_i(M10, h, 1.0)


# one model per hook: M_n, spin factors, and sums of both, nested too
PROPERTY_MODELS = [
    build_hermitian_matrix_algebra(2),
    build_hermitian_matrix_algebra(5),
    build_hermitian_matrix_algebra(12),
    build_spin_factor(3),
    S12,
    H3S3,
    M3S5,
    build_direct_sum([build_spin_factor(4), build_direct_sum([build_hermitian_matrix_algebra(2), build_spin_factor(6)])]),
]


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(
    A=st.sampled_from(PROPERTY_MODELS),
    seed=st.integers(0, 2**32 - 1),
    width=st.floats(0.5, 50.0),
    gap=st.one_of(st.just(0.0), st.floats(-6.0, -3.0).map(lambda e: 10.0**e)),
)
def test_spectral_decomposition_matches_eigvalsh_property(A, seed, width, gap):
    # values on a grid of [-width, width], one pair planted gap (1 + width)
    # apart: equal, or 10 to 10^4 times the cluster_eps merge distance
    rng = np.random.default_rng(seed)
    count = _slots(A)
    vals = np.sort(rng.permutation(np.linspace(-width, width, 4 * count))[:count])
    vals[1] = vals[0] + gap * (1.0 + width)
    _check(A, _element(A, rng, rng.permutation(vals)))


# -- the M_n closed form against the Krylov route ---------------------------


def _use_krylov(monkeypatch, A):
    """Make A decompose through the generic Krylov route."""
    monkeypatch.setattr(A, "_eigenpieces", lambda xn, real: oracles.GenericModel._eigenpieces(A, xn, real))


def _spectrum(n, rng, kind):
    """n eigenvalues in [-2.5, 2.5]: distinct grid values, a few repeated
    ones, or grid values with one pair only ``kind`` (a float) apart."""
    grid = np.sort(rng.permutation(np.linspace(-2.5, 2.5, 4 * n))[:n])
    if kind == "repeated":
        return rng.choice([-1.5, 0.25, 2.0], size=n)
    if kind != "distinct" and n >= 2:
        grid[1] = grid[0] + kind
    return rng.permutation(grid)


def _in_frame(A, rng, values, unitary):
    """Coordinates of V diag(f(values)) V^H for a random unitary frame V,
    with f the identity, or exp(i .) for a unitary."""
    n = A.n
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = (q * (np.exp(1j * values) if unitary else values)) @ q.conj().T
    return (m if unitary else 0.5 * (m + m.conj().T)).ravel()


def _by_angle(nodes, idems):
    """Pieces in a route-independent order (complex nodes sort by real part,
    where a conjugate pair ties up to rounding)."""
    order = np.argsort(np.angle(nodes) if np.iscomplexobj(nodes) else nodes)
    return nodes[order], idems[order]


@pytest.mark.parametrize("unitary_element", [False, True], ids=["self_adjoint", "unitary"])
@pytest.mark.parametrize("kind", ["distinct", "repeated", *GAPS, 1e-8])
@pytest.mark.parametrize("n", range(1, 13))
def test_matrix_closed_form_matches_krylov_route(monkeypatch, n, kind, unitary_element):
    # gap 1e-8 lies inside cluster_eps = 1e-7: both routes merge the pair.
    # An idempotent of a node at distance sep from the others moves by about
    # eps ||x|| / sep under rounding (Davis-Kahan), in either route: the bound
    # 1e-10 is widened by that much, 1e-10 + 64 eps ||x|| / sep.
    A = build_hermitian_matrix_algebra(n)
    real = not unitary_element
    for seed in range(4):
        rng = np.random.default_rng(1000 * n + seed)
        x = _in_frame(A, rng, _spectrum(n, rng, kind), unitary_element)
        scale = max(A._norm(x), 1.0)
        with monkeypatch.context() as m:
            _use_krylov(m, A)
            want_nodes, want_idems = calculus._abelian_decomposition(A, x, real)
        nodes, idems = calculus._abelian_decomposition(A, x, real)
        residual, want_residual = A._norm(nodes @ idems - x), A._norm(want_nodes @ want_idems - x)
        assert nodes.shape == want_nodes.shape
        nodes, idems = _by_angle(nodes, idems)
        want_nodes, want_idems = _by_angle(want_nodes, want_idems)
        assert np.max(np.abs(nodes - want_nodes)) <= 1e-12 * scale
        dist = np.abs(want_nodes[:, None] - want_nodes[None, :])
        np.fill_diagonal(dist, np.inf)
        tol = 1e-10 + 64.0 * np.finfo(float).eps * scale / np.min(dist)
        diff = (idems - want_idems).reshape(-1, n, n)
        assert np.max(np.linalg.norm(diff, 2, axis=(1, 2))) <= tol
        assert residual <= want_residual + 1e-12 * scale


# -- the spin and direct-sum hooks against the Krylov route -----------------


def _assert_routes_agree(monkeypatch, A, x, real):
    """The model's hook against the Krylov route on x; returns the nodes."""
    with monkeypatch.context() as m:
        _use_krylov(m, A)
        want_nodes, want_idems = _by_angle(*calculus._abelian_decomposition(A, x, real))
    nodes, idems = _by_angle(*calculus._abelian_decomposition(A, x, real))
    assert nodes.shape == want_nodes.shape, (nodes, want_nodes)
    assert np.all(np.abs(nodes - want_nodes) <= 1e-12 * (1.0 + np.abs(want_nodes)))
    for p, q in zip(idems, want_idems):
        assert np.linalg.norm(oracles.to_block_matrix(A, p - q), 2) <= 1e-10
    return nodes


def _spin_element(A, rng, mid, half):
    """mid 1 + half w with w = (0, i n) for a random real unit n, so that
    w o w = 1: nodes mid -/+ half, real or on the circle."""
    n = rng.standard_normal(A.dim - 1)
    return np.concatenate([[mid], 1j * half * (n / np.linalg.norm(n))])


S3 = build_spin_factor(3)
# s = 5e-8 and below lie within cluster_eps (1 + |x_0|) / 2 = 5.1e-8 of x_0
SPIN_CASES = {
    "scalar": (0.02, 0.0, 1),
    **{f"s={s:g}": (0.02, s, 1 if s <= 5e-8 else 2) for s in (1e-12, 1e-9, 5e-8, 1e-7, 3e-7, 1e-6)},
    "norm-50": (30.0, 20.0, 2),
    "negative": (-1.3, 0.4, 2),
}


@pytest.mark.parametrize("A", [S3, S12], ids=lambda A: A.id)
@pytest.mark.parametrize("case", SPIN_CASES)
def test_spin_closed_form_matches_krylov_route(monkeypatch, A, case):
    mid, s, count = SPIN_CASES[case]
    for seed in range(4):
        x = _spin_element(A, np.random.default_rng(seed), mid, s)
        assert _assert_routes_agree(monkeypatch, A, x, True).size == count


@pytest.mark.parametrize("A", [S3, S12], ids=lambda A: A.id)
def test_spin_closed_form_on_a_rounding_level_non_self_adjoint_input(monkeypatch, A):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x = _spin_element(A, rng, 0.4, 0.7) + 1e-15 * (rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
        dev, thr = A._norm(A._inv(x) - x), A.tol.abs_eps * (1.0 + A._norm(x))
        assert 0.0 < dev <= thr  # not self-adjoint, yet past _decompose's gate
        assert _assert_routes_agree(monkeypatch, A, x, True).size == 2


# node arguments (alpha, beta); the pair near -1 straddles the branch cut
SPIN_UNITARY_CASES = {
    "generic": (0.3, 2.1),
    "scalar": (0.5, 0.5),
    "near-double": (1.0, 1.0 + 1e-9),
    "near-minus-one": (np.pi - 1e-3, np.pi - 3e-3),
    "straddling-minus-one": (np.pi - 1e-4, -np.pi + 1e-4),
}


@pytest.mark.parametrize("A", [S3, S12], ids=lambda A: A.id)
@pytest.mark.parametrize("case", SPIN_UNITARY_CASES)
def test_spin_closed_form_matches_krylov_route_on_unitaries(monkeypatch, A, case):
    lo, hi = np.exp(1j * np.array(SPIN_UNITARY_CASES[case]))
    for seed in range(4):
        x = _spin_element(A, np.random.default_rng(seed), 0.5 * (lo + hi), 0.5 * (hi - lo))
        assert unitary._is_unitary(A, x)
        nodes = _assert_routes_agree(monkeypatch, A, x, False)
        assert nodes.size == (1 if abs(hi - lo) <= 1e-7 else 2)


def test_spin_closed_form_refuses_a_non_self_adjoint_element():
    # a real H^- coordinate (x o x = -1, nodes +/- i), then a complex scalar part
    with pytest.raises(NotSelfAdjoint):
        S3._eigenpieces(np.array([0.0, 1.0, 0.0], dtype=complex), True)
    with pytest.raises(NotSelfAdjoint):
        S3._eigenpieces(np.array([0.5j, 0.0, 0.3j]), True)


NESTED = build_direct_sum(
    [build_hermitian_matrix_algebra(2), build_direct_sum([build_spin_factor(4), build_hermitian_matrix_algebra(2)])]
)
M2M2 = build_direct_sum([build_hermitian_matrix_algebra(2), build_hermitian_matrix_algebra(2)])


def _sum_values(A, rng, shared):
    """Per-summand values from a grid on [-2, 2]: distinct throughout, or
    drawn from one small pool (every summand shares a node with another)."""
    count = _slots(A)
    grid = rng.permutation(np.linspace(-2.0, 2.0, 4 * count))
    if not shared:
        return grid[:count]
    pool = grid[: max(p.rank for p, _ in A.summands) + 1]
    return np.concatenate([rng.choice(pool, size=p.rank, replace=False) for p, _ in A.summands])


@pytest.mark.parametrize("unitary_element", [False, True], ids=["self_adjoint", "unitary"])
@pytest.mark.parametrize("shared", [False, True], ids=["distinct", "shared"])
@pytest.mark.parametrize("A", [H3S3, M3S5, NESTED], ids=["H3+S3", "M3+spin(5)", "nested"])
def test_blockwise_sum_matches_krylov_route(monkeypatch, A, shared, unitary_element):
    # a node shared by two summands is merged across them: its idempotent is
    # the sum of the summands' idempotents in either route
    for seed in range(4):
        rng = np.random.default_rng(seed)
        values = _sum_values(A, rng, shared)
        x = _element(A, rng, values).coords
        if unitary_element:
            x = calculus._exp_i(A, x, 1.0)
        nodes = _assert_routes_agree(monkeypatch, A, x, not unitary_element)
        assert nodes.size == np.unique(values).size


def test_blockwise_sum_merges_equal_summands(monkeypatch):
    x = random_element(M2M2.summands[0][0], 4, "self_adjoint").coords
    for y, count in [(M2M2.unit.coords, 1), (np.concatenate([x, x]), 2)]:
        for real, z in [(True, y), (False, calculus._exp_i(M2M2, y, 1.0))]:
            assert _assert_routes_agree(monkeypatch, M2M2, z, real).size == count
    idems = calculus._abelian_decomposition(M2M2, np.concatenate([x, x]), True)[1]
    assert np.allclose(idems[:, :4], idems[:, 4:], rtol=0.0, atol=1e-15)


def test_matrix_spectra_skip_the_krylov_route(monkeypatch):
    # M_n, spin factors and sums, nested ones too, all decompose in closed form
    H3 = build_hermitian_matrix_algebra(3)
    M2M3 = build_direct_sum([build_hermitian_matrix_algebra(2), H3])
    nested = build_direct_sum([M2M3, build_direct_sum([build_spin_factor(4), build_hermitian_matrix_algebra(1)])])
    e = H3.element(np.diag([1.0, 1.0, 0.0]).ravel())
    oracle = oracles.peirce2_oracle(H3, e.coords)
    h_oracle = random_element(oracle, 3, "self_adjoint")

    def refuse(A, xn, real_nodes):
        raise AssertionError(f"Krylov route taken for {A.id}")

    monkeypatch.setattr(oracles.GenericModel, "_eigenpieces", refuse)
    closed = [build_hermitian_matrix_algebra(n) for n in (1, 3, 12)]
    closed += [build_spin_factor(3), S12, H3S3, M2M3, nested]
    closed += [peirce2_algebra(H3, e), peirce2_algebra(H3S3, H3S3.unit)]
    for i, A in enumerate(closed):
        h = random_element(A, i, "self_adjoint")
        spectral_decomposition(A, h)
        unitary_log(A, exp_i(A, h, 1.0))
        random_element(A, i, "projection")
        for seed in (0, 11):  # the spectral and the unitary branch
            sample_tripotent(A, np.random.default_rng(seed))
    # the oracle Peirce-2 algebra is the one model left on the generic route
    with pytest.raises(AssertionError, match="Krylov route"):
        spectral_decomposition(oracle, h_oracle)


@pytest.mark.parametrize(
    "A",
    [build_hermitian_matrix_algebra(n) for n in range(1, 13)]
    + [build_spin_factor(n) for n in range(3, 9)]
    + [H3S3, M3S5],
    ids=lambda A: A.id,
)
def test_closed_form_rank_matches_the_generic_route(A):
    # the generic oracle, called unbound: distinct eigenvalues of one draw
    assert A.rank == oracles.GenericModel.rank.func(A)


def _with_singular_values(A, rng, sv):
    n = A.n
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return ((u * sv) @ w.conj().T).ravel()


def _full_svd_says_singular(A, a):
    sv = np.linalg.svd(u_operator_matrix(A, a), compute_uv=False)
    return sv[0] == 0.0 or sv[-1] <= A.tol.abs_eps * sv[0]


@pytest.mark.parametrize("smallest", [0.0, 1e-12, 0.5 * 1e-9**0.5, 2.0 * 1e-9**0.5, 1e-3])
def test_is_invertible_matches_the_full_u_operator_svd(smallest):
    # on M_n, sigma(U_a) = {sigma_i sigma_j}: singular when sigma_n^2 <= abs_eps sigma_1^2;
    # a sum is singular when one summand is
    rng = np.random.default_rng(7)
    M4 = build_hermitian_matrix_algebra(4)
    sums = [build_direct_sum([build_spin_factor(3), M4]), build_direct_sum([H3S3, M4])]
    for _ in range(3):
        a = _with_singular_values(M4, rng, [1.5, 1.0, 0.7, smallest])
        cases = [(M4, a)]
        for A in sums:
            # the other summands get norm 1, so sigma_1 = 1.5 of a stays the largest
            rest = [random_element(p, int(rng.integers(1 << 30))) for p, _ in A.summands[:-1]]
            rest = [(1.0 / jbstar_norm(p, r)) * r.coords for (p, _), r in zip(A.summands, rest)]
            cases.append((A, np.concatenate([*rest, a])))
        for A, x in cases:
            singular = _full_svd_says_singular(A, A.element(x))
            assert singular == (smallest**2 <= 1.5**2 * A.tol.abs_eps)
            assert (is_invertible(A, A.element(x)) is None) == singular


# -- the no-merge fast path ---------------------------------------------------

FAST_PATH_MODELS = [build_hermitian_matrix_algebra(n) for n in range(1, 13)] + [S3, S12, H3S3, M3S5, NESTED]


def _through_the_merge(A, x, real):
    """``_abelian_decomposition`` of x with ``_merge_pieces`` run on the
    hook's pieces whether or not two nodes are near."""
    nodes, raw = A._eigenpieces(x, real)
    near = np.abs(nodes[:, None] - nodes) <= A.tol.cluster_eps * (1.0 + np.max(np.abs(nodes)))
    nodes, idems = calculus._merge_pieces(nodes, raw, near)
    order = np.argsort(nodes)
    return nodes[order], idems[order]


def _planted(A, rng, pair, factor, unitary_element):
    """A self-adjoint element or a unitary whose nodes include a pair
    ``factor`` cluster gaps apart, in the complex distance of the nodes,
    and grid values well away from it.  ``pair`` places the pair: at -2
    (self-adjoint), at angle 2, or straddling -1 on the circle."""
    count = _slots(A)
    if count < 2:
        return _element(A, rng, np.array([0.7]), unitary_element).coords
    # the gap is cluster_eps (1 + max |node|), and max |node| is 2, or 1 on the circle
    d = factor * A.tol.cluster_eps * (2.0 if unitary_element else 3.0)
    phi = 2.0 * np.arcsin(0.5 * d)  # the angle of a chord of length d
    first, second = {
        "at-minus-two": (-2.0, -2.0 + d),
        "at-two": (2.0, 2.0 + phi),
        "straddling-minus-one": (np.pi - 0.5 * phi, -np.pi + 0.5 * phi),
    }[pair]
    rest = rng.permutation(np.linspace(-1.5, 1.5, 4 * count))[: count - 2]
    return _element(A, rng, rng.permutation([first, second, *rest]), unitary_element).coords


def _merges(monkeypatch, A, x, real):
    """Whether ``_abelian_decomposition`` of x runs ``_merge_pieces``."""
    calls, merge = [], calculus._merge_pieces
    with monkeypatch.context() as m:
        m.setattr(calculus, "_merge_pieces", lambda *args: calls.append(args) or merge(*args))
        calculus._abelian_decomposition(A, x, real)
    return len(calls) == 1


def _assert_fast_path_is_the_merge(A, x, real):
    nodes, idems = calculus._abelian_decomposition(A, x, real)
    want_nodes, want_idems = _through_the_merge(A, x, real)
    assert np.array_equal(nodes, want_nodes) and nodes.dtype == want_nodes.dtype
    assert np.array_equal(idems, want_idems)


PLANTED = [("at-minus-two", False), ("at-two", True), ("straddling-minus-one", True)]


@pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
@pytest.mark.parametrize("pair,unitary_element", PLANTED, ids=[p for p, _ in PLANTED])
@pytest.mark.parametrize("A", FAST_PATH_MODELS, ids=lambda A: A.id)
def test_fast_path_equals_the_merge_bit_for_bit(monkeypatch, A, pair, unitary_element, factor):
    # a pair just inside the cluster gap takes the merge, just outside the
    # fast path; both must give the merge's arrays exactly
    for seed in range(3):
        x = _planted(A, np.random.default_rng(seed), pair, factor, unitary_element)
        assert _merges(monkeypatch, A, x, not unitary_element) == (factor < 1.0 and _slots(A) >= 2)
        _assert_fast_path_is_the_merge(A, x, not unitary_element)
        x = random_element(A, seed, "self_adjoint").coords
        _assert_fast_path_is_the_merge(A, x, True)
        _assert_fast_path_is_the_merge(A, calculus._exp_i(A, x, 1.0), False)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(
    A=st.sampled_from(FAST_PATH_MODELS),
    seed=st.integers(0, 2**32 - 1),
    planted=st.sampled_from(PLANTED),
    factor=st.floats(0.5, 2.0),
)
def test_fast_path_equals_the_merge_property(A, seed, planted, factor):
    pair, unitary_element = planted
    x = _planted(A, np.random.default_rng(seed), pair, factor, unitary_element)
    _assert_fast_path_is_the_merge(A, x, not unitary_element)


def test_merge_runs_only_for_clustered_or_weighted_pieces(monkeypatch):
    rng = np.random.default_rng(3)
    M4 = build_hermitian_matrix_algebra(4)
    repeated = _in_frame(M4, rng, np.array([-1.5, 0.25, 0.25, 2.0]), False)
    H3 = build_hermitian_matrix_algebra(3)
    e = H3.element(np.diag([1.0, 1.0, 0.0]).ravel())
    oracle, sub = oracles.peirce2_oracle(H3, e.coords), peirce2_algebra(H3, e)
    assert _merges(monkeypatch, M10, _clustered(M10, rng, 1e-8).coords, True)  # a pair within the gap
    assert _merges(monkeypatch, M4, repeated, True)
    assert _merges(monkeypatch, M4, calculus._exp_i(M4, repeated, 1.0), False)
    assert _merges(monkeypatch, H3S3, H3S3.unit.coords, True)  # equal nodes across summands
    # the Krylov oracle merges its weighted pieces itself, in oracles.weighted_merge
    assert not _merges(monkeypatch, oracle, random_element(oracle, 3, "self_adjoint").coords, True)
    for A in [M4, M10, S3, S12, H3S3, M3S5, NESTED, sub]:
        x = random_element(A, 5, "self_adjoint").coords
        assert not _merges(monkeypatch, A, x, True)
        assert not _merges(monkeypatch, A, calculus._exp_i(A, x, 1.0), False)


@pytest.mark.parametrize("copies,n", [(40, 3), (12, 12)])
def test_decompose_on_a_rank_above_one_over_abs_eps(copies, n):
    # rank 120 or 144 > 1 / abs_eps: a minimal idempotent is small against
    # abs_eps ||1||^2, yet it is a piece of the spectrum, not rounding
    tol = Tolerance(abs_eps=9e-3)
    A = algebra_from_descriptor({"kind": "direct_sum", "parts": [{"kind": "hermitian_matrix", "n": n}] * copies}, tol)
    x = random_element(A, 1, "self_adjoint").coords
    blocks = [x[s].reshape(n, n) for _, s in A.summands]
    for y, want in [(x, np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))), (A.unit.coords, [1.0])]:
        dec = spectral_decomposition(A, A.element(y))
        assert np.max(np.abs(dec.values - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
        assert dec.residual <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_oracle_weighted_merge_on_synthetic_pieces():
    # M_2: ||1||^2 = 2, so a piece of mass below 2 abs_eps is light; the
    # heavy nodes reach |-1|, so the gap is 2 cluster_eps and d lies within it
    A = build_hermitian_matrix_algebra(2)
    d = 0.5 * A.tol.cluster_eps
    nodes = np.array([-1.0, -1.0 + d, 0.3, 0.3 + d, 0.8])
    weights = np.array([0.5, 2.0, 1.0, 1e-6, 1e-6])  # the last two are light
    raw = np.random.default_rng(0).standard_normal((5, A.dim)) + 0j
    got_nodes, got_idems = oracles.weighted_merge(A, nodes, weights, raw)
    order = np.argsort(got_nodes)
    got_nodes, got_idems = got_nodes[order], got_idems[order]
    # two heavy pieces take the mass-weighted mean (the plain mean lies
    # 0.44 d from it); a light neighbour mixes in; the light piece at 0.8,
    # far from every heavy node, is dropped
    mass = weights**2
    pairs = (slice(0, 2), slice(2, 4))
    want_nodes = [mass[p] @ nodes[p] / mass[p].sum() for p in pairs]
    want_idems = [weights[p] @ raw[p] for p in pairs]
    assert np.allclose(got_nodes, want_nodes, rtol=0.0, atol=1e-15)
    assert np.allclose(got_idems, want_idems, rtol=0.0, atol=1e-15)


HOOK_MODELS = [build_hermitian_matrix_algebra(n) for n in (1, 3, 12)] + [S3, S12, H3S3, NESTED]


@pytest.mark.parametrize("element", ["self_adjoint", "unitary", "scalar", "scalar_unitary"])
@pytest.mark.parametrize("A", HOOK_MODELS, ids=lambda A: A.id)
def test_eigenpieces_are_orthogonal_idempotents_summing_to_one(A, element):
    # the contract the unweighted merge rests on: a cluster's idempotent is
    # the plain sum of its pieces.  A scalar is s = 0 on a spin factor.
    h = random_element(A, 2, "self_adjoint").coords
    x = {
        "self_adjoint": h / max(A._norm(h), 1.0),
        "unitary": calculus._exp_i(A, h, 1.0),
        "scalar": 0.3 * A.unit.coords,
        "scalar_unitary": np.exp(0.3j) * A.unit.coords,
    }[element]
    pieces = A._eigenpieces(x, element in ("self_adjoint", "scalar"))
    assert len(pieces) == 2 and all(isinstance(p, np.ndarray) for p in pieces)
    nodes, raw = pieces
    assert nodes.shape == (raw.shape[0],) and raw.shape[1] == A.dim
    for i, e in enumerate(raw):
        assert np.max(np.abs(A._prod(e, e) - e)) <= 1e-12
        for f in raw[i + 1 :]:
            assert np.max(np.abs(A._prod(e, f))) <= 1e-12
    assert np.max(np.abs(raw.sum(axis=0) - A.unit.coords)) <= 1e-12
    assert np.max(np.abs(nodes @ raw - x)) <= 1e-12


# -- the spectral core takes the element as it is ---------------------------

SCALE_MODELS = [build_hermitian_matrix_algebra(n) for n in (1, 3, 12)] + [S3, S12, H3S3]


@pytest.mark.parametrize("A", SCALE_MODELS, ids=lambda A: A.id)
def test_spectral_decomposition_is_scale_covariant(A):
    # c a has the nodes c lambda and the idempotents of a.  c stays >= 1:
    # the cluster gap has the absolute floor cluster_eps, so the close
    # nodes of a small c a merge
    for seed in range(20):
        a = random_element(A, seed, "self_adjoint")
        dec = spectral_decomposition(A, a)
        top = 1.0 + np.max(np.abs(dec.values))
        for c in (1.0, 1e3, 1e6, 1e9):
            got = spectral_decomposition(A, a * c)
            assert got.values.shape == dec.values.shape
            assert np.max(np.abs(got.values - c * dec.values)) <= 1e-12 * c * top
            assert np.max(np.abs(got.idempotents - dec.idempotents)) <= 1e-12
            assert got.residual <= 1e-12 * c * top


@pytest.mark.parametrize(
    "A, scale",
    [(build_spin_factor(4), 1e154), (build_direct_sum([build_hermitian_matrix_algebra(2), build_spin_factor(3)]), 1e155)],
    ids=["spin(4)", "M2+spin(3)"],
)
def test_spectral_decomposition_refuses_nodes_that_overflow(A, scale):
    # the spin closed form squares w, which overflows past about 1e154;
    # the decomposition refuses its infinite or NaN nodes before any norm
    a = random_element(A, 3, "self_adjoint")
    with np.errstate(all="ignore"), pytest.raises(VerificationFailed, match="not finite"):
        spectral_decomposition(A, A.element(scale * a.coords))


def test_spectral_decomposition_of_a_huge_matrix_stays_finite():
    A = build_hermitian_matrix_algebra(3)
    a = random_element(A, 3, "self_adjoint")
    dec = spectral_decomposition(A, A.element(1e300 * a.coords))
    want = 1e300 * np.linalg.eigvalsh(A._mat(a.coords))
    assert np.all(np.isfinite(dec.values)) and np.isfinite(dec.residual)
    assert np.max(np.abs(dec.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("A", [SCALE_MODELS[1], build_spin_factor(4), H3S3], ids=lambda A: A.id)
def test_spectral_core_takes_no_norm(monkeypatch, A):
    # the hook needs no scale, the gates of a unitary's decomposition
    # (_is_unitary) and of _decompose (self-adjointness) pass on the
    # coordinate bound, and the residual is spectral_decomposition's one norm
    h = random_element(A, 5, "self_adjoint").coords
    u = calculus._exp_i(A, h, 1.0)
    calls, norm = [], A._norm
    monkeypatch.setattr(A, "_norm", lambda x: calls.append(x.shape) or norm(x))
    calculus._abelian_decomposition(A, h, True)
    calculus._abelian_decomposition(A, u, False)
    unitary._unitary_decomposition(A, u)
    nodes, idems = calculus._decompose(A, h)
    assert not calls
    dec = spectral_decomposition(A, A.element(h))
    assert len(calls) == 1
    assert np.array_equal(dec.values, nodes) and np.array_equal(dec.idempotents, idems)
    assert dec.residual == norm(nodes @ idems - h)


# -- stacks of self-adjoint elements ------------------------------------------

M2 = build_hermitian_matrix_algebra(2)
STACK_MODELS = [
    M2,
    build_hermitian_matrix_algebra(5),
    build_spin_factor(4),
    build_spin_factor(5),
    build_direct_sum([M2, build_hermitian_matrix_algebra(3)]),
    M3S5,
]


@pytest.mark.parametrize("A", STACK_MODELS, ids=lambda A: A.id)
def test_stacked_exp_i_takes_close_and_scalar_spin_rows_through_decompose(monkeypatch, A):
    # a row with two nodes 1e-9 apart (in the first summand) and, on a model
    # with a spin summand, a row that is scalar there (s = 0) have nodes
    # within the cluster gap: their own nodes send them through _decompose,
    # which merges them; the generic rows stay in the stack
    rng = np.random.default_rng(11)
    values = np.linspace(-1.0, 1.5, _slots(A))
    close = values.copy()
    close[1] = close[0] + 1e-9
    rows = [random_element(A, 1, "self_adjoint").coords, _element(A, rng, close).coords]
    starts = np.cumsum([0] + [p.rank for p, _ in A.summands])
    for (part, _), i in zip(A.summands, starts):
        if part.kind == "spin":
            scalar = values.copy()
            scalar[i + 1] = scalar[i]
            rows.append(_element(A, rng, scalar).coords)
    rows.append(random_element(A, 2, "self_adjoint").coords)
    x = np.stack(rows)
    special = list(range(1, len(rows) - 1))
    nodes, idems, clustered = calculus._decompose_rows(A, x)
    assert list(np.flatnonzero(clustered)) == special
    for i in special:
        assert calculus._decompose(A, x[i])[0].size < nodes.shape[1]  # merged
    seen, decompose = [], calculus._decompose
    monkeypatch.setattr(calculus, "_decompose", lambda B, y: seen.append(y) or decompose(B, y))
    u = calculus._exp_i(A, x, 1.0)
    assert len(seen) == len(special) and all(np.array_equal(y, x[i]) for y, i in zip(seen, special))
    monkeypatch.undo()
    for i, row in enumerate(x):
        want = calculus._exp_i(A, row, 1.0)
        assert np.max(np.abs(u[i] - want)) <= (0.0 if i in special else 1e-15) * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("A", STACK_MODELS, ids=lambda A: A.id)
def test_stacked_gates_raise_what_the_first_failing_row_raises(A):
    # _decompose's gate, with the value of the first failing row
    rng = np.random.default_rng(5)
    x = np.stack([random_element(A, seed, "self_adjoint").coords for seed in range(4)])
    x[2] += 1e-3 * (rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
    x[3] += 1e-2 * (rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
    with pytest.raises(NotSelfAdjoint) as single:
        calculus._exp_i(A, x[2], 1.0)
    with pytest.raises(NotSelfAdjoint) as stacked:
        calculus._exp_i(A, x, 1.0)
    assert "deviation" in str(single.value) and str(stacked.value) == str(single.value)
    # the hook's own gate: past a loose abs_eps, a row off by 1e-5 still fails it
    loose = algebra_from_descriptor(algebra_to_descriptor(A), Tolerance(abs_eps=5e-3))
    x = np.stack([random_element(loose, seed, "self_adjoint").coords for seed in range(3)])
    x[1] += 1e-5 * (rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
    with pytest.raises(NotSelfAdjoint) as single:
        calculus._exp_i(loose, x[1], 1.0)
    with pytest.raises(NotSelfAdjoint) as stacked:
        calculus._exp_i(loose, x, 1.0)
    assert "deviation" not in str(single.value) and str(stacked.value) == str(single.value)
