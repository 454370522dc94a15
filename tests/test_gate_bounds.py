"""Gates decided by a coordinate-norm bound, against the exact gates.

A gate whose value is read only when it fails passes outright when
kappa |d|_2 <= (1 - 1e-12) eps (``calculus._small``), kappa being the
model's ``_norm_per_coord`` and eps the part of the threshold that does not
grow with the norms; a commutation gate passes outright when the model's
``_commutator_bound`` is that small.  These tests check the two bounds on
every model kind, and that every gated site returns or raises exactly what
its exact gate gives: a defect is scaled to a fixed ratio of the exact
residual to the exact threshold, and each site runs once as it is and once
with kappa set to None and the commutator bound to infinity on the handle,
which sends every gate down its exact path.  The ``_norm`` and
``_commutator_norm`` calls of the first run show which path the gate took.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbstar import calculus, measures, peirce, preservers, samplers, unitary
from jbstar.algebras import (
    AlgebraHandle,
    Element,
    _random,
    _realify,
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
)
from jbstar.errors import (
    NotProjection,
    NotSelfAdjoint,
    NotTripotent,
    NotUnitary,
    PreconditionFailed,
    SamplerViolation,
    VerificationFailed,
)
from jbstar.peirce import peirce2_algebra, sample_tripotent

import oracles

H = build_hermitian_matrix_algebra
S = build_spin_factor
H3S3 = build_direct_sum([H(3), S(3)])
NESTED = build_direct_sum([H(2), build_direct_sum([S(3), H(4)])])


def _peirce2_models():
    """Concrete Peirce-2 models of sampled tripotents (M_r, spin, sums)."""
    rng = np.random.default_rng(3)
    return [peirce2_algebra(A, sample_tripotent(A, rng)) for A in (H(4), S(5), H3S3) for _ in range(3)]


BOUND_MODELS = [H(n) for n in range(1, 13)] + [S(n) for n in range(3, 13)] + [H3S3, NESTED]
BOUND_MODELS += _peirce2_models()


# -- the two bounds -------------------------------------------------------------


@pytest.mark.parametrize("A", BOUND_MODELS, ids=lambda A: A.id)
def test_norm_per_coord_bounds_the_norm(A):
    kappa = A._norm_per_coord
    rng = np.random.default_rng(7)
    for flavor in ("general", "self_adjoint", "unitary"):
        x = np.stack([_random(A, rng, flavor) * rng.uniform(1e-3, 1e3) for _ in range(10)])
        assert np.all(A._norm(x) <= kappa * np.linalg.norm(x, axis=-1) * (1.0 + 1e-12))


@pytest.mark.parametrize("n", [1, 3, 12])
def test_the_matrix_bound_is_tight_on_a_rank_one_matrix(n):
    A = H(n)
    rng = np.random.default_rng(n)
    u, v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    x = np.outer(u, v.conj()).ravel()
    assert A._norm(x) <= np.linalg.norm(x) * (1.0 + 1e-12)
    assert A._norm(x) >= np.linalg.norm(x) * (1.0 - 1e-12)


@pytest.mark.parametrize("n", [3, 12])
def test_the_spin_bound_is_tight_on_orthogonal_parts_of_equal_length(n):
    # x = a + i b with a, b real, a orthogonal to b and |a| = |b|:
    # ||x||^2 = |x|^2 + 2|a||b| = 2|x|^2
    A = S(n)
    rng = np.random.default_rng(n)
    q = np.linalg.qr(rng.standard_normal((n, 2)))[0]
    x = 1.7 * (q[:, 0] + 1j * q[:, 1])
    bound = math.sqrt(2.0) * np.linalg.norm(x)
    assert bound * (1.0 - 1e-12) <= A._norm(x) <= bound * (1.0 + 1e-12)


def test_oracle_models_keep_the_exact_path(monkeypatch):
    A = H(3)
    oracle = oracles.peirce2_oracle(A, sample_tripotent(A, np.random.default_rng(1)).coords)
    for B in (oracle, build_direct_sum([H(2), oracle])):
        assert B._norm_per_coord is None
        assert not calculus._small(B, np.zeros(B.dim, dtype=complex), 1.0)
    x = _random(oracle, np.random.default_rng(2), "self_adjoint")
    calls, norm = [], oracle._norm
    monkeypatch.setattr(oracle, "_norm", lambda y: calls.append(1) or norm(y))
    assert calculus._gate(oracle, *calculus._self_adjoint(oracle, x))
    assert len(calls) == 2  # the exact gate: ||x* - x|| and ||x||


def test_small_decides_a_stack_by_its_largest_row():
    A = H(3)
    d = np.zeros((3, A.dim), dtype=complex)
    d[1, 0] = 1e-9
    assert calculus._small(A, d, 1e-9 / (1.0 - 2e-12))
    assert not calculus._small(A, d, 1e-9)
    assert not calculus._small(A, d[1], 1e-9)


COMMUTATOR_MODELS = [H(1), H(3), H(6), S(4), S(9), H3S3, build_direct_sum([H(3), H(4)]), NESTED]


@pytest.mark.parametrize("A", COMMUTATOR_MODELS, ids=lambda A: A.id)
def test_commutator_bound_dominates_every_route(A):
    # the routes of _commutator_norm: the SVD of M_x M_y - M_y M_x, and the
    # model's own, which on M_n takes the eigvalsh route for self-adjoint
    # and commuting pairs; a same-generator pair commutes, and there the
    # routes and the bound differ only by rounding, far inside the gate's
    # threshold
    rng = np.random.default_rng(17)
    for flavor in ("self_adjoint", "unitary", "general", "commuting"):
        for _ in range(5):
            if flavor == "commuting":
                x, y = samplers._same_generator_pair(A, rng, 1)[:, 0]
            else:
                x, y = _random(A, rng, flavor), _random(A, rng, flavor)
            bound = A._commutator_bound(x, y)
            thr = calculus._operator_commutes(A, x, y).threshold
            routes = [AlgebraHandle._commutator_norm(A, x, y), A._commutator_norm(x, y)]
            if flavor == "commuting":
                assert max(routes) <= bound + 1e-13 * thr / A.tol.abs_eps
            else:
                assert max(routes) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [3, 4, 9, 40])
def test_the_spin_commutator_bound_is_the_frobenius_norm(n):
    # the closed form sqrt 2 |x'| |r| against the base class's product of
    # multiplication matrices on general, self-adjoint and unitary pairs;
    # rounding only on a commuting pair, zero against the unit
    A = S(n)
    rng = np.random.default_rng(n)
    for flavor in ("general", "self_adjoint", "unitary"):
        for _ in range(5):
            x, y = _random(A, rng, flavor), _random(A, rng, flavor)
            want = AlgebraHandle._commutator_bound(A, x, y)
            assert abs(A._commutator_bound(x, y) - want) <= 1e-14 * want
    x = _random(A, rng, "self_adjoint")
    assert A._commutator_bound(x, 3.0 * x - 2.0 * A.unit.coords) <= 1e-15 * (1.0 + A._norm(x)) ** 2
    assert A._commutator_bound(A.unit.coords, x) == 0.0


ORACLE = oracles.peirce2_oracle(H(3), sample_tripotent(H(3), np.random.default_rng(1)).coords)


@pytest.mark.parametrize("A", COMMUTATOR_MODELS + [ORACLE], ids=lambda A: A.id)
def test_the_stacked_commutator_bound_is_the_bound_of_each_row(A):
    rng = np.random.default_rng(18)
    x, y = (np.stack([_random(A, rng) for _ in range(4)]) for _ in range(2))
    got = A._commutator_bound(x, y)
    want = [A._commutator_bound(a, b) for a, b in zip(x, y)]
    assert got.shape == (4,)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


STACK_MODELS = [H(1), H(3), H(12), S(4), S(9), H3S3, NESTED, _peirce2_models()[0], ORACLE]


@pytest.mark.parametrize("A", STACK_MODELS, ids=lambda A: A.id)
def test_the_stacked_commutator_norm_is_the_norm_of_each_row(A):
    # bit for bit on (k, dim) and (k, j, dim) stacks; self-adjoint and
    # commuting rows take the eigvalsh route on M_n, the others the SVD
    rng = np.random.default_rng(19)
    rows = [(_random(A, rng, flavor), _random(A, rng, flavor)) for flavor in ("self_adjoint", "general", "unitary")]
    rows += [(_random(A, rng, "self_adjoint"), A.unit.coords), (A.unit.coords, A.unit.coords)]
    a = _random(A, rng, "self_adjoint")
    rows.append((a, A._prod(a, a) - 0.5 * a))  # commutes with a
    x, y = np.array(rows).swapaxes(0, 1)
    want = np.array([A._commutator_norm(a, b) for a, b in zip(x, y)])
    assert all(type(A._commutator_norm(a, b)) is float for a, b in zip(x, y))
    got = A._commutator_norm(x, y)
    assert got.shape == (6,) and np.array_equal(got, want)
    got = A._commutator_norm(x.reshape(2, 3, -1), y.reshape(2, 3, -1))
    assert got.shape == (2, 3) and np.array_equal(got, want.reshape(2, 3))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(1, 12),
    flavor=st.sampled_from(["self_adjoint", "unitary", "general"]),
    scale=st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_matrix_commutator_route_stays_within_its_share_of_the_threshold(n, flavor, scale, seed):
    # the route's own slack is at most 1e-6 times the threshold of
    # _operator_commutes, so it stays that close to the SVD of the
    # commutator of multiplication matrices; both routes also round, by
    # about 1.5e-15 of the residual, which on self-adjoint pairs can take
    # most of that margin
    A, rng = H(n), np.random.default_rng(seed)
    x, y = scale * _random(A, rng, flavor), scale * _random(A, rng, flavor)
    thr = calculus._operator_commutes(A, x, y).threshold
    assert abs(A._commutator_norm(x, y) - AlgebraHandle._commutator_norm(A, x, y)) <= 1e-6 * thr


# -- every gated site against its exact gate ------------------------------------

RATIOS = (1e-3, 0.1, 0.5, 0.99, 1.01, 2.0, 10.0)
SITE_MODELS = [H(3), H(5), S(4), H3S3]


def _tuned(ratio, rho):
    """The scale t with ratio(t) = rho (exact residual over exact threshold),
    to 1e-3; ratio is close to linear in small t."""
    t = 1e-9
    for _ in range(10):
        t *= rho / ratio(t)
    assert abs(ratio(t) / rho - 1.0) <= 1e-3
    return t


def _run(A, call, exact):
    """("ok", value) or ("raised", type, message) of call(), with the number
    of _norm and _commutator_norm calls on A; ``exact`` sends every gate of
    A down its exact path."""
    calls, norm, commutator_norm = [], A._norm, A._commutator_norm
    with pytest.MonkeyPatch.context() as m:
        m.setattr(A, "_norm", lambda x: calls.append(1) or norm(x))
        m.setattr(A, "_commutator_norm", lambda x, y: calls.append(1) or commutator_norm(x, y))
        if exact:
            m.setattr(A, "_norm_per_coord", None)
            m.setattr(A, "_commutator_bound", lambda x, y: math.inf)
        try:
            out = ("ok", call())
        except Exception as exc:
            out = ("raised", type(exc), str(exc))
    return out, len(calls)


def _same(a, b) -> bool:
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(p, q) for p, q in zip(a, b))
    if isinstance(a, Element):
        return isinstance(b, Element) and a.algebra_id == b.algebra_id and np.array_equal(a.coords, b.coords)
    if isinstance(a, measures.ProjectionMeasure):
        return isinstance(b, measures.ProjectionMeasure) and a.bound == b.bound
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    return a == b


def _check_site(A, cases, error, gate, other=0, fail=None):
    """Run each case (call(t), ratio(t)) at every ratio in RATIOS, as it is
    and on the exact path; both must give the same outcome, which fails
    (raises ``error``, or returns False when ``error`` is None) exactly when
    the ratio exceeds 1.  The first run's norm calls must be those of a
    gate decided by the bound (``other``: the site's norms outside the
    gate), or those of the exact gate (``gate`` more when it ran and
    passed, ``fail`` when it failed, by default ``gate``), and both kinds
    of passing gate must occur."""
    paths = set()
    for call, ratio in cases:
        for rho in RATIOS:
            t = _tuned(ratio, rho)
            out, calls = _run(A, lambda: call(t), exact=False)
            assert _same(out, _run(A, lambda: call(t), exact=True)[0]), (rho, out)
            failed = out[:2] == ("raised", error) if error else out == ("ok", False)
            assert failed == (rho > 1.0), (rho, out)
            if failed:
                assert calls in (fail or (gate,)), (rho, calls)
            else:
                assert out[0] == "ok" and calls in (other, other + gate), (rho, out, calls)
                paths.add(calls == other)
    assert paths == {True, False}  # kappa |d| straddles eps over the cases


def _unit_norm(A, x):
    return x / A._norm(x)


def _self_adjoint_defect(A, x):
    """(||x* - x||, threshold, ||x||) of the self-adjointness test."""
    norm = A._norm(x)
    return A._norm(A._inv(x) - x), A.tol.abs_eps * (1.0 + norm), norm


def _self_adjoint_ratio(A, x):
    return lambda t: (lambda dev, thr, _: dev / thr)(*_self_adjoint_defect(A, x(t)))


SELF_ADJOINT_SITES = {
    "decompose": (calculus._decompose, NotSelfAdjoint),
    "is_self_adjoint": (lambda A, x: calculus.is_self_adjoint(A, A.element(x)), None),
}


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
@pytest.mark.parametrize("site", SELF_ADJOINT_SITES)
def test_self_adjoint_gate(A, site):
    run, error = SELF_ADJOINT_SITES[site]
    rng = np.random.default_rng(31)
    skew = 1j * _random(A, rng, "self_adjoint")
    cases = []
    for scale in (0.0, 1.0, 100.0):
        s = scale * _unit_norm(A, _random(A, rng, "self_adjoint"))
        x = lambda t, s=s: s + t * skew
        cases.append((lambda t, x=x: run(A, x(t)), _self_adjoint_ratio(A, x)))
    _check_site(A, cases, error, gate=2)


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_decompose_rows_gate(A):
    rng = np.random.default_rng(32)
    skew = 1j * _random(A, rng, "self_adjoint")
    rows = np.stack([_random(A, rng, "self_adjoint") for _ in range(3)])
    cases = []
    for scale in (1.0, 100.0):
        s = scale * _unit_norm(A, rows[1])

        def x(t, s=s):
            out = rows.copy()
            out[1] = s + t * skew
            return out

        ratio = _self_adjoint_ratio(A, lambda t, s=s: s + t * skew)
        cases.append((lambda t, x=x: calculus._decompose_rows(A, x(t)), ratio))
    _check_site(A, cases, NotSelfAdjoint, gate=2)


def _exp_i_ratio(A, u0, g):
    def ratio(t):
        u = u0 + t * g
        r = A._norm(A._prod(u, A._inv(u)) - A.unit.coords)
        return r / (1e-7 * (1.0 + A._norm(u)) ** 2)

    return ratio


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_exp_i_unitarity_gate(monkeypatch, A):
    # the defect is added to what _exp returns, the exponential before the check
    rng = np.random.default_rng(34)
    h = np.stack([_random(A, rng, "self_adjoint") for _ in range(3)])
    g = _unit_norm(A, _random(A, rng))
    u0 = np.stack([calculus._exp_i(A, row, 1.0) for row in h])
    exp, shift = calculus._exp, [0.0]
    monkeypatch.setattr(calculus, "_exp", lambda nodes, idems, t: exp(nodes, idems, t) + shift[0])

    def call(t, x):
        shift[0] = t * g if x.ndim == 1 else t * np.array([0.0, 1.0, 0.0])[:, None] * g
        return calculus._exp_i(A, x, 1.0)

    cases = [(lambda t: call(t, h[1]), _exp_i_ratio(A, u0[1], g)), (lambda t: call(t, h), _exp_i_ratio(A, u0[1], g))]
    _check_site(A, cases, VerificationFailed, gate=2)


def _unitary_ratio(A, x):
    return lambda t: (lambda chk: chk.residual / chk.threshold)(unitary._is_unitary(A, x(t)))


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_unitary_decomposition_gate(A):
    rng = np.random.default_rng(35)
    u = _random(A, rng, "unitary")
    cases = []
    for _ in range(2):
        g = _unit_norm(A, _random(A, rng))
        x = lambda t, g=g: u + t * g
        cases.append((lambda t, x=x: unitary._unitary_decomposition(A, x(t)), _unitary_ratio(A, x)))
    _check_site(A, cases, NotUnitary, gate=3)


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_unitary_log_round_trip_gate(monkeypatch, A):
    # the defect is added to the exponential of the log, before the check
    rng = np.random.default_rng(36)
    u = _random(A, rng, "unitary")
    h = unitary._unitary_log(A, u)[0]
    back = calculus._exp_i(A, h, 1.0)
    exp_i, shift = unitary._exp_i, [0.0]
    monkeypatch.setattr(unitary, "_exp_i", lambda B, y, t: exp_i(B, y, t) + shift[0])
    cases = []
    for _ in range(2):
        g = _unit_norm(A, _random(A, rng))

        def call(t, g=g):
            shift[0] = t * g
            return unitary._unitary_log(A, u)

        ratio = lambda t, g=g: A._norm(back + t * g - u) / (1e-6 * (1.0 + A._norm(u)))
        cases.append((call, ratio))
    # a stack of two equal rows: one stacked norm of the defects, one of x
    stacked = lambda t: (shift.__setitem__(0, t * g), unitary._unitary_log(A, np.stack([u, u])))[1]
    cases.append((stacked, ratio))
    _check_site(A, cases, VerificationFailed, gate=2)


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_is_invertible_identity_gate(monkeypatch, A):
    # the defect is added to the U-operator matrix of the solve, which moves
    # the candidate
    rng = np.random.default_rng(37)
    x = _random(A, rng) + 3.0 * A.unit.coords
    u_matrix, shift = A._u_matrix, [0.0]
    monkeypatch.setattr(A, "_u_solve", lambda y, b: np.linalg.solve(u_matrix(y) + shift[0], b))
    cases = []
    for _ in range(2):
        E = rng.standard_normal((A.dim, A.dim)) + 1j * rng.standard_normal((A.dim, A.dim))
        E /= np.linalg.norm(E)

        def call(t, E=E):
            shift[0] = t * E
            return calculus.is_invertible(A, A.element(x))

        def ratio(t, E=E):
            y = np.linalg.solve(u_matrix(x) + t * E, x)
            nx, ny = A._norm(x), A._norm(y)
            r = max(A._norm(A._prod(x, y) - A.unit.coords), A._norm(A._prod(A._prod(x, x), y) - x))
            return r / (100.0 * A.tol.abs_eps * (1.0 + nx) * (1.0 + nx) * (1.0 + ny))

        cases.append((call, ratio))
    _check_site(A, cases, VerificationFailed, gate=4)


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_peirce_tripotent_gate(A):
    # the site also computes one reported norm, ||P2 e - e||
    rng = np.random.default_rng(38)
    cases = []
    for _ in range(3):
        e = sample_tripotent(A, rng).coords
        g = _unit_norm(A, _random(A, rng))
        x = lambda t, e=e, g=g: e + t * g
        ratio = lambda t, x=x: (lambda chk: chk.residual / chk.threshold)(peirce._is_tripotent(A, x(t)))
        cases.append((lambda t, x=x: peirce._peirce_projections(A, x(t)), ratio))
    _check_site(A, cases, NotTripotent, gate=2, other=1)


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_is_symmetry_gate(A):
    rng = np.random.default_rng(39)
    eps = A.tol.abs_eps
    cases = []
    for _ in range(2):
        s = A.unit.coords - 2.0 * _random(A, rng, "projection")
        g = _unit_norm(A, _random(A, rng))
        x = lambda t, s=s, g=g: s + t * g

        def ratio(t, x=x):
            dev, thr, norm = _self_adjoint_defect(A, x(t))
            square = A._norm(A._prod(x(t), x(t)) - A.unit.coords)
            return max(dev / thr, square / (eps * (1.0 + norm) ** 2))

        cases.append((lambda t, x=x: unitary.is_symmetry(A, A.element(x(t))), ratio))
    # a failing self-adjointness test skips the norm of the square
    _check_site(A, cases, None, gate=3, fail=(2, 3))


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_central_self_adjoint_gate(A):
    rng = np.random.default_rng(40)
    cases = []
    for c in (0.7, 50.0):
        g = _unit_norm(A, _random(A, rng))
        x = lambda t, c=c, g=g: c * A.unit.coords + t * g

        def ratio(t, x=x):
            dev, thr, norm = _self_adjoint_defect(A, x(t))
            return max(dev / thr, preservers._central_projection_residual(A, x(t)) / (1e-8 * (1.0 + norm)))

        cases.append((lambda t, x=x: bool(calculus._gate(A, *preservers._central(A, x(t), 1e-8))), ratio))
    _check_site(A, cases, None, gate=2)


def _commutator_ratio(A, x, y):
    return lambda t: (lambda chk: chk.residual / chk.threshold)(calculus._operator_commutes(A, x, y(t)))


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_oc_draw_commutation_gate(monkeypatch, A):
    # the defect is added to the drawn pair's second element
    rng = np.random.default_rng(41)
    draws = [samplers._draw_oc_pair(A, rng, 1)[:, 0] for _ in range(3)]
    pair, shift = [None], [0.0]
    shifted = lambda B, r, k: np.stack([pair[0][0], pair[0][1] + shift[0]])[:, None]  # a one-pair stack
    monkeypatch.setattr(samplers, "_same_generator_pair", shifted)
    cases = []
    for x, y in draws:
        g = _unit_norm(A, _random(A, rng, "self_adjoint"))

        def call(t, x=x, y=y, g=g):
            pair[0], shift[0] = (x, y), t * g
            return samplers._draw_oc_pair(A, None, 1)

        cases.append((call, _commutator_ratio(A, x, lambda t, y=y, g=g: y + t * g)))
    # the exact gate: ||x||, ||y|| and the commutator norm
    _check_site(A, cases, SamplerViolation, gate=3)


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_a_stacked_oc_draw_refuses_its_first_non_commuting_pair(monkeypatch, A):
    # a large commuting pair that the bound cannot decide (its rounding
    # exceeds abs_eps) passes the exact check; the violation names the
    # first non-commuting pair after it, not the second
    rng = np.random.default_rng(45)
    big = 1e4 * samplers._same_generator_pair(A, rng, 1)[:, 0]
    assert A._commutator_bound(*big) > A.tol.abs_eps
    good = samplers._same_generator_pair(A, rng, 1)[:, 0]
    bad = [samplers._noncommuting_pair(A, rng) for _ in range(2)]
    stream = iter([good, big, good, bad[0], good, bad[1]])
    drawn = lambda B, r, k: np.stack([next(stream) for _ in range(k)], axis=1)
    monkeypatch.setattr(samplers, "_same_generator_pair", drawn)
    residual = calculus._operator_commutes(A, *bad[0]).residual
    with pytest.raises(SamplerViolation, match=re.escape(f"(residual {residual:.3e})")):
        samplers._draw_oc_pair(A, None, 6)


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_orthogonal_pair_commutation_gate(monkeypatch, A):
    rng = np.random.default_rng(42)
    pair = [None]
    monkeypatch.setattr(measures, "_orthogonal_projection_pair", lambda B, r: pair[0])
    f = lambda a: _realify(a.coords)
    cases = []
    for _ in range(2):
        p, q = samplers._orthogonal_projection_pair(A, rng)
        g = _unit_norm(A, _random(A, rng, "self_adjoint"))

        def call(t, p=p, q=q, g=g):
            pair[0] = (p, q + t * g)
            return measures.measure_from_map(A, f, bound_probe=1, seed=3)

        cases.append((call, _commutator_ratio(A, p, lambda t, q=q, g=g: q + t * g)))
    _check_site(A, cases, PreconditionFailed, gate=3)


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_symmetric_difference_branch(A):
    # q is moved to the projection onto the top spectral part of q + t g,
    # so both branches return p Delta q; the verdict shows in the calls:
    # one commutator norm on the exact path, none when the bound decides
    rng = np.random.default_rng(43)
    p, q = samplers._orthogonal_projection_pair(A, rng)
    g = _unit_norm(A, _random(A, rng, "self_adjoint"))

    def moved(t):
        nodes, idems = calculus._decompose(A, q + t * g)
        return idems[nodes > 0.5].sum(axis=0)

    ratio = _commutator_ratio(A, p, moved)
    commutator_norm = A._commutator_norm
    paths = set()
    for rho in RATIOS:
        t = _tuned(ratio, rho)
        call = lambda: unitary.symmetric_difference(A, A.element(p), A.element(moved(t)))
        out = _run(A, call, exact=False)[0]
        assert _same(out, _run(A, call, exact=True)[0])
        calls = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(A, "_commutator_norm", lambda x, y: calls.append(1) or commutator_norm(x, y))
            call()
        assert len(calls) <= 1 and (rho <= 1.0 or calls)
        paths.add(len(calls))
    assert paths == {0, 1}


@pytest.mark.parametrize("A", SITE_MODELS, ids=lambda A: A.id)
def test_symmetric_difference_projection_gates(A):
    # p or q is scaled by 1 + t: it still operator commutes with the other,
    # and its projection defect (1 + t) t p is the one that fails first.
    # The site's other gates then pass: p Delta q has about the same defect,
    # and the identity 1 - 2(p Delta q) = (1 - 2p) o (1 - 2q) holds for any
    # p and q.  Every gate decided by its bound: no _norm call at all.
    rng = np.random.default_rng(44)
    p, q = samplers._orthogonal_projection_pair(A, rng)
    thr = lambda x: A.tol.abs_eps * (1.0 + A._norm(x)) ** 2 + A.tol.cluster_eps
    for scaled in (0, 1):
        x = p if scaled == 0 else q
        ratio = lambda t, x=x: unitary._projection_defect(A, (1.0 + t) * x) / thr((1.0 + t) * x)
        paths = set()
        for rho in RATIOS:
            t = _tuned(ratio, rho)
            pair = [p, q]
            pair[scaled] = (1.0 + t) * x
            call = lambda: unitary.symmetric_difference(A, *(A.element(z) for z in pair))
            out, calls = _run(A, call, exact=False)
            assert _same(out, _run(A, call, exact=True)[0]), (rho, out)
            failed = out[:2] == ("raised", NotProjection)
            assert failed == (rho > 1.0), (rho, out)
            assert not failed or "pq"[scaled] + " is not a projection" in out[2]
            paths.add(calls == 0)
        assert paths == {True, False}
