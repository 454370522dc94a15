"""Concrete Peirce-2 models against the generic oracle.

``peirce2_algebra`` gives the Peirce-2 algebra of a tripotent as M_r, a
spin factor or a sum, with an embedding into the ambient model and its
inverse map.  The oracle, ``oracles.Peirce2Algebra``, builds the same
algebra from the ambient triple product on an eigenbasis of P2.  Each
check carries elements of the concrete model to the oracle's coordinates
through the ambient model, and compares products, involutions and norms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbstar.algebras import (
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    random_element,
)
from jbstar.peirce import peirce2_algebra, peirce2_embed, peirce2_project, peirce_system, sample_tripotent

import oracles

H3 = build_hermitian_matrix_algebra(3)
S4 = build_spin_factor(4)


def _assert_matches_oracle(A, e, samples=4):
    """The concrete Peirce-2 model of e against the oracle: product,
    involution and norm transported through the ambient model, to 1e-12."""
    sub = peirce2_algebra(A, A.element(e))
    oracle = oracles.peirce2_oracle(A, np.asarray(e, dtype=complex))
    assert sub.dim == oracle.dim
    rng = np.random.default_rng(5)
    for _ in range(samples):
        a, b = (random_element(sub, int(rng.integers(1 << 30))).coords for _ in range(2))
        oa, ob = (oracle.project @ (sub.embed @ v) for v in (a, b))
        scale = (1.0 + sub._norm(a)) * (1.0 + sub._norm(b))
        got = sub.embed @ sub._prod(a, b)
        assert A._norm(got - oracle.embed @ oracle._prod(oa, ob)) <= 1e-12 * scale
        assert A._norm(sub.embed @ sub._inv(a) - oracle.embed @ oracle._inv(oa)) <= 1e-12 * scale
        assert abs(sub._norm(a) - oracle._norm(oa)) <= 1e-12 * scale
    return sub


def _partial_isometry(n, r, rng):
    """A random partial isometry of rank r in M_n: U[:, :r] W[:, :r]^H."""
    u, w = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0] for _ in range(2))
    return (u[:, :r] @ w[:, :r].conj().T).ravel()


@pytest.mark.parametrize("n", range(1, 6))
def test_matrix_peirce2_is_m_r_at_every_rank(n):
    A = build_hermitian_matrix_algebra(n)
    rng = np.random.default_rng(n)
    for r in range(1, n + 1):
        sub = _assert_matches_oracle(A, _partial_isometry(n, r, rng))
        assert (sub.kind, sub.n) == ("hermitian_matrix", r)
        # isometric in the coordinates: the inverse map is the adjoint
        assert np.linalg.norm(sub.embed.conj().T @ sub.embed - np.eye(r * r)) <= 1e-13


def _spin_unitary(A, angle, half):
    """exp(i angle) (cos(half) 1 + i sin(half) b) for the self-adjoint
    b = (0, i, 0, ...), b o b = 1: a unitary with nodes exp(i (angle -/+ half))."""
    x = np.zeros(A.dim, dtype=complex)
    x[0], x[1] = np.cos(half), -np.sin(half)
    return np.exp(1j * angle) * x


SPIN_TRIPOTENTS = {
    "minimal-projection": lambda A: 0.5 * (A.unit.coords + 1j * np.eye(A.dim)[1]),
    "minimal-phase": lambda A: np.exp(0.7j) * 0.5 * (A.unit.coords - 1j * np.eye(A.dim)[2]),
    "unit": lambda A: A.unit.coords,
    "minus-unit": lambda A: -A.unit.coords,
    "unitary": lambda A: _spin_unitary(A, 0.4, 1.1),
    "straddling-minus-one": lambda A: _spin_unitary(A, np.pi, 1e-3),
    "near-minus-one": lambda A: _spin_unitary(A, np.pi - 1e-9, 1e-9),
}


@pytest.mark.parametrize("case", list(SPIN_TRIPOTENTS))
@pytest.mark.parametrize("n", [3, 4, 9])
def test_spin_peirce2_is_m1_or_the_spin_factor(n, case):
    A = build_spin_factor(n)
    sub = _assert_matches_oracle(A, SPIN_TRIPOTENTS[case](A))
    if case.startswith("minimal"):
        assert (sub.kind, sub.dim) == ("hermitian_matrix", 1)
    else:
        assert (sub.kind, sub.dim) == ("spin", n)


def test_sum_peirce2_drops_zero_summands():
    rng = np.random.default_rng(3)
    A = build_direct_sum([H3, S4, build_hermitian_matrix_algebra(2)])
    minimal = SPIN_TRIPOTENTS["minimal-projection"](S4)
    cases = [
        ([_partial_isometry(3, 2, rng), np.zeros(4), np.zeros(4)], ["hermitian_matrix"]),
        ([np.zeros(9), minimal, _partial_isometry(2, 2, rng)], ["hermitian_matrix", "hermitian_matrix"]),
        ([np.zeros(9), S4.unit.coords, np.zeros(4)], ["spin"]),
        (
            [_partial_isometry(3, 3, rng), -S4.unit.coords, _partial_isometry(2, 1, rng)],
            ["hermitian_matrix", "spin", "hermitian_matrix"],
        ),
    ]
    for parts, kinds in cases:
        sub = _assert_matches_oracle(A, np.concatenate(parts))
        assert sub.kind == "direct_sum"
        assert [p.kind for p, _ in sub.summands] == kinds


def test_peirce2_of_a_peirce2():
    rng = np.random.default_rng(4)
    M4 = build_hermitian_matrix_algebra(4)
    sub = peirce2_algebra(M4, M4.element(_partial_isometry(4, 3, rng)))
    inner = _assert_matches_oracle(sub, _partial_isometry(3, 2, rng))
    assert inner.ambient is sub and (inner.kind, inner.n) == ("hermitian_matrix", 2)
    A = build_direct_sum([H3, S4])
    sub = peirce2_algebra(A, A.unit)
    _assert_matches_oracle(sub, np.concatenate([np.zeros(9), SPIN_TRIPOTENTS["unitary"](S4)]))


SAMPLED_MODELS = [H3, build_hermitian_matrix_algebra(5), S4, build_spin_factor(7)]
SAMPLED_MODELS += [build_direct_sum([H3, S4])]
SAMPLED_MODELS += [build_direct_sum([build_direct_sum([S4, H3]), build_hermitian_matrix_algebra(1)])]


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(A=st.sampled_from(SAMPLED_MODELS), seed=st.integers(0, 2**32 - 1))
def test_sampled_tripotents_match_the_oracle(A, seed):
    e = sample_tripotent(A, np.random.default_rng(seed))
    if peirce_system(A, e).p2.trace().real > 0.5:  # the zero tripotent has no Peirce-2 algebra
        _assert_matches_oracle(A, e.coords, samples=2)


ROUND_TRIP_MODELS = [H3, S4, build_direct_sum([H3, build_spin_factor(5)]), peirce2_algebra(H3, H3.unit)]


@pytest.mark.parametrize("A", ROUND_TRIP_MODELS, ids=lambda A: A.id)
def test_project_inverts_embed_and_embed_project_is_p2(A):
    # the inverse map is the identity after the embedding, and the embedding
    # after it is P2, on minimal and on unitary tripotents alike
    rng = np.random.default_rng(6)
    tripotents = [sample_tripotent(A, rng) for _ in range(6)] + [random_element(A, 7, "unitary")]
    for e in tripotents:
        p2 = peirce_system(A, e).p2
        if p2.trace().real < 0.5:
            continue
        sub = peirce2_algebra(A, e)
        for seed in range(3):
            x = random_element(sub, seed)
            y = random_element(A, seed)
            back = peirce2_project(sub, peirce2_embed(sub, x))
            assert np.linalg.norm(back.coords - x.coords) <= 1e-13 * (1.0 + np.linalg.norm(x.coords))
            there = peirce2_embed(sub, peirce2_project(sub, y))
            assert np.linalg.norm(there.coords - p2 @ y.coords) <= 1e-13 * (1.0 + np.linalg.norm(y.coords))

