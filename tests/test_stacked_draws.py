"""The stacked draws against their one-draw-at-a-time forms, and M_n's
triple product against the generic one.

``algebras._random_rows``, ``samplers._same_generator_pair`` and
``samplers._commuting_projection_pairs`` build a chunk of draws as one
stack.  Each must equal, bit for bit, the draws of ``oracles`` taken one at
a time on a generator seeded alike, and leave that generator in the same
state, across a chunk boundary.  A sum of M1 summands with a wide cluster
gap makes many projection draws cluster, so their rows take their merged
pieces from the one-element form, with the first bits of a draw of
fixed length; the guards below pin how often
``_suite_symmetric_difference`` decomposes.
"""

import numpy as np
import pytest

from jbstar import cli, samplers
from jbstar.algebras import (
    AlgebraHandle,
    _random,
    _random_rows,
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
)
from jbstar.calculus import _decompose
from jbstar.kernel import Tolerance
from jbstar.reports import CHUNK, chunk_sizes

import oracles

H = build_hermitian_matrix_algebra
MODELS = [
    H(1),
    H(3),
    H(6),
    build_spin_factor(4),
    build_direct_sum([H(3), build_spin_factor(3)]),
    build_direct_sum([H(3), build_spin_factor(5)]),
]
WIDE = Tolerance(cluster_eps=9e-3)
CLUSTERED = [build_direct_sum([H(1, WIDE)] * 12), build_direct_sum([H(1, WIDE)] * 2)]


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _pairs_one_at_a_time(A, rng, size):
    pairs = [oracles.commuting_projection_pair_one_at_a_time(A, rng) for _ in range(size)]
    pairs = [pq for pq in pairs if pq is not None]
    return np.stack(pairs, axis=1) if pairs else np.zeros((2, 0, A.dim), dtype=complex)


@pytest.mark.parametrize("flavor", ["general", "self_adjoint"])
@pytest.mark.parametrize("A", MODELS, ids=lambda A: A.id)
def test_random_rows_equal_single_draws_bit_for_bit(A, flavor):
    rng, ref = _generators(11)
    singles = np.random.default_rng(11)
    for size in chunk_sizes(CHUNK + 5):
        got = _random_rows(A, rng, size, flavor)
        assert _same_bits(got, np.array([oracles.random_one_at_a_time(A, ref, flavor) for _ in range(size)]))
        assert _same_bits(got, np.array([_random(A, singles, flavor) for _ in range(size)]))
    assert rng.bit_generator.state == ref.bit_generator.state == singles.bit_generator.state


@pytest.mark.parametrize("A", MODELS, ids=lambda A: A.id)
def test_same_generator_pairs_equal_single_draws_bit_for_bit(A):
    rng, ref = _generators(12)
    for size in chunk_sizes(CHUNK + 5):
        got = samplers._same_generator_pair(A, rng, size)
        want = np.stack([oracles.same_generator_pair_one_at_a_time(A, ref) for _ in range(size)], axis=1)
        assert _same_bits(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("A", MODELS, ids=lambda A: A.id)
def test_commuting_projection_pairs_equal_single_draws_bit_for_bit(A):
    rng, ref = _generators(13)
    for size in chunk_sizes(CHUNK + 5):
        assert _same_bits(samplers._commuting_projection_pairs(A, rng, size), _pairs_one_at_a_time(A, ref, size))
    assert rng.bit_generator.state == ref.bit_generator.state


def _counted(monkeypatch, name):
    calls = []
    fn = getattr(samplers, name)
    monkeypatch.setattr(samplers, name, lambda *args: calls.append(1) or fn(*args))
    return calls


@pytest.mark.parametrize("A", CLUSTERED, ids=["12 x M1", "2 x M1"])
def test_clustered_projection_draws_take_the_one_element_form_on_the_same_stream(A, monkeypatch):
    # the 12-fold sum clusters in most draws; the 2-fold one in a few, and
    # those have a single node, so they are dropped (after their bits)
    fallbacks = _counted(monkeypatch, "_decompose")
    rng, ref = _generators(18)
    draws = dropped = 0
    for size in chunk_sizes(4 * CHUNK + 5):
        got = samplers._commuting_projection_pairs(A, rng, size)
        assert _same_bits(got, _pairs_one_at_a_time(A, ref, size))
        draws, dropped = draws + size, dropped + size - got.shape[1]
    assert rng.bit_generator.state == ref.bit_generator.state
    assert len(fallbacks) > (draws // 2 if A.rank == 12 else 0)
    assert dropped == (0 if A.rank == 12 else len(fallbacks))


@pytest.mark.parametrize("A", [H(5), MODELS[-1], CLUSTERED[0]], ids=lambda A: A.id)
def test_symmetric_difference_decomposes_each_chunk_once(A, monkeypatch):
    # one _decompose_rows per chunk, and _decompose only for a clustered row
    stacked, single = _counted(monkeypatch, "_decompose_rows"), _counted(monkeypatch, "_decompose")
    trials = 2 * CHUNK + 3
    rng = np.random.default_rng(17)
    clustered = 0
    for _ in range(trials):  # the draws one at a time, counting the clustered ones
        m = _decompose(A, oracles.random_one_at_a_time(A, rng, "self_adjoint"))[0].size
        clustered += m < A.rank
        for _ in range(2):  # the bits of p, then of q
            rng.integers(0, 2, size=A.rank)
    (rep,) = cli._suite_symmetric_difference(A, trials, 17)
    assert rep.passed and rep.trials == trials
    assert len(single) == clustered
    assert len(stacked) == len(chunk_sizes(trials))
    assert (clustered > 0) == (A.rank == 12)


def _triple_close(A, x, y, z):
    got, want = A._triple(x, y, z), AlgebraHandle._triple(A, x, y, z)
    assert got.shape == want.shape
    scale = 1.0 + A._norm(x) * A._norm(y) * A._norm(z)
    assert np.all(A._norm(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("n", range(1, 13))
def test_matrix_triple_product_matches_the_generic_formula(n):
    A = H(n)
    rng = np.random.default_rng(n)
    scales = np.array([1.0, 1e-3, 1e3, 1.0])[:, None]
    x, y, z = (scales * _random_rows(A, rng, 4) for _ in range(3))
    _triple_close(A, x[0], y[0], z[0])  # one element
    _triple_close(A, x, y, z)  # stacks
    # one element broadcast against stacks, in each slot
    _triple_close(A, x[0], y, z)
    _triple_close(A, x, y[1], z)
    _triple_close(A, x, y, z[2])
    _triple_close(A, x[3], y, x[3])
