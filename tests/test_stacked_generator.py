"""The stacked generator map and the stacked unitary log against their
one-element forms.

``preservers._generator`` takes a (k, dim) stack through one
``_decompose_rows``, one map call and one stacked ``unitary._unitary_log``;
each row must equal ``oracles.generator_one_at_a_time``, the one-element
loop, bit for bit, and each row of the stacked log the one-element log.  A
chunk with one bad row raises what that row raises alone.
"""

import numpy as np
import pytest

from jbstar import preservers
from jbstar.algebras import Element, _random, element_to_json, build_direct_sum, build_hermitian_matrix_algebra, build_spin_factor
from jbstar.calculus import _abelian_rows, _exp_i
from jbstar.errors import BranchAmbiguity, Inconsistent, NotUnitary, VerificationFailed
from jbstar.preservers import MapUnderTest, check_generator_properties, map_from_descriptor
from jbstar.unitary import _unitary_log

import oracles

H3 = build_hermitian_matrix_algebra(3)
S4 = build_spin_factor(4)
H3S3 = build_direct_sum([H3, build_spin_factor(3)])
M6 = build_hermitian_matrix_algebra(6)
MODELS = [H3, S4, H3S3, M6]


def _identity(A):
    f = lambda a: a
    return MapUnderTest(A, A, f, label="identity", inverse=f)


def _self_adjoint_rows(A, seed):
    """Random self-adjoint rows, one of them 40 times larger (t = 1/||x||),
    one central (clustered nodes: a scalar spin summand, a repeated
    eigenvalue) and one zero."""
    rng = np.random.default_rng(seed)
    rows = [_random(A, rng, "self_adjoint") for _ in range(4)]
    rows[1] = 40.0 * rows[1]
    return np.stack(rows + [0.7 * A.unit.coords, np.zeros(A.dim, dtype=complex)])


def _unitary_rows(A, seed):
    """Random unitaries, one with clustered nodes and one with its spectrum
    at -1: 1 - 2p for a projection p."""
    rng = np.random.default_rng(seed)
    rows = [_random(A, rng, "unitary") for _ in range(3)]
    p = _random(A, rng, "projection")
    clustered = _exp_i(A, 0.3 * A.unit.coords, 1.0)
    return np.stack(rows + [clustered, A.unit.coords - 2.0 * p])


@pytest.mark.parametrize("A", MODELS, ids=lambda A: A.id)
def test_the_stacked_log_equals_the_one_element_log_bit_for_bit(A):
    x = _unitary_rows(A, 1)
    assert _abelian_rows(A, x, False)[2][3]  # the central row's nodes are near
    h, ambiguous = _unitary_log(A, x)
    want = [_unitary_log(A, row) for row in x]
    assert np.array_equal(h, np.stack([w[0] for w in want]))
    assert ambiguous.tolist() == [w[1] for w in want]
    assert ambiguous.tolist() == [False, False, False, False, True]


@pytest.mark.parametrize("A", MODELS, ids=lambda A: A.id)
def test_the_stacked_generator_equals_the_one_element_loop_bit_for_bit(A):
    star = map_from_descriptor({"kind": "star"}, A)
    desc = {"kind": "exp_form", "c": element_to_json(2.0 * A.unit), "theta": {"kind": "identity"}}
    exp_form = map_from_descriptor(desc, A)
    x = _self_adjoint_rows(A, 2)
    for m in (_identity(A), star, exp_form):
        got = preservers._generator(m, x)
        want = np.stack([oracles.generator_one_at_a_time(m, row) for row in x])
        assert np.array_equal(got, want), m.label
        one = preservers.derive_generator_map(m, A.element(x[1]))
        assert np.array_equal(one.coords, want[1])


@pytest.mark.parametrize("A", MODELS, ids=lambda A: A.id)
def test_check_generator_properties_equals_the_one_draw_at_a_time_check(A, monkeypatch):
    # the same check with _generator replaced by the one-element loop row by row
    m = _identity(A)
    stacked = check_generator_properties(m, trials=9, seed=3).to_json()
    loop = lambda mp, x: np.stack([oracles.generator_one_at_a_time(mp, row) for row in x])
    monkeypatch.setattr(preservers, "_generator", loop)
    assert stacked == check_generator_properties(m, trials=9, seed=3).to_json()


# -- a chunk with one bad row raises what that row raises alone -------------------


def _raises_as_alone(call_stack, call_row, error):
    with pytest.raises(error) as alone:
        call_row()
    with pytest.raises(error) as stacked:
        call_stack()
    assert type(stacked.value) is type(alone.value) is error
    assert str(stacked.value) == str(alone.value)


def _on_the_unit(A, image):
    """A map that is the identity but on the unit, the exponential of the
    zero row, which it sends to ``image``."""
    f = lambda a: Element(A.id, image) if np.array_equal(a.coords, A.unit.coords) else a
    return MapUnderTest(A, A, f, label="on-the-unit")


@pytest.mark.parametrize("A", [H3, S4, H3S3], ids=lambda A: A.id)
def test_a_non_unitary_row_of_the_stacked_log(A):
    x = _unitary_rows(A, 4)
    x[2] = 2.0 * x[2]
    _raises_as_alone(lambda: _unitary_log(A, x), lambda: _unitary_log(A, x[2]), NotUnitary)
    x[3] = 3.0 * x[3]  # a later bad row does not change which one raises
    _raises_as_alone(lambda: _unitary_log(A, x), lambda: _unitary_log(A, x[2]), NotUnitary)


@pytest.mark.parametrize("A", [H3, S4, H3S3], ids=lambda A: A.id)
def test_a_failing_round_trip_row_of_the_stacked_log(A, monkeypatch):
    x = _unitary_rows(A, 5)
    shift = np.zeros(A.dim, dtype=complex)
    shift[0] = 1e-3

    def broken(B, h, t):  # the round trip of the row x[2] fails
        u = _exp_i(B, h, t)
        return u + shift if u.ndim == 1 else u + np.array([0, 0, 1, 0, 0])[:, None] * shift

    monkeypatch.setattr("jbstar.unitary._exp_i", broken)
    _raises_as_alone(lambda: _unitary_log(A, x), lambda: _unitary_log(A, x[2]), VerificationFailed)


@pytest.mark.parametrize("A", [H3, S4, H3S3], ids=lambda A: A.id)
def test_a_non_unitary_image_row_of_the_stacked_generator(A):
    m = _on_the_unit(A, 2.0 * A.unit.coords)
    x = _self_adjoint_rows(A, 6)[[0, 5, 2]]  # the zero row between two others
    call_row = lambda: oracles.generator_one_at_a_time(m, x[1])
    _raises_as_alone(lambda: preservers._generator(m, x), call_row, NotUnitary)


@pytest.mark.parametrize("A", [H3, S4, H3S3], ids=lambda A: A.id)
def test_a_branch_ambiguous_row_of_the_stacked_generator(A):
    m = _on_the_unit(A, -A.unit.coords)
    x = _self_adjoint_rows(A, 7)[[0, 5, 2]]
    call_row = lambda: oracles.generator_one_at_a_time(m, x[1])
    _raises_as_alone(lambda: preservers._generator(m, x), call_row, BranchAmbiguity)


@pytest.mark.parametrize("A", [H3, S4, H3S3], ids=lambda A: A.id)
def test_an_inconsistent_row_of_the_stacked_generator(A):
    # Phi(exp(i h)) = exp(i (h + h o h)) moves the generator by (t/2) a o a
    # when t halves: past the gate for a row of norm 1, not for rows of 1e-6
    def rows(u):
        h = _unitary_log(A, u)[0]
        return _exp_i(A, h + A._prod(h, h), 1.0)

    f = lambda a: Element(A.id, rows(a.coords))
    f.rows = rows
    m = MapUnderTest(A, A, f, label="drifting")
    x = _self_adjoint_rows(A, 8)[:3]
    x[[0, 2]] *= 1e-6 / A._norm(x[[0, 2]])[:, None]
    x[1] /= A._norm(x[1])
    small = x[[0, 2]]
    want = np.stack([oracles.generator_one_at_a_time(m, r) for r in small])
    assert np.array_equal(preservers._generator(m, small), want)
    call_row = lambda: oracles.generator_one_at_a_time(m, x[1])
    _raises_as_alone(lambda: preservers._generator(m, x), call_row, Inconsistent)
