import numpy as np
import pytest

from jbstar.errors import DegenerateInput
from jbstar.kernel import Tolerance, operator_norm, real_roots


def test_tolerance_validation():
    Tolerance()
    with pytest.raises(ValueError):
        Tolerance(abs_eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(cluster_eps=0.5)


def test_operator_norm_basics():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert abs(operator_norm(np.eye(5)) - 1.0) <= 1e-12
    assert abs(operator_norm(np.diag([3.0, -4.0])) - 4.0) <= 1e-12


def test_operator_norm_sub_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9
        assert operator_norm(a + b) <= operator_norm(a) + operator_norm(b) + 1e-9


def test_real_roots_examples():
    assert np.allclose(real_roots([-5.0, 1.0]), [5.0])
    # (x-1)(x-2) = 2 - 3x + x^2
    assert np.allclose(real_roots([2.0, -3.0, 1.0]), [1.0, 2.0])
    assert real_roots([1.0, 0.0, 1.0]) == []


def test_real_roots_degenerate():
    with pytest.raises(DegenerateInput):
        real_roots([1e-12, 1e-13])


def test_real_roots_recovers_linear_factors():
    rng = np.random.default_rng(2)
    for _ in range(50):
        roots = np.sort(rng.uniform(-3, 3, size=4))
        while np.min(np.diff(roots)) < 1e-3:
            roots = np.sort(rng.uniform(-3, 3, size=4))
        coeffs = np.polynomial.polynomial.polyfromroots(roots)
        got = real_roots(coeffs)
        assert len(got) == 4
        assert np.max(np.abs(np.array(got) - roots)) <= 1e-7


def test_real_roots_merges_clusters():
    # double root at 1 collapses to a single entry
    coeffs = np.polynomial.polynomial.polyfromroots([1.0, 1.0, 2.0])
    got = real_roots(coeffs)
    assert len(got) == 2
    assert np.allclose(got, [1.0, 2.0], atol=1e-6)
