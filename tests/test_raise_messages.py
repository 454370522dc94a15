"""The exception type and full message of every raising site of the
preserver checks that no other test reaches: each test builds a map that
breaks one hypothesis and pins what the check raises."""

import pytest

from jbstar.algebras import Element, build_hermitian_matrix_algebra, random_element
from jbstar.calculus import exp_i
from jbstar.errors import HypothesisFailed, Inconsistent, NonUnitaryImage, PreconditionFailed
from jbstar.peirce import is_tripotent
from jbstar.preservers import (
    MapUnderTest,
    check_central_preservation,
    check_i_unit_image,
    check_oc_additive,
    check_oc_quadratic,
    check_piecewise_hom_on_unitaries,
    derive_generator_map,
    recover_structure,
    verify_unitary_preserver_form,
)
from jbstar.unitary import unitary_log

H3 = build_hermitian_matrix_algebra(3)


def _map(f, inverse=None, label="pinned"):
    return MapUnderTest(H3, H3, lambda a: Element(H3.id, f(a.coords)), label=label, inverse=inverse)


def _identity(with_inverse=True):
    f = lambda a: Element(H3.id, a.coords)
    return MapUnderTest(H3, H3, f, label="identity", inverse=f if with_inverse else None)


def _raises(error, message, call):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


# -- the generator's halving check -----------------------------------------------


def test_a_generator_that_moves_when_t_halves_is_inconsistent():
    # Phi(exp(i h)) = exp(i (h + h o h)): the generator read off at t is
    # a + t a o a, so halving t moves it by (t/2) a o a
    def phi(u):
        h = unitary_log(H3, u).h.coords
        return exp_i(H3, H3.element(h + H3._prod(h, h)), 1.0)

    m = MapUnderTest(H3, H3, phi, label="drifting")
    a = random_element(H3, 4, "self_adjoint")
    step = (1.0 / 16.0) / max(1.0, (1.0 / 16.0) * H3._norm(a.coords))

    def generator(t):
        return (1.0 / t) * unitary_log(H3, phi(exp_i(H3, a, t))).h.coords

    dev = H3._norm(generator(step) - generator(step / 2.0))
    assert dev > 1e-3
    _raises(Inconsistent, f"halving t_small moved the generator by {dev:.3e}", lambda: derive_generator_map(m, a))


# -- verify_unitary_preserver_form ----------------------------------------------


def test_the_preserver_form_needs_an_inverse_of_theta():
    message = "theta must carry an inverse for the second closed form"
    call = lambda: verify_unitary_preserver_form(
        _identity(), _identity(with_inverse=False), lambda a: H3.zero(), H3.unit, trials=2
    )
    _raises(PreconditionFailed, message, call)


def test_the_preserver_form_refuses_a_non_central_c():
    c = random_element(H3, 5, "self_adjoint")
    call = lambda: verify_unitary_preserver_form(_identity(), _identity(), lambda a: H3.zero(), c, trials=2)
    _raises(PreconditionFailed, "c is not central self-adjoint", call)


def test_the_preserver_form_refuses_a_non_invertible_c():
    call = lambda: verify_unitary_preserver_form(_identity(), _identity(), lambda a: H3.zero(), H3.zero(), trials=2)
    _raises(PreconditionFailed, "c is not invertible", call)


def test_the_preserver_form_refuses_a_non_central_beta():
    beta = lambda a: a
    call = lambda: verify_unitary_preserver_form(_identity(), _identity(), beta, H3.unit, trials=2)
    _raises(PreconditionFailed, "beta(a) is not central self-adjoint", call)


# -- check_central_preservation -------------------------------------------------


def test_central_preservation_needs_an_inverse():
    call = lambda: check_central_preservation(_identity(with_inverse=False), trials=2)
    _raises(PreconditionFailed, "central-preservation check needs a supplied inverse", call)


def test_central_preservation_refuses_an_inverse_that_fails_the_round_trip():
    m = _map(lambda x: x, inverse=lambda a: Element(H3.id, 2.0 * a.coords))
    _raises(PreconditionFailed, "supplied inverse fails the round trip", lambda: check_central_preservation(m, trials=2))


# -- the unit's image ------------------------------------------------------------


def test_piecewise_check_refuses_a_non_unitary_image_of_the_unit():
    call = lambda: check_piecewise_hom_on_unitaries(_map(lambda x: 2.0 * x), trials=2)
    _raises(NonUnitaryImage, "image of the unit is not unitary", call)


def test_i_unit_image_needs_a_tripotent_image_of_the_unit():
    _raises(HypothesisFailed, "Phi(1) is not a tripotent", lambda: check_i_unit_image(_map(lambda x: 2.0 * x), trials=2))


# -- recover_structure's hypotheses ---------------------------------------------


def test_recover_structure_refuses_a_map_that_is_not_oc_additive():
    m = _map(lambda x: H3._prod(x, x))
    residual = check_oc_additive(m, 20, 0, pass_tol=1e-6).max_residual
    assert residual > 1e-6
    message = f"OC-additivity fails (residual {residual:.3e})"
    _raises(HypothesisFailed, message, lambda: recover_structure(m, trials=20, seed=0))


def test_recover_structure_refuses_a_map_that_is_not_oc_quadratic():
    m = _map(lambda x: 2.0 * x)
    residual = check_oc_quadratic(m, 20, 1, pass_tol=1e-6).max_residual
    assert residual > 1e-6
    message = f"OC-quadratic identity fails (residual {residual:.3e})"
    _raises(HypothesisFailed, message, lambda: recover_structure(m, trials=20, seed=0))


def test_recover_structure_refuses_a_non_tripotent_image_of_the_unit():
    # (1 + 1e-8) x passes both OC checks at 1e-6, but (1 + 1e-8) 1 is no tripotent
    m = _map(lambda x: (1.0 + 1e-8) * x)
    trip = is_tripotent(H3, H3.element((1.0 + 1e-8) * H3.unit.coords))
    assert not trip
    message = f"Phi(1) is not a tripotent (residual {trip.residual:.3e})"
    _raises(HypothesisFailed, message, lambda: recover_structure(m, trials=20, seed=0))
