import ast
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import jbstar.samplers as samplers
from jbstar.algebras import (
    Element,
    _random,
    SpinFactor,
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    element_to_json,
    involution,
    jbstar_norm,
    random_element,
)
from jbstar.calculus import exp_i, is_self_adjoint, u_operator
from jbstar.cli import RunConfig, run
from jbstar.kernel import Tolerance
from jbstar.measures import vectorize_map, verify_linearity_theorem
from jbstar.errors import (
    JBStarError,
    NonUnitaryImage,
    NotAFactor,
    ParamOutOfRange,
    PreconditionFailed,
    SamplerViolation,
)
from jbstar.preservers import (
    MapUnderTest,
    _spin_u_closed_form,
    build_spin_counterexample,
    check_central_preservation,
    check_generator_properties,
    check_i_unit_image,
    check_oc_additive,
    check_oc_quadratic,
    check_piecewise_hom_on_unitaries,
    classify_factor_dichotomy,
    derive_generator_map,
    map_from_descriptor,
    recover_structure,
    verify_counterexample,
    verify_jordan_star_isomorphism,
    verify_unitary_preserver_form,
)
from jbstar.unitary import is_unitary, oc_unitary_equivalences_check, oc_unitary_product_check

import oracles


H2 = build_hermitian_matrix_algebra(2)
H3 = build_hermitian_matrix_algebra(3)
S3 = build_spin_factor(3)
HH = build_direct_sum([H3, H3])
H3S3 = build_direct_sum([H3, S3])


def identity_map(A):
    f = lambda a: Element(A.id, a.coords)
    return MapUnderTest(A, A, f, label="identity", inverse=f)


def conjugation_map(A, seed):
    w = random_element(A, seed, "unitary")
    return map_from_descriptor({"kind": "theta_conjugation", "w": element_to_json(w)}, A)


def test_check_oc_additive_linear_map_passes():
    theta = conjugation_map(H3, 1)
    rep = check_oc_additive(theta, trials=50, seed=2)
    assert rep.passed, rep.max_residual


def test_check_oc_additive_squaring_fails_with_witness():
    # coordinatewise squaring in the matrix entries is not additive
    def sq(a):
        return H2.element(a.coords**2)

    m = MapUnderTest(H2, H2, sq, label="entrywise-square")
    rep = check_oc_additive(m, trials=40, seed=3)
    assert not rep.passed
    assert rep.witness is not None


# every consumer of samplers._draw_oc_pair, the only operator-commuting draw
OC_DRAW_CONSUMERS = {
    "check_oc_additive": lambda: check_oc_additive(identity_map(H3), trials=5, seed=4),
    "check_oc_quadratic": lambda: check_oc_quadratic(identity_map(H3), trials=5, seed=4),
    "recover_structure": lambda: recover_structure(identity_map(H3), trials=5, seed=4),
    "check_piecewise_hom_on_unitaries": lambda: check_piecewise_hom_on_unitaries(
        identity_map(H3), trials=5, seed=4
    ),
    "check_generator_properties": lambda: check_generator_properties(
        identity_map(H3), trials=5, seed=4
    ),
    "verify_linearity_theorem": lambda: verify_linearity_theorem(
        H3, vectorize_map(identity_map(H3).eval), trials=10, seed=4
    ),
    "oc_unitary_product_check": lambda: oc_unitary_product_check(H3, 5, 4),
    "oc_unitary_equivalences_check": lambda: oc_unitary_equivalences_check(H3, 5, 4),
}


@pytest.mark.parametrize("consumer", sorted(OC_DRAW_CONSUMERS))
def test_oc_draw_consumers_refuse_a_non_commuting_pair(monkeypatch, consumer):
    # a non-commuting draw raises in every consumer; none is skipped
    noncommuting = lambda B, r, k: np.stack([samplers._noncommuting_pair(B, r) for _ in range(k)], axis=1)
    monkeypatch.setattr(samplers, "_same_generator_pair", noncommuting)
    with pytest.raises(SamplerViolation):
        OC_DRAW_CONSUMERS[consumer]()


def test_oc_draw_consumers_are_all_listed():
    src = Path(samplers.__file__).resolve().parent
    callers = set()
    for path in src.glob("*.py"):
        for fn in ast.parse(path.read_text()).body:
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Name) and node.id == "_draw_oc_pair" for node in ast.walk(fn)
            ):
                callers.add(fn.name)
    # the two OC checks draw through _oc_pair_check
    callers.discard("_oc_pair_check")
    assert callers | {"check_oc_additive", "check_oc_quadratic"} == set(OC_DRAW_CONSUMERS)


def test_check_oc_quadratic_identity_and_negation():
    rep = check_oc_quadratic(identity_map(H3), trials=40, seed=5)
    assert rep.passed
    neg = MapUnderTest(H3, H3, lambda a: -1.0 * a, label="negate")
    rep = check_oc_quadratic(neg, trials=40, seed=6)
    assert rep.passed  # U_{-a}(-b) = -U_a(b)


def test_check_oc_quadratic_starred_variant():
    # full-algebra variant Phi(U_a(b*)) = U_{Phi(a)}(Phi(b)*) on a
    # star-compatible isomorphism
    theta = conjugation_map(H3, 50)
    rep = check_oc_quadratic(theta, trials=40, seed=51, starred=True)
    assert rep.passed and rep.details["starred"]


def test_piecewise_hom_on_unitaries():
    theta = conjugation_map(H3, 7)
    rep = check_piecewise_hom_on_unitaries(theta, trials=25, seed=8)
    assert rep.passed
    assert rep.details["unit_residual"] <= 1e-9
    star = map_from_descriptor({"kind": "star"}, H3)
    rep = check_piecewise_hom_on_unitaries(star, trials=25, seed=9)
    assert rep.passed


def test_non_finite_map_output_fails_at_the_boundary():
    # a map's output becomes an element, which validates its coordinates
    blowup = MapUnderTest(H2, H2, lambda a: Element(H2.id, a.coords / 0.0), label="blowup")
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            blowup(H2.unit)
        with pytest.raises(ValueError, match="finite"):
            check_piecewise_hom_on_unitaries(blowup, trials=3, seed=1)


def test_inverse_of_the_wrong_algebra_fails_at_the_boundary():
    # an inverse is a map call too: the algebra of its output is checked
    # where it returns, not later by an arithmetic mismatch
    f = lambda a: Element(H3.id, a.coords)
    wrong = MapUnderTest(H3, H3, f, label="wrong-inverse", inverse=lambda a: H2.unit)
    with pytest.raises(PreconditionFailed, match="wrong-inverse"):
        recover_structure(wrong, trials=5, seed=1)
    with pytest.raises(PreconditionFailed, match="wrong-inverse"):
        verify_jordan_star_isomorphism(wrong, trials=5, seed=2)


def test_output_of_the_wrong_size_fails_at_the_boundary():
    # the coordinate shape of an output, and of an inverse's output, is
    # checked where it returns, not later by a numpy reshape
    short = lambda a: Element(H3.id, np.zeros(4))
    m = MapUnderTest(H3, H3, short, label="short-output")
    for check in (check_oc_additive, recover_structure):
        with pytest.raises(PreconditionFailed, match="short-output"):
            check(m, trials=5, seed=1)
    m = MapUnderTest(H3, H3, lambda a: a, label="short-inverse", inverse=short)
    with pytest.raises(PreconditionFailed, match="short-inverse"):
        recover_structure(m, trials=5, seed=1)


def test_theta_between_other_algebras_is_refused():
    # theta is evaluated on the coordinates of Phi's elements, so it must map
    # between the same two algebras
    m, theta = identity_map(H3), identity_map(H2)
    with pytest.raises(PreconditionFailed, match="algebras of Phi"):
        classify_factor_dichotomy(m, theta, trials=5, seed=3)
    with pytest.raises(PreconditionFailed, match="algebras of Phi"):
        verify_unitary_preserver_form(m, theta, lambda a: H3.zero(), H3.unit, trials=5, seed=4)


def test_piecewise_hom_on_direct_sum_source():
    w = random_element(HH, 44, "unitary")
    theta = map_from_descriptor({"kind": "theta_conjugation", "w": element_to_json(w)}, HH)
    rep = check_piecewise_hom_on_unitaries(theta, trials=15, seed=45)
    assert rep.passed, rep.max_residual


def test_piecewise_hom_negative_control():
    # a fixed non-symmetry unitary conjugation breaks multiplicativity on
    # operator-commuting pairs (w^2 is not central)
    w = random_element(H2, 10, "unitary")

    def uw(a):
        return u_operator(H2, w, a)

    m = MapUnderTest(H2, H2, uw, label="u-w-conjugate")
    rep = check_piecewise_hom_on_unitaries(m, trials=25, seed=11)
    assert not rep.passed


def test_derive_generator_map():
    a = random_element(H3, 12, "self_adjoint")
    got = derive_generator_map(identity_map(H3), a)
    assert jbstar_norm(H3, got - a) <= 1e-7 * (1 + jbstar_norm(H3, a))
    star = map_from_descriptor({"kind": "star"}, H3)
    got = derive_generator_map(star, a)
    assert jbstar_norm(H3, got + a) <= 1e-7 * (1 + jbstar_norm(H3, a))
    theta = conjugation_map(H3, 13)
    got = derive_generator_map(theta, a)
    assert jbstar_norm(H3, got - theta.eval(a)) <= 1e-7 * (1 + jbstar_norm(H3, a))


@pytest.mark.parametrize("seed", [13, 18])
def test_generator_properties_on_large_spin_generators(seed):
    # these seeds draw generators whose spin summand has norm above 16 pi:
    # a log taken at t = 1/16 would cross the branch cut
    rep = check_generator_properties(identity_map(H3S3), trials=20, seed=seed)
    assert rep.passed, rep.max_residual


@pytest.mark.parametrize("A", [H3, build_spin_factor(4), H3S3], ids=lambda A: A.id)
def test_derive_generator_map_of_a_large_element(A):
    a = random_element(A, 17, "self_adjoint")
    a = (60.0 / jbstar_norm(A, a)) * a
    got = derive_generator_map(identity_map(A), a)
    assert jbstar_norm(A, got - a) <= 1e-9 * 60.0


def test_check_generator_properties_positive_and_negative():
    theta = conjugation_map(H3, 14)
    rep = check_generator_properties(theta, trials=8, seed=15)
    assert rep.passed
    assert abs(rep.details["bound_estimate"] - 1.0) <= 1e-6

    # 1-homogeneous angle warp of two traceless self-adjoint coordinates:
    # the generator family is consistent in t but not additive on
    # operator-commuting pairs
    from jbstar.algebras import sa_coords, sa_from_coords, selfadjoint_basis
    from jbstar.unitary import unitary_log

    basis = selfadjoint_basis(H3)
    u0 = sa_coords(H3, H3.unit, basis)
    u0 = u0 / np.linalg.norm(u0)
    Q, _ = np.linalg.qr(np.column_stack([u0, np.eye(len(u0))]))

    def warp_sa(h):
        q = Q.T @ sa_coords(H3, h, basis)
        r = math.hypot(q[1], q[2])
        if r > 0:
            phi = math.atan2(q[2], q[1]) + 0.3 * math.sin(2 * math.atan2(q[2], q[1]))
            q[1], q[2] = r * math.cos(phi), r * math.sin(phi)
        return sa_from_coords(H3, Q @ q, basis)

    def phi(u):
        return exp_i(H3, warp_sa(unitary_log(H3, u).h), 1.0)

    m = MapUnderTest(H3, H3, phi, label="nonlinear-warp")
    rep = check_generator_properties(m, trials=8, seed=16)
    assert not rep.passed
    assert rep.witness is not None


def test_verify_jordan_star_isomorphism_rejects_phase_twist():
    theta = conjugation_map(H3, 17)
    assert verify_jordan_star_isomorphism(theta, trials=10, seed=18) <= 1e-9
    twisted = MapUnderTest(
        H3, H3, lambda a: np.exp(1j * np.pi / 4) * theta.eval(a), label="phase-twist"
    )
    with pytest.raises(PreconditionFailed):
        verify_jordan_star_isomorphism(twisted, trials=10, seed=19)


def test_verify_unitary_preserver_form_exp_identity():
    # beta = 0, c = 1, theta = identity: Phi is the exponential itself
    theta = identity_map(H3)
    m = MapUnderTest(H3, H3, lambda u: Element(H3.id, u.coords), label="exp-identity")
    rep = verify_unitary_preserver_form(
        m, theta, beta=lambda a: H3.zero(), c=H3.unit, trials=20, seed=20
    )
    assert rep.passed, rep.max_residual


def test_verify_unitary_preserver_form_trace_beta():
    # Phi built from the closed form itself; the check compares two
    # independent evaluation paths of the same formula
    desc = {
        "kind": "exp_form",
        "beta": {"kind": "scaled_trace", "scale": 0.25},
        "c": element_to_json(H3.unit),
        "theta": {"kind": "identity"},
    }
    m = map_from_descriptor(desc, H3)
    theta = identity_map(H3)

    def beta(a):
        return (0.25 * float(np.trace(oracles.to_matrix(H3, a)).real)) * H3.unit

    rep = verify_unitary_preserver_form(m, theta, beta=beta, c=H3.unit, trials=20, seed=21)
    assert rep.passed, rep.max_residual


def test_verify_unitary_preserver_form_scalar_c():
    # c = 2*1: Phi(e^{ia}) = theta(e^{2ia})
    theta = conjugation_map(H2, 22)

    def phi(u):
        from jbstar.unitary import unitary_log

        h = unitary_log(H2, u).h
        return theta.eval(exp_i(H2, h, 2.0))

    m = MapUnderTest(H2, H2, phi, label="double-angle")
    rep = verify_unitary_preserver_form(
        m, theta, beta=lambda a: H2.zero(), c=2.0 * H2.unit, trials=20, seed=23
    )
    assert rep.passed, rep.max_residual


def test_classify_factor_dichotomy():
    theta = conjugation_map(H3, 24)
    phi_inv = MapUnderTest(
        H3, H3, lambda a: theta.eval(involution(H3, a)), label="theta-star"
    )
    assert classify_factor_dichotomy(theta, theta, trials=30, seed=25).label == "identity_case"
    assert classify_factor_dichotomy(phi_inv, theta, trials=30, seed=25).label == "inverse_case"
    twisted = MapUnderTest(
        H3, H3, lambda a: np.exp(1j * np.pi / 4) * theta.eval(a), label="phase-twist"
    )
    assert classify_factor_dichotomy(twisted, theta, trials=30, seed=25).label == "neither"


def test_classify_factor_dichotomy_requires_nonspin_factor():
    with pytest.raises(NotAFactor):
        classify_factor_dichotomy(identity_map(HH), identity_map(HH), trials=5, seed=26)
    with pytest.raises(NotAFactor):
        classify_factor_dichotomy(identity_map(S3), identity_map(S3), trials=5, seed=26)


def test_recover_structure_isomorphism():
    theta = conjugation_map(H3, 27)
    rec = recover_structure(theta, trials=40, seed=28)
    assert jbstar_norm(H3, rec.w - H3.unit) <= 1e-9
    assert rec.hom_residual <= 1e-8
    assert rec.linearity_residual <= 1e-8
    assert rec.w_central_symmetry is True
    assert rec.details["isometry_residual"] <= 1e-9


def test_recover_structure_projects_through_the_inverse_map():
    # lambda -> lambda e for a minimal projection e of spin(4): the Peirce-2
    # algebra of e is M_1, embedded by lambda -> lambda e, not isometric in
    # the coordinates (|e|^2 = 1/2), so its adjoint would halve every value
    M1, S4 = build_hermitian_matrix_algebra(1), build_spin_factor(4)
    e = 0.5 * (S4.unit.coords + 1j * np.eye(4)[1])
    m = MapUnderTest(M1, S4, lambda a: S4.element(a.coords[0] * e), label="minimal-line")
    rec = recover_structure(m, trials=40, seed=31)
    assert rec.peirce2.dim == 1
    assert rec.hom_residual <= 1e-12
    assert rec.details["isometry_residual"] <= 1e-12


def test_recover_structure_central_symmetry_flip():
    def flip(a):
        c = a.coords.copy()
        c[9:] = -c[9:]
        return HH.element(c)

    m = MapUnderTest(HH, HH, flip, label="flip-second-summand", inverse=flip)
    rec = recover_structure(m, trials=40, seed=29)
    s = HH.unit - 2.0 * HH.element(np.concatenate([np.zeros(9), np.eye(3).ravel()]))
    assert jbstar_norm(HH, rec.w - s) <= 1e-12
    assert rec.hom_residual <= 1e-8
    assert rec.w_central_symmetry is True


def test_recover_structure_counterexample_linearity_fails():
    cx = build_spin_counterexample(3, 0.3)
    rec = recover_structure(cx.map, trials=60, seed=30)
    assert rec.hom_residual <= 1e-8
    assert rec.linearity_residual >= 0.05


def test_build_spin_counterexample_basics():
    cx = build_spin_counterexample(3, 0.3)
    V, m = cx.algebra, cx.map
    assert jbstar_norm(V, m.eval(V.zero())) <= 1e-15
    rng = np.random.default_rng(31)
    for _ in range(10):
        t = rng.standard_normal(2)
        h = V.element(np.concatenate([[0.0 + 0j], 1j * t]))
        fh = m.eval(h)
        assert abs(jbstar_norm(V, fh) - jbstar_norm(V, h)) <= 1e-12
        for tau in (-2.0, -1.0, 0.5, 3.0):
            assert (
                jbstar_norm(V, m.eval(tau * h) - tau * fh)
                <= 1e-10 * (1 + abs(tau)) * (1 + jbstar_norm(V, h))
            )
    e1 = V.element([0.0, 1j, 0.0])
    e2 = V.element([0.0, 0.0, 1j])
    gap = jbstar_norm(V, m.eval(e1) + m.eval(e2) - m.eval(e1 + e2))
    assert gap >= 0.1


def test_build_spin_counterexample_param_validation():
    with pytest.raises(ParamOutOfRange):
        build_spin_counterexample(2, 0.3)
    with pytest.raises(ParamOutOfRange):
        build_spin_counterexample(3, 0.6)


def test_spin_counterexample_map_runs_on_the_source_tolerance():
    tol = Tolerance(abs_eps=1e-3)
    m = map_from_descriptor({"kind": "spin_counterexample", "epsilon": 0.2}, SpinFactor(4, tol))
    assert m.source.tol == tol and m.target.tol == tol
    assert build_spin_counterexample(4, 0.2, tol).algebra.tol == tol


def test_spin_u_closed_form_consistency():
    V = build_spin_factor(3)
    rng = np.random.default_rng(32)
    for _ in range(10):
        alpha, s, t = (float(x) for x in rng.standard_normal(3))
        h = V.element(np.concatenate([[0.0 + 0j], 1j * rng.standard_normal(2)]))
        a = alpha * V.unit + h
        b = (t + s * alpha) * V.unit + s * h
        closed = V.element(_spin_u_closed_form(V, [alpha], [s], [t], h.coords[None])[0])
        assert jbstar_norm(V, u_operator(V, a, b) - closed) <= 1e-10


def test_verify_counterexample():
    cx = build_spin_counterexample(3, 0.3)
    rep = verify_counterexample(cx, trials=200, seed=33)
    assert rep.passed
    assert all(rep.details["verdicts"].values())
    assert rep.details["witness_gap"] >= 0.1


def test_verify_counterexample_checks_the_round_trip_at_one_trial():
    # trials // 5 is 0 below 5 trials; at least one round-trip draw still runs
    cx = build_spin_counterexample(3, 0.3)
    V = cx.algebra
    assert verify_counterexample(cx, trials=1, seed=0).details["verdicts"]["bijective_on_samples"]
    broken = dataclasses.replace(cx.map, inverse=lambda a: V.element(2 * a.coords))
    rep = verify_counterexample(dataclasses.replace(cx, map=broken), trials=1, seed=0)
    assert not rep.details["verdicts"]["bijective_on_samples"]
    assert not rep.passed


def test_check_central_preservation_positive():
    theta = conjugation_map(HH, 34)
    rep = check_central_preservation(theta, trials=15, seed=35)
    assert rep.passed, rep.max_residual
    star = map_from_descriptor({"kind": "star"}, HH)
    rep = check_central_preservation(star, trials=15, seed=36)
    assert rep.passed


def test_check_central_preservation_negative():
    # a linear bijection leaking the H1 summand into the off-diagonal of the
    # H2 summand moves central unitaries off centre
    mix = build_direct_sum([H2, build_hermitian_matrix_algebra(1)])

    def leak(a):
        c = a.coords.copy()
        c[1] = c[1] + c[4]
        return mix.element(c)

    def unleak(a):
        c = a.coords.copy()
        c[1] = c[1] - c[4]
        return mix.element(c)

    m = MapUnderTest(mix, mix, leak, label="centre-leak", inverse=unleak)
    rep = check_central_preservation(m, trials=15, seed=37)
    assert not rep.passed


def test_check_i_unit_image():
    # complex-linear isomorphism: z = unit, trivially central
    theta = conjugation_map(H3, 38)
    rep = check_i_unit_image(theta, trials=10, seed=39)
    assert rep.passed, rep.details
    # conjugate-linear on the second summand: z = (1, 0)
    def halfconj(a):
        c = a.coords.copy()
        c[9:] = np.conj(c[9:].reshape(3, 3)).T.ravel()  # transpose-conjugate = star
        return HH.element(c)

    m = MapUnderTest(HH, HH, halfconj, label="second-summand-star", inverse=halfconj)
    rep = check_i_unit_image(m, trials=10, seed=40)
    assert rep.passed, rep.details


def test_map_descriptor_composition_order():
    # composition applies rightmost first
    w = random_element(H2, 41, "unitary")
    desc = {
        "kind": "composition",
        "maps": [{"kind": "theta_conjugation", "w": element_to_json(w)}, {"kind": "star"}],
    }
    m = map_from_descriptor(desc, H2)
    a = random_element(H2, 42)
    theta = map_from_descriptor({"kind": "theta_conjugation", "w": element_to_json(w)}, H2)
    want = theta.eval(involution(H2, a))
    assert np.allclose(m.eval(a).coords, want.coords)
    assert m.inverse is not None
    assert jbstar_norm(H2, m.inverse(m.eval(a)) - a) <= 1e-10


def test_map_descriptor_transpose_is_isomorphism():
    m = map_from_descriptor({"kind": "transpose"}, H3)
    assert verify_jordan_star_isomorphism(m, trials=10, seed=43) <= 1e-9


def test_spin_counterexample_descriptor():
    m = map_from_descriptor({"kind": "spin_counterexample", "epsilon": 0.3}, S3)
    h = S3.element([0.0, 1j, 0.0])
    assert is_self_adjoint(S3, m.eval(h))
    with pytest.raises(PreconditionFailed):
        map_from_descriptor({"kind": "spin_counterexample", "epsilon": 0.3}, H2)


def _guarded_reports(tmp_path):
    """Reports of the map-driven suites and checks, exceptions by name."""
    paths = {}
    for name, doc in {
        "H3": {"kind": "hermitian_matrix", "n": 3},
        "S4": {"kind": "spin", "n": 4},
        "transpose": {"kind": "transpose"},
        "star": {"kind": "star"},
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    runs = [
        (suite, alg, mp)
        for alg, mp in (("H3", "transpose"), ("S4", "star"))
        for suite in ("structure-recovery", "preserver", "factor-dichotomy", "linearity")
    ] + [("counterexample", "S4", None)]
    out = []
    for suite, alg, mp in runs:
        cfg = RunConfig(suite, str(paths[alg]), mp and str(paths[mp]), trials=20, seed=42)
        try:
            doc, status = run(cfg)
        except JBStarError as exc:
            out.append(type(exc).__name__)
            continue
        doc = {k: v for k, v in doc.items() if k not in ("generated_at", "duration_s")}
        out.append((status, json.dumps(doc, sort_keys=True)))
    theta = conjugation_map(H3, 38)
    out += [
        verify_jordan_star_isomorphism(theta, trials=5, seed=1),
        verify_unitary_preserver_form(
            identity_map(H3), theta, beta=lambda a: H3.zero(), c=H3.unit, trials=5, seed=2
        ).to_json(),
        check_central_preservation(conjugation_map(HH, 34), trials=5, seed=3).to_json(),
        check_i_unit_image(theta, trials=5, seed=4).to_json(),
    ]
    return out


def test_map_checks_do_no_element_arithmetic(tmp_path, monkeypatch):
    # check bodies compute on coordinate arrays; the map call is their only
    # Element boundary, so refusing Element arithmetic changes no report
    want = _guarded_reports(tmp_path)

    def refuse(*args):
        raise AssertionError("Element arithmetic in a check body")

    for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(Element, op, refuse)
    assert _guarded_reports(tmp_path) == want


# -- stacked map calls ----------------------------------------------------------

M5 = build_hermitian_matrix_algebra(5)
S4 = build_spin_factor(4)


def _descriptors(A):
    """A descriptor of every map kind that applies to A."""
    out = {"identity": {"kind": "identity"}, "star": {"kind": "star"}}
    if all(p.kind == "hermitian_matrix" for p, _ in A.summands):
        w = element_to_json(random_element(A, 3, "unitary"))
        out["transpose"] = {"kind": "transpose"}
        out["theta_conjugation"] = {"kind": "theta_conjugation", "w": w}
        out["composition"] = {
            "kind": "composition",
            "maps": [{"kind": "transpose"}, {"kind": "composition", "maps": [out["theta_conjugation"], {"kind": "star"}]}],
        }
    if isinstance(A, SpinFactor):
        out["spin_counterexample"] = {"kind": "spin_counterexample", "epsilon": 0.3}
        out["composition"] = {"kind": "composition", "maps": [out["spin_counterexample"], {"kind": "star"}]}
    out["exp_form"] = {"kind": "exp_form", "c": element_to_json(A.unit), "theta": {"kind": "star"}}
    out["exp_form(scaled_trace)"] = {
        "kind": "exp_form",
        "c": element_to_json(1.5 * A.unit),
        "theta": {"kind": "identity"},
        "beta": {"kind": "scaled_trace", "scale": 0.3},
    }
    return out


@pytest.mark.parametrize("A", [H3, S4, H3S3, M5], ids=lambda A: A.id)
def test_stacked_maps_equal_their_rows_bit_for_bit(A):
    rng = np.random.default_rng(61)
    stacked = set()
    for kind, desc in _descriptors(A).items():
        m = map_from_descriptor(desc, A)
        flavor = "unitary" if kind.startswith("exp_form") else "self_adjoint"  # the counterexample takes self-adjoints
        x = np.stack([random_element(A, s, flavor).coords for s in range(5)])
        for fn, call in ((m.eval, m._eval), (m.inverse, m._inverse)):
            if fn is None:
                continue
            got = call(x)
            assert np.array_equal(got, np.stack([call(row) for row in x])), kind
            assert np.array_equal(got, np.stack([fn(A.element(row)).coords for row in x])), kind
            if hasattr(fn, "rows"):
                stacked.add(kind)
    assert stacked == set(_descriptors(A))


def test_a_plain_callable_is_called_once_per_row():
    calls = []

    def f(a):
        calls.append(a.coords.shape)
        return a

    m = MapUnderTest(H3, H3, f, label="plain")
    x = np.stack([random_element(H3, s, "self_adjoint").coords for s in range(4)])
    assert np.array_equal(m._eval(x), x)
    assert calls == [(9,)] * 4


def test_a_replaced_callable_never_reaches_the_old_stacked_form():
    m = map_from_descriptor({"kind": "transpose"}, H3)
    x = np.stack([random_element(H3, s).coords for s in range(3)])
    for field_name, call in (("eval", "_eval"), ("inverse", "_inverse")):
        new = dataclasses.replace(m, **{field_name: lambda a: 2.0 * a})
        assert np.array_equal(getattr(new, call)(x), 2.0 * x)


def test_a_stacked_form_with_a_bad_output_raises_the_row_error():
    x = np.stack([random_element(H3, s).coords for s in range(3)])

    def stacked(rows):
        f = lambda a: a
        f.rows = rows
        return MapUnderTest(H3, H3, f, label="stacked", inverse=f)

    with pytest.raises(PreconditionFailed, match="'stacked' returned shape"):
        stacked(lambda y: y[:, :4])._eval(x)
    with pytest.raises(PreconditionFailed, match="'stacked' inverse returned shape"):
        stacked(lambda y: y[:2])._inverse(x)

    def blowup(y):
        out = y.copy()
        out[1, 0] = np.inf
        return out

    with pytest.raises(ValueError, match="finite"):
        stacked(blowup)._eval(x)


def test_the_counterexample_refuses_a_stack_with_one_non_self_adjoint_row():
    m = build_spin_counterexample(4, 0.3).map
    x = np.stack([random_element(S4, s, "self_adjoint").coords for s in range(3)])
    x[2, 1] += 1e-3
    with pytest.raises(PreconditionFailed, match="self-adjoints only"):
        m._eval(x)
    with pytest.raises(PreconditionFailed, match="self-adjoints only"):
        m.eval(S4.element(x[2]))


def test_a_chunk_of_map_suite_draws_builds_no_element_per_trial(tmp_path, monkeypatch):
    # the stacked map calls build no Element; a lost stacked form would
    # only show as Elements that grow with the trials
    alg, mp = tmp_path / "h3.json", tmp_path / "transpose.json"
    alg.write_text(json.dumps({"kind": "hermitian_matrix", "n": 3}))
    mp.write_text(json.dumps({"kind": "transpose"}))
    count, init = [0], Element.__post_init__
    monkeypatch.setattr(Element, "__post_init__", lambda self: count.__setitem__(0, count[0] + 1) or init(self))
    built = []
    from jbstar.reports import CHUNK

    for trials in (20, 2 * CHUNK + 3):
        count[0] = 0
        doc, status = run(RunConfig("structure-recovery", str(alg), str(mp), trials=trials, seed=42))
        assert status == 0
        built.append(count[0])
    assert built[0] == built[1], built


def _kinked(A, coord, level):
    """x, but 1.5 x where Re x[coord] > level: each check fails on some
    draws and not on others."""
    f = lambda a: A.element(a.coords * (1.5 if a.coords[coord].real > level else 1.0))
    return MapUnderTest(A, A, f, label="kinked", inverse=f)


def _first_failure(call):
    try:
        call()
    except PreconditionFailed as exc:
        return str(exc)
    except Exception as exc:  # a NonUnitaryImage, by name and message
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("level", [1.2, 3.5])  # at 3.5, seed 5 first fails in the second chunk
def test_chunked_isomorphism_check_raises_what_one_draw_at_a_time_raises(seed, level):
    # the reference: each draw's linearity, multiplicativity, star and round
    # trip in turn, the first that fails raising
    m = _kinked(H3, 1, level)
    src, f = m.source, m._eval

    def one_at_a_time(trials, pass_tol=1e-7):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            a, b = _random(src, rng), _random(src, rng)
            al = complex(rng.standard_normal(), rng.standard_normal())
            scale = (1.0 + src._norm(a)) * (1.0 + src._norm(b))
            for r, message in (
                (src._norm(f(a * al + b) - f(a) * al - f(b)), "theta is not complex linear (residual {:.3e})"),
                (src._norm(f(src._prod(a, b)) - src._prod(f(a), f(b))), "theta is not Jordan multiplicative ({:.3e})"),
                (src._norm(f(src._inv(a)) - src._inv(f(a))), "theta does not preserve the involution ({:.3e})"),
                (src._norm(m._inverse(f(a)) - a), "theta round trip failed ({:.3e})"),
            ):
                if r > pass_tol * scale:
                    raise PreconditionFailed(message.format(r))

    from jbstar.reports import CHUNK

    got = _first_failure(lambda: verify_jordan_star_isomorphism(m, trials=2 * CHUNK + 3, seed=seed))
    assert got is not None and got == _first_failure(lambda: one_at_a_time(2 * CHUNK + 3))


@pytest.mark.parametrize("seed", range(6))
def test_chunked_piecewise_check_refuses_the_first_non_unitary_image(seed):
    m = _kinked(H3, 1, 0.3)
    src = m.source

    def one_at_a_time(trials):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            h, k = samplers._draw_oc_pair(src, rng, 1)[:, 0]
            for name, x in (("u", h), ("v", k)):
                if not is_unitary(H3, m(exp_i(H3, H3.element(x), 1.0))):
                    raise NonUnitaryImage(f"image of {name} is not unitary")

    from jbstar.reports import CHUNK

    got = _first_failure(lambda: check_piecewise_hom_on_unitaries(m, trials=2 * CHUNK + 3, seed=seed))
    assert got is not None and got == _first_failure(lambda: one_at_a_time(2 * CHUNK + 3))
