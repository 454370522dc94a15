"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All criteria use the default tolerance policy and fixed seeds.
"""

import json
import math

import numpy as np

from jbstar.algebras import (
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    element_to_json,
    involution,
    jbstar_norm,
    jordan_product,
    random_element,
    sa_coords,
    selfadjoint_basis,
)
from jbstar.calculus import jordan_spectrum, u_operator
from jbstar.cli import RunConfig, run
from jbstar.errors import TypeI2Present
from jbstar.measures import verify_linearity_theorem, vectorize_map
from jbstar.peirce import kaup_identity_check, peirce_system, sample_tripotent
from jbstar.preservers import (
    MapUnderTest,
    build_spin_counterexample,
    check_oc_additive,
    check_oc_quadratic,
    classify_factor_dichotomy,
    map_from_descriptor,
    recover_structure,
    verify_counterexample,
)
from jbstar.samplers import commuting_projection_pair
from jbstar.unitary import (
    circle_inequality_check,
    oc_unitary_equivalences_check,
    oc_unitary_product_check,
    symmetric_difference,
)

H1 = build_hermitian_matrix_algebra(1)
H2 = build_hermitian_matrix_algebra(2)
H3 = build_hermitian_matrix_algebra(3)
H4 = build_hermitian_matrix_algebra(4)
S3 = build_spin_factor(3)
S4 = build_spin_factor(4)
S6 = build_spin_factor(6)
MODELS = [H1, H2, H3, H4, S3, S4, S6]


def _line(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {text}")
    return ok


def test_criterion_01_jbstar_axiom_suite():
    worst_jid = worst_ax = 0.0
    for A in MODELS:
        rng = np.random.default_rng(101)
        for _ in range(500):
            a = A.element(rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
            b = A.element(rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
            na, nb = jbstar_norm(A, a), jbstar_norm(A, b)
            b2 = jordan_product(A, b, b)
            lhs = jordan_product(A, jordan_product(A, a, b), b2)
            rhs = jordan_product(A, jordan_product(A, a, b2), b)
            scale = (1.0 + na) * (1.0 + nb) ** 3
            worst_jid = max(worst_jid, jbstar_norm(A, lhs - rhs) / scale)
            ua = u_operator(A, a, involution(A, a))
            worst_ax = max(worst_ax, abs(jbstar_norm(A, ua) - na**3) / (1.0 + na**3))
    ok = worst_jid <= 1e-8 and worst_ax <= 1e-6
    assert _line(
        1, ok, f"Jordan identity {worst_jid:.2e} <= 1e-8, JB* axiom {worst_ax:.2e} <= 1e-6"
    )


def test_criterion_02_oc_equivalences():
    worst = 0.0
    min_violation = math.inf
    for A in MODELS:
        adversarial = 0 if A.dim == 1 else 50  # dimension-1 model has no
        # non-commuting pairs to sample
        rep = oc_unitary_equivalences_check(A, trials=200, seed=102, adversarial=adversarial)
        assert rep.passed, (A.id, rep.details)
        worst = max(worst, rep.max_residual)
        if adversarial:
            assert rep.details["adversarial_found"] == 50
            min_violation = min(min_violation, rep.details["adversarial_min_violation_factor"])
    ok = worst <= 1e-7 and min_violation >= 10.0
    assert _line(
        2,
        ok,
        f"equivalences residual {worst:.2e} <= 1e-7, adversarial violation factor "
        f">= {min_violation:.1f}",
    )


def test_criterion_03_unitary_piecewise_closedness():
    worst = 0.0
    for A in MODELS:
        rep = oc_unitary_product_check(A, trials=200, seed=103)
        assert rep.passed, (A.id, rep.max_residual)
        worst = max(worst, rep.max_residual)
    assert _line(3, worst <= 1e-7, f"u o v unitarity residual {worst:.2e} <= 1e-7")


def test_criterion_04_circle_inequality():
    worst = -math.inf
    total = 0
    for A in MODELS:
        rep = circle_inequality_check(A, trials=80, seed=104)
        assert rep.passed, (A.id, rep.max_residual)
        worst = max(worst, rep.max_residual)
        total += rep.trials
    assert total >= 500
    assert _line(
        4, worst <= 1e-9, f"{total} samples, worst margin {worst:.2e} <= 1e-9 slack"
    )


def test_criterion_05_peirce_suite():
    rng = np.random.default_rng(105)
    count = 0
    worst_proj = 0.0
    worst_kaup = 0.0
    while count < 20:
        A = MODELS[count % len(MODELS)]
        e = sample_tripotent(A, rng)
        sys = peirce_system(A, e)
        eye = np.eye(A.dim)
        projs = (sys.p2, sys.p1, sys.p0)
        rs = [np.linalg.norm(sys.p2 + sys.p1 + sys.p0 - eye, 2)]
        rs += [np.linalg.norm(p @ p - p, 2) for p in projs]
        rs += [
            np.linalg.norm(projs[i] @ projs[j], 2) for i in range(3) for j in range(3) if i != j
        ]
        worst_proj = max(worst_proj, max(rs))
        rep = kaup_identity_check(A, e, trials=100, seed=105 + count)
        worst_kaup = max(worst_kaup, rep.max_residual)
        count += 1
    ok = worst_proj <= 1e-8 and worst_kaup <= 1e-7
    assert _line(
        5,
        ok,
        f"20 tripotents: projections {worst_proj:.2e} <= 1e-8, Kaup {worst_kaup:.2e} <= 1e-7",
    )


def test_criterion_06_spectrum_oracle():
    worst = 0.0
    for A in (H3, H4):
        rng = np.random.default_rng(106)
        for _ in range(200):
            a = random_element(A, int(rng.integers(1 << 30)), "self_adjoint")
            got = np.array(jordan_spectrum(A, a))
            ev = np.linalg.eigvalsh(a.coords.reshape(A.n, A.n))
            scale = 1.0 + float(np.max(np.abs(ev)))
            for lam in got:
                worst = max(worst, float(np.min(np.abs(ev - lam))) / scale)
            for mu in ev:
                worst = max(worst, float(np.min(np.abs(got - mu))) / scale)
    assert _line(6, worst <= 1e-7, f"spectrum vs matrix oracle deviation {worst:.2e} <= 1e-7")


def _positive_case_maps():
    HH = build_direct_sum([H3, H3])
    maps = []
    maps.append(map_from_descriptor({"kind": "identity"}, H3))
    w = random_element(H3, 107, "unitary")
    maps.append(map_from_descriptor({"kind": "theta_conjugation", "w": element_to_json(w)}, H3))
    maps.append(map_from_descriptor({"kind": "transpose"}, H3))

    def swap(a):
        return HH.element(np.concatenate([a.coords[9:], a.coords[:9]]))

    maps.append(MapUnderTest(HH, HH, swap, label="swap-summands", inverse=swap))

    def flip(a):
        c = a.coords.copy()
        c[9:] = -c[9:]
        return HH.element(c)

    maps.append(MapUnderTest(HH, HH, flip, label="central-symmetry-flip", inverse=flip))
    return maps


def test_criterion_07_structure_recovery_positive():
    worst_hom = 0.0
    flagged = []
    for i, m in enumerate(_positive_case_maps()):
        add = check_oc_additive(m, trials=50, seed=107 + i)
        quad = check_oc_quadratic(m, trials=50, seed=207 + i)
        assert add.passed and quad.passed, m.label
        rec = recover_structure(m, trials=60, seed=307 + i)
        worst_hom = max(worst_hom, rec.hom_residual, rec.linearity_residual)
        flagged.append(rec.w_central_symmetry)
    ok = worst_hom <= 1e-6 and all(f is True for f in flagged)
    assert _line(
        7,
        ok,
        f"5 maps: hom residual {worst_hom:.2e} <= 1e-6, central symmetry flagged {flagged}",
    )


def test_criterion_08_spin_counterexample_sharpness():
    cx = build_spin_counterexample(3, 0.3)
    rep = verify_counterexample(cx, trials=500, seed=108)
    add_raw = rep.details["oc_additive_raw"]
    quad_raw = rep.details["oc_quadratic_raw"]
    spot = rep.details["closed_form_spot_residual"]
    gap = rep.details["witness_gap"]
    rec = recover_structure(cx.map, trials=100, seed=108)
    ok = (
        rep.passed
        and add_raw <= 1e-9
        and quad_raw <= 1e-8
        and spot <= 1e-8
        and gap >= 0.1
        and rec.linearity_residual >= 0.05
    )
    assert _line(
        8,
        ok,
        f"additive {add_raw:.2e} <= 1e-9, quadratic {quad_raw:.2e} <= 1e-8, "
        f"witness gap {gap:.2f} >= 0.1, linearity residual {rec.linearity_residual:.2f} >= 0.05",
    )


def test_criterion_09_linearity_theorem():
    basis = selfadjoint_basis(H3)
    worst = 0.0
    for i in range(5):
        T = np.random.default_rng(109 + i).standard_normal((3, len(basis)))
        f = lambda a, T=T: T @ sa_coords(H3, a, basis)
        rep = verify_linearity_theorem(H3, f, trials=60, seed=109 + i)
        assert rep.passed
        worst = max(worst, rep.details["reconstruction_misfit"], rep.details["agreement_residual"])
    cx = build_spin_counterexample(3, 0.3)
    fc = vectorize_map(cx.map.eval)
    refused = False
    try:
        verify_linearity_theorem(S3, fc, trials=10, seed=109)
    except TypeI2Present:
        refused = True
    explo = verify_linearity_theorem(S3, fc, trials=60, seed=109, theorem_grade=False)
    misfit = explo.details["reconstruction_misfit"]
    ok = worst <= 1e-7 and refused and misfit >= 0.05
    assert _line(
        9,
        ok,
        f"5 linear maps misfit {worst:.2e} <= 1e-7; spin refused={refused}; "
        f"exploratory misfit {misfit:.2f} >= 0.05",
    )


def test_criterion_10_factor_dichotomy():
    thetas = [map_from_descriptor({"kind": "identity"}, H3)]
    for i in range(3):
        w = random_element(H3, 110 + i, "unitary")
        thetas.append(
            map_from_descriptor({"kind": "theta_conjugation", "w": element_to_json(w)}, H3)
        )
    thetas.append(map_from_descriptor({"kind": "transpose"}, H3))
    mis = 0
    for theta in thetas:
        res = classify_factor_dichotomy(theta, theta, trials=100, seed=210)
        if res.label != "identity_case":
            mis += 1
        phi_inv = MapUnderTest(
            H3,
            H3,
            lambda a, th=theta: th.eval(involution(H3, a)),
            label=f"{theta.label}-o-star",
        )
        res = classify_factor_dichotomy(phi_inv, theta, trials=100, seed=310)
        if res.label != "inverse_case":
            mis += 1
    assert _line(10, mis == 0, f"5 thetas x 2 cases, misclassifications = {mis}")


def test_criterion_11_symmetric_difference():
    rng = np.random.default_rng(111)
    worst = 0.0
    done = 0
    while done < 200:
        pq = commuting_projection_pair(H4, rng)
        if pq is None:
            continue
        p, q = pq
        d = symmetric_difference(H4, p, q)
        worst = max(
            worst,
            jbstar_norm(H4, jordan_product(H4, d, d) - d),
            jbstar_norm(H4, involution(H4, d) - d),
            jbstar_norm(
                H4,
                (H4.unit - 2.0 * d)
                - jordan_product(H4, H4.unit - 2.0 * p, H4.unit - 2.0 * q),
            ),
        )
        done += 1
    assert _line(11, worst <= 1e-8, f"200 commuting pairs, worst residual {worst:.2e} <= 1e-8")


def test_criterion_12_determinism(tmp_path):
    spin3 = tmp_path / "spin3.json"
    spin3.write_text(json.dumps({"kind": "spin", "n": 3}))
    cfg = lambda: RunConfig(
        command="counterexample", algebra_path=str(spin3), trials=100, seed=42
    )
    doc1, _ = run(cfg())
    doc2, _ = run(cfg())
    for doc in (doc1, doc2):
        doc.pop("generated_at")
        doc.pop("duration_s")
    same = json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    assert _line(12, same, "re-run with identical config and seed is byte-identical")
