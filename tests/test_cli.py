import dataclasses
import json

import numpy as np
import pytest

import jbstar.cli as cli
from jbstar import calculus
from jbstar.algebras import algebra_from_descriptor
from jbstar.cli import RunConfig, list_suites, main, run
from jbstar.kernel import Tolerance
from jbstar.reports import CHUNK, _jsonable
from jbstar.samplers import _commuting_projection_pair, _draw_oc_pair
from jbstar.unitary import _is_unitary, _projection_defect, _symmetric_difference_defects


@pytest.fixture()
def files(tmp_path):
    h3 = tmp_path / "h3.json"
    h3.write_text(json.dumps({"kind": "hermitian_matrix", "n": 3}))
    spin3 = tmp_path / "spin3.json"
    spin3.write_text(json.dumps({"kind": "spin", "n": 3}))
    idmap = tmp_path / "id.json"
    idmap.write_text(json.dumps({"kind": "identity"}))
    return {"h3": str(h3), "spin3": str(spin3), "id": str(idmap), "dir": tmp_path}


def test_list_suites_names():
    names = [n for n, _ in list_suites()]
    assert "counterexample" in names
    assert "structure-recovery" in names
    assert len(names) == len(set(names))
    assert names == [
        "axioms",
        "oc-equivalences",
        "unitary-piecewise",
        "circle-inequality",
        "peirce",
        "kaup",
        "preserver",
        "factor-dichotomy",
        "structure-recovery",
        "counterexample",
        "linearity",
        "symmetric-difference",
    ]


def test_every_suite_runs(files):
    needs_map = {"preserver", "factor-dichotomy", "structure-recovery", "linearity"}
    for name, _ in list_suites():
        cfg = RunConfig(
            command=name,
            algebra_path=files["spin3"] if name == "counterexample" else files["h3"],
            map_path=files["id"] if name in needs_map else None,
            trials=10,
            seed=1,
        )
        doc, status = run(cfg)
        assert doc["schema"] == 1
        assert doc["verdict"] == "pass", (name, doc["checks"])
        assert status == 0


def test_exit_codes(files, capsys):
    assert main(["list"]) == 0
    # missing required map -> usage error
    assert main(["preserver", "--algebra", files["h3"], "--trials", "5"]) == 2
    # unknown file -> usage error
    assert main(["axioms", "--algebra", str(files["dir"] / "nope.json")]) == 2
    # spin algebra refused by theorem-grade linearity -> check failure
    assert (
        main(
            [
                "linearity",
                "--algebra",
                files["spin3"],
                "--map",
                files["id"],
                "--trials",
                "5",
            ]
        )
        == 1
    )
    capsys.readouterr()


def test_symmetric_difference_with_no_checked_draw_fails(tmp_path, capsys):
    # every self-adjoint element of H1 has one eigenvalue, so no draw gives
    # a commuting projection pair and nothing is checked
    h1 = tmp_path / "h1.json"
    h1.write_text(json.dumps({"kind": "hermitian_matrix", "n": 1}))
    out = tmp_path / "report.json"
    args = ["symmetric-difference", "--algebra", str(h1), "--trials", "5"]
    assert main(args + ["--out", str(out)]) == 1
    check = json.loads(out.read_text())["checks"][0]
    assert check["trials"] == 0 and check["passed"] is False
    assert main(args) == 1
    status, name = capsys.readouterr().out.split()[:2]
    assert (status, name) == ("FAIL", "symmetric-difference[hermitian_matrix(1)]")


def test_pass_run_writes_report(files, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "axioms",
            "--algebra",
            files["h3"],
            "--trials",
            "20",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    assert doc["tool"] == "jbstar"
    assert all("name" in c and "max_residual" in c for c in doc["checks"])
    capsys.readouterr()


def test_report_determinism(files):
    cfg = lambda: RunConfig(
        command="counterexample", algebra_path=files["spin3"], trials=50, seed=9
    )
    doc1, _ = run(cfg())
    doc2, _ = run(cfg())
    for doc in (doc1, doc2):
        doc.pop("generated_at")
        doc.pop("duration_s")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_seed_env_override(files, monkeypatch, capsys):
    monkeypatch.setenv("JBSTAR_SEED", "123")
    import jbstar.cli as cli

    parser = cli._build_parser()
    args = parser.parse_args(["axioms", "--algebra", files["h3"]])
    assert args.seed == 123
    args = parser.parse_args(["axioms", "--algebra", files["h3"], "--seed", "7"])
    assert args.seed == 7


def test_bad_seed_env_is_usage_error(files, monkeypatch, capsys):
    argv = ["axioms", "--algebra", files["h3"], "--trials", "1"]
    monkeypatch.setenv("JBSTAR_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in err and "Traceback" not in err
    monkeypatch.setenv("JBSTAR_SEED", "-1")
    assert main(argv) == 2
    assert capsys.readouterr().err == "usage error: --seed must be >= 0\n"


def test_rel_eps_option_is_gone(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--algebra", files["h3"], "--rel-eps", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rel-eps" in capsys.readouterr().err
    doc, _ = run(RunConfig(command="axioms", algebra_path=files["h3"], trials=1))
    assert "rel_eps" not in doc["config"]


def test_expected_fail_does_not_flip_verdict(files):
    doc, status = run(
        RunConfig(command="counterexample", algebra_path=files["spin3"], trials=30, seed=2)
    )
    controls = [c for c in doc["checks"] if c["expected_fail"]]
    assert controls and not controls[0]["passed"]
    assert doc["verdict"] == "pass" and status == 0


H2 = {"kind": "hermitian_matrix", "n": 2}


def _exp_form(scale):
    """exp_form map on M_2 with beta the trace scaled by ``scale``."""
    unit = {"coords": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
    beta = {"kind": "scaled_trace", "scale": scale}
    return {"kind": "exp_form", "beta": beta, "c": unit, "theta": {"kind": "identity"}}


# (suite, algebra descriptor or None, map descriptor or None, further arguments)
BAD_INPUTS = {
    "spin-without-n": ("axioms", {"kind": "spin"}, None, []),
    "sum-without-parts": ("axioms", {"kind": "direct_sum"}, None, []),
    "non-integer-n": ("axioms", {"kind": "spin", "n": "x"}, None, []),
    "matrix-too-large": ("axioms", {"kind": "hermitian_matrix", "n": 20}, None, []),
    "abs-eps-out-of-range": ("axioms", H2, None, ["--abs-eps", "0.5"]),
    "out-in-missing-dir": ("axioms", H2, None, ["--out", "{dir}/missing/report.json"]),
    "out-is-a-directory": ("axioms", H2, None, ["--out", "{dir}"]),
    "theta-conjugation-without-w": ("preserver", H2, {"kind": "theta_conjugation"}, []),
    "composition-without-maps": ("preserver", H2, {"kind": "composition"}, []),
    "composition-of-no-maps": ("preserver", H2, {"kind": "composition", "maps": []}, []),
    "composition-maps-not-a-list": ("structure-recovery", H2, {"kind": "composition", "maps": {}}, []),
    "exp-form-nan-scale": ("preserver", H2, _exp_form(float("nan")), []),
    "exp-form-infinite-scale": ("preserver", H2, _exp_form("Infinity"), []),
    "map-element-wrong-size": (
        "preserver",
        H2,
        {"kind": "theta_conjugation", "w": {"coords": [[1.0, 0.0]] * 3}},
        [],
    ),
    # matrix-only maps are refused on a spin summand when the map is built
    "transpose-on-spin": ("preserver", {"kind": "spin", "n": 4}, {"kind": "transpose"}, []),
    "theta-conjugation-on-spin-summand": (
        "preserver",
        {"kind": "direct_sum", "parts": [H2, {"kind": "spin", "n": 3}]},
        {"kind": "theta_conjugation", "w": {"coords": [[float(c), 0.0] for c in (1, 0, 0, 1, 1, 0, 0)]}},
        [],
    ),
    "epsilon-out-of-range": ("counterexample", {"kind": "spin", "n": 3}, None, ["--epsilon", "0.7"]),
    "negative-seed": ("axioms", H2, None, ["--seed", "-1"]),
    # refused by the size bound before any dense matrix is allocated
    "spin-descriptor-too-large": ("axioms", {"kind": "spin", "n": 100000}, None, []),
    "spin-dim-too-large": ("counterexample", None, None, ["--spin-dim", "100000"]),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_usage_error(case, tmp_path, capsys, monkeypatch):
    suite, desc, map_desc, extra = BAD_INPUTS[case]
    argv = [suite, "--trials", "1"]
    if desc is not None:
        alg = tmp_path / "alg.json"
        alg.write_text(json.dumps(desc))
        argv += ["--algebra", str(alg)]
    if map_desc is not None:
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps(map_desc))
        argv += ["--map", str(mp)]
    argv += [a.format(dir=tmp_path) for a in extra]
    ran = []
    monkeypatch.setattr(cli, "run", lambda cfg: ran.append(cfg) or run(cfg))
    for body in ("verify_counterexample", "check_piecewise_hom_on_unitaries"):
        monkeypatch.setattr(cli, body, lambda *a, **k: pytest.fail("the suite ran"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    if "--out" in extra:
        assert not ran  # refused before the suite ran


def _nested(kind, depth, inner):
    """JSON text of ``inner`` wrapped ``depth`` times in a one-item sum or composition."""
    key = "parts" if kind == "direct_sum" else "maps"
    return f'{{"kind": "{kind}", "{key}": [' * depth + json.dumps(inner) + "]}" * depth


# (file body, suite, option naming the file, message start): each input
# nests past the recursion limit, in the JSON parser or in the descriptor
# constructors; a map runs on M_2
DEEP_INPUTS = {
    "json-arrays": ("[" * 100000 + "]" * 100000, "axioms", "--algebra", "cannot read"),
    "direct-sum": (_nested("direct_sum", 400, H2), "axioms", "--algebra", "RecursionError"),
    "composition": (
        _nested("composition", 330, {"kind": "identity"}), "preserver", "--map", "RecursionError"
    ),
}


@pytest.mark.parametrize("case", list(DEEP_INPUTS))
def test_deeply_nested_input_is_usage_error(case, tmp_path, capsys):
    body, suite, option, message = DEEP_INPUTS[case]
    deep, h2 = tmp_path / "deep.json", tmp_path / "h2.json"
    deep.write_text(body)
    h2.write_text(json.dumps(H2))
    argv = [suite, "--trials", "2", "--algebra", str(h2), option, str(deep)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: " + message) and "Traceback" not in err, err


def test_composition_that_builds_also_runs(tmp_path, capsys):
    # a composition is evaluated one frame per level, fewer than its build
    # takes: bisecting on the depth finds maps that build and run (exit 0)
    # and maps refused as too deep (exit 2), never a crash between them
    h2, mp = tmp_path / "h2.json", tmp_path / "map.json"
    h2.write_text(json.dumps(H2))

    def status(depth):
        mp.write_text(_nested("composition", depth, {"kind": "identity"}))
        code = main(["preserver", "--algebra", str(h2), "--map", str(mp), "--trials", "2"])
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err, (depth, code, err[-300:])
        return code

    lo, hi = 100, 1000
    assert (status(lo), status(hi)) == (0, 2)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if status(mid) == 0 else (lo, mid)


H3_S3 = {"kind": "direct_sum", "parts": [{"kind": "hermitian_matrix", "n": 3}, {"kind": "spin", "n": 3}]}


@pytest.mark.parametrize("suite,map_kind", [("preserver", "identity"), ("preserver", "star"), ("peirce", None)])
def test_direct_sum_suites_pass_at_default_seed(suite, map_kind, tmp_path):
    # these failed on inexact spectral idempotents (NotSelfAdjoint from
    # unitary_log, NotTripotent from sample_tripotent)
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(H3_S3))
    cfg = RunConfig(command=suite, algebra_path=str(alg), trials=200)
    if map_kind:
        cfg.map_path = str(tmp_path / "map.json")
        (tmp_path / "map.json").write_text(json.dumps({"kind": map_kind}))
    assert cfg.seed == 42
    doc, status = run(cfg)
    assert status == 0 and doc["verdict"] == "pass", doc["checks"]


def test_counterexample_runs_on_the_configured_tolerance(monkeypatch):
    # --abs-eps is echoed in the report, and the counterexample's spin factor
    # must carry it too
    seen = []
    verify = cli.verify_counterexample

    def spy(cx, **kwargs):
        seen.append(cx.algebra.tol)
        return verify(cx, **kwargs)

    monkeypatch.setattr(cli, "verify_counterexample", spy)
    doc, status = run(RunConfig(command="counterexample", abs_eps=1e-3, trials=10, seed=1))
    assert doc["config"]["abs_eps"] == 1e-3
    assert seen == [Tolerance(abs_eps=1e-3)]
    assert status == 0


def test_peirce_runs_on_a_rank_above_one_over_abs_eps(tmp_path, capsys):
    # rank 120 > 1 / abs_eps: the spectral calls once dropped every minimal
    # idempotent as rounding and stopped with "error: ValueError"
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"kind": "direct_sum", "parts": [{"kind": "hermitian_matrix", "n": 3}] * 40}))
    assert main(["peirce", "--algebra", str(alg), "--abs-eps", "0.009", "--trials", "50"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("PASS") and "error" not in out.err, out


def _rowwise_reference(suite, A, trials, seed):
    """(trials, passed, max_residual, witness) of a suite, one draw at a time
    over the suite's rng stream, with no stack."""
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(trials):
        if suite == "unitary-piecewise":
            h, k = _draw_oc_pair(A, rng, 1)[:, 0]
            u, v = calculus._exp_i(A, h, 1.0), calculus._exp_i(A, k, 1.0)
            drawn.append((_is_unitary(A, A._prod(u, v)).residual, {"h": h.tolist(), "k": k.tolist()}))
        else:
            pq = _commuting_projection_pair(A, rng)
            if pq is not None:
                d, e = _symmetric_difference_defects(A, *pq)
                drawn.append((max(_projection_defect(A, d), A._norm(e)), None))
    tol = 1e-7 if suite == "unitary-piecewise" else 1e-8
    worst, witness = max(drawn, key=lambda d: d[0])  # the first of equal residuals
    return len(drawn), worst <= tol, worst, _jsonable(witness) if worst > tol else None


@pytest.mark.parametrize("suite", ["unitary-piecewise", "symmetric-difference"])
@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "hermitian_matrix", "n": 5},
        {"kind": "direct_sum", "parts": [{"kind": "hermitian_matrix", "n": 3}, {"kind": "spin", "n": 5}]},
    ],
    ids=["M5", "M3+spin(5)"],
)
def test_chunked_suites_match_a_rowwise_loop_across_chunk_boundaries(suite, desc, tmp_path):
    # two full chunks and a short one
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(desc))
    trials, seed = 2 * CHUNK + 3, 17
    doc, status = run(RunConfig(command=suite, algebra_path=str(path), trials=trials, seed=seed))
    (chk,) = doc["checks"]
    want_trials, want_passed, want_worst, want_witness = _rowwise_reference(
        suite, algebra_from_descriptor(desc), trials, seed
    )
    assert (chk["trials"], chk["passed"], chk.get("witness")) == (want_trials, want_passed, want_witness)
    assert abs(chk["max_residual"] - want_worst) <= 1e-12 * (1.0 + abs(want_worst))
    assert status == 0 and want_trials == trials  # every draw has two nodes or more


def _plain(m):
    """m with plain callables: without their stacked forms, every stack of
    draws is mapped one row at a time."""
    inverse = m.inverse and (lambda a, g=m.inverse: g(a))
    return dataclasses.replace(m, eval=lambda a, g=m.eval: g(a), inverse=inverse)


def _report(cfg):
    try:
        doc, status = run(cfg)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    for key in ("generated_at", "duration_s"):
        doc.pop(key)
    for key in ("algebra_path", "map_path"):
        doc["config"].pop(key)
    return status, json.dumps(doc, sort_keys=True)


M5 = {"kind": "hermitian_matrix", "n": 5}
M3_SPIN5 = {"kind": "direct_sum", "parts": [{"kind": "hermitian_matrix", "n": 3}, {"kind": "spin", "n": 5}]}
W5 = [[float(v), 0.0] for v in np.eye(5)[[1, 2, 0, 4, 3]].ravel()]  # a permutation unitary


@pytest.mark.parametrize("suite", ["structure-recovery", "counterexample", "factor-dichotomy", "preserver"])
@pytest.mark.parametrize(
    "desc,mp",
    [
        (M5, {"kind": "composition", "maps": [{"kind": "theta_conjugation", "w": {"coords": W5}}, {"kind": "transpose"}]}),
        (M3_SPIN5, {"kind": "star"}),
    ],
    ids=["M5", "M3+spin(5)"],
)
def test_chunked_map_suites_match_their_maps_without_stacked_forms(suite, desc, mp, tmp_path, monkeypatch):
    # two full chunks and a short one; the counterexample runs on spin(4)
    alg, path = tmp_path / "algebra.json", tmp_path / "map.json"
    alg.write_text(json.dumps({"kind": "spin", "n": 4} if suite == "counterexample" else desc))
    path.write_text(json.dumps(mp))
    cfg = RunConfig(command=suite, algebra_path=str(alg), map_path=str(path), trials=2 * CHUNK + 3, seed=19)
    stacked = _report(cfg)
    build_map, build_cx = cli.map_from_descriptor, cli.build_spin_counterexample
    monkeypatch.setattr(cli, "map_from_descriptor", lambda d, A: _plain(build_map(d, A)))
    monkeypatch.setattr(
        cli, "build_spin_counterexample", lambda *a: (lambda cx: dataclasses.replace(cx, map=_plain(cx.map)))(build_cx(*a))
    )
    assert _report(cfg) == stacked
    # the dichotomy applies to factors only
    assert stacked[0] == ("NotAFactor" if (suite, desc) == ("factor-dichotomy", M3_SPIN5) else 0), stacked
