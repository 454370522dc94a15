import json

import pytest

import jbstar.cli as cli
from jbstar.cli import RunConfig, list_suites, main, run


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


def test_expected_fail_does_not_flip_verdict(files):
    doc, status = run(
        RunConfig(command="counterexample", algebra_path=files["spin3"], trials=30, seed=2)
    )
    controls = [c for c in doc["checks"] if c["expected_fail"]]
    assert controls and not controls[0]["passed"]
    assert doc["verdict"] == "pass" and status == 0


H2 = {"kind": "hermitian_matrix", "n": 2}
BAD_INPUTS = {
    "spin-without-n": ({"kind": "spin"}, []),
    "sum-without-parts": ({"kind": "direct_sum"}, []),
    "non-integer-n": ({"kind": "spin", "n": "x"}, []),
    "matrix-too-large": ({"kind": "hermitian_matrix", "n": 20}, []),
    "abs-eps-out-of-range": (H2, ["--abs-eps", "0.5"]),
    "out-in-missing-dir": (H2, ["--out", "{dir}/missing/report.json"]),
    "out-is-a-directory": (H2, ["--out", "{dir}"]),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_usage_error(case, tmp_path, capsys, monkeypatch):
    desc, extra = BAD_INPUTS[case]
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(desc))
    argv = ["axioms", "--algebra", str(alg), "--trials", "1"]
    argv += [a.format(dir=tmp_path) for a in extra]
    ran = []
    monkeypatch.setattr(cli, "run", lambda cfg: ran.append(cfg) or run(cfg))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    if "--out" in extra:
        assert not ran  # refused before the suite ran
