"""Command-line front end.

Loads algebra/map descriptors from JSON files, runs a named check suite,
and emits a machine-readable report.  Exit status: 0 when every
non-negative-control check passed, 1 on check failure, 2 on usage or parse
errors.  Reports are deterministic for a fixed config and seed apart from
the generated_at/duration fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .algebras import (
    AlgebraHandle,
    SpinFactor,
    _random,
    build_spin_factor,
    algebra_from_descriptor,
    involution,
    jbstar_norm,
    jordan_product,
)
from .calculus import _axiom_defects
from .errors import JBStarError, TypeI2Present
from .kernel import Tolerance
from .measures import verify_linearity_theorem, vectorize_map
from .peirce import kaup_identity_check, peirce_invariants_check, sample_tripotent
from .preservers import (
    MapUnderTest,
    build_spin_counterexample,
    check_generator_properties,
    check_piecewise_hom_on_unitaries,
    classify_factor_dichotomy,
    map_from_descriptor,
    recover_structure,
    verify_counterexample,
)
from .reports import CheckReport, merge_reports
from .samplers import commuting_projection_pair
from .unitary import (
    circle_inequality_check,
    oc_unitary_equivalences_check,
    oc_unitary_product_check,
)

__all__ = ["RunConfig", "run", "list_suites", "main"]

_SUITES = [
    ("axioms", "Jordan identity, JB*-axiom, and involution isometry residuals"),
    ("oc-equivalences", "operator-commutativity equivalences for unitary exponentials"),
    ("unitary-piecewise", "Jordan products of operator-commuting unitary pairs stay unitary"),
    ("circle-inequality", "n||u-1|| <= (pi/2)||u^n-1|| on sampled unitaries"),
    ("peirce", "Peirce projection partition/idempotency/orthogonality invariants"),
    ("kaup", "ambient triple product vs the Peirce-2 algebra triple product"),
    ("preserver", "piecewise homomorphism and generator properties of a supplied map"),
    ("factor-dichotomy", "Phi = theta vs Phi = theta(u^{-1}) classification"),
    ("structure-recovery", "Peirce-2 structure recovery for an OC-additive quadratic map"),
    ("counterexample", "spin-factor sharpness example with its expected additivity failure"),
    ("linearity", "linearity-from-boundedness desk check"),
    ("symmetric-difference", "p Delta q projection and symmetry product identities"),
]


def list_suites() -> list[tuple[str, str]]:
    """Stable (name, description) pairs for every runnable suite."""
    return list(_SUITES)


@dataclass
class RunConfig:
    command: str
    algebra_path: str | None = None
    map_path: str | None = None
    trials: int = 200
    seed: int = 42
    abs_eps: float | None = None
    rel_eps: float | None = None
    cluster_eps: float | None = None
    out_path: str | None = None
    epsilon: float = 0.3
    spin_dim: int = 3
    exploratory: bool = False

    def tolerance(self) -> Tolerance:
        names = ("abs_eps", "rel_eps", "cluster_eps")
        return Tolerance(**{k: getattr(self, k) for k in names if getattr(self, k) is not None})

    def echo(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "out_path"}


class UsageError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _need_algebra(config: RunConfig) -> AlgebraHandle:
    try:
        tol = config.tolerance()
        if config.command == "counterexample" and config.algebra_path is None:
            return build_spin_factor(config.spin_dim, tol)
        if config.algebra_path is None:
            raise UsageError(f"suite {config.command!r} needs --algebra")
        return algebra_from_descriptor(_load_json(config.algebra_path), tol)
    except (JBStarError, ValueError) as exc:
        raise UsageError(f"{type(exc).__name__}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Fail before a suite runs when its report could not be written."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise UsageError(f"cannot write the report to {path}")


def _need_map(config: RunConfig, A: AlgebraHandle) -> MapUnderTest:
    if config.map_path is None:
        raise UsageError(f"suite {config.command!r} needs --map")
    return map_from_descriptor(_load_json(config.map_path), A)


# -- suite bodies ------------------------------------------------------------


def _suite_axioms(A: AlgebraHandle, trials: int, seed: int) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    jid = axiom = isom = 0.0
    for _ in range(trials):
        a = _random(A, rng)
        b = _random(A, rng)
        jd, ad, na, nb = _axiom_defects(A, a, b)
        jid = max(jid, jd / ((1.0 + na) * (1.0 + nb) ** 3))
        axiom = max(axiom, ad / (1.0 + na**3))
        isom = max(isom, abs(jbstar_norm(A, involution(A, a)) - na) / (1.0 + na))
    return [
        CheckReport(f"jordan-identity[{A.id}]", jid <= 1e-8, trials, jid),
        CheckReport(f"jbstar-axiom[{A.id}]", axiom <= 1e-6, trials, axiom),
        CheckReport(f"involution-isometric[{A.id}]", isom <= 1e-9, trials, isom),
    ]


def _suite_symmetric_difference(A: AlgebraHandle, trials: int, seed: int) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    attempts = 0
    while done < trials and attempts < 20 * trials:
        attempts += 1
        pq = commuting_projection_pair(A, rng)
        if pq is None:
            continue
        p, q = pq
        d = p + q - 2.0 * jordan_product(A, p, q)
        r = max(
            jbstar_norm(A, jordan_product(A, d, d) - d),
            jbstar_norm(A, involution(A, d) - d),
        )
        ups = jbstar_norm(
            A,
            (A.unit - 2.0 * d)
            - jordan_product(A, A.unit - 2.0 * p, A.unit - 2.0 * q),
        )
        worst = max(worst, r, ups)
        done += 1
    return [CheckReport(f"symmetric-difference[{A.id}]", worst <= 1e-8, done, worst)]


def _suite_kaup(A: AlgebraHandle, trials: int, seed: int) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    tripotents = [A.unit] + [sample_tripotent(A, rng) for _ in range(2)]
    per = max(trials // len(tripotents), 10)
    reports = [kaup_identity_check(A, e, per, seed + i) for i, e in enumerate(tripotents)]
    return [merge_reports(f"kaup-identity[{A.id}]", reports)]


def _suite_preserver(m: MapUnderTest, trials: int, seed: int) -> list[CheckReport]:
    return [
        check_piecewise_hom_on_unitaries(m, min(trials, 50), seed),
        check_generator_properties(m, min(max(trials // 10, 5), 20), seed),
    ]


def _suite_counterexample(config: RunConfig, A: AlgebraHandle) -> list[CheckReport]:
    if not isinstance(A, SpinFactor):
        raise UsageError("the counterexample suite needs a spin algebra")
    cx = build_spin_counterexample(A.n, config.epsilon)
    rep = verify_counterexample(cx, trials=config.trials, seed=config.seed)
    gap = rep.details["witness_gap"]
    control = CheckReport(
        name="global-additivity[expected-fail]",
        passed=False,
        trials=1,
        max_residual=gap,
        expected_fail=True,
        details={"witness_gap": gap, "required_min_gap": 0.05},
    )
    return [rep, control]


def _suite_structure_recovery(
    A: AlgebraHandle, m: MapUnderTest, trials: int, seed: int
) -> list[CheckReport]:
    rec = recover_structure(m, trials=trials, seed=seed)
    passed = rec.hom_residual <= 1e-6 and rec.linearity_residual <= 1e-6
    return [
        CheckReport(
            name=f"structure-recovery[{m.label}]",
            passed=passed,
            trials=trials,
            max_residual=max(rec.hom_residual, rec.linearity_residual),
            details={
                "hom_residual": rec.hom_residual,
                "linearity_residual": rec.linearity_residual,
                "w_central_symmetry": rec.w_central_symmetry,
                "peirce2_dim": rec.peirce2.dim,
            },
        )
    ]


def _suite_factor_dichotomy(
    A: AlgebraHandle, theta: MapUnderTest, trials: int, seed: int
) -> list[CheckReport]:
    phi_inv = MapUnderTest(
        theta.source,
        theta.target,
        lambda a: theta.eval(involution(theta.source, a)),
        label=f"{theta.label}-o-star",
    )
    res_id = classify_factor_dichotomy(theta, theta, trials=trials, seed=seed)
    res_inv = classify_factor_dichotomy(phi_inv, theta, trials=trials, seed=seed)
    return [
        CheckReport(
            name="factor-dichotomy[identity]",
            passed=res_id.label == "identity_case",
            trials=trials,
            max_residual=res_id.identity_residual,
            details={"label": res_id.label},
        ),
        CheckReport(
            name="factor-dichotomy[inverse]",
            passed=res_inv.label == "inverse_case",
            trials=trials,
            max_residual=res_inv.inverse_residual,
            details={"label": res_inv.label},
        ),
    ]


def _suite_linearity(
    A: AlgebraHandle, m: MapUnderTest, trials: int, seed: int, exploratory: bool
) -> list[CheckReport]:
    f = vectorize_map(m.eval, m.target)
    try:
        rep = verify_linearity_theorem(
            A, f, trials=trials, seed=seed, theorem_grade=not exploratory
        )
    except TypeI2Present as exc:
        return [
            CheckReport(
                name=f"linearity-theorem[{A.id}]",
                passed=False,
                trials=0,
                max_residual=float("nan"),
                details={"refused": "TypeI2Present", "message": str(exc)},
            )
        ]
    return [rep]


def run(config: RunConfig) -> tuple[dict, int]:
    """Dispatch a suite and build the report document.

    Returns (document, exit_status); the document's verdict is "pass" iff
    every non-negative-control check passed.
    """
    started = time.time()
    cmd = config.command
    if cmd not in {name for name, _ in _SUITES}:
        raise UsageError(f"unknown suite {cmd!r}; see `jbstar list`")
    A = _need_algebra(config)
    trials, seed = config.trials, config.seed
    if trials < 1:
        raise UsageError("--trials must be >= 1")
    m = lambda: _need_map(config, A)  # only the suites that take a map load one
    suites = {
        "axioms": lambda: _suite_axioms(A, trials, seed),
        "oc-equivalences": lambda: [
            oc_unitary_equivalences_check(A, trials, seed, adversarial=max(trials // 4, 5))
        ],
        "unitary-piecewise": lambda: [oc_unitary_product_check(A, trials, seed)],
        "circle-inequality": lambda: [circle_inequality_check(A, trials, seed)],
        "peirce": lambda: [peirce_invariants_check(A, max(trials // 10, 5), seed)],
        "kaup": lambda: _suite_kaup(A, trials, seed),
        "preserver": lambda: _suite_preserver(m(), trials, seed),
        "factor-dichotomy": lambda: _suite_factor_dichotomy(A, m(), trials, seed),
        "structure-recovery": lambda: _suite_structure_recovery(A, m(), trials, seed),
        "counterexample": lambda: _suite_counterexample(config, A),
        "linearity": lambda: _suite_linearity(A, m(), trials, seed, config.exploratory),
        "symmetric-difference": lambda: _suite_symmetric_difference(A, trials, seed),
    }
    checks = suites[cmd]()
    verdict = "pass" if all(c.passed for c in checks if not c.expected_fail) else "fail"
    document = {
        "schema": 1,
        "tool": "jbstar",
        "version": __version__,
        "config": config.echo(),
        "checks": [c.to_json() for c in checks],
        "verdict": verdict,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "duration_s": round(time.time() - started, 6),
    }
    return document, 0 if verdict == "pass" else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jbstar",
        description="Finite-dimensional JB*-algebra check suites",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available suites")
    default_seed = int(os.environ.get("JBSTAR_SEED", "42"))
    for name, desc in _SUITES:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--algebra", dest="algebra_path", help="algebra descriptor JSON file")
        p.add_argument("--map", dest="map_path", help="map descriptor JSON file")
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--seed", type=int, default=default_seed)
        p.add_argument("--abs-eps", dest="abs_eps", type=float, default=None)
        p.add_argument("--rel-eps", dest="rel_eps", type=float, default=None)
        p.add_argument("--cluster-eps", dest="cluster_eps", type=float, default=None)
        p.add_argument("--out", dest="out_path", help="write the JSON report here")
        if name == "counterexample":
            p.add_argument("--epsilon", type=float, default=0.3)
            p.add_argument("--spin-dim", dest="spin_dim", type=int, default=3)
        if name == "linearity":
            p.add_argument("--exploratory", action="store_true")
    return parser


def _print_human(document: dict, stream) -> None:
    for chk in document["checks"]:
        status = "PASS" if chk["passed"] else ("XFAIL" if chk.get("expected_fail") else "FAIL")
        print(f"{status:5s} {chk['name']}  max_residual={chk['max_residual']:.3e}", file=stream)
    print(f"verdict: {document['verdict']}  ({document['duration_s']}s)", file=stream)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "list":
        for name, desc in list_suites():
            print(f"{name:20s} {desc}")
        return 0
    config = RunConfig(**{f.name: getattr(args, f.name, f.default) for f in fields(RunConfig)})
    try:
        if config.out_path:
            _check_writable(config.out_path)
        document, status = run(config)
        if config.out_path:
            try:
                with open(config.out_path, "w", encoding="utf-8") as fh:
                    json.dump(document, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                raise UsageError(f"cannot write the report to {config.out_path}: {exc}") from exc
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (JBStarError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _print_human(document, sys.stderr if config.out_path else sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
