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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .algebras import (
    AlgebraHandle,
    SpinFactor,
    _random_rows,
    build_spin_factor,
    algebra_from_descriptor,
)
from .calculus import _axiom_defects
from .errors import JBStarError, TypeI2Present
from .kernel import Tolerance
from .measures import verify_linearity_theorem, vectorize_map
from .peirce import kaup_identity_check, peirce_invariants_check, sample_tripotent
from .preservers import (
    MapUnderTest,
    _chained,
    build_spin_counterexample,
    check_generator_properties,
    check_piecewise_hom_on_unitaries,
    classify_factor_dichotomy,
    map_from_descriptor,
    recover_structure,
    verify_counterexample,
)
from .reports import CheckReport, WorstResidual, chunk_sizes
from .samplers import _commuting_projection_pairs
from .unitary import (
    _projection_defect,
    _symmetric_difference_defects,
    circle_inequality_check,
    oc_unitary_equivalences_check,
    oc_unitary_product_check,
)

__all__ = ["RunConfig", "run", "list_suites", "main"]


@dataclass
class RunConfig:
    command: str
    algebra_path: str | None = None
    map_path: str | None = None
    trials: int = 200
    seed: int = 42
    abs_eps: float | None = None
    cluster_eps: float | None = None
    out_path: str | None = None
    epsilon: float = 0.3
    spin_dim: int = 3
    exploratory: bool = False

    def tolerance(self) -> Tolerance:
        names = ("abs_eps", "cluster_eps")
        return Tolerance(**{k: getattr(self, k) for k in names if getattr(self, k) is not None})

    def echo(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "out_path"}


class UsageError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _usage_errors():
    """Report a malformed, out-of-range or too deeply nested input as a usage error."""
    try:
        yield
    except (JBStarError, ValueError, RecursionError) as exc:
        raise UsageError(f"{type(exc).__name__}: {exc}") from exc


def _need_algebra(config: RunConfig) -> AlgebraHandle:
    with _usage_errors():
        tol = config.tolerance()
        if config.command == "counterexample" and config.algebra_path is None:
            return build_spin_factor(config.spin_dim, tol)
        if config.algebra_path is None:
            raise UsageError(f"suite {config.command!r} needs --algebra")
        return algebra_from_descriptor(_load_json(config.algebra_path), tol)


def _check_writable(path: str) -> None:
    """Fail before a suite runs when its report could not be written."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise UsageError(f"cannot write the report to {path}")


def _need_map(config: RunConfig, A: AlgebraHandle) -> MapUnderTest:
    if config.map_path is None:
        raise UsageError(f"suite {config.command!r} needs --map")
    with _usage_errors():
        return map_from_descriptor(_load_json(config.map_path), A)


# -- suite bodies ------------------------------------------------------------


def _suite_axioms(A: AlgebraHandle, trials: int, seed: int) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    jid, axiom, isom = WorstResidual(1e-8), WorstResidual(1e-6), WorstResidual(1e-9)
    for size in chunk_sizes(trials):
        a, b = _random_rows(A, rng, 2 * size).reshape(size, 2, A.dim).swapaxes(0, 1)
        jd, ad, na, nb = _axiom_defects(A, a, b)
        jid.add(jd / ((1.0 + na) * (1.0 + nb) ** 3))
        axiom.add(ad / (1.0 + na**3))
        isom.add(abs(A._norm(A._inv(a)) - na) / (1.0 + na))
    return [
        jid.report(f"jordan-identity[{A.id}]"),
        axiom.report(f"jbstar-axiom[{A.id}]"),
        isom.report(f"involution-isometric[{A.id}]"),
    ]


def _suite_symmetric_difference(A: AlgebraHandle, trials: int, seed: int) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    acc = WorstResidual(1e-8)
    for size in chunk_sizes(trials):
        p, q = _commuting_projection_pairs(A, rng, size)  # a draw with a single spectral node does not count
        if len(p):
            d, e = _symmetric_difference_defects(A, p, q)
            acc.add(np.maximum(_projection_defect(A, d), A._norm(e)))
    return [acc.report(f"symmetric-difference[{A.id}]")]


def _suite_kaup(A: AlgebraHandle, trials: int, seed: int) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    tripotents = [A.unit] + [sample_tripotent(A, rng) for _ in range(2)]
    per = max(trials // len(tripotents), 10)
    reports = [kaup_identity_check(A, e, per, seed + i) for i, e in enumerate(tripotents)]
    worst = WorstResidual()
    worst.add([r.max_residual for r in reports])
    passed, counted = all(r.passed for r in reports), sum(r.trials for r in reports)
    return [CheckReport(f"kaup-identity[{A.id}]", passed, counted, worst.worst)]  # kaup keeps no witness


def _suite_preserver(m: MapUnderTest, trials: int, seed: int) -> list[CheckReport]:
    return [
        check_piecewise_hom_on_unitaries(m, min(trials, 50), seed),
        check_generator_properties(m, min(max(trials // 10, 5), 20), seed),
    ]


def _suite_counterexample(config: RunConfig, A: AlgebraHandle) -> list[CheckReport]:
    if not isinstance(A, SpinFactor):
        raise UsageError("the counterexample suite needs a spin algebra")
    with _usage_errors():  # --epsilon out of range, before the suite runs
        cx = build_spin_counterexample(A.n, config.epsilon, A.tol)
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


def _suite_structure_recovery(m: MapUnderTest, trials: int, seed: int) -> list[CheckReport]:
    rec = recover_structure(m, trials=trials, seed=seed)
    passed = rec.hom_residual <= 1e-6 and rec.linearity_residual <= 1e-6
    return [
        CheckReport(
            name=f"structure-recovery[{m.label}]",
            passed=passed,
            trials=trials,
            max_residual=float(np.max([rec.hom_residual, rec.linearity_residual])),  # a NaN wins
            details={
                "hom_residual": rec.hom_residual,
                "linearity_residual": rec.linearity_residual,
                "w_central_symmetry": rec.w_central_symmetry,
                "peirce2_dim": rec.peirce2.dim,
            },
        )
    ]


def _suite_factor_dichotomy(theta: MapUnderTest, trials: int, seed: int) -> list[CheckReport]:
    star = map_from_descriptor({"kind": "star"}, theta.source)
    phi_inv = MapUnderTest(
        theta.source,
        theta.target,
        _chained([star.eval, theta.eval]),  # stacked when theta is
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
    f = vectorize_map(m.eval)
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


# name -> (description, body(config, A, m)), in `jbstar list` order; m()
# loads the map, so only the suites that take one read --map
_SUITES = {
    "axioms": ("Jordan identity, JB*-axiom, and involution isometry residuals",
               lambda c, A, m: _suite_axioms(A, c.trials, c.seed)),
    "oc-equivalences": ("operator-commutativity equivalences for unitary exponentials",
                        lambda c, A, m: [oc_unitary_equivalences_check(A, c.trials, c.seed,
                                                                       adversarial=max(c.trials // 4, 5))]),
    "unitary-piecewise": ("Jordan products of operator-commuting unitary pairs stay unitary",
                          lambda c, A, m: [oc_unitary_product_check(A, c.trials, c.seed)]),
    "circle-inequality": ("n||u-1|| <= (pi/2)||u^n-1|| on sampled unitaries",
                          lambda c, A, m: [circle_inequality_check(A, c.trials, c.seed)]),
    "peirce": ("Peirce projection partition/idempotency/orthogonality invariants",
               lambda c, A, m: [peirce_invariants_check(A, max(c.trials // 10, 5), c.seed)]),
    "kaup": ("ambient triple product vs the triple product of the concrete Peirce-2 model",
             lambda c, A, m: _suite_kaup(A, c.trials, c.seed)),
    "preserver": ("piecewise homomorphism and generator properties of a supplied map",
                  lambda c, A, m: _suite_preserver(m(), c.trials, c.seed)),
    "factor-dichotomy": ("Phi = theta vs Phi = theta(u^{-1}) classification",
                         lambda c, A, m: _suite_factor_dichotomy(m(), c.trials, c.seed)),
    "structure-recovery": ("Peirce-2 structure recovery for an OC-additive quadratic map",
                           lambda c, A, m: _suite_structure_recovery(m(), c.trials, c.seed)),
    "counterexample": ("spin-factor sharpness example with its expected additivity failure",
                       lambda c, A, m: _suite_counterexample(c, A)),
    "linearity": ("linearity-from-boundedness desk check",
                  lambda c, A, m: _suite_linearity(A, m(), c.trials, c.seed, c.exploratory)),
    "symmetric-difference": ("p Delta q projection and symmetry product identities",
                             lambda c, A, m: _suite_symmetric_difference(A, c.trials, c.seed)),
}


def list_suites() -> list[tuple[str, str]]:
    """Stable (name, description) pairs for every runnable suite."""
    return [(name, desc) for name, (desc, _) in _SUITES.items()]


def run(config: RunConfig) -> tuple[dict, int]:
    """Dispatch a suite and build the report document.

    Returns (document, exit_status); the document's verdict is "pass" iff
    every non-negative-control check passed.
    """
    started = time.time()
    cmd = config.command
    if cmd not in _SUITES:
        raise UsageError(f"unknown suite {cmd!r}; see `jbstar list`")
    A = _need_algebra(config)
    if config.trials < 1:
        raise UsageError("--trials must be >= 1")
    if config.seed < 0:
        raise UsageError("--seed must be >= 0")
    checks = _SUITES[cmd][1](config, A, lambda: _need_map(config, A))
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
    # a string default goes through type=int, so a bad JBSTAR_SEED is a usage error
    default_seed = os.environ.get("JBSTAR_SEED", "42")
    for name, desc in list_suites():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--algebra", dest="algebra_path", help="algebra descriptor JSON file")
        p.add_argument("--map", dest="map_path", help="map descriptor JSON file")
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--seed", type=int, default=default_seed, help="default: $JBSTAR_SEED or 42")
        p.add_argument("--abs-eps", dest="abs_eps", type=float, default=None)
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
