"""Fixed-seed reports of every CLI suite, compared against a recorded file.

Every suite runs through ``cli.run`` on H3, S4 and H3+S3 at seed 42 with
20 trials; the suites that take a map run with the identity, star and
transpose maps.  Each run records its exit status, or the name of the
exception it raised, and for every check its name, verdict, trial count,
expected-fail flag, worst residual, details and witness.  Non-float values
must match exactly and floats within 1e-12 * (1 + |recorded|).

Run ``python tests/test_golden_reports.py`` to rewrite
``tests/golden_reports.json`` from the current code; the test only reads it.
``python tests/test_golden_reports.py --diff`` prints every value of the
current code's records that moved against the file, floats with their move
in units of (1 + |recorded|), and writes nothing.
``python tests/test_golden_reports.py --trials N --out PATH`` writes the
records of N-trial runs to PATH, for comparing two commits at a trial count
that crosses a chunk boundary; only 20-trial records go to the golden file.
``python tests/test_golden_reports.py --diff --against PATH [--trials N]``
diffs the current N-trial records against such a file, for example one
written by another commit's own ``--out``.
"""

import argparse
import json
import math
import os
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")
SEED = 42
TRIALS = 20
ALGEBRAS = {
    "H3": {"kind": "hermitian_matrix", "n": 3},
    "S4": {"kind": "spin", "n": 4},
    "H3+S3": {
        "kind": "direct_sum",
        "parts": [{"kind": "hermitian_matrix", "n": 3}, {"kind": "spin", "n": 3}],
    },
}
MAPS = ("identity", "star", "transpose")
MAP_SUITES = {"preserver", "factor-dichotomy", "structure-recovery", "linearity"}
CHECK_FIELDS = ("name", "passed", "trials", "expected_fail", "max_residual", "details", "witness")


def _runs(workdir, trials):
    """(key, RunConfig) for every suite x algebra (x map for map suites)."""
    from jbstar.cli import RunConfig, list_suites

    def write(name, doc):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    algebras = {name: write(name, doc) for name, doc in ALGEBRAS.items()}
    maps = {name: write("map-" + name, {"kind": name}) for name in MAPS}
    for suite, _ in list_suites():
        for alg, alg_path in algebras.items():
            for mp in MAPS if suite in MAP_SUITES else (None,):
                key = f"{suite}|{alg}" + (f"|{mp}" if mp else "")
                cfg = RunConfig(
                    command=suite,
                    algebra_path=alg_path,
                    map_path=maps[mp] if mp else None,
                    trials=trials,
                    seed=SEED,
                )
                yield key, cfg


def record_all(trials: int = TRIALS) -> dict:
    """Run every golden configuration, at ``trials`` trials, and return its
    records by key."""
    from jbstar.cli import run

    records = {}
    with tempfile.TemporaryDirectory() as workdir:
        for key, cfg in _runs(workdir, trials):
            try:
                doc, status = run(cfg)
            except Exception as exc:  # recorded, so a change of exception shows up
                records[key] = {"raises": type(exc).__name__}
                continue
            checks = [{f: chk.get(f) for f in CHECK_FIELDS} for chk in doc["checks"]]
            records[key] = {"status": status, "checks": checks}
    # a JSON round trip turns tuples into lists, as in the recorded file
    return json.loads(json.dumps(records))


def _mismatches(got, want, path="$", tol=1e-12):
    """The values of ``got`` that differ from ``want``; a float counts only
    when it moved by more than tol (1 + |recorded|)."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool):
            return [] if got is want else [f"{path}: {got!r} != {want!r}"]
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return [f"{path}: {got!r} != {want!r}"]
        if got == want or (math.isnan(got) and math.isnan(want)):
            return []
        move = abs(got - want) / (1.0 + abs(want))
        if move <= tol:
            return []
        return [f"{path}: {got!r} != {want!r} (moved {move:.2e})"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}", tol)]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        pairs = enumerate(zip(got, want))
        return [m for i, (g, w) in pairs for m in _mismatches(g, w, f"{path}[{i}]", tol)]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_fixed_seed_reports_match_the_recorded_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    got = record_all()
    assert len(want) == 60
    problems = _mismatches(got, want)
    assert not problems, "\n".join(problems[:20])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden file, or diff against it or another records file.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--diff", action="store_true", help="print what moved against the file; write nothing")
    mode.add_argument("--out", default=GOLDEN, help="write the records here (default: the golden file)")
    parser.add_argument("--against", default=GOLDEN, help="the records --diff reads (default: the golden file)")
    parser.add_argument("--trials", type=int, default=TRIALS, help=f"trials per run (default {TRIALS})")
    args = parser.parse_args()
    if args.against != GOLDEN and not args.diff:
        parser.error("--against needs --diff")
    target = os.path.abspath(args.against if args.diff else args.out)
    if args.trials != TRIALS and target == GOLDEN:
        parser.error(f"the golden file holds {TRIALS}-trial records: --trials {args.trials} needs another file")
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "src"))
    if args.diff:
        with open(target, encoding="utf-8") as fh:
            moved = _mismatches(record_all(args.trials), json.load(fh), tol=0.0)
        print("\n".join(moved + [f"{len(moved)} values moved against {target}"]))
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record_all(args.trials), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
