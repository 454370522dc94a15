"""jbstar benchmark: timed calls into jbstar's public API, with checked outputs.

    python3 bench/run.py --workload suites --seed 1 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout; jbstar is imported from ``src/``.
One run sets up (fresh import of jbstar, handles, descriptors, inputs from
the seed, one warm-up call of each kind), then calls every operation of the
workload once per round, in a seeded shuffled order, until ``--seconds``
(default: ``run_seconds`` of BENCHMARK.json) have passed, and checks every
output.  It sets up SETUP_REPEATS - 1 more times, spread over the run, and
reports the median set-up time.  Times are scaled to nominal host speed by
a fixed reference timed between operations, and around each set-up
(bench/README.md says why); the line before the last gives the reference
times and the factors.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
BENCHMARK.json with ``--trace 1``).  An operation that raises or whose
output disagrees with its check counts as failed; unless its inputs are
pinned (fixed whatever the seed), it also makes ``correct`` false.

With ``--trace 1`` rounds alternate between untraced and traced; the
per-layer metrics come from the traced rounds, and ``trace.overhead_pct``
compares the two.  Spans are written to ``bench/out/trace-<workload>-<seed>.npz``.
``--smoke`` runs one untraced and one traced round of every workload.
"""

from __future__ import annotations

import os

# one BLAS thread: on a 2-core host threaded BLAS timings are noisy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
# Host-speed reference: timed between operations, at most every REF_EVERY_S.
# Timings are reported scaled to a reference time of REF_NOMINAL_S, the
# reference's usual median on the 2-core host the bounds were measured on.
REF_EVERY_S = 0.05
REF_NOMINAL_S = 1.3e-3
_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((12, 12)) + 1j * _REF_RNG.standard_normal((12, 12))
_REF_LARGE = _REF_RNG.standard_normal((64, 64)) + 1j * _REF_RNG.standard_normal((64, 64))


def reference_work() -> None:
    """Fixed work that shares no code with jbstar, in the same mix of
    interpreter loops, small numpy products and a LAPACK call."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    a = _REF_SMALL
    for _ in range(30):
        a = 0.5 * (a @ _REF_SMALL + _REF_SMALL @ a)
        a = a / np.linalg.norm(a)
    np.linalg.svd(_REF_LARGE, compute_uv=False)


def reference_time(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` calls of ``reference_work``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def jbstar_modules() -> dict[str, types.ModuleType]:
    return {n: m for n, m in sys.modules.items() if n == "jbstar" or n.startswith("jbstar.")}


def fresh_import() -> tuple[types.SimpleNamespace, list[types.ModuleType]]:
    """Import jbstar from the checkout's src/, dropping any earlier import."""
    for name in jbstar_modules():
        del sys.modules[name]
    mods = types.SimpleNamespace(
        **{layer: importlib.import_module(f"jbstar.{layer}") for layer in tracing.LAYERS}
    )
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"jbstar was imported from {mods.cli.__file__}, not from {SRC}")
    return mods, list(jbstar_modules().values())


def run_op(op, tracer=None):
    """Time one call; returns (seconds, exception or None, output)."""
    span = tracer.begin("op." + op.kind) if tracer else None
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # recorded as a failed operation with its name
        dt = time.perf_counter() - t0
        if tracer:
            tracer.finish(span, raised=True)
        return dt, exc, None
    dt = time.perf_counter() - t0
    if tracer:
        tracer.finish(span)
    return dt, None, out


def setup(workload: str, seed: int):
    """One set-up; returns its wall time, the reference time taken around
    it (the median of three timings before and three after), and its
    modules and operations."""
    before = reference_time()
    t0 = time.perf_counter()
    mods, package = fresh_import()
    ops, warmups = WORKLOADS[workload](mods, seed, OUT / "descriptors")
    for op in warmups:
        run_op(op)
    dt = time.perf_counter() - t0
    return dt, statistics.median([before, reference_time()]), mods, package, ops


class Batch:
    """Per-operation call durations of the untraced or the traced rounds,
    and the reference times taken between them."""

    def __init__(self, n_ops: int):
        self.durations: list[list[float]] = [[] for _ in range(n_ops)]
        self.references: list[float] = []
        self.rounds = 0

    def host_scale(self) -> float:
        """Factor that takes this batch's times to the nominal host speed."""
        return REF_NOMINAL_S / statistics.median(self.references)

    def metrics(self, scale: float) -> dict[str, float]:
        # Each operation's median over the rounds, so that bursts of slower
        # or faster running, which last seconds, count only when they cover
        # most of a run; a total or a pooled median keeps them.
        typical = [scale * statistics.median(ds) for ds in self.durations]
        return {
            "ops_per_s": len(typical) / sum(typical),
            "op_p50_ms": 1e3 * statistics.median(typical),
        }


def measure(ops, seconds: float, seed: int, tracer=None, between_ops=None):
    """Run whole rounds until ``seconds`` have passed (and, when tracing,
    until there is at least one untraced and one traced round).
    ``between_ops(elapsed)`` is called after each operation of an untraced
    round."""
    plain, traced = Batch(len(ops)), Batch(len(ops))
    failures: Counter = Counter()  # pinned operations that raised or disagreed
    wrong: Counter = Counter()  # any other operation that did
    attempted = 0
    t_begin = last_ref = time.perf_counter()
    r = 0
    while True:
        in_trace = tracer is not None and r % 2 == 1
        batch = traced if in_trace else plain
        if in_trace:
            tracer.install()
            round_span = tracer.begin("round")
        for i in np.random.default_rng([seed, r]).permutation(len(ops)):
            op = ops[i]
            dt, exc, out = run_op(op, tracer if in_trace else None)
            batch.durations[i].append(dt)
            attempted += 1
            if time.perf_counter() - last_ref >= REF_EVERY_S or not batch.references:
                t0 = time.perf_counter()
                reference_work()
                last_ref = time.perf_counter()
                batch.references.append(last_ref - t0)
            if exc is None:
                try:
                    op.check(out)
                except Mismatch as bad:
                    exc = bad
            if exc is not None:
                (failures if op.pinned else wrong)[f"{op.label} {type(exc).__name__}: {exc}"] += 1
            if between_ops and not in_trace:
                between_ops(time.perf_counter() - t_begin)
        if in_trace:
            tracer.finish(round_span)
            tracer.remove()
        batch.rounds += 1
        r += 1
        if time.perf_counter() - t_begin >= seconds and (tracer is None or traced.rounds > 0):
            break
    return plain, traced, attempted, failures, wrong


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, traced: bool, repeats: int = SETUP_REPEATS) -> dict:
    dt, ref, mods, package, ops = setup(workload, seed)
    setups, setup_refs = [dt], [ref]

    def another_setup() -> None:
        # The operations keep the first set-up's modules; a later set-up is
        # only timed, and the first one's modules are put back after it.
        kept = jbstar_modules()
        dt, ref, *_ = setup(workload, seed)
        for name in jbstar_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        setups.append(dt)
        setup_refs.append(ref)

    def between_ops(elapsed: float) -> None:
        # spread the set-ups over the run: bursts of slow or fast running
        # last seconds, longer than all the set-ups would take back to back
        if len(setups) < repeats and elapsed >= len(setups) * seconds / repeats:
            another_setup()

    tracer = tracing.Tracer(mods, package) if traced else None
    plain, traced_batch, attempted, failures, wrong = measure(ops, seconds, seed, tracer, between_ops)
    while len(setups) < repeats:
        another_setup()
    scale = plain.host_scale()
    e2e = plain.metrics(scale)
    # each set-up scaled by the reference timed around it, not by the rounds'
    e2e["setup_s"] = statistics.median(REF_NOMINAL_S / ref * dt for dt, ref in zip(setups, setup_refs))
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    print(f"workload {workload} seed {seed}: {plain.rounds} rounds of {len(ops)} operations; "
          f"reference median {1e3 / scale * REF_NOMINAL_S:.4f} ms, times below scaled by {scale:.4f}")
    for name, value in e2e.items():
        print(f"  {name:12s} {value:12.4f} {units[name]}")
    failed = sum(failures.values()) + sum(wrong.values())
    print(f"  attempted {attempted}, failed {failed}")
    for what, count in sorted(failures.items()):
        print(f"  failed x{count}: {what}")
    for what, count in sorted(wrong.items()):
        print(f"  WRONG x{count}: {what}")
    if traced:
        t_scale = traced_batch.host_scale()
        layers = tracer.layer_metrics(traced_batch.rounds, t_scale)
        t_metrics = traced_batch.metrics(t_scale)
        layers[tracing.OVERHEAD] = 100.0 * (e2e["ops_per_s"] / t_metrics["ops_per_s"] - 1.0)
        print(f"  traced rounds {traced_batch.rounds}: ops_per_s {t_metrics['ops_per_s']:.4f}, "
              f"op_p50_ms {t_metrics['op_p50_ms']:.4f}, overhead {layers[tracing.OVERHEAD]:.1f}%")
        path = OUT / f"trace-{workload}-{seed}.npz"
        tracer.save(path)
        print(f"  spans: {len(tracer.name)} written to {path.relative_to(ROOT)}")
        declared = benchmark_spec()["per_layer"]
        unknown = [m["name"] for m in declared if m["name"] not in layers]
        if unknown:
            raise SystemExit(f"BENCHMARK.json names per-layer metrics the trace lacks: {unknown}")
        metrics = {m["name"]: {"value": float(layers[m["name"]]), "unit": m["unit"]} for m in declared}
    else:
        metrics = {name: {"value": float(value), "unit": units[name]} for name, value in e2e.items()}
    # The result object's keys are fixed, so the host-speed reference that
    # every time above is scaled by goes on a line of its own before it.
    print(json.dumps({"host_reference": {
        "rounds_reference_ms": 1e3 * statistics.median(plain.references),
        "rounds_scale": scale,
        "setup_reference_ms": [1e3 * r for r in setup_refs],
        "setup_raw_s": setups,
        "nominal_reference_ms": 1e3 * REF_NOMINAL_S,
    }}))
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def smoke() -> int:
    """One untraced and one traced round of every workload, all checks on."""
    ok = True
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        result = run(workload, seed=1, seconds=0, traced=True, repeats=1)
        ok = ok and result["correct"]
        print(json.dumps({"workload": workload, "seconds": round(time.perf_counter() - t0, 1),
                          **{k: result[k] for k in ("correct", "attempted", "failed")}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short traced run of every workload")
    args = parser.parse_args(argv)
    if not (SRC / "jbstar" / "__init__.py").is_file():
        print(f"no jbstar sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
