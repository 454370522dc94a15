import json
import math

import numpy as np
import pytest

from jbstar import reports
from jbstar.cli import RunConfig, run
from jbstar.reports import WorstResidual, chunk_sizes
from test_golden_reports import _mismatches


def test_worst_residual_ties_go_to_the_first_draw():
    acc = WorstResidual(0.2)
    acc.add([0.1, 0.5, 0.3, 0.5], lambda i: "abcd"[i])
    assert (acc.worst, acc.witness, acc.counted) == (0.5, "b", 4)
    acc.add([0.5], lambda i: "e")  # a tie in a later stack does not replace it
    assert (acc.witness, acc.counted) == ("b", 5)
    assert not acc.report("x").passed


def test_worst_residual_keeps_a_witness_only_above_tol():
    acc = WorstResidual(0.2)
    acc.add(np.array([0.1, 0.15]), lambda i: i)
    rep = acc.report("x", threshold=0.2)
    assert (rep.passed, rep.trials, rep.max_residual, rep.witness) == (True, 2, 0.15, None)
    assert rep.details == {"threshold": 0.2}
    acc.add([0.25, 0.3], lambda i: i)
    assert (acc.worst, acc.witness, acc.counted) == (0.3, 1, 4)


def test_worst_residual_respects_start():
    acc = WorstResidual(0.0, -math.inf)
    acc.add([-2.0, -1.0, -1.5])
    assert acc.report("x").passed and acc.worst == -1.0
    acc = WorstResidual(0.0, 0.5)
    acc.add([0.1, 0.2], lambda i: i)
    rep = acc.report("x")
    assert not rep.passed and rep.max_residual == 0.5 and rep.witness is None


def test_worst_residual_with_an_empty_stack_fails():
    acc = WorstResidual(0.2)
    acc.add(np.zeros(0))
    rep = acc.report("x")
    assert not rep.passed and rep.trials == 0 and rep.max_residual == 0.0


def test_worst_residual_without_tol_is_the_largest_residual():
    acc = WorstResidual()
    acc.add(np.array([[0.1, 0.5], [3.0, 2.0]]), lambda i: i)
    acc.add(1.5)
    assert (acc.worst, acc.witness, acc.counted) == (3.0, None, 5)


@pytest.mark.parametrize("tol", [1e-7, math.inf])
def test_a_nan_residual_wins_for_good_and_fails_the_report(tol):
    acc = WorstResidual(tol)
    acc.add([float("nan"), float("nan")], lambda i: i)
    rep = acc.report("x")
    assert not rep.passed and math.isnan(rep.max_residual) and rep.witness == 0
    acc = WorstResidual(tol)
    acc.add([0.1, 2.0, float("nan"), 5.0], lambda i: i)  # neither a later nor a larger value replaces it
    acc.add([float("nan"), 7.0], lambda i: ("later", i))
    assert math.isnan(acc.worst) and acc.witness == 2 and not acc.report("x").passed


def _reference_fold(tol, start, stacks):
    """(worst, witness, counted) of feeding ``stacks`` in turn, each stack's
    worst found by numpy: the first NaN, which stays the worst, or else the
    first of equal maxima by argmax."""
    worst, witness, counted = start, None, 0
    for k, stack in enumerate(stacks):
        r = np.asarray(stack, dtype=float).ravel()
        counted += r.size
        if math.isnan(worst):
            continue
        if np.isnan(r).any():
            worst, witness = math.nan, (k, int(np.argmax(np.isnan(r))))
            continue
        r = np.append(r, -np.inf)
        i = int(np.argmax(r))
        if r[i] > worst:
            worst = float(r[i])
            if worst > tol:
                witness = (k, i)
    return worst, witness, counted


def _random_stack(rng):
    """A scalar (float, numpy scalar or 0-d array), an empty stack, or a 1-D
    or 2-D stack, of values that tie often and hold NaNs and negatives."""
    values = np.array([np.nan, -1.0, 0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 2.0])
    draw = lambda shape: rng.choice(values, size=shape) if rng.random() < 0.7 else rng.uniform(-1, 2, shape)
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return float(draw(()))
    if kind == 1:
        return np.float64(draw(()))
    if kind == 2:
        return np.asarray(draw(()))
    if kind == 3:
        return np.zeros((0,)) if rng.random() < 0.5 else []
    if kind == 4:
        return draw((int(rng.integers(1, 9)),))
    return draw((int(rng.integers(1, 4)), int(rng.integers(1, 4))))


def test_worst_residual_matches_the_reference_fold():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        tol = float(rng.choice([0.0, 0.2, 0.5, math.inf]))
        start = float(rng.choice([-math.inf, 0.0, 0.5]))
        stacks = [_random_stack(rng) for _ in range(int(rng.integers(0, 6)))]
        acc = WorstResidual(tol, start)
        for k, stack in enumerate(stacks):
            acc.add(stack, lambda i, k=k: (k, i))
        got, want = (acc.worst, acc.witness, acc.counted), _reference_fold(tol, start, stacks)
        assert str(got) == str(want), stacks  # str: NaN equals NaN
        assert type(acc.worst) is float


def test_chunk_sizes_cover_the_trials():
    assert chunk_sizes(2 * reports.CHUNK + 3) == [reports.CHUNK, reports.CHUNK, 3]
    assert chunk_sizes(1) == [1]


def test_chunk_size_does_not_change_the_stacked_reports(tmp_path, monkeypatch):
    docs = {"H3": {"kind": "hermitian_matrix", "n": 3}, "S4": {"kind": "spin", "n": 4}}
    # kaup gives each of its three tripotents a third of the trials: two
    # chunks each by default, one draw per chunk when patched
    trials = 3 * (reports.CHUNK + 10)

    def runs():
        out = {}
        for name, doc in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            for suite in ("kaup", "axioms"):
                report, status = run(RunConfig(suite, algebra_path=str(path), trials=trials, seed=7))
                out[f"{suite}|{name}"] = [status, json.loads(json.dumps(report["checks"]))]
        return out

    default = runs()
    monkeypatch.setattr(reports, "CHUNK", 1)
    assert chunk_sizes(3) == [1, 1, 1]
    assert not _mismatches(runs(), default)
