import json
import math

import numpy as np

from jbstar import reports
from jbstar.cli import RunConfig, run
from jbstar.reports import WorstResidual, chunk_sizes, worst_over_trials
from test_golden_reports import _mismatches


def _replay(draws):
    """Trial callable returning the given draws in order."""
    it = iter(draws)
    return lambda rng: next(it)


def test_worst_over_trials_keeps_the_worst_witness_above_tol():
    draws = [(0.1, "a"), (0.5, "b"), (0.3, "c")]
    rep = worst_over_trials("x", None, 3, 0.2, _replay(draws))
    assert (rep.passed, rep.trials, rep.max_residual, rep.witness) == (False, 3, 0.5, "b")


def test_worst_over_trials_drops_the_witness_below_tol():
    draws = [(0.1, "a"), (0.15, "b")]
    rep = worst_over_trials("x", None, 2, 0.2, _replay(draws), threshold=0.2)
    assert (rep.passed, rep.max_residual, rep.witness) == (True, 0.15, None)
    assert rep.details == {"threshold": 0.2}


def test_worst_over_trials_counts_only_the_draws_that_count():
    draws = [None, (0.1, "a"), None, (0.05, "b")]
    rep = worst_over_trials("x", None, 4, 0.2, _replay(draws))
    assert rep.passed and rep.trials == 2 and rep.max_residual == 0.1


def test_worst_over_trials_with_no_counted_draw_fails():
    rep = worst_over_trials("x", None, 3, 0.2, _replay([None] * 3))
    assert not rep.passed and rep.trials == 0 and rep.max_residual == 0.0


def test_worst_over_trials_starts_from_start_and_passes_the_generator():
    rng = np.random.default_rng(0)
    seen = []

    def trial(g):
        seen.append(g)
        return -1.0, "w"

    rep = worst_over_trials("x", rng, 2, 0.0, trial, start=-math.inf)
    assert seen == [rng, rng]
    assert rep.passed and rep.max_residual == -1.0 and rep.witness is None
    # a start above tol fails the report even though every draw is below it
    rep = worst_over_trials("x", rng, 2, 0.0, trial, start=0.5)
    assert not rep.passed and rep.max_residual == 0.5 and rep.witness is None


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
    acc.add([float("nan"), 0.25], lambda i: i)  # a NaN never becomes the worst
    assert (acc.worst, acc.witness, acc.counted) == (0.25, 1, 4)


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
