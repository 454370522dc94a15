import math

import numpy as np

from jbstar.reports import worst_over_trials


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
