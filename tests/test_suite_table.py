"""The CLI's one suite table: a suite reads --map only when it takes a map,
so a suite without one runs with an unreadable --map, and a map suite
without --map is a usage error before it runs."""

import json

import pytest

from jbstar.algebras import algebra_to_descriptor, build_hermitian_matrix_algebra
from jbstar.cli import RunConfig, UsageError, list_suites, run

MAP_SUITES = {"preserver", "factor-dichotomy", "structure-recovery", "linearity"}


@pytest.mark.parametrize("suite", [name for name, _ in list_suites()])
def test_a_suite_reads_the_map_only_when_it_takes_one(suite, tmp_path):
    h3 = tmp_path / "h3.json"
    h3.write_text(json.dumps(algebra_to_descriptor(build_hermitian_matrix_algebra(3))))
    algebra = None if suite == "counterexample" else str(h3)
    if suite in MAP_SUITES:
        with pytest.raises(UsageError, match=f"suite '{suite}' needs --map"):
            run(RunConfig(command=suite, algebra_path=algebra, trials=5, seed=1))
    else:
        missing = str(tmp_path / "no-such-map.json")
        doc, _ = run(RunConfig(command=suite, algebra_path=algebra, map_path=missing, trials=5, seed=1))
        assert doc["checks"]
