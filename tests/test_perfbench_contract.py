"""The benchmark's oracle, built from this package, scores like the package.

``perfbench/workloads.py`` computes every workload's expected scores with
its own ``Oracle``, which calls ``sparql.substitute``, ``sparql.eval_ask``,
``catalog.expand_extended``, ``scoring.QueryOutcome(id, ok, failure)`` and
``scoring.build_result`` directly.  Nothing in the package calls the first
two, so this test is what keeps them, and the way the oracle calls them,
in place.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from kgaudit import catalog, rdf, scoring, sparql
from kgaudit.client import discover_in_graph

from helpers import FIXTURES

WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def oracle():
    """The benchmark's oracle over the default catalog, its module loaded
    without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = dont_write
    program = SimpleNamespace(catalog=catalog, rdf=rdf, scoring=scoring, sparql=sparql)
    return workloads.Oracle(program, catalog.default_catalog())


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.nt")), ids=lambda path: path.name)
def test_oracle_scores_like_score_datasets(oracle, path):
    graph = rdf.load_rdf(str(path))
    datasets = discover_in_graph(graph)
    assert datasets
    results, _ = scoring.score_datasets(catalog.default_catalog(), graph, datasets)
    expected = {result.dataset: str(result.score) for result in results}
    assert {d.value: oracle.score(graph, d.value) for d in datasets} == expected
