"""The package keeps what the benchmark calls and wraps.

``perfbench/workloads.py`` computes every workload's expected scores with
its own ``Oracle``, which calls ``sparql.substitute``, ``sparql.eval_ask``,
``catalog.expand_extended``, ``scoring.QueryOutcome(id, ok, failure)`` and
``scoring.build_result`` directly.  Nothing in the package calls the first
two, so this test is what keeps them, and the way the oracle calls them,
in place.

``perfbench/tracing.py`` counts parsed triples by wrapping the module
globals ``kgaudit.transport.parse_ntriples`` and
``kgaudit.client.parse_ntriples``.  A transcript query and a journal load
must parse through them, or ``rdf.parse_triples`` silently reads zero.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from kgaudit import catalog, client, rdf, scoring, sparql, transport
from kgaudit.client import CampaignConfig, Journal, discover_in_graph, run_campaign

from helpers import FIXTURES, counted_parse

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
    results = scoring.score_datasets(catalog.default_catalog(), graph, datasets)
    expected = {result.dataset: str(result.score) for result in results}
    assert {d.value: oracle.score(graph, d.value) for d in datasets} == expected


def test_transcript_queries_and_journal_loads_parse_through_the_wrap_points(
    tmp_path, monkeypatch
):
    by_transcript = counted_parse(monkeypatch, transport)
    by_journal = counted_parse(monkeypatch, client)
    journal = str(tmp_path / "journal.jsonl")
    replay = transport.TranscriptTransport(str(FIXTURES / "campaign.yaml"))
    config = CampaignConfig(
        ["http://example.org/sparql"], runs=1, delay=0.0, journal_path=journal, transport=replay
    )
    run_campaign(config)
    assert by_transcript and not by_journal
    Journal(journal, catalog.default_catalog(), 1).load()
    assert by_journal
