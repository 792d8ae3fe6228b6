"""Client tests: discovery, fetching, campaign runs, journaling."""

from __future__ import annotations

import copy
import hashlib
import json
import random

import pytest
import yaml

import kgaudit.catalog
from kgaudit import client, reporting
from kgaudit.catalog import default_catalog, dump_catalog, parse_catalog
from kgaudit.client import (
    CampaignConfig,
    EndpointRun,
    Journal,
    JournalError,
    audit_run,
    build_fetch,
    discover_datasets,
    discover_in_graph,
    evaluate_remote_datasets,
    fetch_metadata,
    merge_runs,
    run_campaign,
)
from kgaudit.rdf import BlankNode, Graph, Iri, Triple, parse_ntriples
from kgaudit.scoring import FailureKind, QueryOutcome
from kgaudit.transport import TranscriptTransport, TransportError

from fractions import Fraction

import test_route_duality as duality
from helpers import FIXTURES, catalog_shapes, catalog_vocabulary

FULL_ENDPOINT = "http://example.org/sparql"
SPARSE_ENDPOINT = "http://sparse.example.org/sparql"
DEAD_ENDPOINT = "http://dead.example.org/sparql"
ENDPOINTS = [FULL_ENDPOINT, SPARSE_ENDPOINT, DEAD_ENDPOINT]
FULL_KG = Iri("http://example.org/kg/full")
FETCH = build_fetch(default_catalog())


@pytest.fixture(scope="module")
def transcript() -> TranscriptTransport:
    return TranscriptTransport(str(FIXTURES / "campaign.yaml"))


@pytest.fixture()
def config(transcript) -> CampaignConfig:
    return CampaignConfig(
        endpoints=list(ENDPOINTS),
        catalog=default_catalog(),
        runs=3,
        delay=0.0,
        transport=transcript,
    )


class CountingTransport:
    """Delegates to an inner transport and counts the queries."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def query(self, url, query, *, timeout, run=0):
        self.count += 1
        return self.inner.query(url, query, timeout=timeout, run=run)

    def run_timestamp(self, url, run):
        return self.inner.run_timestamp(url, run)


class FailingTransport:
    def __init__(self, kind: str):
        self.kind = kind

    def query(self, url, query, *, timeout, run=0):
        raise TransportError(self.kind, "scripted failure")


class FailingPage:
    """Delegates to an inner transport, but request number ``page`` fails
    with ``kind``."""

    def __init__(self, inner, kind: str, page: int = 1):
        self.inner = inner
        self.kind = kind
        self.page = page
        self.count = 0

    def query(self, url, query, *, timeout, run=0):
        self.count += 1
        if self.count == self.page:
            raise TransportError(self.kind, "scripted failure")
        return self.inner.query(url, query, timeout=timeout, run=run)

    def run_timestamp(self, url, run):
        return None


def serve(path, url: str, data: str) -> TranscriptTransport:
    """A one-run transcript of ``url`` serving the N-Triples ``data``."""
    path.write_text(yaml.safe_dump({"endpoints": {url: {"runs": [{"data": data}]}}}))
    return TranscriptTransport(str(path))


# ---------------------------------------------------------------------------
# discovery


def test_discover_datasets(transcript):
    assert discover_datasets(transcript, FULL_ENDPOINT, run=0) == [FULL_KG]


def test_discover_datasets_via_literal_link(tmp_path):
    # some catalogues state the endpoint address as a plain string
    path = tmp_path / "literal.yaml"
    path.write_text(
        "endpoints:\n"
        '  "http://lit.example.org/sparql":\n'
        "    runs:\n"
        "      - available: true\n"
        '        timestamp: "2024-01-01T00:00:00Z"\n'
        "        data: |\n"
        "          <http://example.org/kg/lit> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://rdfs.org/ns/void#Dataset> .\n"
        '          <http://example.org/kg/lit> <http://rdfs.org/ns/void#sparqlEndpoint> "http://lit.example.org/sparql" .\n'
    )
    transport = TranscriptTransport(str(path))
    found = discover_datasets(transport, "http://lit.example.org/sparql")
    assert found == [Iri("http://example.org/kg/lit")]


def test_discover_requires_dataset_typing(tmp_path):
    # an endpoint link alone is not a self-description
    path = tmp_path / "untyped.yaml"
    path.write_text(
        "endpoints:\n"
        '  "http://u.example.org/sparql":\n'
        "    runs:\n"
        "      - available: true\n"
        "        data: |\n"
        "          <http://example.org/kg/u> <http://rdfs.org/ns/void#sparqlEndpoint> <http://u.example.org/sparql> .\n"
    )
    transport = TranscriptTransport(str(path))
    assert discover_datasets(transport, "http://u.example.org/sparql") == []


def test_discover_in_graph_all_classes():
    from kgaudit.client import DATASET_CLASSES

    g = Graph()
    expected = []
    for index, cls in enumerate(DATASET_CLASSES):
        kg = Iri(f"http://example.org/kg/{index}")
        g.add(Triple(kg, Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), cls))
        expected.append(kg)
    assert discover_in_graph(g) == sorted(expected, key=lambda i: i.value)


def test_discover_in_graph_ignores_untyped():
    g = parse_ntriples(
        "<http://example.org/kg/x> <http://purl.org/dc/terms/publisher> <http://example.org/p> .\n"
    )
    assert discover_in_graph(g) == []


def test_discovery_scales_to_many_datasets():
    from kgaudit.client import DATASET_CLASSES

    g = Graph()
    rdf_type = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    link = Iri("http://rdfs.org/ns/void#sparqlEndpoint")
    for index in range(166):
        kg = Iri(f"http://big.example.org/kg/{index:03d}")
        g.add(Triple(kg, rdf_type, DATASET_CLASSES[index % len(DATASET_CLASSES)]))
        g.add(Triple(kg, link, Iri("http://big.example.org/sparql")))
    assert len(discover_in_graph(g)) == 166


# ---------------------------------------------------------------------------
# fetch_metadata


RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
VOID_DATASET = "<http://rdfs.org/ns/void#Dataset>"
SPARQL_ENDPOINT = "<http://rdfs.org/ns/void#sparqlEndpoint>"


def discoverable(subject: str, url: str) -> str:
    """N-Triples that make ``subject`` a dataset ``url`` describes."""
    return f"{subject} {RDF_TYPE} {VOID_DATASET} .\n{subject} {SPARQL_ENDPOINT} <{url}> .\n"


def test_fetch_includes_incoming_service_description(transcript):
    g, datasets = fetch_metadata(transcript, FULL_ENDPOINT, FETCH)
    assert datasets == (FULL_KG.value,)
    service = Iri("http://example.org/service/main")
    assert len(list(g.match(service, None, None))) == 2


def test_fetch_radius_is_two_hops(tmp_path):
    url = "http://c.example.org/sparql"
    transport = serve(
        tmp_path / "chain.yaml",
        url,
        discoverable("<http://e.org/kg>", url)
        + "<http://e.org/kg> <http://e.org/p> <http://e.org/a> .\n"
        "<http://e.org/a> <http://e.org/p> <http://e.org/b> .\n"
        "<http://e.org/b> <http://e.org/p> <http://e.org/c> .\n"
        "<http://e.org/c> <http://e.org/p> <http://e.org/d> .\n",
    )
    g, _ = fetch_metadata(transport, url, FETCH)
    assert len(g) == 4  # the chain's first two links, the type and the endpoint link
    assert not list(g.match(Iri("http://e.org/b"), None, None))


class RowCounting(CountingTransport):
    """Counts the queries and the rows they answer with."""

    rows = 0

    def query(self, url, query, *, timeout, run=0):
        answer = super().query(url, query, timeout=timeout, run=run)
        self.rows += len(answer)
        return answer


def test_fetch_pages_through_large_nodes(transcript):
    counting = RowCounting(transcript)
    paged = fetch_metadata(counting, FULL_ENDPOINT, FETCH, page_size=7)
    full = fetch_metadata(transcript, FULL_ENDPOINT, FETCH)
    assert paged == full
    # kg/full, the run's only dataset, answers with 34 rows: four full
    # pages of 7, then one of 6
    assert counting.rows == 34
    assert counting.count == counting.rows // 7 + 1


def test_fetch_names_blank_nodes_after_their_row(tmp_path):
    url = "http://b.example.org/sparql"
    transport = serve(
        tmp_path / "bnodes.yaml",
        url,
        discoverable("<http://e.org/kg>", url)
        + '<http://e.org/kg> <http://e.org/p> _:x .\n_:x <http://e.org/q> "v" .\n',
    )
    g, _ = fetch_metadata(transport, url, FETCH)
    # _:x comes in two rows, one per fixed branch: two nodes
    objects = {t.object for t in g.match(Iri("http://e.org/kg"), Iri("http://e.org/p"), None)}
    assert len(objects) == 2 and len(g) == 2 + 3
    # named by a SHA-256 digest of the row, so the bytes repeat in any process
    row = '\n'.join(['branch "0"', "kg <http://e.org/kg>", "v0 <http://e.org/p>", "v1 _:x"])
    one_hop = BlankNode(hashlib.sha256(row.encode("utf-8")).hexdigest() + "x")
    assert one_hop in objects
    assert fetch_metadata(transport, url, FETCH) == (g, ("http://e.org/kg",))


DCAT_DATASET = "<http://www.w3.org/ns/dcat#Dataset>"
METADATA = (
    '<http://e.org/kg> <http://purl.org/dc/terms/title> "T" .\n'
    "<http://e.org/kg> <http://purl.org/dc/terms/publisher> <http://e.org/acme> .\n"
)


def test_fetch_does_not_multiply_rows(tmp_path):
    # typed twice and linked twice, by two predicates: four discovery
    # matches, one set of rows
    url = "http://m.example.org/sparql"
    extra = (
        f"<http://e.org/kg> {RDF_TYPE} {DCAT_DATASET} .\n"
        f'<http://e.org/kg> <http://www.w3.org/ns/dcat#endpointURL> "{url}" .\n'
    )
    single = discoverable("<http://e.org/kg>", url) + METADATA
    counting = RowCounting(serve(tmp_path / "twice.yaml", url, single + extra))
    er = audit_run(counting, url, 0, FETCH)
    assert counting.count == 1
    assert er.datasets == ("http://e.org/kg",)
    assert counting.rows == len(er.graph) == 6  # one row per one-hop triple
    once, _ = fetch_metadata(serve(tmp_path / "once.yaml", url, single), url, FETCH)
    assert set(er.graph) == set(once) | set(parse_ntriples(extra))


def test_fetch_and_discovery_find_the_same_datasets(tmp_path):
    # IRI and literal links, an untyped node, and a blank-node dataset
    url = "http://s.example.org/sparql"
    transport = serve(
        tmp_path / "mixed.yaml",
        url,
        discoverable("<http://e.org/kg>", url)
        + METADATA
        + f"<http://e.org/lit> {RDF_TYPE} {DCAT_DATASET} .\n"
        + f'<http://e.org/lit> {SPARQL_ENDPOINT} "{url}" .\n'
        + f"<http://e.org/untyped> {SPARQL_ENDPOINT} <{url}> .\n"
        + discoverable("_:d", url)
        + '_:d <http://purl.org/dc/terms/title> "blank" .\n',
    )
    _, fetched = fetch_metadata(transport, url, FETCH)
    assert fetched == ("http://e.org/kg", "http://e.org/lit")
    assert tuple(iri.value for iri in discover_datasets(transport, url)) == fetched


def test_fetch_and_discover_in_graph_agree_on_every_class(tmp_path):
    from kgaudit.client import DATASET_CLASSES

    url = "http://k.example.org/sparql"
    lines = [f"<http://e.org/untyped> {SPARQL_ENDPOINT} <{url}> .\n"]
    for index, cls in enumerate(DATASET_CLASSES):
        kg = f"<http://e.org/kg/{index}>"
        lines.append(f"{kg} {RDF_TYPE} <{cls.value}> .\n{kg} {SPARQL_ENDPOINT} <{url}> .\n")
    data = "".join(lines)
    local = [iri.value for iri in discover_in_graph(parse_ntriples(data))]
    assert len(local) == 6
    assert fetch_metadata(serve(tmp_path / "classes.yaml", url, data), url, FETCH)[1] == tuple(local)


# ---------------------------------------------------------------------------
# remote evaluation


def test_evaluate_remote_full_score(transcript):
    [result] = evaluate_remote_datasets(transcript, FULL_ENDPOINT, default_catalog(), [FULL_KG])
    assert result.score == 1


def test_evaluate_remote_timeout_kind():
    [result] = evaluate_remote_datasets(
        FailingTransport("timeout"), "http://t.example.org/", default_catalog(), [FULL_KG]
    )
    assert result.score == 0
    assert all(o.failure is FailureKind.TIMEOUT for o in result.outcomes)


def test_evaluate_remote_error_kind():
    [result] = evaluate_remote_datasets(
        FailingTransport("connection"), "http://t.example.org/", default_catalog(), [FULL_KG]
    )
    assert all(o.failure is FailureKind.REMOTE_ERROR for o in result.outcomes)


def test_evaluate_remote_rejects_a_boolean_answer():
    # the remote route asks SELECTs; an ASK-style answer is malformed
    class Boolean:
        def query(self, url, query, *, timeout, run=0):
            return True

    [result] = evaluate_remote_datasets(
        Boolean(), "http://t.example.org/", default_catalog(), [FULL_KG]
    )
    assert all(o.failure is FailureKind.REMOTE_ERROR for o in result.outcomes)


def test_evaluate_remote_expands_each_query_once_per_catalog(transcript, monkeypatch):
    # parse_catalog expands every query; evaluation only reads the expansions
    catalog = parse_catalog(dump_catalog(default_catalog()))
    assert set(catalog.expanded) == {cq.id for _, cq in catalog.queries()}
    expanded = []
    monkeypatch.setattr(kgaudit.catalog, "expand_extended", lambda *args: expanded.append(args))
    [first] = evaluate_remote_datasets(transcript, FULL_ENDPOINT, catalog, [FULL_KG])
    sparse = Iri("http://example.org/kg/sparse")
    [second] = evaluate_remote_datasets(transcript, SPARSE_ENDPOINT, catalog, [sparse])
    assert expanded == []
    assert first.score == 1
    assert second.score == Fraction(1, 30)


class TimesOutOn:
    """Delegates to an inner transport, but the request asking ``pattern``
    times out."""

    def __init__(self, inner, pattern):
        self.inner = inner
        self.pattern = pattern
        self.count = 0

    def query(self, url, query, *, timeout, run=0):
        self.count += 1
        if query.pattern.parts[-1] == self.pattern:
            raise TransportError("timeout", "scripted failure")
        return self.inner.query(url, query, timeout=timeout, run=run)


def test_a_failed_request_fails_its_query_for_every_dataset(tmp_path):
    recorded = yaml.safe_load((FIXTURES / "campaign.yaml").read_text())["endpoints"]
    data = recorded[FULL_ENDPOINT]["runs"][0]["data"] + recorded[SPARSE_ENDPOINT]["runs"][0]["data"]
    transport = serve(tmp_path / "both.yaml", FULL_ENDPOINT, data)
    catalog = default_catalog()
    datasets = [FULL_KG, Iri("http://example.org/kg/sparse"), Iri("http://example.org/kg/none")]
    clean = evaluate_remote_datasets(transport, FULL_ENDPOINT, catalog, datasets)
    assert [r.score for r in clean] == [1, Fraction(1, 30), 0]
    failing = "publisher.1"
    slow = TimesOutOn(transport, catalog.expanded_selects[failing].pattern)
    results = evaluate_remote_datasets(slow, FULL_ENDPOINT, catalog, datasets)
    assert slow.count == len(catalog.expanded) == 33
    for before, after in zip(clean, results):
        assert after.dataset == before.dataset
        for was, now in zip(before.outcomes, after.outcomes):
            if now.query_id == failing:
                assert now == QueryOutcome(failing, False, FailureKind.TIMEOUT)
            else:
                assert now == was
    assert results[0].score < 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_request_per_query_scores_like_one_dataset_at_a_time(tmp_path, seed):
    # the multi-dataset graphs of the route-duality test with pages of 1-3 rows
    rng = random.Random(seed)
    shapes = catalog_shapes(duality.CATALOG)
    predicates, _ = catalog_vocabulary(duality.CATALOG)
    for _ in range(12):
        graph = Graph()
        for dataset in duality.DATASETS:
            graph.update(
                parse_ntriples(duality.DISCOVERABLE.replace(duality.KG.value, dataset.value))
            )
            for _ in range(3):
                triples = duality._instantiate(rng, rng.choice(shapes), predicates)
                graph.update(duality._renamed(triples, dataset))
        transport = duality._serve(tmp_path / "served.yaml", graph)
        batched = evaluate_remote_datasets(
            transport, duality.URL, duality.CATALOG, duality.DATASETS
        )
        assert batched == [
            evaluate_remote_datasets(transport, duality.URL, duality.CATALOG, [dataset])[0]
            for dataset in duality.DATASETS
        ]


def test_no_datasets_means_no_requests():
    counting = CountingTransport(FailingTransport("timeout"))
    assert evaluate_remote_datasets(counting, FULL_ENDPOINT, default_catalog(), []) == []
    assert counting.count == 0


# ---------------------------------------------------------------------------
# runs and merging


def test_audit_run_records_unavailability(transcript):
    er = audit_run(transcript, FULL_ENDPOINT, 1, FETCH)
    assert er == EndpointRun(FULL_ENDPOINT, 1, "2024-05-02T10:00:00Z", False, Graph(), ())


def test_audit_run_detects_availability(transcript):
    assert audit_run(transcript, FULL_ENDPOINT, 0, FETCH).available
    assert not audit_run(transcript, FULL_ENDPOINT, 1, FETCH).available
    assert not audit_run(transcript, "http://unknown.example.org/", 0, FETCH).available


@pytest.mark.parametrize("kind", ["http", "malformed"])
def test_audit_run_records_fetch_errors(transcript, kind):
    # the run's one query fails: the endpoint answered, the datasets are lost
    er = audit_run(FailingPage(transcript, kind), FULL_ENDPOINT, 0, FETCH)
    assert er.available
    assert (len(er.graph), er.datasets) == (0, ())
    assert er.errors == (("fetch", kind),)


@pytest.mark.parametrize("kind", ["connection", "timeout", "http"])
def test_audit_run_records_fetch_errors_on_a_later_page(transcript, kind):
    # the first page answered, so even a lost connection leaves the run up
    failing = FailingPage(transcript, kind, page=2)
    er = audit_run(failing, FULL_ENDPOINT, 0, FETCH, page_size=7)
    assert failing.count == 2
    assert er.available
    assert (len(er.graph), er.datasets) == (0, ())
    assert er.errors == (("fetch", kind),)


def test_audit_run_records_discovery_errors():
    # discovery rides in the fetch query, so an answer that is not rows
    # is a fetch error
    class Boolean:
        def query(self, url, query, *, timeout, run=0):
            return True

        def run_timestamp(self, url, run):
            return None

    er = audit_run(Boolean(), "http://e.org/sparql", 0, FETCH)
    assert er.available
    assert (len(er.graph), er.datasets) == (0, ())
    assert er.errors == (("fetch", "malformed"),)


@pytest.mark.parametrize("kind", ["connection", "timeout"])
def test_audit_run_unreachable_discovery_is_unavailable(transcript, kind):
    failing = FailingPage(transcript, kind)
    er = audit_run(failing, FULL_ENDPOINT, 0, FETCH)
    assert failing.count == 1
    assert not er.available
    assert (len(er.graph), er.datasets) == (0, ())
    assert er.errors == ()


def test_merge_runs_unions_graphs():
    g1 = parse_ntriples("<http://e.org/kg> <http://e.org/p> <http://e.org/a> .\n")
    g2 = parse_ntriples(
        "<http://e.org/kg> <http://e.org/p> <http://e.org/a> .\n"
        "<http://e.org/kg2> <http://e.org/q> <http://e.org/b> .\n"
    )
    runs = [
        EndpointRun("http://e.org/", 0, "t0", True, g1, ("http://e.org/kg",)),
        EndpointRun("http://e.org/", 1, "t1", False, Graph(), ()),
        EndpointRun("http://e.org/", 2, "t2", True, g2, ("http://e.org/kg", "http://e.org/kg2")),
        EndpointRun("http://down.e.org/", 0, "t0", False, Graph(), ()),
    ]
    merged = merge_runs(runs)
    assert merged == {
        "http://e.org/": (g2, ("http://e.org/kg", "http://e.org/kg2")),
        "http://down.e.org/": (Graph(), ()),
    }
    assert len(g1) == 1  # the runs' own graphs are left as they were


# ---------------------------------------------------------------------------
# campaigns


def test_campaign_scores(config):
    report = run_campaign(config)
    by_endpoint = {e: rs for e, rs in report.results.items()}
    assert by_endpoint[FULL_ENDPOINT][0].score == 1
    assert by_endpoint[SPARSE_ENDPOINT][0].score == Fraction(1, 30)
    dead = by_endpoint[DEAD_ENDPOINT][0]
    assert dead.score == 0
    assert dead.dataset == DEAD_ENDPOINT
    assert all(o.failure is FailureKind.NOT_EVALUATED for o in dead.outcomes)
    assert report.generated_at == "2024-05-03T10:00:00Z"


def test_campaign_is_deterministic(config):
    first = run_campaign(config)
    second = run_campaign(config)
    assert first == second
    catalog = default_catalog()
    assert reporting.to_json(first, catalog) == reporting.to_json(second, catalog)


def test_campaign_deduplicates_endpoints(config):
    doubled = CampaignConfig(**{**config.__dict__, "endpoints": ENDPOINTS + ENDPOINTS})
    report = run_campaign(doubled)
    assert list(report.results) == ENDPOINTS


def test_campaign_down_run_equals_all_up(tmp_path, config):
    doc = yaml.safe_load((FIXTURES / "campaign.yaml").read_text())
    flipped = copy.deepcopy(doc)
    runs = flipped["endpoints"][FULL_ENDPOINT]["runs"]
    runs[1] = {
        "available": True,
        "timestamp": runs[1]["timestamp"],
        "data": runs[0]["data"],
    }
    path = tmp_path / "allup.yaml"
    path.write_text(yaml.safe_dump(flipped))

    allup = CampaignConfig(
        **{**config.__dict__, "transport": TranscriptTransport(str(path))}
    )
    report_down = run_campaign(config)
    report_up = run_campaign(allup)
    assert report_down == report_up
    assert report_down.results == report_up.results
    catalog = default_catalog()
    assert reporting.to_csv(report_down, catalog) == reporting.to_csv(report_up, catalog)
    # The run provenance honestly differs: one transcript lost a run.
    down = {(rr.run, rr.available) for rr in report_down.runs if rr.endpoint == FULL_ENDPOINT}
    assert (1, False) in down and (1, True) not in down


def test_campaign_retains_run_records(config):
    report = run_campaign(config)
    assert [(rr.endpoint, rr.run) for rr in report.runs] == [
        (endpoint, run) for endpoint in sorted(ENDPOINTS) for run in range(3)
    ]
    by_key = {(rr.endpoint, rr.run): rr for rr in report.runs}
    assert by_key[(FULL_ENDPOINT, 0)].scores == (
        ("http://example.org/kg/full", Fraction(1)),
    )
    down = by_key[(FULL_ENDPOINT, 1)]
    assert not down.available and down.scores == ()
    assert by_key[(SPARSE_ENDPOINT, 2)].scores == (
        ("http://example.org/kg/sparse", Fraction(1, 30)),
    )
    assert not by_key[(DEAD_ENDPOINT, 0)].available
    assert all(rr.errors == () for rr in report.runs)


def test_campaign_scores_each_endpoint_once_and_each_differing_run(
    tmp_path, config, monkeypatch
):
    # the full endpoint's last run serves less than its first
    doc = yaml.safe_load((FIXTURES / "campaign.yaml").read_text())
    runs = doc["endpoints"][FULL_ENDPOINT]["runs"]
    runs[2]["data"] = "".join(runs[2]["data"].splitlines(keepends=True)[:-3])
    path = tmp_path / "shrinking.yaml"
    path.write_text(yaml.safe_dump(doc))
    transport = TranscriptTransport(str(path))
    scored = []
    real = client.score_datasets

    def counting(catalog, graph, datasets):
        scored.append(graph)
        return real(catalog, graph, datasets)

    monkeypatch.setattr(client, "score_datasets", counting)
    report = run_campaign(CampaignConfig(**{**config.__dict__, "transport": transport}))
    runs = [audit_run(transport, rr.endpoint, rr.run, FETCH) for rr in report.runs]
    merged = merge_runs(runs)
    differing = [
        er for er in runs if er.datasets and (er.graph, er.datasets) != merged[er.endpoint]
    ]
    assert [(er.endpoint, er.run) for er in differing] == [(FULL_ENDPOINT, 2)]
    # one scoring per endpoint with datasets (full, sparse), one per differing run
    assert len(scored) == 2 + 1
    for rr, er in zip(report.runs, runs):
        results, _ = real(config.catalog, er.graph, [Iri(d) for d in er.datasets])
        assert rr.scores == tuple((r.dataset, r.score) for r in results)
    full = {rr.run: dict(rr.scores) for rr in report.runs if rr.endpoint == FULL_ENDPOINT}
    assert full[2][FULL_KG.value] < full[0][FULL_KG.value] == 1


class ClosableTranscript(CountingTransport):
    """Stands in for the HTTP transport; remembers the endpoints it was
    asked about and being closed."""

    built: list = []

    def __init__(self):
        super().__init__(TranscriptTransport(str(FIXTURES / "campaign.yaml")))
        self.urls: set[str] = set()
        self.closed = False
        ClosableTranscript.built.append(self)

    def query(self, url, query, *, timeout, run=0):
        self.urls.add(url)
        return super().query(url, query, timeout=timeout, run=run)

    def close(self):
        self.closed = True


def test_campaign_closes_the_http_transport_it_builds(config, monkeypatch):
    monkeypatch.setattr(ClosableTranscript, "built", [])
    monkeypatch.setattr(client, "HttpTransport", ClosableTranscript)
    report = run_campaign(CampaignConfig(**{**config.__dict__, "transport": None}))
    assert report == run_campaign(config)
    # one per endpoint, each asked about its own endpoint only
    built = sorted(ClosableTranscript.built, key=lambda t: sorted(t.urls))
    assert [t.urls for t in built] == [{endpoint} for endpoint in sorted(ENDPOINTS)]
    assert [t.closed for t in built] == [True] * len(ENDPOINTS)


def test_resumed_campaign_builds_no_http_transport(tmp_path, config, monkeypatch):
    journaled = CampaignConfig(**{**config.__dict__, "journal_path": str(tmp_path / "j.jsonl")})
    first = run_campaign(journaled)
    monkeypatch.setattr(ClosableTranscript, "built", [])
    monkeypatch.setattr(client, "HttpTransport", ClosableTranscript)
    resumed = run_campaign(CampaignConfig(**{**journaled.__dict__, "transport": None}))
    assert resumed == first
    assert ClosableTranscript.built == []


@pytest.mark.parametrize("command", ["discover", "evaluate", "campaign"])
def test_cli_closes_the_http_transport_it_builds(monkeypatch, capsys, command):
    from kgaudit import cli

    monkeypatch.setattr(ClosableTranscript, "built", [])
    # a campaign builds its HTTP transports in run_campaign, one per endpoint
    builder = client if command == "campaign" else cli
    monkeypatch.setattr(builder, "HttpTransport", ClosableTranscript)
    if command == "campaign":
        argv = [command, FULL_ENDPOINT, "--delay", "0"]
    else:
        argv = [command, "--endpoint", FULL_ENDPOINT]
    assert cli.main(argv) == 0
    assert [t.closed for t in ClosableTranscript.built] == [True]


def test_campaign_requires_a_run(config):
    broken = CampaignConfig(**{**config.__dict__, "runs": 0})
    with pytest.raises(ValueError):
        run_campaign(broken)


@pytest.mark.parametrize(
    "name, value",
    [
        ("timeout", 0.0),
        ("delay", -1.0),
        ("retries", -1),
        ("page_size", 0),
        ("workers", 0),
    ],
)
def test_campaign_rejects_bad_config(config, name, value):
    broken = CampaignConfig(**{**config.__dict__, name: value})
    with pytest.raises(ValueError):
        run_campaign(broken)


@pytest.mark.parametrize("bad", ["not a url", "http://e.org/a b"])
def test_campaign_refuses_a_malformed_endpoint_before_any_request(
    tmp_path, transcript, config, bad
):
    counting = CountingTransport(transcript)
    journal = tmp_path / "journal.jsonl"
    broken = CampaignConfig(
        **{
            **config.__dict__,
            "endpoints": [FULL_ENDPOINT, bad],
            "transport": counting,
            "journal_path": str(journal),
        }
    )
    with pytest.raises(ValueError, match=f"endpoint {bad!r}"):
        run_campaign(broken)
    assert counting.count == 0
    assert not journal.exists()


# ---------------------------------------------------------------------------
# journal


def test_journal_resume_skips_completed_runs(tmp_path, transcript, config):
    journal_path = tmp_path / "journal.jsonl"
    journaled = CampaignConfig(**{**config.__dict__, "journal_path": str(journal_path)})
    first = run_campaign(journaled)
    recorded = journal_path.read_bytes()
    # 1 header + 3 endpoints x 3 runs
    assert recorded.count(b"\n") == 10

    counting = CountingTransport(transcript)
    resumed_config = CampaignConfig(
        **{**journaled.__dict__, "transport": counting}
    )
    resumed = run_campaign(resumed_config)
    assert counting.count == 0
    assert resumed == first
    assert journal_path.read_bytes() == recorded


def test_journal_refuses_checksum_mismatch(tmp_path, config):
    journal_path = tmp_path / "journal.jsonl"
    journaled = CampaignConfig(**{**config.__dict__, "journal_path": str(journal_path)})
    run_campaign(journaled)
    lines = journal_path.read_text().splitlines()
    lines[1] = lines[1].replace('"run": ', '"run": 4', 1).replace('"run": 44', '"run": 4')
    journal_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="checksum"):
        run_campaign(journaled)


def test_journal_refuses_garbage(tmp_path, config):
    journal_path = tmp_path / "journal.jsonl"
    journaled = CampaignConfig(**{**config.__dict__, "journal_path": str(journal_path)})
    run_campaign(journaled)
    with open(journal_path, "a", encoding="utf-8") as handle:
        handle.write("{truncated\n")
    with pytest.raises(JournalError, match="not JSON"):
        run_campaign(journaled)


def test_journal_redoes_a_run_cut_mid_append(tmp_path, monkeypatch, capsys, transcript):
    from kgaudit import cli

    journal = tmp_path / "journal.jsonl"
    args = ["campaign", *ENDPOINTS, "--transcript", str(FIXTURES / "campaign.yaml"),
            "--delay", "0", "--journal", str(journal)]
    assert cli.main(args + ["--out", str(tmp_path / "uncut")]) == 0
    recorded = journal.read_bytes()
    journal.write_bytes(recorded[:-40])
    cut = json.loads(recorded.splitlines()[-1])["record"]
    one_run = CountingTransport(transcript)
    audit_run(one_run, cut["endpoint"], cut["run"], FETCH)

    counting = CountingTransport(transcript)
    monkeypatch.setattr(cli, "_transport", lambda args: counting)
    capsys.readouterr()
    assert cli.main(args + ["--out", str(tmp_path / "cut")]) == 0
    assert "unterminated last line" in capsys.readouterr().err
    assert counting.count == one_run.count > 0
    for uncut in (tmp_path / "uncut").iterdir():
        assert (tmp_path / "cut" / uncut.name).read_bytes() == uncut.read_bytes()
    assert sorted(journal.read_bytes().splitlines()) == sorted(recorded.splitlines())


def test_journal_rewrites_a_cut_header_but_refuses_other_text(tmp_path):
    path = tmp_path / "journal.jsonl"
    Journal(str(path), default_catalog(), 3).load()
    header = path.read_bytes()
    path.write_bytes(header[:25])
    assert Journal(str(path), default_catalog(), 3).load() == {}
    assert path.read_bytes() == header
    path.write_bytes(b"not a journal")
    with pytest.raises(JournalError, match="not JSON"):
        Journal(str(path), default_catalog(), 3).load()
    assert path.read_bytes() == b"not a journal"


@pytest.mark.parametrize("older", [{}, {"format": 2}], ids=["no-format", "format-2"])
def test_journal_refuses_an_older_format_and_leaves_it(tmp_path, config, older):
    # the header journals had before they held a format key, and the one
    # they had while blank nodes were named per response page
    record = {"catalog": default_catalog().content_hash(), "runs": 3, **older}
    digest = client._checksum(record)
    header = json.dumps({"kind": "header", "record": record, "sha256": digest}, sort_keys=True)
    journal_path = tmp_path / "journal.jsonl"
    journal_path.write_text(header + "\n")
    before = journal_path.read_bytes()
    journaled = CampaignConfig(**{**config.__dict__, "journal_path": str(journal_path)})
    with pytest.raises(JournalError, match="older format; start the campaign again"):
        run_campaign(journaled)
    assert journal_path.read_bytes() == before


@pytest.mark.parametrize("field, value", [("graph", {}), ("graph", None), ("datasets", 5)])
def test_journal_refuses_a_malformed_run_record(tmp_path, field, value):
    path = tmp_path / "journal.jsonl"
    journal = Journal(str(path), default_catalog(), 3)
    journal.load()
    journal.append(EndpointRun("http://e.org/sparql", 0, "t", True, Graph(), ()))
    header, line = path.read_text().splitlines()
    record = {**json.loads(line)["record"], field: value}
    doc = {"kind": "run", "record": record, "sha256": client._checksum(record)}
    path.write_text(header + "\n" + json.dumps(doc) + "\n")
    with pytest.raises(JournalError, match="malformed run record"):
        Journal(str(path), default_catalog(), 3).load()


def test_a_journal_lends_a_campaign_only_its_own_endpoints(tmp_path, config):
    # the sparse endpoint was audited last; a campaign that drops it reads
    # neither its runs nor their timestamps from the journal
    doc = yaml.safe_load((FIXTURES / "campaign.yaml").read_text())
    doc["endpoints"][SPARSE_ENDPOINT]["runs"][0]["timestamp"] = "2024-06-01T11:00:00Z"
    path = tmp_path / "later.yaml"
    path.write_text(yaml.safe_dump(doc))
    journal_path = tmp_path / "journal.jsonl"
    both = CampaignConfig(
        **{
            **config.__dict__,
            "endpoints": [FULL_ENDPOINT, SPARSE_ENDPOINT],
            "journal_path": str(journal_path),
            "transport": TranscriptTransport(str(path)),
        }
    )
    run_campaign(both)
    recorded = journal_path.read_bytes()
    full = CampaignConfig(**{**both.__dict__, "endpoints": [FULL_ENDPOINT]})
    resumed = run_campaign(full)
    fresh = run_campaign(CampaignConfig(**{**full.__dict__, "journal_path": None}))
    assert [(rr.endpoint, rr.run) for rr in resumed.runs] == [(FULL_ENDPOINT, n) for n in range(3)]
    assert resumed.generated_at == "2024-05-03T10:00:00Z"
    catalog = config.catalog
    assert reporting.to_json(resumed, catalog) == reporting.to_json(fresh, catalog)
    assert journal_path.read_bytes() == recorded


def test_journal_refuses_other_campaign(tmp_path, config):
    journal_path = tmp_path / "journal.jsonl"
    journaled = CampaignConfig(**{**config.__dict__, "journal_path": str(journal_path)})
    run_campaign(journaled)
    different_runs = CampaignConfig(**{**journaled.__dict__, "runs": 2})
    with pytest.raises(JournalError, match="different campaign"):
        run_campaign(different_runs)


def test_journal_header_written_even_for_empty_campaign(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    journal = Journal(str(journal_path), default_catalog(), 3)
    assert journal.load() == {}
    assert journal_path.read_text().count("\n") == 1
    # loading again validates the header it just wrote
    assert journal.load() == {}


def test_journal_round_trips_errors(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = Journal(path, default_catalog(), 3)
    journal.load()
    er = EndpointRun(
        "http://e.org/sparql",
        0,
        "2024-05-01T10:00:00Z",
        True,
        parse_ntriples("<http://e.org/kg> <http://e.org/p> _:b .\n"),
        ("http://e.org/kg",),
        (("fetch http://e.org/kg", "timeout"),),
    )
    journal.append(er)
    assert Journal(path, default_catalog(), 3).load() == {("http://e.org/sparql", 0): er}

