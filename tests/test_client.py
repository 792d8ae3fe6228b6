"""Client tests: discovery, fetching, campaign runs, journaling."""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random
import sys
import threading
from collections import Counter

import pytest
import yaml

import kgaudit.catalog
from kgaudit import client, reporting
from kgaudit import transport as transport_module
from kgaudit.catalog import default_catalog, parse_catalog
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
    run_campaign,
    score_endpoint,
)
from kgaudit.rdf import BlankNode, Graph, Iri, Triple, parse_ntriples
from kgaudit.scoring import FailureKind, QueryOutcome
from kgaudit.transport import HttpTransport, TranscriptTransport, TransportError

from fractions import Fraction

import test_route_duality as duality
from test_transport import FakeClock, FakeResponse, ScriptedSession, select_body
from helpers import (
    FIXTURES,
    catalog_shapes,
    catalog_vocabulary,
    counted_parse,
    default_catalog_doc,
    random_triple,
)

FULL_ENDPOINT = "http://example.org/sparql"
SPARSE_ENDPOINT = "http://sparse.example.org/sparql"
DEAD_ENDPOINT = "http://dead.example.org/sparql"
ENDPOINTS = [FULL_ENDPOINT, SPARSE_ENDPOINT, DEAD_ENDPOINT]
FULL_KG = Iri("http://example.org/kg/full")
FETCH = build_fetch(default_catalog())
BOOLEAN_BODY = json.dumps({"head": {}, "boolean": True})


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

    def query(self, url, query, *, run=0):
        self.count += 1
        return self.inner.query(url, query, run=run)

    def run_timestamp(self, url, run):
        return self.inner.run_timestamp(url, run)


class FailingTransport:
    def __init__(self, kind: str):
        self.kind = kind

    def query(self, url, query, *, run=0):
        raise TransportError(self.kind, "scripted failure")


class FailingPage:
    """Delegates to an inner transport, but request number ``page`` fails
    with ``kind``."""

    def __init__(self, inner, kind: str, page: int = 1):
        self.inner = inner
        self.kind = kind
        self.page = page
        self.count = 0

    def query(self, url, query, *, run=0):
        self.count += 1
        if self.count == self.page:
            raise TransportError(self.kind, "scripted failure")
        return self.inner.query(url, query, run=run)

    def run_timestamp(self, url, run):
        return ""


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

    expected = [Iri(f"http://example.org/kg/{index}") for index in range(len(DATASET_CLASSES))]
    rdf_type = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    g = Graph(Triple(kg, rdf_type, cls) for kg, cls in zip(expected, DATASET_CLASSES))
    assert discover_in_graph(g) == sorted(expected, key=lambda i: i.value)


def test_discover_in_graph_ignores_untyped():
    g = parse_ntriples(
        "<http://example.org/kg/x> <http://purl.org/dc/terms/publisher> <http://example.org/p> .\n"
    )
    assert discover_in_graph(g) == []


def test_discovery_scales_to_many_datasets():
    from kgaudit.client import DATASET_CLASSES

    rdf_type = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    link = Iri("http://rdfs.org/ns/void#sparqlEndpoint")
    kgs = [Iri(f"http://big.example.org/kg/{index:03d}") for index in range(166)]
    g = Graph(
        triple
        for index, kg in enumerate(kgs)
        for triple in (
            Triple(kg, rdf_type, DATASET_CLASSES[index % len(DATASET_CLASSES)]),
            Triple(kg, link, Iri("http://big.example.org/sparql")),
        )
    )
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

    def query(self, url, query, *, run=0):
        answer = super().query(url, query, run=run)
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


def test_fetch_names_blank_nodes_after_their_page(tmp_path):
    url = "http://b.example.org/sparql"
    transport = serve(
        tmp_path / "bnodes.yaml",
        url,
        discoverable("<http://e.org/kg>", url)
        + '<http://e.org/kg> <http://e.org/p> _:x .\n_:x <http://e.org/q> "v" .\n',
    )
    g, _ = fetch_metadata(transport, url, FETCH)
    # _:x comes in two rows of one page, one per fixed branch: one node
    objects = {t.object for t in g.match(Iri("http://e.org/kg"), Iri("http://e.org/p"), None)}
    assert len(objects) == 1 and len(g) == 2 + 2
    # named by a SHA-256 digest of the page's blank-node rows, so the bytes
    # repeat in any process
    rows = [
        ['branch "0"', "kg <http://e.org/kg>", "v0 <http://e.org/p>", "v1 _:x"],
        ['branch "1"', "kg <http://e.org/kg>", "v0 <http://e.org/p>", "v1 _:x"]
        + ["v2 <http://e.org/q>", 'v3 "v"'],
    ]
    page = "\n\n".join("\n".join(row) for row in rows)
    assert objects == {BlankNode(hashlib.sha256(page.encode("utf-8")).hexdigest() + "x")}
    assert fetch_metadata(transport, url, FETCH) == (g, ("http://e.org/kg",))


class PageRecording(CountingTransport):
    """Keeps each page the inner transport answers with."""

    def __init__(self, inner):
        super().__init__(inner)
        self.pages: list[list[dict]] = []

    def query(self, url, query, *, run=0):
        self.pages.append(super().query(url, query, run=run))
        return self.pages[-1]


def _json_cell(term, label) -> dict:
    if isinstance(term, Iri):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": label(term.label)}
    cell = {"type": "literal", "value": term.lexical}
    if term.datatype is not None:
        cell["datatype"] = term.datatype
    if term.language is not None:
        cell["xml:lang"] = term.language
    return cell


def _blank_nodes(g: Graph) -> list[BlankNode]:
    return sorted({t for triple in g for t in triple if isinstance(t, BlankNode)})


def same_up_to_blank_names(a: Graph, b: Graph) -> bool:
    """Some renaming of ``a``'s blank nodes onto ``b``'s gives ``b``."""
    old, new = _blank_nodes(a), _blank_nodes(b)
    if len(a) != len(b) or len(old) != len(new):
        return False
    return any(
        Graph(Triple(*(names.get(t, t) for t in triple)) for triple in a) == b
        for names in (dict(zip(old, order)) for order in itertools.permutations(new))
    )


def test_fetch_over_http_takes_any_blank_node_label(tmp_path):
    # Virtuoso labels blank nodes nodeID://b...; a label the N-Triples
    # grammar refuses must not fail the page
    url = "http://v.example.org/sparql"
    recording = PageRecording(
        serve(
            tmp_path / "virtuoso.yaml",
            url,
            discoverable("<http://e.org/kg>", url)
            + "<http://e.org/kg> <http://purl.org/dc/terms/publisher> _:b10005 .\n"
            '_:b10005 <http://xmlns.com/foaf/0.1/name> "Org" .\n'
            "_:b10005 <http://e.org/p> _:b10006 .\n"
            "<http://e.org/kg> <http://purl.org/dc/terms/creator> _:b10006 .\n"
            '<http://e.org/kg> <http://e.org/q> "v"@en .\n',
        )
    )
    served = audit_run(recording, url, 0, FETCH, page_size=4)
    assert served.datasets == ("http://e.org/kg",) and not served.errors
    runs = []
    for label in (lambda label: label, lambda label: "nodeID://" + label):
        cells = lambda row: {name: _json_cell(term, label) for name, term in row.items()}
        session = ScriptedSession(
            FakeResponse(200, select_body(*map(cells, page))) for page in recording.pages
        )
        runs.append(audit_run(HttpTransport(session), url, 0, FETCH, page_size=4))
        assert session.steps == []
    plain, virtuoso = runs
    for run in runs:
        assert run.available and not run.errors
        assert run.datasets == served.datasets
        assert len(_blank_nodes(run.graph)) == len(_blank_nodes(served.graph)) > 1
    assert same_up_to_blank_names(served.graph, plain.graph)
    assert same_up_to_blank_names(plain.graph, virtuoso.graph)
    assert plain.graph != virtuoso.graph


@pytest.mark.parametrize(
    "fields",
    [
        {"datatype": "a b"},
        {"datatype": 5},
        {"datatype": "http://e.org/d>"},
        {"datatype": None, "xml:lang": 5},
    ],
)
def test_a_literal_that_would_not_read_back_fails_its_run_and_the_campaign_resumes(
    tmp_path, fields
):
    # kept, such a literal would make the journal unreadable; a language
    # that is no string would stop the campaign with a TypeError
    url = "http://l.example.org/sparql"
    recording = PageRecording(
        serve(
            tmp_path / "typed.yaml",
            url,
            discoverable("<http://e.org/kg>", url)
            + "<http://e.org/kg> <http://purl.org/dc/terms/modified> "
            + '"2024"^^<http://e.org/year> .\n',
        )
    )
    served = audit_run(recording, url, 0, FETCH)
    assert served.datasets == ("http://e.org/kg",) and not served.errors

    def cell(term) -> dict:
        plain = _json_cell(term, lambda label: label)
        return {**plain, **fields} if plain["type"] == "literal" else plain

    pages = [
        [{name: cell(term) for name, term in row.items()} for row in page]
        for page in recording.pages
    ]
    assert any("datatype" in c for page in pages for row in page for c in row.values())
    session = ScriptedSession(FakeResponse(200, select_body(*page)) for page in pages)
    config = CampaignConfig(
        [url],
        default_catalog(),
        runs=1,
        delay=0.0,
        journal_path=str(tmp_path / "journal.jsonl"),
        transport=HttpTransport(session),
    )
    first = run_campaign(config)
    [record] = first.runs
    assert record.available and record.scores == ()
    assert record.errors == (("fetch", "malformed"),)
    # the journal reads back, and the resumed campaign sends no request
    idle = ScriptedSession([])
    again = run_campaign(config._replace(transport=HttpTransport(idle)))
    assert idle.calls == []
    assert again.runs == first.runs and again == first


class Ignoring(CountingTransport):
    """An endpoint that ignores one solution modifier, ``limit`` or
    ``offset``; the sixth request fails the test rather than hang it."""

    def __init__(self, inner, modifier: str):
        super().__init__(inner)
        self.modifier = modifier

    def query(self, url, query, *, run=0):
        if self.count == 5:
            raise AssertionError("still paging after 5 requests")
        ignored = query._replace(**{self.modifier: None if self.modifier == "limit" else 0})
        return super().query(url, ignored, run=run)


@pytest.mark.parametrize("modifier, requests", [("limit", 1), ("offset", 2)])
def test_fetch_stops_when_an_endpoint_ignores_limit_or_offset(transcript, modifier, requests):
    # kg/full answers with 34 rows: all of them at once, or its first five again
    ignoring = Ignoring(transcript, modifier)
    er = audit_run(ignoring, FULL_ENDPOINT, 0, FETCH, page_size=5)
    assert ignoring.count == requests
    assert er.available
    assert (len(er.graph), er.datasets) == (0, ())
    assert er.errors == (("fetch", "malformed"),)


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
    session = ScriptedSession([FakeResponse(200, BOOLEAN_BODY)] * 33)
    [result] = evaluate_remote_datasets(
        HttpTransport(session=session), "http://t.example.org/", default_catalog(), [FULL_KG]
    )
    assert all(o.failure is FailureKind.REMOTE_ERROR for o in result.outcomes)
    assert session.calls == ["get"] * 33


def test_evaluate_remote_expands_each_query_once_per_catalog(transcript, monkeypatch):
    # parse_catalog expands every query; evaluation only reads the expansions
    catalog = parse_catalog(yaml.safe_dump(default_catalog_doc()))
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

    def query(self, url, query, *, run=0):
        self.count += 1
        if query.pattern.parts[-1] == self.pattern:
            raise TransportError("timeout", "scripted failure")
        return self.inner.query(url, query, run=run)


def test_a_failed_request_fails_its_query_for_every_dataset(tmp_path):
    recorded = yaml.safe_load((FIXTURES / "campaign.yaml").read_text())["endpoints"]
    data = recorded[FULL_ENDPOINT]["runs"][0]["data"] + recorded[SPARSE_ENDPOINT]["runs"][0]["data"]
    transport = serve(tmp_path / "both.yaml", FULL_ENDPOINT, data)
    catalog = default_catalog()
    datasets = [FULL_KG, Iri("http://example.org/kg/sparse"), Iri("http://example.org/kg/none")]
    clean = evaluate_remote_datasets(transport, FULL_ENDPOINT, catalog, datasets)
    assert [r.score for r in clean] == [1, Fraction(1, 30), 0]
    failing = "publisher.1"
    slow = TimesOutOn(transport, catalog.expanded[failing].pattern)
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
        served = []
        for dataset in duality.DATASETS:
            served += parse_ntriples(duality.DISCOVERABLE.replace(duality.KG.value, dataset.value))
            for _ in range(3):
                triples = duality._instantiate(rng, rng.choice(shapes), predicates)
                served += duality._renamed(triples, dataset)
        transport = duality._serve(tmp_path / "served.yaml", Graph(served))
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
    session = ScriptedSession([FakeResponse(200, BOOLEAN_BODY)])
    er = audit_run(HttpTransport(session=session), "http://e.org/sparql", 0, FETCH)
    assert session.calls == ["get"]
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


def test_score_endpoint_unions_its_runs():
    catalog = default_catalog()
    g1 = parse_ntriples("<http://e.org/kg> <http://e.org/p> <http://e.org/a> .\n")
    g2 = parse_ntriples(
        "<http://e.org/kg> <http://e.org/p> <http://e.org/a> .\n"
        "<http://e.org/kg2> <http://e.org/q> <http://e.org/b> .\n"
    )
    up = [
        EndpointRun("http://e.org/", 0, "t0", True, g1, ("http://e.org/kg",)),
        EndpointRun("http://e.org/", 2, "t2", True, g2, ("http://e.org/kg", "http://e.org/kg2")),
    ]
    down = EndpointRun("http://e.org/", 1, "t1", False, Graph(), ())
    results, records = score_endpoint(catalog, "http://e.org/", [up[0], down, up[1]])
    assert [r.dataset for r in results] == ["http://e.org/kg", "http://e.org/kg2"]
    # a down run adds nothing
    always_up, _ = score_endpoint(catalog, "http://e.org/", up)
    assert results == always_up
    # the runs' own graphs are left as they were
    assert (len(g1), len(g2)) == (1, 2)
    assert [(rr.run, rr.timestamp, rr.available) for rr in records] == [
        (0, "t0", True),
        (1, "t1", False),
        (2, "t2", True),
    ]
    assert [dataset for dataset, _ in records[0].scores] == ["http://e.org/kg"]
    assert records[1].scores == ()
    assert records[2].scores == tuple((r.dataset, r.score) for r in results)

    dead = EndpointRun("http://down.e.org/", 0, "t0", False, Graph(), ())
    nothing, records = score_endpoint(catalog, "http://down.e.org/", [dead])
    assert [(r.dataset, r.score) for r in nothing] == [("http://down.e.org/", 0)]
    assert [(rr.endpoint, rr.run, rr.scores) for rr in records] == [("http://down.e.org/", 0, ())]


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
    doubled = CampaignConfig(**{**config._asdict(), "endpoints": ENDPOINTS + ENDPOINTS})
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
        **{**config._asdict(), "transport": TranscriptTransport(str(path))}
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

    def counting(catalog, graph, datasets, **keywords):
        scored.append(graph)
        return real(catalog, graph, datasets, **keywords)

    monkeypatch.setattr(client, "score_datasets", counting)
    report = run_campaign(CampaignConfig(**{**config._asdict(), "transport": transport}))
    runs = [audit_run(transport, rr.endpoint, rr.run, FETCH) for rr in report.runs]
    union = {
        endpoint: (
            Graph(t for er in runs if er.endpoint == endpoint for t in er.graph),
            {d for er in runs if er.endpoint == endpoint for d in er.datasets},
        )
        for endpoint in {er.endpoint for er in runs}
    }
    differing = [
        er
        for er in runs
        if er.datasets and (er.graph, set(er.datasets)) != union[er.endpoint]
    ]
    assert [(er.endpoint, er.run) for er in differing] == [(FULL_ENDPOINT, 2)]
    # one scoring per endpoint with datasets (full, sparse), one per differing run
    assert len(scored) == 2 + 1
    for rr, er in zip(report.runs, runs):
        results = real(config.catalog, er.graph, [Iri(d) for d in er.datasets])
        assert rr.scores == tuple((r.dataset, r.score) for r in results)
    full = {rr.run: dict(rr.scores) for rr in report.runs if rr.endpoint == FULL_ENDPOINT}
    assert full[2][FULL_KG.value] < full[0][FULL_KG.value] == 1


class ClosableTranscript(CountingTransport):
    """Stands in for the HTTP transport; remembers the endpoints it was
    asked about and being closed."""

    built: list = []

    def __init__(self, *, timeout):
        super().__init__(TranscriptTransport(str(FIXTURES / "campaign.yaml")))
        self.urls: set[str] = set()
        self.closed = False
        ClosableTranscript.built.append(self)

    def query(self, url, query, *, run=0):
        self.urls.add(url)
        return super().query(url, query, run=run)

    def close(self):
        self.closed = True


def test_campaign_closes_the_http_transport_it_builds(config, monkeypatch):
    monkeypatch.setattr(ClosableTranscript, "built", [])
    monkeypatch.setattr(transport_module, "HttpTransport", ClosableTranscript)
    report = run_campaign(CampaignConfig(**{**config._asdict(), "transport": None}))
    assert report == run_campaign(config)
    # one per endpoint, each asked about its own endpoint only
    built = sorted(ClosableTranscript.built, key=lambda t: sorted(t.urls))
    assert [t.urls for t in built] == [{endpoint} for endpoint in sorted(ENDPOINTS)]
    assert [t.closed for t in built] == [True] * len(ENDPOINTS)


def test_resumed_campaign_builds_no_http_transport(tmp_path, config, monkeypatch):
    journaled = CampaignConfig(**{**config._asdict(), "journal_path": str(tmp_path / "j.jsonl")})
    first = run_campaign(journaled)
    monkeypatch.setattr(ClosableTranscript, "built", [])
    monkeypatch.setattr(transport_module, "HttpTransport", ClosableTranscript)
    resumed = run_campaign(CampaignConfig(**{**journaled._asdict(), "transport": None}))
    assert resumed == first
    assert ClosableTranscript.built == []


class Watch:
    """Builds the stand-ins for the HTTP transport, each answering from
    ``transcript``, and watches them: how many are open at once, how often
    each is closed, and whether an endpoint ever has two queries in flight.
    A query about ``failing`` raises a ``RuntimeError``, which is not a
    :class:`TransportError`."""

    def __init__(self, transcript: TranscriptTransport, failing: str | None = None):
        self.transcript = transcript
        self.failing = failing
        self.lock = threading.Lock()
        self.closes: list[int] = []  # per stand-in, in the order built
        self.most_open = 0
        self.in_flight: Counter[str] = Counter()
        self.overlapped: set[str] = set()
        self.asked: list[str] = []

    def __call__(self, *, timeout) -> "Watched":
        with self.lock:
            self.closes.append(0)
            self.most_open = max(self.most_open, self.closes.count(0))
            return Watched(self, len(self.closes) - 1)


class Watched:
    """One stand-in that :class:`Watch` built."""

    def __init__(self, watch: Watch, index: int):
        self.watch = watch
        self.index = index

    def query(self, url, query, *, run=0):
        watch = self.watch
        with watch.lock:
            watch.asked.append(url)
            watch.in_flight[url] += 1
            if watch.in_flight[url] > 1:
                watch.overlapped.add(url)
        try:
            if url == watch.failing:
                raise RuntimeError(f"scripted bug at {url}")
            return watch.transcript.query(url, query, run=run)
        finally:
            with watch.lock:
                watch.in_flight[url] -= 1

    def run_timestamp(self, url, run):
        return self.watch.transcript.run_timestamp(url, run)

    def close(self):
        with self.watch.lock:
            self.watch.closes[self.index] += 1


def test_campaign_sleeps_only_when_no_endpoint_is_due(config, monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(transport_module, "time", clock)
    polite = CampaignConfig(**{**config._asdict(), "workers": 1, "delay": 0.5})
    assert run_campaign(polite) == run_campaign(config)
    # each endpoint's first run starts at once; then the worker sleeps only
    # before the first endpoint's next run, when no endpoint is due
    assert clock.sleeps == [0.5, 0.5]


def test_campaign_keeps_at_most_workers_layers_open(tmp_path, config, monkeypatch):
    # the fixture's endpoints and seven more that serve what the sparse one does
    doc = yaml.safe_load((FIXTURES / "campaign.yaml").read_text())
    for n in range(7):
        doc["endpoints"][f"http://e{n}.example.org/sparql"] = doc["endpoints"][SPARSE_ENDPOINT]
    path = tmp_path / "wide.yaml"
    path.write_text(yaml.safe_dump(doc))
    transcript = TranscriptTransport(str(path))
    watch = Watch(transcript)
    monkeypatch.setattr(transport_module, "HttpTransport", watch)
    endpoints = list(doc["endpoints"])
    wide = CampaignConfig(
        **{**config._asdict(), "endpoints": endpoints, "workers": 4, "transport": transcript}
    )
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more workers than cores, switching often
    try:
        report = run_campaign(wide._replace(transport=None))
    finally:
        sys.setswitchinterval(switch)
    assert report == run_campaign(wide._replace(workers=1))
    assert watch.closes == [1] * len(endpoints)
    assert 1 <= watch.most_open <= 4
    assert watch.overlapped == set()
    assert Counter(watch.asked) == {endpoint: 3 for endpoint in endpoints}


@pytest.mark.parametrize("workers", [1, 4])
def test_a_failing_cell_stops_the_campaign_and_closes_every_layer(
    tmp_path, transcript, config, monkeypatch, workers
):
    watch = Watch(transcript, failing=SPARSE_ENDPOINT)
    monkeypatch.setattr(transport_module, "HttpTransport", watch)
    journal = tmp_path / "journal.jsonl"
    broken = CampaignConfig(
        **{**config._asdict(), "transport": None, "workers": workers, "journal_path": str(journal)}
    )
    with pytest.raises(RuntimeError, match="scripted bug"):
        run_campaign(broken)
    assert watch.closes and watch.closes == [1] * len(watch.closes)
    if workers == 1:
        # the full endpoint's runs went first; after the failure none started
        assert watch.asked == [FULL_ENDPOINT] * 3 + [SPARSE_ENDPOINT]
        assert len(journal.read_text().splitlines()) == 1 + 3


@pytest.mark.parametrize("failing", [None, SPARSE_ENDPOINT], ids=["returns", "raises"])
def test_a_campaign_leaves_no_worker_thread_behind(transcript, config, monkeypatch, failing):
    watch = Watch(transcript, failing=failing)
    monkeypatch.setattr(transport_module, "HttpTransport", watch)
    before = threading.enumerate()
    campaign = config._replace(transport=None, workers=4)
    if failing:
        with pytest.raises(RuntimeError, match="scripted bug"):
            run_campaign(campaign)
    else:
        run_campaign(campaign)
    assert threading.enumerate() == before
    assert watch.closes == [1] * len(watch.closes)


def test_an_interrupted_campaign_lets_its_cell_in_flight_finish(transcript, config, monkeypatch):
    # the interrupt reaches the campaign's own thread while it opens the
    # second endpoint's layer and the first endpoint's first cell is running
    started, release = threading.Event(), threading.Event()
    finished = []

    class Held(CountingTransport):
        def query(self, url, query, *, run=0):
            started.set()
            assert release.wait(5)
            rows = super().query(url, query, run=run)
            finished.append(url)
            return rows

    real_open_layer = client.open_layer
    opened = []

    def open_layer(*args, **kwargs):
        if opened:
            assert started.wait(5)
            release.set()
            raise KeyboardInterrupt
        opened.append(True)
        return real_open_layer(*args, **kwargs)

    monkeypatch.setattr(client, "open_layer", open_layer)
    before = threading.enumerate()
    with pytest.raises(KeyboardInterrupt):
        run_campaign(config._replace(transport=Held(transcript), workers=4))
    assert threading.enumerate() == before
    assert finished == [FULL_ENDPOINT]


def test_campaign_takes_the_longest_wait_a_clock_can_time(transcript, config):
    # one run of each endpoint sends one request, so the delay never sleeps
    longest = config._replace(timeout=threading.TIMEOUT_MAX, delay=threading.TIMEOUT_MAX, runs=1)
    assert run_campaign(longest) == run_campaign(config._replace(runs=1))


@pytest.mark.parametrize("command", ["discover", "evaluate", "campaign"])
def test_cli_closes_the_http_transport_it_builds(monkeypatch, capsys, command):
    from kgaudit import cli

    monkeypatch.setattr(ClosableTranscript, "built", [])
    monkeypatch.setattr(transport_module, "HttpTransport", ClosableTranscript)
    if command == "campaign":
        argv = [command, FULL_ENDPOINT, "--delay", "0"]
    else:
        argv = [command, "--endpoint", FULL_ENDPOINT]
    assert cli.main(argv) == 0
    assert [t.closed for t in ClosableTranscript.built] == [True]


def test_campaign_requires_a_run(config):
    broken = CampaignConfig(**{**config._asdict(), "runs": 0})
    with pytest.raises(ValueError):
        run_campaign(broken)


_TOO_LONG = (float("nan"), float("inf"), 1e300, threading.TIMEOUT_MAX * 2)


@pytest.mark.parametrize(
    "name, value",
    [
        ("timeout", 0.0),
        ("delay", -1.0),
        ("retries", -1),
        ("page_size", 0),
        ("workers", 0),
        # waits that overflowed the clock at the first request, or (NaN)
        # quietly meant no delay at all
        *((name, value) for name in ("timeout", "delay") for value in _TOO_LONG),
    ],
)
def test_campaign_rejects_bad_config(config, name, value):
    broken = CampaignConfig(**{**config._asdict(), name: value})
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
            **config._asdict(),
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
    journaled = CampaignConfig(**{**config._asdict(), "journal_path": str(journal_path)})
    first = run_campaign(journaled)
    recorded = journal_path.read_bytes()
    # 1 header + 3 endpoints x 3 runs
    assert recorded.count(b"\n") == 10

    counting = CountingTransport(transcript)
    resumed_config = CampaignConfig(
        **{**journaled._asdict(), "transport": counting}
    )
    resumed = run_campaign(resumed_config)
    assert counting.count == 0
    assert resumed == first
    assert journal_path.read_bytes() == recorded


def test_campaign_builds_its_fetch_only_with_a_cell_to_audit(tmp_path, config, monkeypatch):
    built = []
    monkeypatch.setattr(client, "build_fetch", lambda catalog: built.append(catalog) or FETCH)
    journaled = CampaignConfig(**{**config._asdict(), "journal_path": str(tmp_path / "j.jsonl")})
    first = run_campaign(journaled)
    assert built == [config.catalog]
    counting = CountingTransport(config.transport)
    assert run_campaign(CampaignConfig(**{**journaled._asdict(), "transport": counting})) == first
    assert built == [config.catalog] and counting.count == 0


def test_journal_parses_each_repeated_text_once(tmp_path, config, monkeypatch):
    journal_path = tmp_path / "journal.jsonl"
    journaled = CampaignConfig(**{**config._asdict(), "journal_path": str(journal_path)})
    first = run_campaign(journaled)
    records = [json.loads(line)["record"] for line in journal_path.read_text().splitlines()[1:]]
    texts = [record["graph"] for record in records]
    assert len(set(texts)) < len(texts)
    # each record parsed on its own, as every run's graph was before
    expected = {
        (r["endpoint"], r["run"]): EndpointRun(
            r["endpoint"], r["run"], r["timestamp"], r["available"],
            parse_ntriples(r["graph"]), tuple(r["datasets"]), tuple(map(tuple, r["errors"])),
        )
        for r in records
    }
    parsed = counted_parse(monkeypatch, client)
    assert Journal(str(journal_path), default_catalog(), 3).load() == expected
    assert sorted(parsed) == sorted(set(texts))
    resumed = run_campaign(journaled)
    assert reporting.to_json(resumed, config.catalog) == reporting.to_json(first, config.catalog)


def test_a_journal_whose_records_share_lines_loads_as_one_parse_per_record(tmp_path):
    rng = random.Random(37)
    pool = list(dict.fromkeys(random_triple(rng) for _ in range(60)))
    path = tmp_path / "journal.jsonl"
    journal = Journal(str(path), default_catalog(), 3)
    journal.load()
    for n in range(6):
        graph = Graph(rng.sample(pool, rng.randrange(20, len(pool))))
        journal.append(EndpointRun(f"http://e{n % 2}.org/sparql", n // 2, "", True, graph, ()))
    records = [json.loads(line)["record"] for line in path.read_text().splitlines()[1:]]
    lines = [line for record in records for line in record["graph"].splitlines()]
    assert len(set(lines)) < len(lines)
    loaded = Journal(str(path), default_catalog(), 3).load()
    assert len(loaded) == len(records) == 6
    shared: dict[Triple, Triple] = {}
    for record in records:
        er = loaded[(record["endpoint"], record["run"])]
        # the same triples in the same order, and one object per line
        assert list(er.graph) == list(parse_ntriples(record["graph"]))
        assert all(shared.setdefault(triple, triple) is triple for triple in er.graph)


def test_journal_refuses_checksum_mismatch(tmp_path, config):
    journal_path = tmp_path / "journal.jsonl"
    journaled = CampaignConfig(**{**config._asdict(), "journal_path": str(journal_path)})
    run_campaign(journaled)
    lines = journal_path.read_text().splitlines()
    lines[1] = lines[1].replace('"run": ', '"run": 4', 1).replace('"run": 44', '"run": 4')
    journal_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="checksum"):
        run_campaign(journaled)


def test_journal_refuses_garbage(tmp_path, config):
    journal_path = tmp_path / "journal.jsonl"
    journaled = CampaignConfig(**{**config._asdict(), "journal_path": str(journal_path)})
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

    # A crash may cut the journal anywhere: at every line boundary (the
    # empty file and the uncut one included) and at two seeded offsets
    # inside each line, the header's too, a resume writes the uncut
    # campaign's report files and leaves every cell journaled once.
    boundaries = [0] + [i + 1 for i, byte in enumerate(recorded) if byte == ord("\n")]
    assert len(boundaries) == 11
    rng = random.Random(963)
    inside = [
        rng.randrange(start + 1, end)
        for start, end in zip(boundaries, boundaries[1:])
        for _ in range(2)
    ]
    for offset in boundaries + inside:
        journal.write_bytes(recorded[:offset])
        out = tmp_path / f"cut-at-{offset}"
        assert cli.main(args + ["--out", str(out)]) == 0, offset
        for uncut in (tmp_path / "uncut").iterdir():
            assert (out / uncut.name).read_bytes() == uncut.read_bytes(), (offset, uncut.name)
        lines = journal.read_bytes().splitlines()
        records = [json.loads(line)["record"] for line in lines[1:]]
        cells = [(record["endpoint"], record["run"]) for record in records]
        assert sorted(cells) == sorted({(e, r) for e in ENDPOINTS for r in range(3)}), offset
        assert sorted(lines) == sorted(recorded.splitlines()), offset


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


@pytest.mark.parametrize(
    "older",
    [{}, {"format": 2}, {"format": 3}, {"format": 4}, {"format": 5}],
    ids=["no-format", "format-2", "format-3", "format-4", "format-5"],
)
def test_journal_refuses_an_older_format_and_leaves_it(tmp_path, config, older):
    # the header journals had before they held a format key, the one they
    # had while blank nodes were named per page and relabelled, the one
    # they had while blank nodes were named per row, the one whose catalog
    # hash was taken over a YAML dump, and the one whose hash covered node
    # labels (their hashes differ too, but the format is what the refusal
    # names)
    record = {"catalog": default_catalog().content_hash(), "runs": 3, **older}
    digest = client._checksum(record)
    header = json.dumps({"kind": "header", "record": record, "sha256": digest}, sort_keys=True)
    journal_path = tmp_path / "journal.jsonl"
    journal_path.write_text(header + "\n")
    before = journal_path.read_bytes()
    journaled = CampaignConfig(**{**config._asdict(), "journal_path": str(journal_path)})
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


@pytest.mark.parametrize("kind", ["header", "note", None])
def test_journal_refuses_a_record_of_another_kind(tmp_path, kind):
    # a well-formed, checksummed line that is not a run, past the header
    path = tmp_path / "journal.jsonl"
    journal = Journal(str(path), default_catalog(), 3)
    journal.load()
    journal.append(EndpointRun("http://e.org/sparql", 0, "t", True, Graph(), ()))
    header, line = path.read_text().splitlines()
    doc = {**json.loads(line), "kind": kind}
    path.write_text(header + "\n" + json.dumps(doc) + "\n")
    before = path.read_bytes()
    with pytest.raises(JournalError) as err:
        Journal(str(path), default_catalog(), 3).load()
    assert str(err.value) == f"{path}:2: unexpected record kind {kind!r}"
    assert path.read_bytes() == before


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
            **config._asdict(),
            "endpoints": [FULL_ENDPOINT, SPARSE_ENDPOINT],
            "journal_path": str(journal_path),
            "transport": TranscriptTransport(str(path)),
        }
    )
    run_campaign(both)
    recorded = journal_path.read_bytes()
    full = CampaignConfig(**{**both._asdict(), "endpoints": [FULL_ENDPOINT]})
    resumed = run_campaign(full)
    fresh = run_campaign(CampaignConfig(**{**full._asdict(), "journal_path": None}))
    assert [(rr.endpoint, rr.run) for rr in resumed.runs] == [(FULL_ENDPOINT, n) for n in range(3)]
    assert resumed.generated_at == "2024-05-03T10:00:00Z"
    catalog = config.catalog
    assert reporting.to_json(resumed, catalog) == reporting.to_json(fresh, catalog)
    assert journal_path.read_bytes() == recorded


def test_journal_refuses_other_campaign(tmp_path, config):
    journal_path = tmp_path / "journal.jsonl"
    journaled = CampaignConfig(**{**config._asdict(), "journal_path": str(journal_path)})
    run_campaign(journaled)
    different_runs = CampaignConfig(**{**journaled._asdict(), "runs": 2})
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

