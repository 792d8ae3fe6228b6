"""Transport tests: HTTP behaviour with scripted sessions, result decoding,
a real local server round trip, and transcript replay."""

from __future__ import annotations

import http.server
import json
import re
import threading
from contextlib import closing, contextmanager
from dataclasses import replace
from importlib import resources
from urllib.parse import parse_qs, urlsplit

import pytest
import requests
import yaml

from kgaudit import transport as transport_module
from kgaudit.catalog import YAML_LOADER, default_catalog, expand_extended, load_yaml
from kgaudit.client import (
    DEFAULT_PAGE_SIZE,
    DISCOVERY_QUERY,
    _at_endpoint,
    build_fetch,
    discover_datasets,
    evaluate_remote_datasets,
    fetch_metadata,
)
from kgaudit.rdf import BlankNode, Graph, Iri, Literal
from kgaudit.sparql import bind_values, format_query, parse_query
from kgaudit.transport import (
    HttpTransport,
    ThrottledTransport,
    TranscriptTransport,
    TransportError,
    decode_results,
)

from helpers import FIXTURES


ASK_ALL = parse_query("ASK {}")


def ask_body(value: bool) -> str:
    return json.dumps({"head": {}, "boolean": value})


def select_body(*rows: dict) -> str:
    return json.dumps({"head": {"vars": []}, "results": {"bindings": list(rows)}})


# ---------------------------------------------------------------------------
# decode_results


def test_decode_ask_true_and_false():
    assert decode_results(ask_body(True)) is True
    assert decode_results(ask_body(False)) is False


def test_decode_bindings_term_types():
    rows = decode_results(
        select_body(
            {
                "s": {"type": "uri", "value": "http://example.org/a"},
                "b": {"type": "bnode", "value": "n1"},
                "plain": {"type": "literal", "value": "hi"},
                "tagged": {"type": "literal", "value": "salut", "xml:lang": "fr"},
                "typed": {
                    "type": "typed-literal",
                    "value": "4",
                    "datatype": "http://www.w3.org/2001/XMLSchema#integer",
                },
            }
        )
    )
    assert rows == [
        {
            "s": Iri("http://example.org/a"),
            "b": BlankNode("n1"),
            "plain": Literal("hi"),
            "tagged": Literal("salut", language="fr"),
            "typed": Literal("4", datatype="http://www.w3.org/2001/XMLSchema#integer"),
        }
    ]


def test_decode_unbound_variables_are_absent():
    rows = decode_results(select_body({"s": {"type": "uri", "value": "http://e.org/x"}}, {}))
    assert rows[1] == {}


@pytest.mark.parametrize(
    "body",
    [
        "not json at all",
        '"just a string"',
        json.dumps({"boolean": "yes"}),
        json.dumps({"results": {}}),
        json.dumps({"results": {"bindings": {"not": "a list"}}}),
        json.dumps({"results": {"bindings": ["row is not an object"]}}),
        json.dumps({"results": {"bindings": [{"x": {"type": "uri"}}]}}),
        json.dumps({"results": {"bindings": [{"x": {"type": "martian", "value": "v"}}]}}),
    ],
)
def test_decode_malformed(body):
    with pytest.raises(TransportError) as err:
        decode_results(body)
    assert err.value.kind == "malformed"


@pytest.mark.parametrize("value", ["http://e.org/a\tb", "http://e.org/a\nb", "http://e.org/\ud800"])
def test_decode_rejects_uri_with_control_or_surrogate(value):
    body = select_body({"s": {"type": "uri", "value": value}})
    with pytest.raises(TransportError) as err:
        decode_results(body)
    assert err.value.kind == "malformed"
    assert "?s" in str(err.value)


# ---------------------------------------------------------------------------
# HttpTransport against scripted sessions


class FakeResponse:
    def __init__(self, status_code: int, text: str = ""):
        self.status_code = status_code
        self.text = text


class ScriptedSession:
    """Pops one scripted step per request; exceptions are raised."""

    def __init__(self, steps):
        self.steps = list(steps)
        self.calls: list[str] = []
        self.closed = False

    def close(self):
        self.closed = True

    def get(self, url, **kwargs):
        return self._next("get")

    def post(self, url, **kwargs):
        return self._next("post")

    def _next(self, verb):
        self.calls.append(verb)
        step = self.steps.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def test_http_get_success():
    session = ScriptedSession([FakeResponse(200, ask_body(True))])
    transport = HttpTransport(session=session)
    assert transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0) is True
    assert session.calls == ["get"]


@pytest.mark.parametrize("status", [405, 414])
def test_http_falls_back_to_post(status):
    session = ScriptedSession([FakeResponse(status), FakeResponse(200, ask_body(False))])
    transport = HttpTransport(session=session)
    assert transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0) is False
    assert session.calls == ["get", "post"]


def test_http_retries_server_errors_then_succeeds():
    session = ScriptedSession(
        [FakeResponse(500), FakeResponse(503), FakeResponse(200, ask_body(True))]
    )
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=2)
    assert transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0) is True
    assert session.calls == ["get", "get", "get"]


def test_http_retry_budget_exhausted():
    session = ScriptedSession([FakeResponse(500), FakeResponse(500)])
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=1)
    with pytest.raises(TransportError) as err:
        transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0)
    assert err.value.kind == "http"
    assert err.value.retryable
    assert session.calls == ["get", "get"]


def test_http_without_retries_tries_once():
    session = ScriptedSession([FakeResponse(500), FakeResponse(200, ask_body(True))])
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=0)
    with pytest.raises(TransportError):
        transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0)
    assert session.calls == ["get"]


def test_http_rejects_a_negative_retry_count():
    with pytest.raises(ValueError, match="retry count"):
        ThrottledTransport(HttpTransport(session=ScriptedSession([])), 0, retries=-1)


def test_http_close_closes_the_session():
    session = ScriptedSession([])
    HttpTransport(session=session).close()
    assert session.closed


def test_http_429_is_retried():
    session = ScriptedSession([FakeResponse(429), FakeResponse(200, ask_body(True))])
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=1)
    assert transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0) is True


def test_http_timeout_is_not_retried():
    session = ScriptedSession([requests.Timeout("too slow"), FakeResponse(200, ask_body(True))])
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=3)
    with pytest.raises(TransportError) as err:
        transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0)
    assert err.value.kind == "timeout"
    assert session.calls == ["get"]


def test_http_connection_error_is_retried():
    session = ScriptedSession(
        [requests.ConnectionError("refused"), FakeResponse(200, ask_body(True))]
    )
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=1)
    assert transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0) is True
    assert session.calls == ["get", "get"]


def test_http_client_error_is_not_retried():
    session = ScriptedSession([FakeResponse(404)])
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=3)
    with pytest.raises(TransportError) as err:
        transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0)
    assert err.value.kind == "http"
    assert not err.value.retryable
    assert session.calls == ["get"]


def test_http_makes_one_attempt():
    session = ScriptedSession([FakeResponse(503), FakeResponse(200, ask_body(True))])
    with pytest.raises(TransportError) as err:
        HttpTransport(session=session).query("http://e.org/sparql", ASK_ALL, timeout=1.0)
    assert err.value.retryable
    assert session.calls == ["get"]


# ---------------------------------------------------------------------------
# ThrottledTransport on a fake clock


class FakeClock:
    """Stands in for ``time`` in kgaudit.transport; sleeping moves it on."""

    def __init__(self):
        self.now = 100.0
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture()
def clock(monkeypatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(transport_module, "time", fake)
    return fake


class Counting:
    """Counts the attempts that reach the inner transport."""

    def __init__(self, inner):
        self.inner = inner
        self.attempts = 0

    def query(self, url, query, *, timeout, run=0):
        self.attempts += 1
        return self.inner.query(url, query, timeout=timeout, run=run)

    def run_timestamp(self, url, run):
        return self.inner.run_timestamp(url, run)


def test_throttled_transport_spaces_requests(clock, transcript):
    throttled = ThrottledTransport(transcript, 0.05)
    throttled.query(ENDPOINT, ASK_ALL, timeout=1.0)
    throttled.query(ENDPOINT, ASK_ALL, timeout=1.0)
    assert clock.sleeps == [pytest.approx(0.05)]
    clock.now += 1.0  # well past the due time
    throttled.query(ENDPOINT, ASK_ALL, timeout=1.0)
    assert len(clock.sleeps) == 1


def test_throttled_retry_waits_the_delay(clock):
    session = ScriptedSession(
        [FakeResponse(503), FakeResponse(429), FakeResponse(200, ask_body(True))]
    )
    transport = ThrottledTransport(HttpTransport(session=session), 0.5, retries=2)
    assert transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0) is True
    assert session.calls == ["get", "get", "get"]
    assert clock.sleeps == [0.5, 0.5]


@pytest.mark.parametrize("retries", [0, 1, 3])
def test_throttled_retries_a_retryable_failure_retries_times(clock, retries):
    session = ScriptedSession([FakeResponse(503)] * (retries + 1))
    transport = ThrottledTransport(HttpTransport(session=session), 0.25, retries=retries)
    with pytest.raises(TransportError) as err:
        transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0)
    assert err.value.retryable
    assert session.calls == ["get"] * (retries + 1)
    assert clock.sleeps == [0.25] * retries


def test_throttled_tries_a_non_retryable_failure_once(clock):
    session = ScriptedSession([FakeResponse(404), FakeResponse(200, ask_body(True))])
    transport = ThrottledTransport(HttpTransport(session=session), 0.5, retries=2)
    with pytest.raises(TransportError):
        transport.query("http://e.org/sparql", ASK_ALL, timeout=1.0)
    assert session.calls == ["get"]
    assert clock.sleeps == []


def test_throttled_tries_a_transcript_down_run_once(clock, transcript):
    counting = Counting(transcript)
    transport = ThrottledTransport(counting, 0.5, retries=2)
    with pytest.raises(TransportError) as err:
        transport.query(ENDPOINT, ASK_ALL, timeout=1.0, run=1)
    assert err.value.kind == "connection" and not err.value.retryable
    assert counting.attempts == 1
    assert clock.sleeps == []
    assert transport.run_timestamp(ENDPOINT, 1) == "2024-05-02T10:00:00Z"


# ---------------------------------------------------------------------------
# HttpTransport against a real local server


@contextmanager
def local_server(handler_class):
    server = http.server.HTTPServer(("127.0.0.1", 0), handler_class)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/sparql"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


class _Quiet(http.server.BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def reply(self, status: int, body: str):
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/sparql-results+json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def test_http_round_trip_over_localhost():
    class Handler(_Quiet):
        def do_GET(self):
            self.reply(200, ask_body(True))

    with local_server(Handler) as url, closing(HttpTransport()) as transport:
        assert transport.query(url, ASK_ALL, timeout=5.0) is True


def test_http_malformed_body_over_localhost():
    class Handler(_Quiet):
        def do_GET(self):
            self.reply(200, "<html>this is not sparql json</html>")

    with local_server(Handler) as url, closing(HttpTransport()) as transport:
        with pytest.raises(TransportError) as err:
            transport.query(url, ASK_ALL, timeout=5.0)
        assert err.value.kind == "malformed"


# ---------------------------------------------------------------------------
# TranscriptTransport


ENDPOINT = "http://example.org/sparql"


@pytest.fixture(scope="module")
def transcript() -> TranscriptTransport:
    return TranscriptTransport(str(FIXTURES / "campaign.yaml"))


def test_transcript_ask(transcript):
    query = parse_query("ASK { <http://example.org/kg/full> ?p ?o . }")
    assert transcript.query(ENDPOINT, query, timeout=1.0, run=0) is True


def test_transcript_unavailable_run(transcript):
    with pytest.raises(TransportError) as err:
        transcript.query(ENDPOINT, ASK_ALL, timeout=1.0, run=1)
    assert err.value.kind == "connection"


def test_transcript_run_index_clamps(transcript):
    # run 7 does not exist; the last recorded run answers
    assert transcript.query(ENDPOINT, ASK_ALL, timeout=1.0, run=7) is True
    assert transcript.run_timestamp(ENDPOINT, 7) == "2024-05-03T10:00:00Z"


def test_transcript_unknown_endpoint(transcript):
    with pytest.raises(TransportError) as err:
        transcript.query("http://nowhere.example.org/", ASK_ALL, timeout=1.0)
    assert err.value.kind == "connection"
    assert transcript.run_timestamp("http://nowhere.example.org/", 0) is None


def test_transcript_timestamps(transcript):
    assert transcript.run_timestamp(ENDPOINT, 0) == "2024-05-01T10:00:00Z"
    assert transcript.run_timestamp(ENDPOINT, 1) == "2024-05-02T10:00:00Z"


def test_transcript_select_with_modifiers(transcript):
    base = parse_query("SELECT ?p ?o WHERE { <http://example.org/kg/full> ?p ?o . }")
    everything = transcript.query(ENDPOINT, base, timeout=1.0, run=0)
    page = transcript.query(ENDPOINT, replace(base, limit=5, offset=5), timeout=1.0, run=0)
    assert len(page) == 5
    assert page == everything[5:10]
    beyond = replace(base, limit=5, offset=9999)
    assert transcript.query(ENDPOINT, beyond, timeout=1.0, run=0) == []


def test_transcript_validation_errors(tmp_path):
    no_endpoints = tmp_path / "bad1.yaml"
    no_endpoints.write_text("foo: bar\n")
    with pytest.raises(ValueError, match="endpoints"):
        TranscriptTransport(str(no_endpoints))

    empty_runs = tmp_path / "bad2.yaml"
    empty_runs.write_text('endpoints:\n  "http://e.org/":\n    runs: []\n')
    with pytest.raises(ValueError, match="non-empty 'runs'"):
        TranscriptTransport(str(empty_runs))

    bad_data = tmp_path / "bad3.yaml"
    bad_data.write_text(
        'endpoints:\n  "http://e.org/":\n    runs:\n'
        "      - available: true\n"
        '        data: "<only-a-subject>"\n'
    )
    with pytest.raises(ValueError, match="run 0"):
        TranscriptTransport(str(bad_data))

    endpoint = 'endpoints:\n  "http://e.org/":\n'
    two_runs = endpoint + "    runs:\n      - {}\n      - "
    cases = [
        ("endpoints: [unclosed\n", "not valid YAML: .*line 2"),
        (endpoint.rstrip("\n") + " 7\n", "endpoint http://e.org/: expected a mapping, got 7"),
        (endpoint + "    runs: [3]\n", "endpoint http://e.org/ run 0: expected a mapping, got 3"),
        (two_runs + "{data: 5}\n", "endpoint http://e.org/ run 1: data: expected N-Triples text"),
        (
            two_runs + '{available: "false"}\n',
            "run 1: available: expected true or false, got 'false'",
        ),
        (
            two_runs + "{timestamp: 2024-05-01T10:00:00Z}\n",
            "run 1: timestamp: expected a quoted string, got datetime",
        ),
    ]
    for index, (text, message) in enumerate(cases):
        path = tmp_path / f"case{index}.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"(?s)^{re.escape(str(path))}: .*{message}"):
            TranscriptTransport(str(path))

    # missing fields keep their defaults: available, no timestamp, no data
    defaults = tmp_path / "defaults.yaml"
    defaults.write_text(endpoint + "    runs:\n      - {}\n      -\n")
    replay = TranscriptTransport(str(defaults))
    for run in (0, 1):
        assert replay.run_timestamp("http://e.org/", run) is None
        assert replay.query("http://e.org/", ASK_ALL, timeout=1.0, run=run) is True


# ---------------------------------------------------------------------------
# The YAML loader

# Escapes in YAML double-quoted scalars and in N-Triples, raw non-ASCII and
# an astral character, in flow and block styles.
ESCAPED_TRANSCRIPT = r'''endpoints:
  "http://example.org/sparql/caf\u00e9":
    runs:
      - available: true
        timestamp: "2024-05-01T10:00:00Z \t\u00e9\U0001F600"
        data: "<http://example.org/kg> <http://purl.org/dc/terms/title> \"caf\\u00e9 \\\"q\\\" \\t\"@fr .\n"
      - timestamp: '2024-05-02'
        data: |
          # comment: naïve
          <http://example.org/kg> <http://purl.org/dc/terms/title> "naïve 😀 \u00e9\U0001F600\\n" .
          <http://example.org/kg> <http://purl.org/dc/terms/creator> _:c .
          _:c <http://xmlns.com/foaf/0.1/name> "Zoë"@de .
      - available: false
'''


def test_libyaml_loader_is_picked_when_present():
    if yaml.__with_libyaml__:
        assert YAML_LOADER is yaml.CSafeLoader
    else:
        assert YAML_LOADER is yaml.SafeLoader


def test_both_loaders_read_equal_documents():
    default = resources.files("kgaudit").joinpath("data/default_catalog.yaml")
    texts = [
        (FIXTURES / "campaign.yaml").read_text("utf-8"),
        default.read_text("utf-8"),
        ESCAPED_TRANSCRIPT,
    ]
    for text in texts:
        expected = yaml.load(text, Loader=yaml.SafeLoader)
        assert load_yaml(text) == expected
    assert "http://example.org/sparql/café" in expected["endpoints"]


@pytest.mark.parametrize(
    "path", [FIXTURES / "campaign.yaml", "escaped"], ids=["fixture", "escaped"]
)
def test_transcript_is_the_same_under_the_pure_python_loader(tmp_path, monkeypatch, path):
    if path == "escaped":
        path = tmp_path / "escaped.yaml"
        path.write_text(ESCAPED_TRANSCRIPT, encoding="utf-8")
    picked = TranscriptTransport(str(path))
    streams = []

    class PureLoader(yaml.SafeLoader):
        def __init__(self, stream):
            streams.append(stream)
            super().__init__(stream)

    monkeypatch.setattr("kgaudit.catalog.YAML_LOADER", PureLoader)
    pure = TranscriptTransport(str(path))
    assert len(streams) == 1
    assert pure._endpoints == picked._endpoints
    assert sum(len(run.graph) for runs in pure._endpoints.values() for run in runs) > 0


# ---------------------------------------------------------------------------
# The text on the wire


WIRE_DATASETS = [Iri("http://example.org/kg/full"), Iri("http://example.org/kg/sparse")]
FETCH = build_fetch(default_catalog())


def wire_queries() -> list:
    """Every query a campaign or a remote evaluation sends, filled in: one
    ``SELECT DISTINCT ?kg`` per expanded query, ?kg bound by VALUES, then
    discovery and the metadata fetch, ?endpoint bound by VALUES."""
    catalog = default_catalog()
    queries = [
        bind_values(
            replace(expand_extended(cq.query, catalog.rules), form="select", projection=("kg",)),
            "kg",
            WIRE_DATASETS,
        )
        for _, cq in catalog.queries()
    ]
    return queries + [_at_endpoint(DISCOVERY_QUERY, ENDPOINT), _at_endpoint(FETCH.query, ENDPOINT)]


def test_wire_text_parses_back_to_the_query():
    queries = wire_queries()
    assert len(queries) == 35
    # a VALUES literal whose text needs escaping
    awkward = Literal('say "hi"\\\n\tthere', language="en")
    queries.append(bind_values(queries[0], "other", [awkward, Iri(ENDPOINT)]))
    for query in queries:
        assert parse_query(format_query(query)) == query
    assert '"say \\"hi\\"\\\\\\n\\tthere"@en' in format_query(queries[-1])


class Recording:
    """A transport that keeps every query it is sent and answers no rows."""

    def __init__(self):
        self.sent = []

    def query(self, url, query, *, timeout, run=0):
        self.sent.append(query)
        return []


def test_the_remote_route_sends_the_wire_queries():
    transport = Recording()
    catalog = default_catalog()
    evaluate_remote_datasets(transport, ENDPOINT, catalog, WIRE_DATASETS)
    assert transport.sent == wire_queries()[: len(catalog.expanded)]


def test_discovery_and_fetch_send_the_wire_queries():
    transport = Recording()
    assert discover_datasets(transport, ENDPOINT) == []
    assert fetch_metadata(transport, ENDPOINT, FETCH) == (Graph(), ())
    discovery, metadata = wire_queries()[-2:]
    assert transport.sent == [discovery, replace(metadata, limit=DEFAULT_PAGE_SIZE)]


def test_paged_fetch_wire_text():
    text = format_query(replace(_at_endpoint(FETCH.query, ENDPOINT), limit=7, offset=14))
    assert "SELECT DISTINCT ?kg ?branch ?v0 ?v1 ?v2 ?v3 WHERE " in text
    assert f'VALUES ?endpoint {{ <{ENDPOINT}> "{ENDPOINT}" }}' in text
    # the two fixed branches, then the default catalog's four that no row
    # of theirs holds whole: publisher.1's activity and three service
    # descriptions
    tags = [f'VALUES ?branch {{ "{n}" }}' in text for n in range(7)]
    assert tags == [True] * 6 + [False]
    assert text.count("sd:defaultDataset ?kg") == 3
    assert len(text) < 2048  # small enough to go out as GET
    assert text.endswith("\nORDER BY ?kg ?branch ?v0 ?v1 ?v2 ?v3 LIMIT 7 OFFSET 14\n")


def test_http_sends_the_formatted_query():
    received = []

    class Handler(_Quiet):
        def do_GET(self):
            received.extend(parse_qs(urlsplit(self.path).query)["query"])
            self.reply(200, select_body({"kg": {"type": "uri", "value": WIRE_DATASETS[0].value}}))

    query = wire_queries()[0]
    with local_server(Handler) as url, closing(HttpTransport()) as transport:
        assert transport.query(url, query, timeout=5.0) == [{"kg": WIRE_DATASETS[0]}]
    assert received == [format_query(query)]
