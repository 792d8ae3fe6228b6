"""Transport tests: HTTP behaviour with scripted sessions, result decoding,
a real local server round trip, and transcript replay."""

from __future__ import annotations

import http.server
import json
import random
import re
import sys
import threading
from contextlib import closing, contextmanager
from importlib import resources
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest
import requests
import yaml

import kgaudit
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
from kgaudit.rdf import (
    XSD,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    parse_ntriples,
    serialize_ntriples,
)
from kgaudit.sparql import bind_values, eval_select, format_query, parse_query
from kgaudit.transport import (
    DEFAULT_TIMEOUT,
    HttpTransport,
    ThrottledTransport,
    TranscriptTransport,
    TransportError,
    decode_results,
    open_layer,
)

from helpers import FIXTURES, counted_parse


# one solution, the empty one, on any graph
SELECT_ALL = parse_query("SELECT * WHERE {}")
ROW = {"s": {"type": "uri", "value": "http://e.org/x"}}
ROWS = [{"s": Iri("http://e.org/x")}]


def select_body(*rows: dict) -> str:
    return json.dumps({"head": {"vars": []}, "results": {"bindings": list(rows)}})


# ---------------------------------------------------------------------------
# decode_results


def test_decode_refuses_a_boolean_document():
    # transports answer SELECTs only; an ASK answer has no results.bindings
    for value in (True, False):
        with pytest.raises(TransportError, match="missing results.bindings") as err:
            decode_results(json.dumps({"head": {}, "boolean": value}))
        assert err.value.kind == "malformed"


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
            "b": BlankNode("b6e31"),  # the label's UTF-8 hex
            "plain": Literal("hi"),
            "tagged": Literal("salut", language="fr"),
            "typed": Literal("4", datatype="http://www.w3.org/2001/XMLSchema#integer"),
        }
    ]


def test_decode_names_a_blank_node_for_any_label():
    # the results format puts no bound on a label; equal labels name one
    # node and different labels stay apart, even where one label spells
    # another's name
    labels = ["nodeID://b10005", "n1", "nodeID://b10005", "b6e31", "", "a b", "ünï", "n1."]
    rows = decode_results(select_body(*({"b": {"type": "bnode", "value": v}} for v in labels)))
    names = [row["b"] for row in rows]
    assert all(isinstance(name, BlankNode) for name in names)
    assert names[0] == names[2]
    assert len(set(names)) == len(set(labels)) == len(labels) - 1
    assert names[0] == BlankNode("b6e6f646549443a2f2f623130303035")


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
        # a value that is not a string, of each term type
        select_body({"x": {"type": "uri", "value": 5}}),
        select_body({"x": {"type": "bnode", "value": None}}),
        select_body({"x": {"type": "literal", "value": ["v"]}}),
    ],
)
def test_decode_malformed(body):
    with pytest.raises(TransportError) as err:
        decode_results(body)
    assert err.value.kind == "malformed"


BAD_LITERAL_FIELDS = [
    {"datatype": "a b"},
    {"datatype": 5},
    {"datatype": "http://e.org/d>"},
    {"datatype": ""},
    {"datatype": None, "xml:lang": 5},
    {"xml:lang": ["en"]},
]


@pytest.mark.parametrize("fields", BAD_LITERAL_FIELDS)
def test_decode_refuses_a_literal_that_would_not_read_back(fields):
    # kept, each would be written to a journal as N-Triples that no reader
    # takes back; a datatype is never dropped, which would skew the score
    body = select_body({"o": {"type": "typed-literal", "value": "4", **fields}})
    with pytest.raises(TransportError) as err:
        decode_results(body)
    assert err.value.kind == "malformed"
    assert "?o" in str(err.value)


def test_decoded_literals_write_n_triples_that_read_back():
    cells = [
        {"type": "typed-literal", "value": "4", "datatype": XSD + "integer"},
        {"type": "literal", "value": 'q"\\', "datatype": "urn:x:d", "xml:lang": None},
        {"type": "literal", "value": "salut", "xml:lang": "fr-CA"},
    ]
    rows = decode_results(select_body(*({"o": cell} for cell in cells)))
    assert [row["o"].datatype for row in rows] == [cells[0]["datatype"], "urn:x:d", None]
    graph = Graph(Triple(Iri("http://e.org/s"), Iri("http://e.org/p"), row["o"]) for row in rows)
    assert parse_ntriples(serialize_ntriples(graph)) == graph


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
    """Pops one scripted step per request; exceptions are raised.  Records
    each request's verb and the timeout it was sent with."""

    def __init__(self, steps):
        self.steps = list(steps)
        self.calls: list[str] = []
        self.timeouts: list[float] = []
        self.closed = False

    def close(self):
        self.closed = True

    def get(self, url, *, timeout, **kwargs):
        return self._next("get", timeout)

    def post(self, url, *, timeout, **kwargs):
        return self._next("post", timeout)

    def _next(self, verb, timeout):
        self.calls.append(verb)
        self.timeouts.append(timeout)
        step = self.steps.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def test_http_get_success():
    session = ScriptedSession([FakeResponse(200, select_body(ROW))])
    transport = HttpTransport(session=session)
    assert transport.query("http://e.org/sparql", SELECT_ALL) == ROWS
    assert session.calls == ["get"]
    assert session.timeouts == [DEFAULT_TIMEOUT]


@pytest.mark.parametrize("status", [405, 414])
def test_http_falls_back_to_post(status):
    session = ScriptedSession([FakeResponse(status), FakeResponse(200, select_body())])
    transport = HttpTransport(session=session, timeout=7.5)
    assert transport.query("http://e.org/sparql", SELECT_ALL) == []
    assert session.calls == ["get", "post"]
    assert session.timeouts == [7.5, 7.5]


def test_open_layer_hands_its_timeout_to_the_http_transport(monkeypatch):
    session = ScriptedSession([FakeResponse(200, select_body(ROW))])
    monkeypatch.setattr(requests, "Session", lambda: session)
    with open_layer(None, 0, timeout=7.5) as layer:
        assert layer.query("http://e.org/sparql", SELECT_ALL) == ROWS
    assert session.timeouts == [7.5]
    assert session.closed


def test_http_stamps_a_run_with_the_clock(monkeypatch):
    monkeypatch.setattr(transport_module, "utcnow", lambda: "2030-01-01T00:00:00Z")
    transport = HttpTransport(session=ScriptedSession([]))
    assert transport.run_timestamp("http://e.org/sparql", 0) == "2030-01-01T00:00:00Z"


def test_http_retries_server_errors_then_succeeds():
    session = ScriptedSession(
        [FakeResponse(500), FakeResponse(503), FakeResponse(200, select_body(ROW))]
    )
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=2)
    assert transport.query("http://e.org/sparql", SELECT_ALL) == ROWS
    assert session.calls == ["get", "get", "get"]


def test_http_retry_budget_exhausted():
    session = ScriptedSession([FakeResponse(500), FakeResponse(500)])
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=1)
    with pytest.raises(TransportError) as err:
        transport.query("http://e.org/sparql", SELECT_ALL)
    assert err.value.kind == "http"
    assert err.value.retryable
    assert session.calls == ["get", "get"]


def test_http_without_retries_tries_once():
    session = ScriptedSession([FakeResponse(500), FakeResponse(200, select_body(ROW))])
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=0)
    with pytest.raises(TransportError):
        transport.query("http://e.org/sparql", SELECT_ALL)
    assert session.calls == ["get"]


def test_http_rejects_a_negative_retry_count():
    with pytest.raises(ValueError, match="retry count"):
        ThrottledTransport(HttpTransport(session=ScriptedSession([])), 0, retries=-1)


def test_http_close_closes_the_session():
    session = ScriptedSession([])
    HttpTransport(session=session).close()
    assert session.closed


def test_http_429_is_retried():
    session = ScriptedSession([FakeResponse(429), FakeResponse(200, select_body(ROW))])
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=1)
    assert transport.query("http://e.org/sparql", SELECT_ALL) == ROWS


def test_http_timeout_is_not_retried():
    session = ScriptedSession([requests.Timeout("too slow"), FakeResponse(200, select_body(ROW))])
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=3)
    with pytest.raises(TransportError) as err:
        transport.query("http://e.org/sparql", SELECT_ALL)
    assert err.value.kind == "timeout"
    assert session.calls == ["get"]


def test_http_connection_error_is_retried():
    session = ScriptedSession(
        [requests.ConnectionError("refused"), FakeResponse(200, select_body(ROW))]
    )
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=1)
    assert transport.query("http://e.org/sparql", SELECT_ALL) == ROWS
    assert session.calls == ["get", "get"]


def test_http_client_error_is_not_retried():
    session = ScriptedSession([FakeResponse(404)])
    transport = ThrottledTransport(HttpTransport(session=session), 0, retries=3)
    with pytest.raises(TransportError) as err:
        transport.query("http://e.org/sparql", SELECT_ALL)
    assert err.value.kind == "http"
    assert not err.value.retryable
    assert session.calls == ["get"]


def test_http_makes_one_attempt():
    session = ScriptedSession([FakeResponse(503), FakeResponse(200, select_body(ROW))])
    with pytest.raises(TransportError) as err:
        HttpTransport(session=session).query("http://e.org/sparql", SELECT_ALL)
    assert err.value.retryable
    assert session.calls == ["get"]


def test_only_the_transport_module_builds_transports():
    # every command reaches an endpoint through open_layer
    built = re.compile(r"\b(?:HttpTransport|ThrottledTransport)\(")
    package = Path(kgaudit.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "transport.py" in modules
    offenders = [
        path.name
        for path in modules
        if path.name != "transport.py" and built.search(path.read_text("utf-8"))
    ]
    assert offenders == []


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

    def query(self, url, query, *, run=0):
        self.attempts += 1
        return self.inner.query(url, query, run=run)

    def run_timestamp(self, url, run):
        return self.inner.run_timestamp(url, run)


def test_throttled_transport_spaces_requests(clock, transcript):
    throttled = ThrottledTransport(transcript, 0.05)
    throttled.query(ENDPOINT, SELECT_ALL)
    throttled.query(ENDPOINT, SELECT_ALL)
    assert clock.sleeps == [pytest.approx(0.05)]
    clock.now += 1.0  # well past the due time
    throttled.query(ENDPOINT, SELECT_ALL)
    assert len(clock.sleeps) == 1


def test_throttled_retry_waits_the_delay(clock):
    session = ScriptedSession(
        [FakeResponse(503), FakeResponse(429), FakeResponse(200, select_body(ROW))]
    )
    transport = ThrottledTransport(HttpTransport(session=session), 0.5, retries=2)
    assert transport.query("http://e.org/sparql", SELECT_ALL) == ROWS
    assert session.calls == ["get", "get", "get"]
    assert clock.sleeps == [0.5, 0.5]


@pytest.mark.parametrize("retries", [0, 1, 3])
def test_throttled_retries_a_retryable_failure_retries_times(clock, retries):
    session = ScriptedSession([FakeResponse(503)] * (retries + 1))
    transport = ThrottledTransport(HttpTransport(session=session), 0.25, retries=retries)
    with pytest.raises(TransportError) as err:
        transport.query("http://e.org/sparql", SELECT_ALL)
    assert err.value.retryable
    assert session.calls == ["get"] * (retries + 1)
    assert clock.sleeps == [0.25] * retries


def test_throttled_tries_a_non_retryable_failure_once(clock):
    session = ScriptedSession([FakeResponse(404), FakeResponse(200, select_body(ROW))])
    transport = ThrottledTransport(HttpTransport(session=session), 0.5, retries=2)
    with pytest.raises(TransportError):
        transport.query("http://e.org/sparql", SELECT_ALL)
    assert session.calls == ["get"]
    assert clock.sleeps == []


def test_throttled_tries_a_transcript_down_run_once(clock, transcript):
    counting = Counting(transcript)
    transport = ThrottledTransport(counting, 0.5, retries=2)
    with pytest.raises(TransportError) as err:
        transport.query(ENDPOINT, SELECT_ALL, run=1)
    assert err.value.kind == "connection" and not err.value.retryable
    assert counting.attempts == 1
    assert clock.sleeps == []
    assert transport.run_timestamp(ENDPOINT, 1) == "2024-05-02T10:00:00Z"


# ---------------------------------------------------------------------------
# Waits the clock cannot time

# inf and 1e300 overflow the clock of a sleep; NaN fails every comparison,
# so as a delay it spaced nothing
_BAD_DELAYS = (float("inf"), 1e300, float("nan"), -1.0)
# a socket's clock refuses the same, and a timeout of 0 never waits at all
_BAD_TIMEOUTS = (0.0, -5.0, float("inf"), float("nan"))


class Unqueried:
    """An inner transport that fails the test when a query reaches it."""

    def query(self, url, query, *, run=0):
        pytest.fail(f"a query went out to {url}")

    def run_timestamp(self, url, run):
        return ""


@pytest.fixture()
def no_session(monkeypatch):
    def session():
        pytest.fail("a requests.Session was built")

    monkeypatch.setattr(requests, "Session", session)


@pytest.mark.parametrize("inner", [None, Unqueried()], ids=["http", "given"])
@pytest.mark.parametrize("delay", _BAD_DELAYS)
def test_open_layer_refuses_a_delay_the_clock_cannot_time(no_session, delay, inner):
    with pytest.raises(ValueError, match="delay"):
        with open_layer(inner, delay, timeout=DEFAULT_TIMEOUT):
            pytest.fail("the layer opened")


@pytest.mark.parametrize("inner", [None, Unqueried()], ids=["http", "given"])
@pytest.mark.parametrize("timeout", _BAD_TIMEOUTS)
def test_open_layer_refuses_a_timeout_the_clock_cannot_time(no_session, timeout, inner):
    # a replay refuses what a live run refuses
    with pytest.raises(ValueError, match="timeout"):
        with open_layer(inner, 0.0, timeout=timeout):
            pytest.fail("the layer opened")


@pytest.mark.parametrize("inner", [None, Unqueried()], ids=["http", "given"])
def test_open_layer_refuses_a_negative_retry_count(no_session, inner):
    with pytest.raises(ValueError, match="retry count"):
        with open_layer(inner, 0.0, timeout=DEFAULT_TIMEOUT, retries=-1):
            pytest.fail("the layer opened")


@pytest.mark.parametrize("delay", _BAD_DELAYS)
def test_throttled_transport_refuses_a_delay_the_clock_cannot_time(delay):
    with pytest.raises(ValueError, match="delay"):
        ThrottledTransport(Unqueried(), delay)


@pytest.mark.parametrize("timeout", _BAD_TIMEOUTS)
def test_http_transport_refuses_a_timeout_the_clock_cannot_time(no_session, timeout):
    with pytest.raises(ValueError, match="timeout"):
        HttpTransport(timeout=timeout)


def test_the_longest_waits_a_clock_can_time_are_taken(clock, transcript):
    longest = threading.TIMEOUT_MAX
    session = ScriptedSession([FakeResponse(200, select_body(ROW))])
    assert HttpTransport(session=session, timeout=longest).query(ENDPOINT, SELECT_ALL) == ROWS
    assert session.timeouts == [longest]
    assert ThrottledTransport(transcript, longest).query(ENDPOINT, SELECT_ALL) == [{}]
    with open_layer(transcript, longest, timeout=longest) as layer:
        assert layer.query(ENDPOINT, SELECT_ALL) == [{}]
        assert layer.wait_s() == longest
    assert clock.sleeps == []


def test_only_the_transport_module_knows_about_time():
    # one clock reader, one statement of what a wait may be
    package = Path(kgaudit.__file__).parent
    timing = re.compile(r"\b(?:TIMEOUT_MAX|utcnow|datetime)\b")
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "transport.py" and timing.search(path.read_text("utf-8"))
    ]
    assert offenders == []


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
            self.reply(200, select_body(ROW))

    with local_server(Handler) as url, closing(HttpTransport(timeout=5.0)) as transport:
        assert transport.query(url, SELECT_ALL) == ROWS


def test_http_malformed_body_over_localhost():
    class Handler(_Quiet):
        def do_GET(self):
            self.reply(200, "<html>this is not sparql json</html>")

    with local_server(Handler) as url, closing(HttpTransport(timeout=5.0)) as transport:
        with pytest.raises(TransportError) as err:
            transport.query(url, SELECT_ALL)
        assert err.value.kind == "malformed"


# ---------------------------------------------------------------------------
# TranscriptTransport


ENDPOINT = "http://example.org/sparql"


@pytest.fixture(scope="module")
def transcript() -> TranscriptTransport:
    return TranscriptTransport(str(FIXTURES / "campaign.yaml"))


def test_transcript_ask(transcript):
    query = parse_query("SELECT ?p WHERE { <http://example.org/kg/full> ?p ?o . }")
    assert transcript.query(ENDPOINT, query, run=0)


def test_transcript_unavailable_run(transcript):
    with pytest.raises(TransportError) as err:
        transcript.query(ENDPOINT, SELECT_ALL, run=1)
    assert err.value.kind == "connection"


def test_transcript_run_index_clamps(transcript):
    # run 7 does not exist; the last recorded run answers
    assert transcript.query(ENDPOINT, SELECT_ALL, run=7) == [{}]
    assert transcript.run_timestamp(ENDPOINT, 7) == "2024-05-03T10:00:00Z"


def test_transcript_unknown_endpoint(transcript):
    with pytest.raises(TransportError) as err:
        transcript.query("http://nowhere.example.org/", SELECT_ALL)
    assert err.value.kind == "connection"
    assert transcript.run_timestamp("http://nowhere.example.org/", 0) == ""


def test_transcript_timestamps(transcript):
    assert transcript.run_timestamp(ENDPOINT, 0) == "2024-05-01T10:00:00Z"
    assert transcript.run_timestamp(ENDPOINT, 1) == "2024-05-02T10:00:00Z"


def test_transcript_select_with_modifiers(transcript):
    base = parse_query("SELECT ?p ?o WHERE { <http://example.org/kg/full> ?p ?o . }")
    everything = transcript.query(ENDPOINT, base, run=0)
    page = transcript.query(ENDPOINT, base._replace(limit=5, offset=5), run=0)
    assert len(page) == 5
    assert page == everything[5:10]
    beyond = base._replace(limit=5, offset=9999)
    assert transcript.query(ENDPOINT, beyond, run=0) == []


def test_transcript_validation_errors(tmp_path):
    no_endpoints = tmp_path / "bad1.yaml"
    no_endpoints.write_text("foo: bar\n")
    with pytest.raises(ValueError, match="endpoints"):
        TranscriptTransport(str(no_endpoints))

    empty_runs = tmp_path / "bad2.yaml"
    empty_runs.write_text('endpoints:\n  "http://e.org/":\n    runs: []\n')
    with pytest.raises(ValueError, match="non-empty 'runs'"):
        TranscriptTransport(str(empty_runs))

    # data that is not N-Triples loads, and is refused at its first query,
    # naming the file, endpoint and run; the other runs still answer
    bad_data = tmp_path / "bad3.yaml"
    bad_data.write_text(
        'endpoints:\n  "http://e.org/":\n    runs:\n'
        "      - available: true\n"
        '        data: "<only-a-subject>"\n'
        "      - {}\n"
    )
    replay = TranscriptTransport(str(bad_data))
    message = (
        f"{bad_data}: endpoint http://e.org/ run 0: "
        "line 1: malformed N-Triples statement: '<only-a-subject>'"
    )
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            replay.query("http://e.org/", SELECT_ALL, run=0)
        assert str(err.value) == message
    assert replay.query("http://e.org/", SELECT_ALL, run=1) == [{}]

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
        assert replay.run_timestamp("http://e.org/", run) == ""
        assert replay.query("http://e.org/", SELECT_ALL, run=run) == [{}]


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
    rows = 0
    for url, runs in pure._endpoints.items():
        for run, entry in enumerate(runs):
            if entry.available:
                answered = pure.query(url, EVERY_TRIPLE, run=run)
                assert answered == picked.query(url, EVERY_TRIPLE, run=run)
                rows += len(answered)
    assert rows > 0


EVERY_TRIPLE = parse_query("SELECT * WHERE { ?s ?p ?o . }")
TEXTS = [
    "<http://e.org/a> <http://e.org/p> <http://e.org/b> .\n",
    "<http://e.org/a> <http://e.org/p> _:b .\n",
]


def test_transcript_parses_each_text_once_at_its_first_query(tmp_path, monkeypatch):
    runs = {
        "http://one.org/": [{"data": TEXTS[0]}, {"data": TEXTS[0]}, {"available": False, "data": "<x>"}],
        "http://two.org/": [{"data": TEXTS[0]}, {"data": TEXTS[1]}],
    }
    path = tmp_path / "repeated.yaml"
    path.write_text(yaml.safe_dump({"endpoints": {u: {"runs": r} for u, r in runs.items()}}))
    parsed = counted_parse(monkeypatch, transport_module)
    replay = TranscriptTransport(str(path))
    assert parsed == []
    answers = [
        replay.query(url, EVERY_TRIPLE, run=run)
        for url, run in [("http://one.org/", 0), ("http://one.org/", 1), ("http://two.org/", 0)]
    ]
    expected = [{"s": Iri("http://e.org/a"), "p": Iri("http://e.org/p"), "o": Iri("http://e.org/b")}]
    assert answers == [expected] * 3
    assert parsed == [TEXTS[0]]
    # a down run is not parsed, even when its data is not N-Triples
    with pytest.raises(TransportError, match="recorded as down"):
        replay.query("http://one.org/", EVERY_TRIPLE, run=2)
    assert parsed == [TEXTS[0]]
    (row,) = replay.query("http://two.org/", EVERY_TRIPLE, run=1)
    assert isinstance(row["o"], BlankNode)
    assert parsed == TEXTS


def test_two_workers_meeting_an_unparsed_text_parse_it_once(tmp_path, monkeypatch):
    runs = {"http://one.org/": [{"data": TEXTS[0]}], "http://two.org/": [{"data": TEXTS[0]}]}
    path = tmp_path / "shared.yaml"
    path.write_text(yaml.safe_dump({"endpoints": {u: {"runs": r} for u, r in runs.items()}}))
    parsed = counted_parse(monkeypatch, transport_module)
    counting = transport_module.parse_ntriples
    parsing, release = threading.Event(), threading.Event()

    def held(text, memo=None):
        # the first parse holds until the second worker has had its chance
        if not parsing.is_set():
            parsing.set()
            assert release.wait(10)
        return counting(text, memo)

    monkeypatch.setattr(transport_module, "parse_ntriples", held)
    replay = TranscriptTransport(str(path))
    answers = {}

    def ask(url):
        answers[url] = replay.query(url, EVERY_TRIPLE)

    first = threading.Thread(target=ask, args=("http://one.org/",))
    second = threading.Thread(target=ask, args=("http://two.org/",))
    first.start()
    assert parsing.wait(10)
    second.start()
    second.join(0.2)  # without the lock it parses the text meanwhile
    release.set()
    first.join(10)
    second.join(10)
    assert parsed == [TEXTS[0]]
    expected = [{"s": Iri("http://e.org/a"), "p": Iri("http://e.org/p"), "o": Iri("http://e.org/b")}]
    assert answers == {"http://one.org/": expected, "http://two.org/": expected}


def counted_evals(monkeypatch) -> list:
    """The queries the transcript transport evaluates from now on."""
    evaluated = []

    def counting(graph, query):
        evaluated.append(query)
        return eval_select(graph, query)

    monkeypatch.setattr(transport_module, "eval_select", counting)
    return evaluated


def test_runs_serving_one_text_answer_each_question_once(tmp_path, monkeypatch):
    two = TEXTS[0] + "<http://e.org/a> <http://e.org/p> <http://e.org/c> .\n"
    runs = {
        "http://one.org/": [{"data": two}, {"data": TEXTS[1]}, {"available": False, "data": two}],
        "http://two.org/": [{"data": two}, {"data": TEXTS[1]}],
    }
    path = tmp_path / "shared.yaml"
    path.write_text(yaml.safe_dump({"endpoints": {u: {"runs": r} for u, r in runs.items()}}))
    evaluated = counted_evals(monkeypatch)
    replay = TranscriptTransport(str(path))
    first = replay.query("http://one.org/", EVERY_TRIPLE)
    assert len(first) == 2
    assert replay.query("http://two.org/", EVERY_TRIPLE) == first
    # prefixes change no answer
    prefixed = EVERY_TRIPLE._replace(prefixes={"e": "http://e.org/"})
    assert replay.query("http://two.org/", prefixed) == first
    assert len(evaluated) == 1
    # another text, another page or another projection is evaluated afresh
    (row,) = replay.query("http://one.org/", EVERY_TRIPLE, run=1)
    assert isinstance(row["o"], BlankNode)
    assert row["s"] is first[0]["s"]  # every text is read through one memo
    assert len(evaluated) == 2
    pages = [EVERY_TRIPLE._replace(limit=1, offset=offset) for offset in (0, 1)]
    assert [replay.query("http://two.org/", page) for page in pages] == [first[:1], first[1:]]
    assert replay.query("http://two.org/", parse_query("SELECT ?o WHERE { ?s ?p ?o . }")) == [
        {"o": row["o"]} for row in first
    ]
    assert len(evaluated) == 5
    # each call returns a list of its own
    first.clear()
    again = replay.query("http://one.org/", EVERY_TRIPLE)
    again.append({})
    assert len(replay.query("http://one.org/", EVERY_TRIPLE)) == 2
    assert len(evaluated) == 5
    # a down run refuses though its text's answer is remembered
    with pytest.raises(TransportError, match="recorded as down") as err:
        replay.query("http://one.org/", EVERY_TRIPLE, run=2)
    assert err.value.kind == "connection"


def test_a_text_one_run_serves_keeps_no_answer_and_a_lone_text_no_memo(tmp_path, monkeypatch):
    memos = []

    def recording(text, memo=None):
        memos.append(memo)
        return parse_ntriples(text, memo)

    monkeypatch.setattr(transport_module, "parse_ntriples", recording)
    evaluated = counted_evals(monkeypatch)
    lone = tmp_path / "lone.yaml"
    lone.write_text(yaml.safe_dump({"endpoints": {"http://one.org/": {"runs": [{"data": TEXTS[0]}]}}}))
    replay = TranscriptTransport(str(lone))
    first = replay.query("http://one.org/", EVERY_TRIPLE)
    # a run asked beyond the recorded ones replays the last, afresh
    assert replay.query("http://one.org/", EVERY_TRIPLE, run=1) == first
    assert len(evaluated) == 2
    assert memos == [None]
    path = tmp_path / "two.yaml"
    runs = [{"data": TEXTS[0]}, {"data": TEXTS[1]}, {"available": False, "data": TEXTS[1]}]
    path.write_text(yaml.safe_dump({"endpoints": {"http://one.org/": {"runs": runs}}}))
    replay = TranscriptTransport(str(path))
    for _ in range(2):
        assert replay.query("http://one.org/", EVERY_TRIPLE, run=1) != first
    assert len(evaluated) == 4  # a down run does not count as serving its text
    assert replay.query("http://one.org/", EVERY_TRIPLE) == first
    # both texts read through one memo, which the lone text had not
    assert memos[1] is memos[2] is not None
    assert len(memos) == 3


def test_workers_sharing_a_transcript_read_and_answer_as_one(tmp_path, monkeypatch):
    lines = [f"<http://e.org/s{i}> <http://e.org/p> <http://e.org/o{i % 3}> .\n" for i in range(30)]
    texts = ["".join(lines[k : k + 20]) for k in range(0, 11, 5)]
    runs = {f"http://e{n}.org/": [{"data": text} for text in texts] for n in range(3)}
    path = tmp_path / "shared.yaml"
    path.write_text(yaml.safe_dump({"endpoints": {u: {"runs": r} for u, r in runs.items()}}))
    pages = [EVERY_TRIPLE._replace(limit=4, offset=offset) for offset in (0, 4, 8)]
    cells = [(url, run, page) for url in runs for run in range(3) for page in range(3)]
    expected = {cell: eval_select(parse_ntriples(texts[cell[1]]), pages[cell[2]]) for cell in cells}
    parsed = counted_parse(monkeypatch, transport_module)
    replay = TranscriptTransport(str(path))
    answers: dict = {cell: [] for cell in cells}

    def work(seed: int) -> None:
        for url, run, page in random.Random(seed).sample(cells, len(cells)):
            answers[url, run, page].append(replay.query(url, pages[page], run=run))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more workers than cores, switching often
    try:
        workers = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    assert sorted(parsed) == sorted(texts)
    assert all(got == [expected[cell]] * 8 for cell, got in answers.items())


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
            expand_extended(cq.query, catalog.rules)._replace(form="select", projection=("kg",)),
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

    def query(self, url, query, *, run=0):
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
    assert transport.sent == [discovery, metadata._replace(limit=DEFAULT_PAGE_SIZE)]


def test_paged_fetch_wire_text():
    text = format_query(_at_endpoint(FETCH.query, ENDPOINT)._replace(limit=7, offset=14))
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
    with local_server(Handler) as url, closing(HttpTransport(timeout=5.0)) as transport:
        assert transport.query(url, query) == [{"kg": WIRE_DATASETS[0]}]
    assert received == [format_query(query)]
