"""How queries reach an endpoint: live HTTP or a recorded transcript.

Both transports expose the same ``query`` method: they take a parsed
SELECT :class:`~kgaudit.sparql.Query` and return its rows of variable
bindings.  Only the HTTP transport turns the query into SPARQL text, once
per attempt.  Everything that can go wrong surfaces as a
:class:`TransportError` with a coarse kind, so callers can score a
timeout differently from a refused connection without touching HTTP
internals.  ``requests`` is imported only when an :class:`HttpTransport`
is built, so replays and local evaluation never load it.  A transport
owns its timeout and its run stamps, and this module owns time: only
:meth:`HttpTransport.run_timestamp` reads the clock, and only
:func:`check_wait` says what a wait may be.  Every layer that takes a
wait refuses one the clock cannot time before it builds anything.

A transport makes one attempt per query.  :class:`ThrottledTransport`
wraps one and is the only place that decides when an attempt goes out:
it spaces attempts by the politeness delay and retries the retryable
failures, each retry waiting that delay too.  Every command opens it the
one way, :func:`open_layer`, which also owns the HTTP session, built with
the timeout, when no transcript stands in for the network.

The transcript transport replays a recorded audit: a YAML file holds, per
endpoint and per run, an availability flag, a timestamp and an N-Triples
snapshot of what the endpoint would serve.  The file is read when a query
or a run stamp first needs it, with the catalog's YAML loader (libyaml
when present), and the type of every field is checked then: a file that
is missing, is not YAML or holds a field of the wrong type is refused
with an ``OSError`` or a ``ValueError`` naming the file, endpoint and run,
at that call and at every later one.  So a resumed campaign whose journal
holds every cell never opens its transcript, as a live one opens no HTTP
session.  A run's N-Triples are parsed, and checked, only when the run is
first queried, each distinct text once and each distinct line once, so a
campaign that sends no request parses none; a text that is not N-Triples
raises the same kind of ``ValueError`` then.  The package's own evaluator
answers the client's queries directly, paging included, each distinct
question once per text that several runs serve, and ``run_timestamp``
hands out the recorded timestamps (``""`` where none is recorded), which
makes campaign runs fully deterministic: a replay never reads the clock.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import ExitStack, closing, contextmanager
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Iterator, NamedTuple, Protocol

import yaml

from .catalog import load_yaml
from .rdf import BlankNode, Graph, Iri, Literal, NTriplesMemo, ParseError, Term, parse_ntriples
from .sparql import Query, eval_select, format_query

if TYPE_CHECKING:
    import requests

ACCEPT = "application/sparql-results+json"
USER_AGENT = "kgaudit/0.1 (+https://example.org/kgaudit)"
DEFAULT_TIMEOUT = 30.0  # seconds an HTTP request may take
DEFAULT_RETRIES = 2  # more attempts after a retryable failure


def utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def check_wait(seconds: float, name: str, *, timeout: bool = False) -> None:
    """Refuse, as a ``ValueError`` naming it, a wait the clock cannot time.

    A delay is from 0 to ``threading.TIMEOUT_MAX`` seconds and a timeout
    above 0 and at most that: a longer wait overflows the clock of a sleep
    or a socket.  NaN is neither, since it fails every comparison and so
    would space nothing.
    """
    shortest = seconds > 0 if timeout else seconds >= 0
    if not (shortest and seconds <= threading.TIMEOUT_MAX):
        rule = "positive and at most" if timeout else "from 0 to"
        longest = threading.TIMEOUT_MAX
        raise ValueError(f"{name} must be {rule} {longest:g} seconds, not {seconds!r}")


def check_retries(retries: int) -> None:
    """Refuse, as a ``ValueError``, a negative retry count."""
    if retries < 0:
        raise ValueError("the retry count cannot be negative")


class TransportError(RuntimeError):
    """A query could not be answered.

    ``kind`` is one of ``connection``, ``timeout``, ``http`` and
    ``malformed``; ``retryable`` says whether trying again could help.
    """

    def __init__(self, kind: str, message: str, *, retryable: bool = False):
        self.kind = kind
        self.retryable = retryable
        super().__init__(f"{kind}: {message}")


class Transport(Protocol):
    """Answers queries and stamps runs.  How long a query may wait is the
    transport's own setting, so no call passes a timeout."""

    def query(self, url: str, query: Query, *, run: int = 0) -> list[dict[str, Term]]:
        """Answer one query; ``run`` selects the campaign run."""
        ...

    def run_timestamp(self, url: str, run: int) -> str:
        """When the run happened: the clock for a live endpoint; for a replay
        the recorded stamp, ``""`` when there is none."""
        ...


# ---------------------------------------------------------------------------
# When requests go out


class ThrottledTransport:
    """The one layer that decides when a request goes out, and how often.

    Attempts through one layer start at least ``delay`` seconds apart,
    retries included: a retry waits like any other request, and
    :meth:`wait_s` tells how long until the next one may start.  A failure
    is tried again, up to ``retries`` more times, only when its
    :class:`TransportError` is retryable.  The layer keeps no lock: one
    query at a time goes through it, which a campaign keeps by never having
    two cells of one endpoint in flight.
    """

    def __init__(self, inner: Transport, delay: float, *, retries: int = DEFAULT_RETRIES):
        check_wait(delay, "the politeness delay")
        check_retries(retries)
        self._inner = inner
        self._delay = delay
        self._retries = retries
        self._due = 0.0

    def query(self, url: str, query: Query, *, run: int = 0) -> list[dict[str, Term]]:
        for attempt in range(self._retries + 1):
            if self._delay > 0:
                wait = self.wait_s()
                if wait:
                    time.sleep(wait)
                self._due = time.monotonic() + self._delay
            try:
                return self._inner.query(url, query, run=run)
            except TransportError as exc:
                if not exc.retryable or attempt == self._retries:
                    raise

    def wait_s(self) -> float:
        """Seconds until the next attempt may start; 0 when it may start now."""
        return max(0.0, self._due - time.monotonic())

    def run_timestamp(self, url: str, run: int) -> str:
        return self._inner.run_timestamp(url, run)


@contextmanager
def open_layer(
    inner: Transport | None, delay: float, *, timeout: float, retries: int = DEFAULT_RETRIES
) -> Iterator[ThrottledTransport]:
    """The request layer over ``inner``; with no ``inner``, over an HTTP
    session of its own with that ``timeout``, closed when the block ends.
    Both waits and the retry count are checked before anything is built,
    so a replay refuses what a live run refuses."""
    check_wait(timeout, "the timeout", timeout=True)
    check_wait(delay, "the politeness delay")
    check_retries(retries)
    with ExitStack() as stack:
        if inner is None:
            inner = stack.enter_context(closing(HttpTransport(timeout=timeout)))
        yield ThrottledTransport(inner, delay, retries=retries)


# ---------------------------------------------------------------------------
# Live HTTP


class HttpTransport:
    """Talks to a SPARQL endpoint over HTTP, one attempt per query.

    A query goes out as GET; an endpoint that rejects long URLs (414) or
    GET itself (405) is asked again once as form-encoded POST, within the
    same attempt.  A refused connection, a 429 and a 5xx answer raise a
    retryable :class:`TransportError`; a wait past ``timeout`` seconds
    does not, since it already cost that long.  Whether and when to try
    again is :class:`ThrottledTransport`'s call.
    """

    def __init__(
        self, session: requests.Session | None = None, *, timeout: float = DEFAULT_TIMEOUT
    ):
        check_wait(timeout, "the timeout", timeout=True)
        import requests

        self.session = session or requests.Session()
        self.timeout = timeout

    def run_timestamp(self, url: str, run: int) -> str:
        return utcnow()

    def close(self) -> None:
        """Close the session and the connections it keeps alive."""
        self.session.close()

    def query(self, url: str, query: Query, *, run: int = 0) -> list[dict[str, Term]]:
        import requests

        text = format_query(query)
        headers = {"Accept": ACCEPT, "User-Agent": USER_AGENT}
        try:
            response = self.session.get(
                url, params={"query": text}, headers=headers, timeout=self.timeout
            )
            if response.status_code in (405, 414):
                response = self.session.post(
                    url, data={"query": text}, headers=headers, timeout=self.timeout
                )
        except requests.Timeout as exc:
            raise TransportError("timeout", str(exc)) from None
        except requests.RequestException as exc:
            raise TransportError("connection", str(exc), retryable=True) from None
        if response.status_code == 429 or response.status_code >= 500:
            raise TransportError(
                "http", f"status {response.status_code}", retryable=True
            )
        if not 200 <= response.status_code < 300:
            raise TransportError("http", f"status {response.status_code}")
        # the bytes, not ``response.text``: requests decodes a body whose
        # Content-Type names no charset as ISO-8859-1 (``text/plain``) or by
        # a guess, and JSON is UTF-8 (RFC 8259, section 8.1)
        return decode_results(response.content)


def decode_results(body: str | bytes) -> list[dict[str, Term]]:
    """Decode the rows of a SPARQL JSON results document.

    The format puts no bound on a blank-node label (Virtuoso writes
    ``nodeID://b10005``), so a blank node is named ``b`` and the hex of its
    label's UTF-8 bytes: any label gives a valid name, and only equal
    labels give equal names.  A literal's datatype and language must be
    strings, and its datatype an IRI, so that every decoded literal
    writes N-Triples that read back; a binding that breaks any rule of
    the format is ``malformed``, and so is a body of bytes that are not
    UTF-8."""
    try:
        doc = json.loads(body)
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise TransportError("malformed", f"not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise TransportError("malformed", "result document is not an object")
    try:
        bindings = doc["results"]["bindings"]
    except (KeyError, TypeError):
        raise TransportError("malformed", "missing results.bindings") from None
    if not isinstance(bindings, list):
        raise TransportError("malformed", "results.bindings is not a list")
    return [_decode_row(row) for row in bindings]


def _decode_row(row: object) -> dict[str, Term]:
    if not isinstance(row, dict):
        raise TransportError("malformed", "binding row is not an object")
    out: dict[str, Term] = {}
    for name, cell in row.items():
        if not isinstance(cell, dict) or "value" not in cell:
            raise TransportError("malformed", f"binding for ?{name} has no value")
        kind = cell.get("type")
        value = cell["value"]
        if not isinstance(value, str):
            raise TransportError("malformed", f"value of ?{name} is not a string")
        try:
            if kind == "uri":
                out[name] = Iri(value)
            elif kind == "bnode":
                out[name] = BlankNode("b" + value.encode("utf-8").hex())
            elif kind in ("literal", "typed-literal"):
                datatype, language = cell.get("datatype"), cell.get("xml:lang")
                if any(f is not None and not isinstance(f, str) for f in (datatype, language)):
                    raise TransportError(
                        "malformed", f"datatype or language of ?{name} is not a string"
                    )
                # through Iri, so that the literal writes N-Triples that read back
                datatype = None if datatype is None else Iri(datatype).value
                out[name] = Literal(value, datatype, language)
            else:
                raise TransportError(
                    "malformed", f"unknown term type {kind!r} for ?{name}"
                )
        except ValueError as exc:
            raise TransportError("malformed", f"bad term for ?{name}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Recorded transcripts

class TranscriptRun(NamedTuple):
    available: bool
    timestamp: str
    data: str  # N-Triples, parsed at the run's first query
    where: str  # the file, endpoint and run, for errors


class TranscriptTransport:
    """Replays recorded endpoints from a YAML transcript.

    Transcript shape::

        endpoints:
          "http://example.org/sparql":
            runs:
              - available: true
                timestamp: "2024-05-01T10:00:00Z"
                data: |
                  <s> <p> <o> .
              - available: false
                timestamp: "2024-05-02T10:00:00Z"

    Each endpoint maps to a mapping whose ``runs`` is a non-empty list
    of mappings.  In a run, ``available`` is a YAML boolean (default
    true), ``timestamp`` a string (default empty; quote it, or YAML reads
    a date) and ``data`` N-Triples text (default empty).  Building the
    transport only records the path: the first :meth:`query` or
    :meth:`run_timestamp` reads and checks the whole file, under the lock
    that guards parsing, so it is read once however many workers call at
    once.  Anything but that shape raises ``ValueError`` then, and a file
    that cannot be opened ``OSError``; a failed read keeps nothing, so
    every later call raises the same again.  ``data`` is parsed
    when its run is first queried, and each distinct text once, into one
    graph that every run serving it shares, safely, since no code can
    change a graph; a text that is not N-Triples
    raises ``ValueError`` then, naming the file, endpoint and run, and a
    run that is never queried, or recorded as down, is never parsed.  A
    text is parsed under a lock, so it is parsed exactly once however
    many workers meet it at once; a worker whose text is already parsed
    takes no lock.  When the transcript holds more than one distinct
    text, every text is read through one memo of
    :func:`~kgaudit.rdf.parse_ntriples`, written under that lock, so a
    line that recurs across runs, as most lines of a recorded endpoint
    do, is matched and built once per transcript; the memo is let go
    once every text is parsed.

    Each distinct question is answered once per text that more than one
    recorded run serves: the rows of a query are remembered under the
    run's text and the query's form, projection, pattern, limit and
    offset (its prefixes change no answer), and another run serving that
    text answers the same question from memory.  Two workers asking it
    at once may both evaluate it, to equal rows.  Each call returns a
    new list, but the rows in it may be shared, and callers must not
    change them.

    A campaign asking for a run beyond the recorded ones gets the last
    recorded run.  Unavailable runs refuse queries with a connection
    error, exactly like a dead endpoint.
    """

    def __init__(self, path: str):
        self._path = path
        # read, checked, at the first call that needs it; None until then
        self._endpoints: dict[str, list[TranscriptRun]] | None = None
        self._served: Counter = Counter()
        self._memo: NTriplesMemo | None = None
        self._graphs: dict[str, Graph] = {}  # by N-Triples text
        self._answers: dict[tuple, list[dict[str, Term]]] = {}
        self._parse_lock = threading.Lock()

    def _recorded(self) -> dict[str, list[TranscriptRun]]:
        """The recorded runs by endpoint, read from the file at the first
        call; a read that fails keeps nothing, so the next call reads again."""
        if self._endpoints is None:
            with self._parse_lock:
                # another worker may have read it while this one waited
                if self._endpoints is None:
                    endpoints = _read_transcript(self._path)
                    # how many recorded runs serve each text; only a repeat is worth remembering
                    self._served = Counter(
                        entry.data
                        for runs in endpoints.values()
                        for entry in runs
                        if entry.available
                    )
                    self._memo = ({}, {}) if len(self._served) > 1 else None
                    self._endpoints = endpoints  # last: a worker seeing it takes no lock
        return self._endpoints

    def _run(self, url: str, run: int) -> TranscriptRun:
        runs = self._recorded().get(url)
        if runs is None:
            raise TransportError("connection", f"no transcript for endpoint {url}")
        return runs[max(0, min(run, len(runs) - 1))]

    def run_timestamp(self, url: str, run: int) -> str:
        return self._run(url, run).timestamp if url in self._recorded() else ""

    def query(self, url: str, query: Query, *, run: int = 0) -> list[dict[str, Term]]:
        entry = self._run(url, run)
        if not entry.available:
            raise TransportError("connection", f"endpoint {url} is recorded as down")
        graph = self._graphs.get(entry.data)
        if graph is None:
            graph = self._parse(entry)
        if self._served[entry.data] == 1:
            return eval_select(graph, query)
        # prefixes change no answer, and a query holding them cannot be hashed
        key = (entry.data, query.form, query.projection, query.pattern, query.limit, query.offset)
        rows = self._answers.get(key)
        if rows is None:
            rows = self._answers[key] = eval_select(graph, query)
        return list(rows)

    def _parse(self, entry: TranscriptRun) -> Graph:
        with self._parse_lock:
            # another worker may have parsed it while this one waited
            graph = self._graphs.get(entry.data)
            if graph is None:
                try:
                    graph = parse_ntriples(entry.data, memo=self._memo)
                except ParseError as exc:
                    raise ValueError(f"{entry.where}: {exc}") from None
                self._graphs[entry.data] = graph
                if len(self._graphs) == len(self._served):
                    self._memo = None  # no text is left to meet its lines
            return graph


def _read_transcript(path: str) -> dict[str, list[TranscriptRun]]:
    """The runs a transcript file records, by endpoint, every field checked."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = load_yaml(handle)
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("endpoints"), dict):
        raise ValueError(f"{path}: transcript needs an 'endpoints' mapping")
    endpoints = {}
    for url, spec in doc["endpoints"].items():
        where = f"{path}: endpoint {url}"
        if spec is not None and not isinstance(spec, dict):
            raise ValueError(f"{where}: expected a mapping, got {spec!r}")
        runs = (spec or {}).get("runs")
        if not isinstance(runs, list) or not runs:
            raise ValueError(f"{where} needs a non-empty 'runs' list")
        endpoints[str(url)] = [
            _transcript_run(entry, f"{where} run {index}") for index, entry in enumerate(runs)
        ]
    return endpoints


def _transcript_run(entry: object, where: str) -> TranscriptRun:
    """Check the fields of one recorded run; an empty entry is an available
    run with no timestamp that serves nothing."""
    if entry is None:
        entry = {}
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected a mapping, got {entry!r}")
    available = _run_field(entry, "available", bool, True, where, "true or false")
    timestamp = _run_field(entry, "timestamp", str, "", where, "a quoted string")
    data = _run_field(entry, "data", str, "", where, "N-Triples text")
    return TranscriptRun(available, timestamp, data, where)


def _run_field(entry: dict, key: str, kind: type, default, where: str, expected: str):
    value = entry.get(key, default)
    if not isinstance(value, kind):
        raise ValueError(f"{where}: {key}: expected {expected}, got {value!r}")
    return value
