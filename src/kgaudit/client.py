"""Auditing endpoints: dataset discovery, fetching, campaigns.

Two evaluation routes exist on purpose and must stay distinct:

* the *fetch* route (campaigns) downloads, in each run, one graph that
  describes all of an endpoint's datasets, unions what the runs saw, and
  asks that union the expanded queries locally for all those datasets, as
  ``evaluate --file`` does for a file (:func:`score_endpoint`).  A down
  run adds nothing, so an endpoint that was down for one of three runs
  scores exactly like one that was always up, as long as the up runs
  served the same data;
* the *remote* route sends the expanded UNION form of every query to the
  endpoint and trusts its answers.  Each query goes out once for all the
  datasets, as ``SELECT DISTINCT ?kg`` with ?kg bound to them by VALUES,
  and the datasets it returns satisfy it: scoring N datasets costs one
  request per catalog query, whatever N is.  A request that fails fails
  its query for every dataset alike, with the same ``FailureKind``
  (``timeout`` for a timeout, ``remote-error`` otherwise).

Both routes give the same score for the same served data because a
campaign fetches what the catalog it is scored by asks for
(:func:`build_fetch`): every match of every expanded catalog branch
arrives whole in one row of the answer, blank nodes included.  So the
endpoint's union holds a copy of each match the endpoint holds for each
dataset, and no match the endpoint lacks, and it answers for each dataset
as the endpoint does.  An endpoint-run costs one query that finds and
fetches its datasets (more only when it needs pages).  Discovery and that
fetch bind ``?endpoint`` with VALUES to both the IRI and the literal form
of the endpoint URL, since catalogues state the address either way.

A campaign's unit of work is a *cell*, one run of one endpoint, and its
workers audit cells of different endpoints in parallel.  Requests to any
single endpoint are sequential: an endpoint's cells all go through one
request layer, opened with :func:`~kgaudit.transport.open_layer` before
its first cell and closed after its last, which spaces them by the
politeness delay, retries what can be retried and, without an injected
transport, talks HTTP over one session; an endpoint with no run left
opens none.  A free worker takes the endpoint whose next request may go
out soonest, so it does not sleep out one endpoint's delay while another
endpoint has a run due (:func:`_audit_cells`).  Every run is appended to
a journal file (JSON lines, checksummed), so an interrupted campaign
resumes without repeating completed endpoint/run cells.  A campaign
reads no clock and has no rule of its own for a wait or a retry: its
runs carry their transport's stamps, and it refuses a timeout, delay or
retry count by :mod:`~kgaudit.transport`'s checks before it touches the
journal.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from collections import deque
from contextlib import ExitStack
from itertools import groupby
from queue import SimpleQueue
from typing import Iterator, Mapping, NamedTuple, Sequence

from .catalog import KG, Catalog, default_catalog
from .rdf import (
    RDF_TYPE,
    BlankNode,
    Graph,
    Iri,
    Literal,
    NTriplesMemo,
    Term,
    Triple,
    format_term,
    parse_ntriples,
    serialize_ntriples,
)
from .reporting import Report, RunRecord, build_report
from .scoring import (
    DatasetResult,
    FailureKind,
    not_evaluated_result,
    results_from_answers,
    score_datasets,
)
from .sparql import (
    Bgp,
    InlineData,
    Query,
    SeqPattern,
    TriplePattern,
    UnionPattern,
    Variable,
    bind_values,
    parse_query,
    parse_triple_patterns,
    pattern_variables,
)
from .transport import (
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    ThrottledTransport,
    Transport,
    TransportError,
    check_retries,
    check_wait,
    open_layer,
)

# Finds dataset IRIs that an endpoint both describes and links to itself.
# The link predicate is left open: catalogues use void:sparqlEndpoint,
# dcat:endpointURL, sd:endpoint and others, and some state the endpoint
# address as a plain string, which is why ?endpoint is bound by VALUES to
# both the IRI and the literal form of the endpoint URL.
DISCOVERY_QUERY = parse_query("""\
PREFIX dcat: <http://www.w3.org/ns/dcat#>
PREFIX void: <http://rdfs.org/ns/void#>
PREFIX dcmitype: <http://purl.org/dc/dcmitype/>
PREFIX schema: <http://schema.org/>
PREFIX sd: <http://www.w3.org/ns/sparql-service-description#>
PREFIX dataid: <http://dataid.dbpedia.org/ns/core#>
SELECT ?kg WHERE {
  ?kg ?endpointLink ?endpoint .
  { ?kg a dcat:Dataset } UNION { ?kg a void:Dataset } UNION { ?kg a dcmitype:Dataset }
  UNION { ?kg a schema:Dataset } UNION { ?kg a sd:Dataset } UNION { ?kg a dataid:Dataset }
}
""")

# The dataset classes, read from discovery's type UNION.
DATASET_CLASSES = tuple(
    branch.patterns[0].object for branch in DISCOVERY_QUERY.pattern.parts[1].branches
)

DEFAULT_DELAY = 0.5
DEFAULT_PAGE_SIZE = 10000


# ---------------------------------------------------------------------------
# Discovery and fetching


def discover_datasets(transport: Transport, url: str, *, run: int = 0) -> list[Iri]:
    """Dataset IRIs the endpoint self-describes, IRI- or literal-linked."""
    rows = transport.query(url, _at_endpoint(DISCOVERY_QUERY, url), run=run)
    found = {row["kg"] for row in rows if isinstance(row.get("kg"), Iri)}
    return sorted(found, key=lambda iri: iri.value)


def discover_in_graph(graph: Graph) -> list[Iri]:
    """Local-file counterpart of discovery: anything typed as a dataset."""
    found = {
        triple.subject
        for cls in DATASET_CLASSES
        for triple in graph.match(None, Iri(RDF_TYPE), cls)
        if isinstance(triple.subject, Iri)
    }
    return sorted(found, key=lambda iri: iri.value)


class LaterPageError(TransportError):
    """A page after the first failed, so the endpoint did answer."""


def _at_endpoint(query: Query, url: str) -> Query:
    return bind_values(query, "endpoint", (Iri(url), Literal(url)))


class Fetch(NamedTuple):
    """The one query of an endpoint-run, built for the catalog it is scored by.

    ``query`` joins discovery's two groups with a UNION of branches, each
    led by its tag, ``{ VALUES ?branch { "n" } ... }``.  ``branches`` maps
    each tag to the triple patterns a row of that branch stands for.
    """

    query: Query
    branches: Mapping[Term, tuple[TriplePattern, ...]]


def build_fetch(catalog: Catalog) -> Fetch:
    """The fetch that brings each match of each expanded catalog branch
    whole in one row: two fixed branches, each triple out of a dataset and
    each path of two out of it, and every catalog branch no row of theirs
    holds whole, its variables renamed ``?v0, ?v1, …``."""
    fixed = ("?kg ?v0 ?v1 .", "?kg ?v0 ?v1 . ?v1 ?v2 ?v3 .")
    shapes = [parse_triple_patterns(text, {}) for text in fixed]
    for query in catalog.expanded.values():
        pattern = query.pattern
        for branch in pattern.branches if isinstance(pattern, UnionPattern) else (pattern,):
            shape = _renamed(branch.patterns)
            if shape not in shapes and not _held_whole(shape):
                shapes.append(shape)
    tags = [Literal(str(n)) for n in range(len(shapes))]
    groups = [SeqPattern((InlineData("branch", (t,)), Bgp(s))) for t, s in zip(tags, shapes)]
    union = UnionPattern(tuple(groups))
    width = len(pattern_variables(union) - {KG.name, "branch"})
    query = Query(
        DISCOVERY_QUERY.form,
        (KG.name, "branch", *(f"v{n}" for n in range(width))),
        SeqPattern((*DISCOVERY_QUERY.pattern.parts, union)),
        DISCOVERY_QUERY.prefixes,
    )
    return Fetch(query, dict(zip(tags, shapes)))


def _renamed(patterns: tuple[TriplePattern, ...]) -> tuple[TriplePattern, ...]:
    """The patterns with every variable but ?kg renamed ``?v0, ?v1, …`` in
    the order they first occur."""
    names = {KG: KG}

    def rename(pos):
        if not isinstance(pos, Variable):
            return pos
        return names.setdefault(pos, Variable(f"v{len(names) - 1}"))

    return tuple(TriplePattern(*map(rename, tp)) for tp in patterns)


def _held_whole(shape: tuple[TriplePattern, ...]) -> bool:
    """Whether one row of a fixed branch holds every match of ``shape``:
    one triple out of ?kg, or a path of two out of it."""
    if len(shape) == 1:
        return shape[0].subject == KG
    return len(shape) == 2 and shape[0].subject == KG and shape[1].subject == shape[0].object


def fetch_metadata(
    transport: Transport,
    url: str,
    fetch: Fetch,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    run: int = 0,
) -> tuple[Graph, tuple[str, ...]]:
    """Find every dataset and fetch its description with one paged query.

    Returns one graph for all the datasets, and their IRIs, sorted.  Each
    row whose ``?kg`` is an IRI stands for the triples of its branch.  A
    blank-node label names one node within one answer, so each page's
    blank nodes are named after that page by a SHA-256 digest: rows of one
    page that share a label share a node, identical pages give identical
    triples, and no two different pages or runs share a node.  Pages slice
    the rows in one fixed order, so no row is skipped or repeated; a page
    longer than its LIMIT, or a full page equal to the one before it, shows
    an endpoint that ignores LIMIT or OFFSET, and is malformed.
    """
    datasets: set[str] = set()

    def triples() -> Iterator[Triple]:
        # walks the pages, noting each row's dataset as it yields its triples
        unpaged = _at_endpoint(fetch.query, url)
        offset = 0
        response = 0
        previous = None
        while True:
            # the form, projection, pattern and prefixes, paged
            query = Query(*unpaged[:4], page_size, offset)
            try:
                rows = transport.query(url, query, run=run)
            except TransportError as exc:
                if response:
                    raise LaterPageError(exc.kind, f"page {response + 1} failed ({exc})") from exc
                raise
            response += 1
            if len(rows) > page_size:
                raise TransportError("malformed", f"page {response} is longer than its LIMIT")
            if rows == previous:
                raise TransportError("malformed", f"page {response} repeats the page before it")
            for row in _named_blank_nodes(rows):
                shape = fetch.branches.get(row.get("branch"))
                if isinstance(row.get(KG.name), Iri) and shape is not None:
                    datasets.add(row[KG.name].value)
                    yield from _row_triples(row, shape)
            if len(rows) < page_size:
                return
            previous = rows
            offset += page_size

    graph = Graph(triples())
    return graph, tuple(sorted(datasets))


def _named_blank_nodes(rows: list[dict[str, Term]]) -> list[dict[str, Term]]:
    """The page's rows, each blank node named by one SHA-256 digest of the
    page's rows that hold one, prefixed to its label."""
    blank = [row for row in rows if any(isinstance(t, BlankNode) for t in row.values())]
    if not blank:
        return rows
    texts = ("\n".join(f"{n} {format_term(t)}" for n, t in sorted(row.items())) for row in blank)
    digest = hashlib.sha256("\n\n".join(texts).encode("utf-8")).hexdigest()
    return [
        {n: BlankNode(digest + t.label) if isinstance(t, BlankNode) else t for n, t in row.items()}
        for row in rows
    ]


def _row_triples(row: Mapping[str, Term], shape: tuple[TriplePattern, ...]) -> Iterator[Triple]:
    """The triples a fetch row stands for."""
    for tp in shape:
        s, p, o = (row.get(v.name) if isinstance(v, Variable) else v for v in tp)
        # an unbound variable, a literal subject or predicate makes no triple
        if None not in (s, o) and isinstance(p, Iri) and not isinstance(s, Literal):
            yield Triple(s, p, o)


# ---------------------------------------------------------------------------
# Remote evaluation (extended queries against the endpoint)


def evaluate_remote_datasets(
    transport: Transport,
    url: str,
    catalog: Catalog,
    datasets: Sequence[Iri],
    *,
    run: int = 0,
) -> list[DatasetResult]:
    """Score datasets with one request per expanded query, naming them all."""
    if not datasets:
        return []
    answers: dict[str, set[Term] | FailureKind] = {}
    for qid, expanded in catalog.expanded.items():
        select = Query("select", (KG.name,), expanded.pattern, expanded.prefixes)
        query = bind_values(select, KG.name, datasets)
        try:
            rows = transport.query(url, query, run=run)
            answers[qid] = {row.get(KG.name) for row in rows}
        except TransportError as exc:
            kind = FailureKind.TIMEOUT if exc.kind == "timeout" else FailureKind.REMOTE_ERROR
            answers[qid] = kind
    return results_from_answers(catalog, datasets, answers)


# ---------------------------------------------------------------------------
# Campaign runs


class EndpointRun(NamedTuple):
    """Everything one run observed about one endpoint.

    ``graph`` holds what the run fetched about all of its ``datasets``.
    ``errors`` lists (stage, error kind) pairs for requests that failed
    while the endpoint was up, such as a fetch page that timed out.
    """

    endpoint: str
    run: int
    timestamp: str
    available: bool
    graph: Graph
    datasets: tuple[str, ...]
    errors: tuple[tuple[str, str], ...] = ()


def audit_run(
    transport: Transport,
    endpoint: str,
    run: int,
    fetch: Fetch,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> EndpointRun:
    """One endpoint, one run: ``fetch`` finds and fetches every dataset.

    When its first page cannot reach the endpoint (a connection error or a
    timeout) the run is unavailable.  Any other failure loses the run's
    datasets and is recorded as a ``fetch`` error of an available run.
    The run is stamped by the transport, before its first request: a live
    one with the clock, a replayed one with the transcript's stamp.
    """
    timestamp = transport.run_timestamp(endpoint, run)
    try:
        unit = fetch_metadata(transport, endpoint, fetch, page_size=page_size, run=run)
    except TransportError as exc:
        if exc.kind in ("connection", "timeout") and not isinstance(exc, LaterPageError):
            return EndpointRun(endpoint, run, timestamp, False, Graph(), ())
        return EndpointRun(endpoint, run, timestamp, True, Graph(), (), (("fetch", exc.kind),))
    return EndpointRun(endpoint, run, timestamp, True, *unit)


def score_endpoint(
    catalog: Catalog, endpoint: str, runs: Sequence[EndpointRun]
) -> tuple[list[DatasetResult], list[RunRecord]]:
    """One endpoint's report rows, and each run's record in the order of
    ``runs``.

    The rows are scored on the union of what the runs fetched.
    Unavailable runs contribute nothing, so an endpoint that was down for
    one of three runs scores exactly like one that was always up, as long
    as the up runs served the same data; with no dataset the endpoint gets
    one zero row.  A run's record holds its scores on its own data: a run
    that served the whole union reuses the rows, and any other run is asked
    only what the union satisfied.  Every catalog pattern is positive and
    a run's graph is part of the union, so a query a dataset fails on the
    union it fails on each run.
    """
    graph = Graph(triple for er in runs for triple in er.graph)
    datasets = tuple(sorted({dataset for er in runs for dataset in er.datasets}))
    if datasets:
        results = score_datasets(catalog, graph, [Iri(d) for d in datasets])
    else:
        results = [not_evaluated_result(catalog, endpoint)]
    records = []
    for er in runs:
        if not er.datasets:
            scored = []
        elif (er.graph, er.datasets) == (graph, datasets):
            scored = results
        else:
            own = [Iri(d) for d in er.datasets]
            scored = score_datasets(catalog, er.graph, own, union=results)
        scores = tuple((result.dataset, result.score) for result in scored)
        records.append(
            RunRecord(er.endpoint, er.run, er.timestamp, er.available, scores, er.errors)
        )
    return results, records


# ---------------------------------------------------------------------------
# Journal


class JournalError(RuntimeError):
    """The journal file cannot be trusted; refuse to resume from it."""


def _checksum(record: dict) -> str:
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Journal:
    """Append-only JSON-lines record of completed endpoint runs.

    The first line pins the record format, the catalog hash and the run
    count; every line carries a checksum over its record.  A run record
    holds the run's fetched graph as one N-Triples text and its datasets
    (format 4, blank nodes named after their fetch page; older formats are
    refused).  Loading reads each distinct text once, and all of them
    through one memo of :func:`~kgaudit.rdf.parse_ntriples`, so a line that
    recurs across records, as most lines of one endpoint's runs do, is
    matched and built once per load.
    An unterminated last line is an append a crash cut short: loading
    drops it, so that cell is audited again.  Any other mismatch means the
    file was edited or belongs elsewhere, and resuming would silently skew
    scores, so the journal refuses instead and leaves the file as it is.
    """

    def __init__(self, path: str, catalog: Catalog, runs: int):
        self.path = path
        self._lock = threading.Lock()
        self._header = {"catalog": catalog.content_hash(), "format": 4, "runs": runs}

    def load(self) -> dict[tuple[str, int], EndpointRun]:
        completed: dict[tuple[str, int], EndpointRun] = {}
        # by N-Triples text: runs that saw the same share one graph, which
        # nothing can change; every text is read through one memo
        graphs: dict[str, Graph] = {}
        memo: NTriplesMemo = ({}, {})
        header = self._line("header", self._header).encode("utf-8")
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        whole = data[: data.rfind(b"\n") + 1]
        if not whole and not header.startswith(data):
            whole = data  # no line ends here, and it is not our header cut short
        for number, line in enumerate(whole.decode("utf-8").splitlines(), start=1):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JournalError(f"{self.path}:{number}: not JSON: {exc}") from None
            record = doc.get("record")
            if not isinstance(record, dict) or doc.get("sha256") != _checksum(record):
                raise JournalError(f"{self.path}:{number}: checksum mismatch")
            kind = doc.get("kind")
            if number == 1:
                if kind == "header" and record.get("format") != self._header["format"]:
                    raise JournalError(
                        f"{self.path}: journal was written in an older format; "
                        "start the campaign again with a new journal"
                    )
                if kind != "header" or record != self._header:
                    raise JournalError(
                        f"{self.path}: journal belongs to a different campaign "
                        "(catalog or run count changed)"
                    )
                continue
            if kind != "run":
                raise JournalError(f"{self.path}:{number}: unexpected record kind {kind!r}")
            er = _run_from_record(self.path, number, record, graphs, memo)
            completed[(er.endpoint, er.run)] = er
        if whole != data:
            note = f"{self.path}: dropped an unterminated last line; its run is audited again"
            print(f"kgaudit: {note}", file=sys.stderr)
            with open(self.path, "r+b") as handle:
                handle.truncate(len(whole))
        if not whole:
            with open(self.path, "ab") as handle:
                handle.write(header)
        return completed

    def append(self, er: EndpointRun) -> None:
        record = {
            "endpoint": er.endpoint,
            "run": er.run,
            "timestamp": er.timestamp,
            "available": er.available,
            "graph": serialize_ntriples(er.graph),
            "datasets": list(er.datasets),
            "errors": [list(pair) for pair in er.errors],
        }
        line = self._line("run", record)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()

    def _line(self, kind: str, record: dict) -> str:
        return (
            json.dumps(
                {"kind": kind, "record": record, "sha256": _checksum(record)},
                sort_keys=True,
            )
            + "\n"
        )


def _run_from_record(
    path: str,
    number: int,
    record: dict,
    graphs: dict[str, Graph],
    memo: NTriplesMemo,
) -> EndpointRun:
    """The run a journal record holds; its graph is taken from ``graphs``
    when an earlier record held the same text, and read through ``memo``
    and added to it otherwise."""
    try:
        text = record["graph"]
        graph = graphs.get(text)
        if graph is None:
            graph = graphs[text] = parse_ntriples(text, memo=memo)
        return EndpointRun(
            endpoint=record["endpoint"],
            run=int(record["run"]),
            timestamp=record["timestamp"],
            available=bool(record["available"]),
            graph=graph,
            datasets=tuple(str(dataset) for dataset in record["datasets"]),
            errors=tuple((str(stage), str(kind)) for stage, kind in record["errors"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"{path}:{number}: malformed run record: {exc}") from None


# ---------------------------------------------------------------------------
# Campaigns


class CampaignConfig(NamedTuple):
    endpoints: Sequence[str]
    catalog: Catalog | None = None
    runs: int = 3
    timeout: float = DEFAULT_TIMEOUT
    retries: int = DEFAULT_RETRIES
    delay: float = DEFAULT_DELAY
    page_size: int = DEFAULT_PAGE_SIZE
    workers: int = 4
    journal_path: str | None = None
    transport: Transport | None = None


def run_campaign(config: CampaignConfig) -> Report:
    """Audit all endpoints and aggregate everything into one report."""
    if config.runs < 1:
        raise ValueError("a campaign needs at least one run")
    check_wait(config.timeout, "the timeout", timeout=True)
    check_wait(config.delay, "the politeness delay")
    check_retries(config.retries)
    if config.page_size < 1:
        raise ValueError("the page size must be at least one")
    if config.workers < 1:
        raise ValueError("the worker count must be at least one")
    catalog = config.catalog or default_catalog()
    endpoints = list(dict.fromkeys(config.endpoints))
    for endpoint in endpoints:
        try:
            Iri(endpoint)
        except ValueError as exc:
            raise ValueError(f"endpoint {endpoint!r}: {exc}") from None

    completed: dict[tuple[str, int], EndpointRun] = {}
    journal = None
    if config.journal_path:
        journal = Journal(config.journal_path, catalog, config.runs)
        # runs of endpoints outside this campaign stay in the file, unread
        completed = {key: er for key, er in journal.load().items() if key[0] in endpoints}
    left = {
        endpoint: [run for run in range(config.runs) if (endpoint, run) not in completed]
        for endpoint in endpoints
    }
    all_runs = list(completed.values())
    if any(left.values()):
        all_runs += _audit_cells(config, left, build_fetch(catalog), journal)
    all_runs.sort(key=lambda er: (er.endpoint, er.run))

    results, records = {}, []
    for endpoint, runs in groupby(all_runs, key=lambda er: er.endpoint):
        results[endpoint], run_records = score_endpoint(catalog, endpoint, list(runs))
        records += run_records
    # a replayed run may carry no stamp, a live one always does
    generated_at = max((er.timestamp for er in all_runs), default="")
    ordered = {endpoint: results[endpoint] for endpoint in endpoints}
    return build_report(catalog, ordered, generated_at, records)


def _audit_cells(
    config: CampaignConfig,
    left: Mapping[str, Sequence[int]],
    fetch: Fetch,
    journal: Journal | None,
) -> list[EndpointRun]:
    """Audit the cells ``left``, each endpoint's runs in order, with
    ``config.workers`` cells in flight at most.

    The cells run on worker threads of their own, one per cell in flight
    at most, which take cells from this thread and hand back each run or
    error.  An endpoint's cells go through one request layer, opened before
    its first cell and closed after its last, and never two at a time, so
    the delay and the HTTP session stay per endpoint.  A free worker gets
    the open endpoint whose next attempt may start soonest, if it may start
    now or no endpoint is left to open; otherwise the next endpoint opens.
    So layers are opened only while none that is open is due, and with no
    delay an endpoint's runs go back to back.  Once a cell raises, no new
    cell starts: the cells in flight finish, every open layer closes and
    the error of the failed cell first in campaign order (endpoint order,
    then run) goes on.  With several workers, which cells ran, and were
    journaled, before the stop still depends on timing.  Every worker has
    ended when this returns or raises, on an interrupt too.
    """
    runs = {endpoint: deque(todo) for endpoint, todo in left.items() if todo}
    order = {endpoint: n for n, endpoint in enumerate(runs)}
    unopened = deque(runs)
    layers: dict[str, tuple[ExitStack, ThrottledTransport]] = {}  # in opening order
    busy: set[str] = set()  # endpoints with a cell in flight
    outcomes: dict[tuple[int, int], EndpointRun | BaseException] = {}  # by endpoint order, run
    todo: SimpleQueue = SimpleQueue()  # (layer, endpoint, run) per cell; None stops a worker
    done: SimpleQueue = SimpleQueue()  # (endpoint, run, the run audited or the error)
    workers = config.workers

    def next_endpoint() -> str | None:
        waits = {e: layer.wait_s() for e, (_, layer) in layers.items() if e not in busy}
        soonest = min(waits, key=waits.get, default=None)
        if soonest is not None and (not waits[soonest] or not unopened):
            return soonest
        if not unopened:
            return None
        endpoint = unopened.popleft()
        stack = ExitStack()
        layer = stack.enter_context(
            open_layer(
                config.transport, config.delay, timeout=config.timeout, retries=config.retries
            )
        )
        layers[endpoint] = stack, layer
        return endpoint

    def work() -> None:
        while (cell := todo.get()) is not None:
            layer, endpoint, run = cell
            try:
                er = audit_run(layer, endpoint, run, fetch, page_size=config.page_size)
                if journal is not None:
                    journal.append(er)
            except BaseException as exc:  # the campaign's thread raises it
                done.put((endpoint, run, exc))
            else:
                done.put((endpoint, run, er))

    threads = []
    try:
        for _ in range(min(workers, sum(map(len, runs.values())))):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        while True:
            while len(busy) < workers and (endpoint := next_endpoint()):
                _, layer = layers[endpoint]
                todo.put((layer, endpoint, runs[endpoint].popleft()))
                busy.add(endpoint)
            if not busy:
                break
            endpoint, run, outcome = done.get()
            busy.remove(endpoint)
            outcomes[order[endpoint], run] = outcome
            if isinstance(outcome, BaseException):
                workers = 0  # start no new cell
            if not runs[endpoint]:
                layers.pop(endpoint)[0].close()
    finally:
        # every cell handed out comes before the workers' stops
        for _ in threads:
            todo.put(None)
        for thread in threads:
            thread.join()
        for stack, _ in layers.values():
            stack.close()
    ordered = [outcomes[key] for key in sorted(outcomes)]
    for outcome in ordered:
        if isinstance(outcome, BaseException):
            raise outcome  # the failed cell first in campaign order
    return ordered
