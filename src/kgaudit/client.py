"""Auditing endpoints: dataset discovery, fetching, campaigns.

Two evaluation routes exist on purpose and must stay distinct:

* the *fetch* route (campaigns) downloads, in each run, one graph that
  describes all of an endpoint's datasets, unions what the runs saw,
  saturates that union once and answers the compact queries locally for
  all those datasets, as ``evaluate --file`` does for a file;
* the *remote* route sends the expanded UNION form of every query to the
  endpoint and trusts its answers.  Each query goes out once for all the
  datasets, as ``SELECT DISTINCT ?kg`` with ?kg bound to them by VALUES,
  and the datasets it returns satisfy it: scoring N datasets costs one
  request per catalog query, whatever N is.  A request that fails fails
  its query for every dataset alike, with the same ``FailureKind``
  (``timeout`` for a timeout, ``remote-error`` otherwise); an answer that
  is not a list of rows counts as a remote error too.

Both routes give the same score for the same served data because the
fetch shape covers everything a catalog query can reach: the catalog
validator refuses any query or rule that looks further than two hops out
of the dataset or one hop into it.  So whatever a query matches for one
dataset in the endpoint's union lies within that dataset's own fetch
shape, and the union answers for each dataset as the endpoint does.  An
endpoint-run costs one query that finds and fetches its datasets (more
only when it needs pages).  Discovery and that fetch bind ``?endpoint``
with VALUES to both the IRI and the literal form of the endpoint URL,
since catalogues state the address either way.

Campaigns work endpoint-by-endpoint in parallel, but requests to any
single endpoint are sequential: each endpoint job sends them through a
:class:`~kgaudit.transport.ThrottledTransport` of its own, which spaces
them by the politeness delay and retries what can be retried, and
without an injected transport it talks HTTP over a session of its own,
closed when the job ends; a job with no run left builds neither.  Every
run is appended to a journal file (JSON lines, checksummed), so an
interrupted campaign resumes without repeating completed endpoint/run
cells.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .catalog import KG, Catalog, default_catalog
from .rdf import (
    RDF_TYPE,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
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
from .sparql import Query, SeqPattern, bind_values, parse_query
from .transport import HttpTransport, ThrottledTransport, Transport, TransportError

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

DEFAULT_TIMEOUT = 30.0
DEFAULT_DELAY = 0.5
DEFAULT_PAGE_SIZE = 10000

# The one query of an endpoint-run: discovery's two groups, then the fetch
# shape around each dataset found.  Each row carries a whole path, so a
# blank node keeps its identity between the two triples of a row.
_FETCH_SHAPE = parse_query(
    "ASK { { ?kg ?p ?o } UNION { ?kg ?p ?o . ?o ?p2 ?o2 } UNION { ?s ?p ?kg . ?s ?p2 ?o2 } }"
).pattern
METADATA_QUERY = replace(
    DISCOVERY_QUERY,
    projection=("kg", "s", "p", "o", "p2", "o2"),
    pattern=SeqPattern((*DISCOVERY_QUERY.pattern.parts, _FETCH_SHAPE)),
)


def utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# Discovery and fetching


def discover_datasets(
    transport: Transport, url: str, *, timeout: float = DEFAULT_TIMEOUT, run: int = 0
) -> list[Iri]:
    """Dataset IRIs the endpoint self-describes, IRI- or literal-linked."""
    rows = transport.query(url, _at_endpoint(DISCOVERY_QUERY, url), timeout=timeout, run=run)
    if not isinstance(rows, list):
        raise TransportError("malformed", "discovery expected SELECT results")
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


# What was fetched from an endpoint: one graph, and the datasets it describes.
Unit = tuple[Graph, tuple[str, ...]]


def fetch_metadata(
    transport: Transport,
    url: str,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    timeout: float = DEFAULT_TIMEOUT,
    run: int = 0,
) -> Unit:
    """Find every dataset and fetch its description with one paged query.

    Returns one graph for all the datasets, and their IRIs, sorted.
    ``METADATA_QUERY`` reaches two hops out of each dataset and one hop in,
    which is as far as any validated catalog query reaches.  Each row whose
    ``?kg`` is an IRI maps to one or two triples.  Blank nodes are renamed
    apart per response, since a label identifies a node only within one
    result document.  Pages slice the rows in one fixed order, so no row
    is skipped or repeated.
    """
    query = replace(_at_endpoint(METADATA_QUERY, url), limit=page_size)
    graph = Graph()
    datasets: set[str] = set()
    response = 0
    while True:
        try:
            rows = transport.query(url, query, timeout=timeout, run=run)
        except TransportError as exc:
            if response:
                raise LaterPageError(exc.kind, f"page {response + 1} failed ({exc})") from exc
            raise
        if not isinstance(rows, list):
            raise TransportError("malformed", "metadata fetch expected SELECT results")
        response += 1
        for row in rows:
            if isinstance(row.get("kg"), Iri):
                datasets.add(row["kg"].value)
                graph.update(_row_triples(row, response))
        if len(rows) < page_size:
            return graph, tuple(sorted(datasets))
        query = replace(query, offset=query.offset + page_size)


def _row_triples(row: Mapping[str, Term], response: int) -> Iterator[Triple]:
    """The one or two triples a fetch row stands for, blank nodes renamed apart."""
    kg, s, p, o, p2, o2 = (_relabel(row.get(name), response) for name in METADATA_QUERY.projection)
    paths = ((s, p, kg), (s, p2, o2)) if s is not None else ((kg, p, o), (o, p2, o2))
    for parts in paths:
        if None in parts:
            continue  # a one-hop row has no second triple
        try:
            triple = Triple(*parts)
        except ValueError:
            continue  # a literal subject or predicate makes no triple
        yield triple


def _relabel(term: Term | None, response: int) -> Term | None:
    if isinstance(term, BlankNode):
        return BlankNode(f"r{response}b{term.label}")
    return term


# ---------------------------------------------------------------------------
# Remote evaluation (extended queries against the endpoint)


def evaluate_remote(
    transport: Transport,
    url: str,
    catalog: Catalog,
    dataset: Iri,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    run: int = 0,
) -> DatasetResult:
    """Score a dataset by asking the endpoint the expanded queries."""
    return evaluate_remote_datasets(
        transport, url, catalog, [dataset], timeout=timeout, run=run
    )[0]


def evaluate_remote_datasets(
    transport: Transport,
    url: str,
    catalog: Catalog,
    datasets: Sequence[Iri],
    *,
    timeout: float = DEFAULT_TIMEOUT,
    run: int = 0,
) -> list[DatasetResult]:
    """Score datasets with one request per expanded query, naming them all."""
    if not datasets:
        return []
    answers: dict[str, set[Term] | FailureKind] = {}
    for qid, select in catalog.expanded_selects.items():
        query = bind_values(select, KG.name, datasets)
        try:
            rows = transport.query(url, query, timeout=timeout, run=run)
            if not isinstance(rows, list):
                raise TransportError("malformed", "SELECT answered with a boolean")
            answers[qid] = {row.get(KG.name) for row in rows}
        except TransportError as exc:
            kind = FailureKind.TIMEOUT if exc.kind == "timeout" else FailureKind.REMOTE_ERROR
            answers[qid] = kind
    return results_from_answers(catalog, datasets, answers)


# ---------------------------------------------------------------------------
# Campaign runs


@dataclass(frozen=True)
class EndpointRun:
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
    *,
    timeout: float = DEFAULT_TIMEOUT,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> EndpointRun:
    """One endpoint, one run: one paged query finds and fetches every dataset.

    When its first page cannot reach the endpoint (a connection error or a
    timeout) the run is unavailable.  Any other failure loses the run's
    datasets and is recorded as a ``fetch`` error of an available run.
    """
    timestamp = transport.run_timestamp(endpoint, run) or utcnow()
    try:
        unit = fetch_metadata(transport, endpoint, page_size=page_size, timeout=timeout, run=run)
    except TransportError as exc:
        if exc.kind in ("connection", "timeout") and not isinstance(exc, LaterPageError):
            return EndpointRun(endpoint, run, timestamp, False, Graph(), ())
        return EndpointRun(endpoint, run, timestamp, True, Graph(), (), (("fetch", exc.kind),))
    return EndpointRun(endpoint, run, timestamp, True, *unit)


def merge_runs(runs: Iterable[EndpointRun]) -> dict[str, Unit]:
    """Union the fetched graphs and the dataset lists per endpoint.

    Unavailable runs contribute nothing, so an endpoint that was down for
    one of three runs scores exactly like one that was always up, as long
    as the up runs served the same data.
    """
    merged: dict[str, Unit] = {}
    for er in runs:
        if er.endpoint not in merged:
            merged[er.endpoint] = er.graph.copy(), er.datasets
            continue
        graph, datasets = merged[er.endpoint]
        graph.update(er.graph)
        merged[er.endpoint] = graph, tuple(sorted({*datasets, *er.datasets}))
    return merged


def evaluate_merged(
    catalog: Catalog, merged: Mapping[str, Unit], endpoints: Sequence[str]
) -> dict[str, list[DatasetResult]]:
    """Score each endpoint's datasets in its merged graph, saturated once;
    endpoints with nothing auditable get a zero row.  Every result of an
    endpoint carries that saturation's trace."""
    results: dict[str, list[DatasetResult]] = {}
    for endpoint in endpoints:
        graph, datasets = merged.get(endpoint, (Graph(), ()))
        if not datasets:
            results[endpoint] = [not_evaluated_result(catalog, endpoint)]
            continue
        scored, trace = score_datasets(catalog, graph, [Iri(d) for d in datasets])
        results[endpoint] = [replace(result, trace=trace) for result in scored]
    return results


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
    (format 2; journals without a format stored one text per dataset).
    An unterminated last line is an append a crash cut short: loading
    drops it, so that cell is audited again.  Any other mismatch means the
    file was edited or belongs elsewhere, and resuming would silently skew
    scores, so the journal refuses instead and leaves the file as it is.
    """

    def __init__(self, path: str, catalog: Catalog, runs: int):
        self.path = path
        self._lock = threading.Lock()
        self._header = {"catalog": catalog.content_hash(), "format": 2, "runs": runs}

    def load(self) -> dict[tuple[str, int], EndpointRun]:
        completed: dict[tuple[str, int], EndpointRun] = {}
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
            er = _run_from_record(self.path, number, record)
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


def _run_from_record(path: str, number: int, record: dict) -> EndpointRun:
    try:
        return EndpointRun(
            endpoint=record["endpoint"],
            run=int(record["run"]),
            timestamp=record["timestamp"],
            available=bool(record["available"]),
            graph=parse_ntriples(record["graph"]),
            datasets=tuple(str(dataset) for dataset in record["datasets"]),
            errors=tuple((str(stage), str(kind)) for stage, kind in record["errors"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"{path}:{number}: malformed run record: {exc}") from None


# ---------------------------------------------------------------------------
# Campaigns


@dataclass
class CampaignConfig:
    endpoints: Sequence[str]
    catalog: Catalog | None = None
    runs: int = 3
    timeout: float = DEFAULT_TIMEOUT
    retries: int = 2
    delay: float = DEFAULT_DELAY
    page_size: int = DEFAULT_PAGE_SIZE
    workers: int = 4
    journal_path: str | None = None
    transport: Transport | None = None


def run_campaign(config: CampaignConfig) -> Report:
    """Audit all endpoints and aggregate everything into one report."""
    if config.runs < 1:
        raise ValueError("a campaign needs at least one run")
    if config.timeout <= 0:
        raise ValueError("the timeout must be positive")
    if config.delay < 0:
        raise ValueError("the politeness delay cannot be negative")
    if config.retries < 0:
        raise ValueError("the retry count cannot be negative")
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
        completed = journal.load()

    def job(endpoint: str) -> list[EndpointRun]:
        left = [run for run in range(config.runs) if (endpoint, run) not in completed]
        if not left:
            return []
        inner = config.transport or HttpTransport()
        transport = ThrottledTransport(inner, config.delay, retries=config.retries)
        out = []
        try:
            for run in left:
                er = audit_run(
                    transport, endpoint, run, timeout=config.timeout, page_size=config.page_size
                )
                if journal is not None:
                    journal.append(er)
                out.append(er)
        finally:
            if inner is not config.transport:
                inner.close()
        return out

    all_runs: list[EndpointRun] = list(completed.values())
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        for runs in pool.map(job, endpoints):
            all_runs.extend(runs)
    all_runs.sort(key=lambda er: (er.endpoint, er.run))

    merged = merge_runs(all_runs)
    results = evaluate_merged(catalog, merged, endpoints)

    def run_scores(er: EndpointRun) -> tuple[tuple[str, Fraction], ...]:
        """A run's scores on its data alone.  A run that served its
        endpoint's merged graph reuses the endpoint's results."""
        if not er.datasets:
            return ()
        scored = results.get(er.endpoint)  # None: a journal run outside this campaign
        if scored is None or (er.graph, er.datasets) != merged[er.endpoint]:
            scored, _ = score_datasets(catalog, er.graph, [Iri(d) for d in er.datasets])
        return tuple((result.dataset, result.score) for result in scored)

    timestamps = [er.timestamp for er in all_runs if er.timestamp]
    generated_at = max(timestamps) if timestamps else utcnow()
    records = tuple(
        RunRecord(
            endpoint=er.endpoint,
            run=er.run,
            timestamp=er.timestamp,
            available=er.available,
            scores=run_scores(er),
            errors=er.errors,
        )
        for er in all_runs
    )
    return build_report(catalog, results, generated_at, records)
