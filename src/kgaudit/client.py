"""Auditing endpoints: dataset discovery, fetching, campaigns.

Two evaluation routes exist on purpose and must stay distinct:

* the *fetch* route (campaigns) downloads each dataset's description,
  merges what the runs saw, saturates the merged graph with the
  vocabulary rules and answers the compact queries locally;
* the *remote* route sends the expanded UNION form of every query to the
  endpoint and trusts its ASK answers.

Both routes give the same score for the same served data because the
fetch shape covers everything a catalog query can reach: the catalog
validator refuses any query or rule that looks further than two hops out
of the dataset or one hop into it.  An endpoint-run costs one query
that finds and fetches its datasets (more only when it needs pages).

Campaigns work endpoint-by-endpoint in parallel, but requests to any
single endpoint are sequential with a politeness delay.  Every run is
appended to a journal file (JSON lines, checksummed), so an interrupted
campaign resumes without repeating completed endpoint/run cells.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Iterable, Iterator, Mapping, Sequence

from .catalog import Catalog, default_catalog, expand_extended
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
    QueryOutcome,
    build_result,
    evaluate_graph,
    not_evaluated_result,
)
from .sparql import Query, SeqPattern, parse_query, substitute
from .transport import HttpTransport, Transport, TransportError

# Finds dataset IRIs that an endpoint both describes and links to itself.
# The link predicate is left open: catalogues use void:sparqlEndpoint,
# dcat:endpointURL, sd:endpoint and others, and some state the endpoint
# address as a plain string, which is why the link is matched in both the
# IRI and the literal form of the endpoint URL.
DISCOVERY_QUERY = parse_query("""\
PREFIX dcat: <http://www.w3.org/ns/dcat#>
PREFIX void: <http://rdfs.org/ns/void#>
PREFIX dcmitype: <http://purl.org/dc/dcmitype/>
PREFIX schema: <http://schema.org/>
PREFIX sd: <http://www.w3.org/ns/sparql-service-description#>
PREFIX dataid: <http://dataid.dbpedia.org/ns/core#>
SELECT ?kg WHERE {
  { ?kg ?endpointLink $endpointIri } UNION { ?kg ?endpointLink $endpointLiteral }
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


class ThrottledTransport:
    """Wraps a transport; enforces a minimum delay between its requests."""

    def __init__(self, inner: Transport, delay: float):
        self._inner = inner
        self._delay = delay
        self._due = 0.0

    def query(self, url: str, query: Query, *, timeout: float, run: int = 0):
        if self._delay > 0:
            now = time.monotonic()
            if now < self._due:
                time.sleep(self._due - now)
            self._due = time.monotonic() + self._delay
        return self._inner.query(url, query, timeout=timeout, run=run)

    def run_timestamp(self, url: str, run: int) -> str | None:
        return self._inner.run_timestamp(url, run)


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
    return substitute(query, {"endpointIri": Iri(url), "endpointLiteral": Literal(url)})


def fetch_metadata(
    transport: Transport,
    url: str,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    timeout: float = DEFAULT_TIMEOUT,
    run: int = 0,
) -> dict[str, Graph]:
    """Find every dataset and fetch its description with one paged query.

    ``METADATA_QUERY`` reaches two hops out of each dataset and one hop in,
    which is as far as any validated catalog query reaches.  Each row maps
    to one or two triples of the graph of its ``?kg``, if that is an IRI.
    Blank nodes are renamed apart per response, since a label identifies a
    node only within one result document.  Pages slice the rows in one
    fixed order, so no row is skipped or repeated.
    """
    query = replace(_at_endpoint(METADATA_QUERY, url), limit=page_size)
    graphs: dict[str, Graph] = {}
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
                graphs.setdefault(row["kg"].value, Graph()).update(_row_triples(row, response))
        if len(rows) < page_size:
            return graphs
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
    expanded = _expanded_queries(catalog)
    outcomes = []
    for _, cq in catalog.queries():
        query = substitute(expanded[cq.id], {"kg": dataset})
        try:
            answer = transport.query(url, query, timeout=timeout, run=run)
            if not isinstance(answer, bool):
                raise TransportError("malformed", "ASK answered with bindings")
            outcomes.append(
                QueryOutcome(cq.id, answer, None if answer else FailureKind.ANSWER_FALSE)
            )
        except TransportError as exc:
            kind = FailureKind.TIMEOUT if exc.kind == "timeout" else FailureKind.REMOTE_ERROR
            outcomes.append(QueryOutcome(cq.id, False, kind))
    return build_result(catalog, dataset.value, outcomes)


def _expanded_queries(catalog: Catalog) -> dict[str, Query]:
    """The catalog's expanded queries by id, expanded once per catalog."""
    if not catalog.expanded:
        expanded = {
            cq.id: expand_extended(cq.query, catalog.rules) for _, cq in catalog.queries()
        }
        catalog.expanded.update(expanded)  # one step, so no thread sees half
    return catalog.expanded


# ---------------------------------------------------------------------------
# Campaign runs


@dataclass(frozen=True)
class EndpointRun:
    """Everything one run observed about one endpoint.

    ``errors`` lists (stage, error kind) pairs for requests that failed
    while the endpoint was up, such as a fetch page that timed out.
    """

    endpoint: str
    run: int
    timestamp: str
    available: bool
    datasets: Mapping[str, Graph]
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
        graphs = fetch_metadata(transport, endpoint, page_size=page_size, timeout=timeout, run=run)
    except TransportError as exc:
        if exc.kind in ("connection", "timeout") and not isinstance(exc, LaterPageError):
            return EndpointRun(endpoint, run, timestamp, False, {})
        return EndpointRun(endpoint, run, timestamp, True, {}, (("fetch", exc.kind),))
    return EndpointRun(endpoint, run, timestamp, True, graphs)


def merge_runs(runs: Iterable[EndpointRun]) -> dict[str, dict[str, Graph]]:
    """Union the fetched graphs per endpoint and dataset across runs.

    Unavailable runs contribute nothing, so an endpoint that was down for
    one of three runs scores exactly like one that was always up, as long
    as the up runs served the same data.
    """
    merged: dict[str, dict[str, Graph]] = {}
    for er in runs:
        per_endpoint = merged.setdefault(er.endpoint, {})
        for dataset, graph in er.datasets.items():
            target = per_endpoint.setdefault(dataset, Graph())
            target.update(graph)
    return merged


# Results by dataset and triple count, each beside the graph it scored.
ScoreMemo = dict[tuple[str, int], list[tuple[Graph, DatasetResult]]]


def evaluate_merged(
    catalog: Catalog,
    merged: Mapping[str, Mapping[str, Graph]],
    endpoints: Sequence[str],
    *,
    memo: ScoreMemo | None = None,
) -> dict[str, list[DatasetResult]]:
    """Score every dataset; endpoints with nothing auditable get a zero row.

    Results are kept in ``memo`` by dataset and triples; a caller that
    scores more graphs afterwards passes the same dict to reuse them.
    """
    memo = {} if memo is None else memo
    results: dict[str, list[DatasetResult]] = {}
    for endpoint in endpoints:
        graphs = merged.get(endpoint, {})
        if not graphs:
            results[endpoint] = [not_evaluated_result(catalog, endpoint)]
            continue
        results[endpoint] = [
            _evaluate_once(catalog, memo, dataset, graph)
            for dataset, graph in sorted(graphs.items())
        ]
    return results


def _evaluate_once(
    catalog: Catalog, memo: ScoreMemo, dataset: str, graph: Graph
) -> DatasetResult:
    """``evaluate_graph``, run once per distinct dataset and triple set."""
    scored = memo.setdefault((dataset, len(graph)), [])
    for seen, result in scored:
        if seen == graph:
            return result
    result = evaluate_graph(catalog, graph, Iri(dataset))
    scored.append((graph, result))
    return result


# ---------------------------------------------------------------------------
# Journal


class JournalError(RuntimeError):
    """The journal file cannot be trusted; refuse to resume from it."""


def _checksum(record: dict) -> str:
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Journal:
    """Append-only JSON-lines record of completed endpoint runs.

    The first line pins the catalog hash and run count; every line carries
    a checksum over its record.  An unterminated last line is an append a
    crash cut short: loading drops it, so that cell is audited again.  Any
    other mismatch means the file was edited, and resuming would silently
    skew scores, so the journal refuses instead.
    """

    def __init__(self, path: str, catalog: Catalog, runs: int):
        self.path = path
        self._lock = threading.Lock()
        self._header = {"catalog": catalog.content_hash(), "runs": runs}

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
            "datasets": {
                dataset: serialize_ntriples(graph)
                for dataset, graph in sorted(er.datasets.items())
            },
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
        datasets = {
            dataset: parse_ntriples(data)
            for dataset, data in record["datasets"].items()
        }
        return EndpointRun(
            endpoint=record["endpoint"],
            run=int(record["run"]),
            timestamp=record["timestamp"],
            available=bool(record["available"]),
            datasets=datasets,
            errors=tuple((str(stage), str(kind)) for stage, kind in record["errors"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    seed: int | None = None


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

    order = list(endpoints)
    if config.seed is not None:
        random.Random(config.seed).shuffle(order)

    def job(endpoint: str) -> list[EndpointRun]:
        throttled = ThrottledTransport(transport, config.delay)
        out = []
        for run in range(config.runs):
            if (endpoint, run) in completed:
                continue
            er = audit_run(
                throttled, endpoint, run, timeout=config.timeout, page_size=config.page_size
            )
            if journal is not None:
                journal.append(er)
            out.append(er)
        return out

    all_runs: list[EndpointRun] = list(completed.values())
    transport = config.transport or HttpTransport(retries=config.retries)
    try:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            for runs in pool.map(job, order):
                all_runs.extend(runs)
    finally:
        if config.transport is None:
            transport.close()
    all_runs.sort(key=lambda er: (er.endpoint, er.run))

    # A run that served exactly the merged graph, or the same graph as an
    # earlier run, reuses that score.
    memo: ScoreMemo = {}
    merged = merge_runs(all_runs)
    results = evaluate_merged(catalog, merged, endpoints, memo=memo)
    timestamps = [er.timestamp for er in all_runs if er.timestamp]
    generated_at = max(timestamps) if timestamps else utcnow()
    records = tuple(
        RunRecord(
            endpoint=er.endpoint,
            run=er.run,
            timestamp=er.timestamp,
            available=er.available,
            scores=tuple(
                (dataset, _evaluate_once(catalog, memo, dataset, graph).score)
                for dataset, graph in sorted(er.datasets.items())
            ),
            errors=er.errors,
        )
        for er in all_runs
    )
    return build_report(catalog, results, generated_at, records)
