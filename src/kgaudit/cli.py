"""Command line interface.

Four subcommands: ``discover`` lists the datasets an endpoint or file
describes, ``evaluate`` scores datasets one-shot, ``campaign`` runs the
full multi-run audit and writes report files, and ``catalog`` inspects
the question catalog.  All argument validation happens before the first
request goes out, a non-positive ``--timeout`` included; ``KGAUDIT_TIMEOUT``
is parsed only by the commands that take ``--timeout``.  ``discover`` and
``evaluate --endpoint`` query through :func:`~kgaudit.transport.open_layer`
with the timeout, no politeness delay and its default retries; a campaign
opens one layer per endpoint.  Only ``evaluate --file`` reads the clock.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Sequence
from urllib.parse import quote

from .catalog import Catalog, CatalogError, default_catalog, load_catalog
from .client import (
    DEFAULT_DELAY,
    DEFAULT_PAGE_SIZE,
    CampaignConfig,
    JournalError,
    discover_datasets,
    discover_in_graph,
    evaluate_remote_datasets,
    run_campaign,
)
from .rdf import Iri, ParseError, load_rdf
from .reporting import build_report, dqv_blocks, figure_files, to_csv, to_json
from .scoring import format_percent, score_datasets
from .sparql import format_query
from .transport import (
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    TranscriptTransport,
    TransportError,
    open_layer,
    utcnow,
)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "timeout" in args and not args.timeout > 0:
            raise ValueError("the timeout must be positive")
        return args.func(args)
    except (CatalogError, ParseError, TransportError, JournalError, ValueError, OSError) as exc:
        print(f"kgaudit: {exc}", file=sys.stderr)
        return 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgaudit",
        description="Score how accountable RDF knowledge graphs are from their metadata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    discover = sub.add_parser("discover", help="list datasets an endpoint or file describes")
    _add_source(discover)
    _add_common(discover)
    discover.set_defaults(func=_cmd_discover)

    evaluate = sub.add_parser("evaluate", help="score datasets")
    _add_source(evaluate)
    _add_common(evaluate)
    evaluate.add_argument(
        "--dataset",
        action="append",
        metavar="IRI",
        help="dataset to score (repeatable; default: discover)",
    )
    evaluate.add_argument(
        "--out", metavar="DIR", help="write report files into this directory"
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    # no prefix matching, or a stray --run would quietly mean --runs
    campaign = sub.add_parser(
        "campaign", help="audit endpoints over several runs", allow_abbrev=False
    )
    campaign.add_argument("endpoints", nargs="*", metavar="URL")
    campaign.add_argument(
        "--endpoints-file", metavar="PATH", help="file with one endpoint URL per line"
    )
    campaign.add_argument("--runs", type=int, default=3)
    campaign.add_argument("--delay", type=float, default=DEFAULT_DELAY)
    campaign.add_argument("--page-size", type=int, default=DEFAULT_PAGE_SIZE)
    campaign.add_argument(
        "--workers", type=int, default=4, help="requests in flight at once (default 4)"
    )
    campaign.add_argument("--retries", type=int, default=DEFAULT_RETRIES)
    campaign.add_argument("--journal", metavar="PATH", help="journal file; resumes if present")
    campaign.add_argument("--out", metavar="DIR", help="write report files into this directory")
    campaign.add_argument(
        "--radar",
        nargs=2,
        metavar="IRI",
        help="the two datasets the radar figure compares (default: the two best)",
    )
    _add_common(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    catalog = sub.add_parser("catalog", help="inspect the question catalog")
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)

    validate = catalog_sub.add_parser("validate", help="check a catalog file")
    validate.add_argument("--catalog", metavar="PATH")
    validate.set_defaults(func=_cmd_catalog_validate)

    listing = catalog_sub.add_parser("list", help="list the questions")
    listing.add_argument("--catalog", metavar="PATH")
    listing.set_defaults(func=_cmd_catalog_list)

    export = catalog_sub.add_parser(
        "export-extended", help="print the vocabulary-expanded form of the queries"
    )
    export.add_argument("--catalog", metavar="PATH")
    export.add_argument("--question", metavar="ID", help="only this question")
    export.set_defaults(func=_cmd_catalog_export)

    return parser


def _add_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--endpoint", metavar="URL", help="SPARQL endpoint to query")
    source.add_argument("--file", metavar="PATH", help="local RDF file (N-Triples or Turtle)")
    parser.add_argument(
        "--run", type=int, default=0, help="transcript run to replay (default 0)"
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--catalog", metavar="PATH", help="catalog file (default: built in)")
    # argparse parses a string default only when a command takes and lacks the option
    parser.add_argument(
        "--timeout",
        type=_seconds,
        default=os.environ.get("KGAUDIT_TIMEOUT", str(DEFAULT_TIMEOUT)),
        help=f"per-request timeout in seconds (default: KGAUDIT_TIMEOUT or {DEFAULT_TIMEOUT:g})",
    )
    parser.add_argument(
        "--transcript",
        metavar="PATH",
        help="answer queries from a recorded transcript instead of the network",
    )


def _seconds(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        message = f"not a number: {text!r} (from --timeout or KGAUDIT_TIMEOUT)"
        raise argparse.ArgumentTypeError(message) from None


def _load_catalog(args) -> Catalog:
    if getattr(args, "catalog", None):
        return load_catalog(args.catalog)
    return default_catalog()


def _transport(args) -> TranscriptTransport | None:
    """The transcript to answer from, or None to talk to the network."""
    return TranscriptTransport(args.transcript) if args.transcript else None


# ---------------------------------------------------------------------------
# discover


def _cmd_discover(args) -> int:
    if args.file:
        datasets = discover_in_graph(load_rdf(args.file))
    else:
        with open_layer(_transport(args), 0.0, timeout=args.timeout) as transport:
            datasets = discover_datasets(transport, args.endpoint, run=args.run)
    for dataset in datasets:
        print(dataset.value)
    return 0 if datasets else 1


# ---------------------------------------------------------------------------
# evaluate


def _named_datasets(args) -> list[Iri]:
    """The ``--dataset`` IRIs, each once, in the order first given."""
    return [Iri(d) for d in dict.fromkeys(args.dataset or ())]


def _cmd_evaluate(args) -> int:
    catalog = _load_catalog(args)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    # the file as typed, so the report does not depend on where it lives
    source = args.endpoint or "file:" + quote(args.file)
    saturation = {}  # the remote route saturates nothing
    if args.file:
        stamp = utcnow()
        graph = load_rdf(args.file)
        datasets = _named_datasets(args) or discover_in_graph(graph)
        results, saturation[source] = score_datasets(catalog, graph, datasets)
    else:
        with open_layer(_transport(args), 0.0, timeout=args.timeout) as transport:
            stamp = transport.run_timestamp(args.endpoint, args.run)
            datasets = _named_datasets(args) or discover_datasets(
                transport, args.endpoint, run=args.run
            )
            results = evaluate_remote_datasets(
                transport, args.endpoint, catalog, datasets, run=args.run
            )
    if not results:
        print("kgaudit: no datasets to evaluate", file=sys.stderr)
        return 1
    if args.out:
        report = build_report(catalog, {source: results}, stamp, saturation=saturation)
        _write(args.out, "report.json", (to_json(report, catalog),))
        _write(args.out, "report.csv", (to_csv(report, catalog),))
        _write(args.out, "report.nt", dqv_blocks(report, catalog))
    if len(results) == 1:
        print(format_percent(results[0].score))
    else:
        for result in results:
            print(f"{format_percent(result.score)}\t{result.dataset}")
    return 0


# ---------------------------------------------------------------------------
# campaign


def _read_endpoints_file(path: str) -> list[str]:
    endpoints = []
    # utf-8-sig: a leading byte-order mark is no part of the first endpoint
    with open(path, "r", encoding="utf-8-sig") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                endpoints.append(line)
    return endpoints


def _cmd_campaign(args) -> int:
    endpoints = list(args.endpoints)
    if args.endpoints_file:
        endpoints += _read_endpoints_file(args.endpoints_file)
    if not endpoints:
        raise ValueError("campaign needs at least one endpoint")
    if args.runs < 1:
        raise ValueError("--runs must be at least 1")
    for dataset in args.radar or ():
        try:
            Iri(dataset)
        except ValueError as exc:
            raise ValueError(f"--radar {dataset!r}: {exc}") from None
    catalog = _load_catalog(args)
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    config = CampaignConfig(
        endpoints=endpoints,
        catalog=catalog,
        runs=args.runs,
        timeout=args.timeout,
        retries=args.retries,
        delay=args.delay,
        page_size=args.page_size,
        workers=args.workers,
        journal_path=args.journal,
        transport=_transport(args),
    )
    report = run_campaign(config)

    best = report.best_per_endpoint()
    for endpoint in report.results:
        result = best[endpoint]
        print(f"{format_percent(result.score)}\t{result.dataset}\t{endpoint}")

    if args.out:
        radar = tuple(args.radar) if args.radar else None
        _write(args.out, "report.json", (to_json(report, catalog),))
        _write(args.out, "report.csv", (to_csv(report, catalog),))
        _write(args.out, "report.nt", dqv_blocks(report, catalog))
        for name, content in figure_files(report, catalog, radar=radar).items():
            _write(args.out, name, (content,))
    return 0


def _write(directory: str, name: str, chunks: Iterable[str]) -> None:
    """Write the file from its chunks, each as it comes, and replace the old
    one whole: a write that fails, the chunks' own included, leaves the
    old file as it was."""
    path = os.path.join(directory, name)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# catalog


def _cmd_catalog_validate(args) -> int:
    try:
        catalog = _load_catalog(args)
    except CatalogError as exc:
        print(f"kgaudit: {exc}", file=sys.stderr)
        return 1
    questions = list(catalog.questions())
    queries = sum(len(q.queries) for q in questions)
    print(
        f"catalog {catalog.version} OK: {len(questions)} questions, "
        f"{queries} queries, {len(catalog.rules)} rules"
    )
    return 0


def _cmd_catalog_list(args) -> int:
    catalog = _load_catalog(args)
    for question in catalog.questions():
        print(f"{question.id}\t{question.leaf}\t{question.weight}\t{question.text}")
    return 0


def _cmd_catalog_export(args) -> int:
    catalog = _load_catalog(args)
    first = True
    for question, cq in catalog.queries():
        if args.question and question.id != args.question:
            continue
        if not first:
            print()
        first = False
        print(f"# {cq.id}")
        print(format_query(catalog.expanded[cq.id]), end="")
    if first and args.question:
        print(f"kgaudit: no question named {args.question!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
