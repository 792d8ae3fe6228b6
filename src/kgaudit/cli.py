"""Command line interface.

Four subcommands: ``discover`` lists the datasets an endpoint or file
describes, ``evaluate`` scores datasets one-shot, ``campaign`` runs the
full multi-run audit and writes report files, and ``catalog`` inspects
the question catalog.  All argument validation happens before the first
request goes out.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .catalog import Catalog, CatalogError, default_catalog, expand_extended, load_catalog
from .client import (
    DEFAULT_DELAY,
    DEFAULT_PAGE_SIZE,
    DEFAULT_TIMEOUT,
    CampaignConfig,
    JournalError,
    discover_datasets,
    discover_in_graph,
    evaluate_remote,
    run_campaign,
    utcnow,
)
from .rdf import Iri, ParseError, load_rdf
from .reporting import build_report, figure_files, to_csv, to_dqv, to_json
from .saturation import saturate
from .scoring import DatasetResult, evaluate_graph, format_percent
from .sparql import format_query
from .transport import HttpTransport, TranscriptTransport, Transport, TransportError


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CatalogError, ParseError, TransportError, JournalError, ValueError, OSError) as exc:
        print(f"kgaudit: {exc}", file=sys.stderr)
        return 2
    finally:
        if getattr(args, "http", None):
            args.http.close()


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
    campaign.add_argument("--workers", type=int, default=4)
    campaign.add_argument("--retries", type=int, default=2)
    campaign.add_argument("--journal", metavar="PATH", help="journal file; resumes if present")
    campaign.add_argument("--seed", type=int, help="shuffle endpoint processing order")
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
    parser.add_argument(
        "--timeout",
        type=float,
        default=_default_timeout(),
        help="per-request timeout in seconds (or set KGAUDIT_TIMEOUT)",
    )
    parser.add_argument(
        "--transcript",
        metavar="PATH",
        help="answer queries from a recorded transcript instead of the network",
    )


def _default_timeout() -> float:
    raw = os.environ.get("KGAUDIT_TIMEOUT")
    if raw is None:
        return DEFAULT_TIMEOUT
    try:
        return float(raw)
    except ValueError:
        print(f"kgaudit: KGAUDIT_TIMEOUT is not a number: {raw!r}", file=sys.stderr)
        raise SystemExit(2) from None


def _load_catalog(args) -> Catalog:
    if getattr(args, "catalog", None):
        return load_catalog(args.catalog)
    return default_catalog()


def _transport(args) -> Transport:
    if getattr(args, "transcript", None):
        return TranscriptTransport(args.transcript)
    args.http = HttpTransport(retries=getattr(args, "retries", 2))  # main closes it
    return args.http


# ---------------------------------------------------------------------------
# discover


def _cmd_discover(args) -> int:
    if args.file:
        datasets = discover_in_graph(load_rdf(args.file))
    else:
        transport = _transport(args)
        datasets = discover_datasets(
            transport, args.endpoint, timeout=args.timeout, run=args.run
        )
    for dataset in datasets:
        print(dataset.value)
    return 0 if datasets else 1


# ---------------------------------------------------------------------------
# evaluate


def _cmd_evaluate(args) -> int:
    catalog = _load_catalog(args)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    stamp = utcnow()
    results: list[DatasetResult] = []
    if args.file:
        graph = load_rdf(args.file)
        datasets = [Iri(d) for d in args.dataset] if args.dataset else discover_in_graph(graph)
        saturated, _ = saturate(graph, catalog.rules)
        results = [
            evaluate_graph(catalog, graph, dataset, saturated=saturated)
            for dataset in datasets
        ]
    else:
        transport = _transport(args)
        stamp = transport.run_timestamp(args.endpoint, args.run) or stamp
        if args.dataset:
            datasets = [Iri(d) for d in args.dataset]
        else:
            datasets = discover_datasets(
                transport, args.endpoint, timeout=args.timeout, run=args.run
            )
        results = [
            evaluate_remote(
                transport, args.endpoint, catalog, dataset, timeout=args.timeout, run=args.run
            )
            for dataset in datasets
        ]
    if not results:
        print("kgaudit: no datasets to evaluate", file=sys.stderr)
        return 1
    if args.out:
        source = args.endpoint or Path(args.file).resolve().as_uri()
        report = build_report(catalog, {source: results}, stamp)
        _write(args.out, "report.json", to_json(report, catalog))
        _write(args.out, "report.csv", to_csv(report, catalog))
        _write(args.out, "report.nt", to_dqv(report, catalog))
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
    with open(path, "r", encoding="utf-8") as handle:
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
        print("kgaudit: campaign needs at least one endpoint", file=sys.stderr)
        return 2
    if args.runs < 1:
        print("kgaudit: --runs must be at least 1", file=sys.stderr)
        return 2
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
        seed=args.seed,
    )
    report = run_campaign(config)

    best = report.best_per_endpoint()
    for endpoint in report.results:
        result = best[endpoint]
        print(f"{format_percent(result.score)}\t{result.dataset}\t{endpoint}")

    if args.out:
        radar = tuple(args.radar) if args.radar else None
        _write(args.out, "report.json", to_json(report, catalog))
        _write(args.out, "report.csv", to_csv(report, catalog))
        _write(args.out, "report.nt", to_dqv(report, catalog))
        for name, content in figure_files(report, catalog, radar=radar).items():
            _write(args.out, name, content)
    return 0


def _write(directory: str, name: str, content: str) -> None:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        handle.write(content)


# ---------------------------------------------------------------------------
# catalog


def _cmd_catalog_validate(args) -> int:
    try:
        catalog = load_catalog(args.catalog) if args.catalog else default_catalog()
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
    catalog = load_catalog(args.catalog) if args.catalog else default_catalog()
    for question in catalog.questions():
        print(f"{question.id}\t{question.leaf}\t{question.weight}\t{question.text}")
    return 0


def _cmd_catalog_export(args) -> int:
    catalog = load_catalog(args.catalog) if args.catalog else default_catalog()
    first = True
    for question, cq in catalog.queries():
        if args.question and question.id != args.question:
            continue
        if not first:
            print()
        first = False
        print(f"# {cq.id}")
        extended = expand_extended(cq.query, catalog.rules)
        print(format_query(extended), end="")
    if first and args.question:
        print(f"kgaudit: no question named {args.question!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
