"""Report assembly and export: DQV N-Triples, JSON, CSV, figure files.

A report is the durable outcome of an audit: catalog identity, one
timestamp (the newest run), and per endpoint the scored datasets.  All
exports are deterministic byte-for-byte, so replaying a recorded campaign
reproduces identical files.

The DQV export is lossless: every query outcome and every node score goes
out as a quality measurement, and scores carry their exact fraction next
to the rounded decimal.  :func:`to_dqv` formats the N-Triples lines straight
from the report, without building a graph, and :func:`from_dqv` parses
them back into the full report, recomputing the aggregation and refusing
exports whose stored node scores disagree with their own query outcomes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .catalog import Catalog
from .rdf import RDF_TYPE, Graph, Iri, Literal, Term, XSD, format_term, parse_ntriples
from .scoring import (
    DatasetResult,
    FailureKind,
    QueryOutcome,
    build_result,
    format_percent,
)

_NS = "urn:kgaudit:v1:"
REPORT_NODE = Iri(_NS + "report")
_METRIC_QUERY = _NS + "metric:query:"
_METRIC_QUESTION = _NS + "metric:question:"
_METRIC_NODE = _NS + "metric:node:"
_MEASURE = _NS + "measure:"
_TOOL = _NS + "ns:"
_DQV = "http://www.w3.org/ns/dqv#"

_T_GENERATED = Iri(_TOOL + "generatedAt")
_T_VERSION = Iri(_TOOL + "catalogVersion")
_T_HASH = Iri(_TOOL + "catalogHash")
_T_ENDPOINT = Iri(_TOOL + "endpoint")
_T_EXACT = Iri(_TOOL + "exactValue")
_T_FAILURE = Iri(_TOOL + "failureKind")
_D_METRIC = Iri(_DQV + "Metric")
_D_MEASUREMENT = Iri(_DQV + "QualityMeasurement")
_D_COMPUTED_ON = Iri(_DQV + "computedOn")
_D_MEASUREMENT_OF = Iri(_DQV + "isMeasurementOf")
_D_VALUE = Iri(_DQV + "value")
_XSD_BOOLEAN = XSD + "boolean"
_XSD_DECIMAL = XSD + "decimal"


@dataclass(frozen=True)
class RunRecord:
    """Provenance of one endpoint run: when it ran and what it scored.

    ``scores`` holds (dataset IRI, global score) pairs for that run's data
    alone, before any cross-run merging; ``errors`` lists (stage, error
    kind) pairs for requests that failed without aborting the run.
    """

    endpoint: str
    run: int
    timestamp: str
    available: bool
    scores: tuple[tuple[str, Fraction], ...] = ()
    errors: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Report:
    """Everything one audit produced, ready for export.

    ``runs`` is provenance, not measurement: it is kept out of equality so
    a report parsed back from an export compares equal when it carries the
    same results.
    """

    catalog_version: str
    catalog_hash: str
    generated_at: str
    results: Mapping[str, tuple[DatasetResult, ...]]
    runs: tuple[RunRecord, ...] = field(default=(), compare=False, repr=False)

    def rows(self) -> list[tuple[str, DatasetResult]]:
        """(endpoint, result) pairs in report order."""
        return [
            (endpoint, result)
            for endpoint, results in self.results.items()
            for result in results
        ]

    def best_per_endpoint(self) -> dict[str, DatasetResult]:
        """The best-scoring dataset of each endpoint (ties: smallest key)."""
        best: dict[str, DatasetResult] = {}
        for endpoint, results in self.results.items():
            best[endpoint] = min(results, key=lambda r: (-r.score, r.dataset))
        return best


def build_report(
    catalog: Catalog,
    results: Mapping[str, Sequence[DatasetResult]],
    generated_at: str,
    runs: Sequence[RunRecord] = (),
) -> Report:
    return Report(
        catalog_version=catalog.version,
        catalog_hash=catalog.content_hash(),
        generated_at=generated_at,
        results={endpoint: tuple(rs) for endpoint, rs in results.items()},
        runs=tuple(runs),
    )


def _pair_id(endpoint: str, dataset: str) -> str:
    digest = hashlib.sha256(f"{endpoint}\n{dataset}".encode("utf-8")).hexdigest()
    return digest[:16]


# ---------------------------------------------------------------------------
# DQV export


def _tail(predicate: Iri, obj: str) -> str:
    """The part of an N-Triples line after its subject."""
    return f" {format_term(predicate)} {obj} ."


_IS_MEASUREMENT = _tail(Iri(RDF_TYPE), format_term(_D_MEASUREMENT))
_IS_METRIC = _tail(Iri(RDF_TYPE), format_term(_D_METRIC))
_TRUE = _tail(_D_VALUE, format_term(Literal("true", datatype=_XSD_BOOLEAN)))
_FALSE = _tail(_D_VALUE, format_term(Literal("false", datatype=_XSD_BOOLEAN)))
_FAILURE = {
    kind: _tail(_T_FAILURE, format_term(Literal(kind.value))) for kind in FailureKind
}


def to_dqv(report: Report, catalog: Catalog) -> str:
    """The report as DQV quality measurements (plus a few tool terms), as
    N-Triples text: one sorted line per distinct statement.

    Lines are formatted straight from the report.  Every distinct
    endpoint, dataset and metric IRI still goes through :class:`Iri` once,
    so a value that makes no valid IRI raises ``ValueError``.  Metric IRIs
    are declared only when some measurement references them, so an empty
    report exports nothing beyond its own metadata.
    """
    report_node = format_term(REPORT_NODE)
    lines = {
        report_node + _tail(predicate, format_term(Literal(value)))
        for predicate, value in (
            (_T_GENERATED, report.generated_at),
            (_T_VERSION, report.catalog_version),
            (_T_HASH, report.catalog_hash),
        )
    }
    iris: dict[str, str] = {}
    metrics: dict[str, str] = {}  # metric IRI -> its isMeasurementOf tail
    # score -> its value and exactValue tails
    scores_out: dict[Fraction, tuple[str, str]] = {}

    def iri(value: str) -> str:
        term = iris.get(value)
        if term is None:
            term = iris[value] = format_term(Iri(value))
        return term

    def measurement_of(value: str) -> str:
        tail = metrics.get(value)
        if tail is None:
            tail = metrics[value] = _tail(_D_MEASUREMENT_OF, iri(value))
        return tail

    for endpoint, results in report.results.items():
        for result in results:
            pair = _pair_id(endpoint, result.dataset)
            computed_on = _tail(_D_COMPUTED_ON, iri(result.dataset))
            on_endpoint = _tail(_T_ENDPOINT, iri(endpoint))
            for outcome in result.outcomes:
                metric = measurement_of(_METRIC_QUERY + outcome.query_id)
                m = f"<{_MEASURE}query:{pair}:{outcome.query_id}>"
                lines.update(
                    (
                        m + _IS_MEASUREMENT,
                        m + computed_on,
                        m + metric,
                        m + on_endpoint,
                        m + (_TRUE if outcome.success else _FALSE),
                    )
                )
                if outcome.failure is not None:
                    lines.add(m + _FAILURE[outcome.failure])
            for kind, prefix, scores in (
                ("question", _METRIC_QUESTION, result.question_scores),
                ("node", _METRIC_NODE, result.node_scores),
            ):
                for key, score in scores.items():
                    metric = measurement_of(prefix + key)
                    tails = scores_out.get(score)
                    if tails is None:
                        decimal = Literal(f"{float(score):.6f}", datatype=_XSD_DECIMAL)
                        tails = scores_out[score] = (
                            _tail(_D_VALUE, format_term(decimal)),
                            _tail(_T_EXACT, format_term(Literal(str(score)))),
                        )
                    m = f"<{_MEASURE}{kind}:{pair}:{key}>"
                    lines.update(
                        (
                            m + _IS_MEASUREMENT,
                            m + computed_on,
                            m + metric,
                            m + on_endpoint,
                            m + tails[0],
                            m + tails[1],
                        )
                    )
    lines.update(iris[value] + _IS_METRIC for value in metrics)
    # Sort whole lines, never terms: "-", "." and the digits sort below
    # ">", so the line of <...:collection.how> precedes that of
    # <...:collection> although the bare strings sort the other way.
    # The three report lines keep the text from being empty.
    return "\n".join(sorted(lines)) + "\n"


def _only_object(g: Graph, subject: Iri, predicate: Iri) -> Term:
    objects = [t.object for t in g.match(subject, predicate, None)]
    if len(objects) != 1:
        raise ValueError(
            f"expected exactly one value of <{predicate.value}> "
            f"on <{subject.value}>, found {len(objects)}"
        )
    return objects[0]


def from_dqv(text: str, catalog: Catalog) -> Report:
    """Rebuild a report from its DQV export (N-Triples text), verifying
    the aggregation.

    Node and question scores in the export are checked against scores
    recomputed from the query outcomes; any disagreement is an error.
    """
    g = parse_ntriples(text)
    generated_at = _literal_value(_only_object(g, REPORT_NODE, _T_GENERATED))
    version = _literal_value(_only_object(g, REPORT_NODE, _T_VERSION))
    digest = _literal_value(_only_object(g, REPORT_NODE, _T_HASH))
    if digest != catalog.content_hash():
        raise ValueError(
            "the report was produced with a different catalog "
            f"(hash {digest[:12]}…, expected {catalog.content_hash()[:12]}…)"
        )

    outcomes: dict[tuple[str, str], list[QueryOutcome]] = {}
    stored: dict[tuple[str, str], dict[str, Fraction]] = {}
    for triple in g.match(None, _D_MEASUREMENT_OF, None):
        measure = triple.subject
        metric = triple.object
        if not isinstance(metric, Iri) or not isinstance(measure, Iri):
            continue
        endpoint = _iri_value(_only_object(g, measure, _T_ENDPOINT))
        dataset = _iri_value(_only_object(g, measure, _D_COMPUTED_ON))
        key = (endpoint, dataset)
        if metric.value.startswith(_METRIC_QUERY):
            query_id = metric.value[len(_METRIC_QUERY):]
            value = _literal_value(_only_object(g, measure, _D_VALUE))
            success = value == "true"
            failure = None
            failures = list(g.match(measure, _T_FAILURE, None))
            if failures:
                failure = FailureKind(_literal_value(failures[0].object))
            outcomes.setdefault(key, []).append(QueryOutcome(query_id, success, failure))
        elif metric.value.startswith(_METRIC_QUESTION) or metric.value.startswith(
            _METRIC_NODE
        ):
            prefix = (
                _METRIC_QUESTION
                if metric.value.startswith(_METRIC_QUESTION)
                else _METRIC_NODE
            )
            exact = Fraction(_literal_value(_only_object(g, measure, _T_EXACT)))
            stored.setdefault(key, {})[metric.value[len(prefix):]] = exact

    results: dict[str, list[DatasetResult]] = {}
    for (endpoint, dataset), outs in sorted(outcomes.items()):
        result = build_result(catalog, dataset, outs)
        recomputed = dict(result.question_scores)
        recomputed.update(result.node_scores)
        for key, exact in stored.get((endpoint, dataset), {}).items():
            if recomputed.get(key) != exact:
                raise ValueError(
                    f"stored score for {key} on <{dataset}> is {exact}, "
                    f"but the outcomes yield {recomputed.get(key)}"
                )
        results.setdefault(endpoint, []).append(result)
    return Report(
        catalog_version=version,
        catalog_hash=digest,
        generated_at=generated_at,
        results={endpoint: tuple(rs) for endpoint, rs in results.items()},
    )


def _literal_value(term: Term) -> str:
    if not isinstance(term, Literal):
        raise ValueError(f"expected a literal, found {term!r}")
    return term.lexical


def _iri_value(term: Term) -> str:
    if not isinstance(term, Iri):
        raise ValueError(f"expected an IRI, found {term!r}")
    return term.value


# ---------------------------------------------------------------------------
# JSON


def to_json(report: Report, catalog: Catalog) -> str:
    """Canonical JSON: keys sorted, scores as fraction, decimal and percent."""

    def score_obj(score: Fraction) -> dict:
        return {
            "fraction": str(score),
            "decimal": float(score),
            "percent": format_percent(score),
        }

    best_map = report.best_per_endpoint()
    endpoints: dict[str, dict] = {}
    for endpoint, results in report.results.items():
        datasets = {}
        for result in results:
            entry = {
                "score": score_obj(result.score),
                "nodes": {k: score_obj(v) for k, v in result.node_scores.items()},
                "questions": {
                    k: score_obj(v) for k, v in result.question_scores.items()
                },
                "queries": {
                    o.query_id: (
                        {"success": True}
                        if o.success
                        else {"success": False, "failure": o.failure.value}
                    )
                    for o in result.outcomes
                },
            }
            if result.trace is not None:
                entry["saturation"] = {
                    "input": result.trace.input_size,
                    "output": result.trace.output_size,
                    "derived": result.trace.derived,
                }
            datasets[result.dataset] = entry
        endpoints[endpoint] = {"best": best_map[endpoint].dataset, "datasets": datasets}
    aggregates = {
        population: {
            node: {name: score_obj(value) for name, value in stats.items()}
            for node, stats in node_aggregates(
                report, catalog, population=population
            ).items()
        }
        for population in ("datasets", "best")
    }
    runs = [
        {
            "endpoint": rr.endpoint,
            "run": rr.run,
            "timestamp": rr.timestamp,
            "available": rr.available,
            "scores": {dataset: score_obj(score) for dataset, score in rr.scores},
            "errors": [{"stage": stage, "kind": kind} for stage, kind in rr.errors],
        }
        for rr in report.runs
    ]
    doc = {
        "catalog": {"version": report.catalog_version, "hash": report.catalog_hash},
        "generated_at": report.generated_at,
        "endpoints": endpoints,
        "aggregates": aggregates,
        "runs": runs,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# CSV


def csv_columns(catalog: Catalog) -> list[str]:
    steps = [step.id for step in catalog.steps()]
    leaves = [leaf.id for leaf in catalog.leaves()]
    return ["endpoint", "dataset", "global"] + steps + leaves


def to_csv(report: Report, catalog: Catalog) -> str:
    """One row per endpoint/dataset pair; scores as exact fraction strings."""
    columns = csv_columns(catalog)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(columns)
    for endpoint, result in report.rows():
        row = [endpoint, result.dataset, str(result.score)]
        row += [str(result.node_scores[c]) for c in columns[3:]]
        writer.writerow(row)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Aggregates


def boxplot_stats(
    values: Iterable[Fraction],
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """(min, q1, median, q3, max) with linear quantile interpolation.

    Quantile q sits at rank h = (n - 1) * q; non-integer ranks interpolate
    between the neighbouring order statistics, all in exact arithmetic.
    """
    data = sorted(Fraction(v) for v in values)
    if not data:
        raise ValueError("boxplot needs at least one value")

    def quantile(q: Fraction) -> Fraction:
        h = (len(data) - 1) * q
        lo = math.floor(h)
        frac = h - lo
        if frac == 0:
            return data[lo]
        return data[lo] + frac * (data[lo + 1] - data[lo])

    return (
        data[0],
        quantile(Fraction(1, 4)),
        quantile(Fraction(1, 2)),
        quantile(Fraction(3, 4)),
        data[-1],
    )


def node_aggregates(
    report: Report, catalog: Catalog, *, population: str = "datasets"
) -> dict[str, dict[str, Fraction]]:
    """Mean/min/quartiles/max of every node's score across a population.

    ``population`` picks the rows: "datasets" covers every audited dataset,
    "best" only each endpoint's best one.  Empty reports aggregate to an
    empty mapping.
    """
    if population == "datasets":
        results = [result for _, result in report.rows()]
    elif population == "best":
        results = list(report.best_per_endpoint().values())
    else:
        raise ValueError(f"unknown population {population!r}")
    aggregates: dict[str, dict[str, Fraction]] = {}
    if not results:
        return aggregates
    for node_id in catalog.node_ids():
        values = [result.node_scores[node_id] for result in results]
        low, q1, median, q3, high = boxplot_stats(values)
        aggregates[node_id] = {
            "mean": sum(values, Fraction(0)) / len(values),
            "min": low,
            "q1": q1,
            "median": median,
            "q3": q3,
            "max": high,
        }
    return aggregates


# ---------------------------------------------------------------------------
# Figures


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


_STEP_FILLS = ("#4e79a7", "#f28e2b", "#59a14f")


def bars_figure(report: Report, catalog: Catalog) -> tuple[str, str]:
    """Stacked bars: each endpoint's best dataset, one segment per step.

    Every segment is step/|steps| wide so the segments add up to the
    global score on a 0..1 axis.
    """
    steps = [step.id for step in catalog.steps()]
    best = report.best_per_endpoint()
    order = sorted(best)

    lines = ["endpoint\tdataset\tnode\tfraction\tdecimal"]
    for endpoint in order:
        result = best[endpoint]
        for node in ["root"] + steps:
            score = result.node_scores[node]
            lines.append(
                f"{endpoint}\t{result.dataset}\t{node}\t{score}\t{float(score):.6f}"
            )
    tsv = "\n".join(lines) + "\n"

    row_h, gap, label_w, plot_w = 22, 8, 260, 420
    height = gap + len(order) * (row_h + gap) + 30
    body = []
    for idx, endpoint in enumerate(order):
        result = best[endpoint]
        y = gap + idx * (row_h + gap)
        body.append(
            f'<text x="{label_w - 8}" y="{_fmt(y + row_h * 0.72)}" '
            f'text-anchor="end" font-size="11">{_escape(endpoint)}</text>'
        )
        x = float(label_w)
        for step_id, fill in zip(steps, _STEP_FILLS):
            w = float(result.node_scores[step_id] / len(steps)) * plot_w
            if w > 0:
                body.append(
                    f'<rect x="{_fmt(x)}" y="{y}" width="{_fmt(w)}" '
                    f'height="{row_h}" fill="{fill}"/>'
                )
            x += w
    axis_y = gap + len(order) * (row_h + gap) + 4
    body.append(
        f'<line x1="{label_w}" y1="{axis_y}" x2="{label_w + plot_w}" '
        f'y2="{axis_y}" stroke="#333"/>'
    )
    for tick in (0, 25, 50, 75, 100):
        x = label_w + plot_w * tick / 100
        body.append(
            f'<text x="{_fmt(x)}" y="{axis_y + 14}" text-anchor="middle" '
            f'font-size="10">{tick}%</text>'
        )
    return tsv, _svg(label_w + plot_w + 20, height, body)


def radar_figure(
    a: DatasetResult, b: DatasetResult, catalog: Catalog
) -> tuple[str, str]:
    """Radar over the steps and the usage leaves for two datasets."""
    axes = [step.id for step in catalog.steps()]
    axes += [leaf.id for leaf in catalog.leaves() if leaf.id.startswith("usage.")]

    lines = ["axis\t" + a.dataset + "\t" + b.dataset]
    for axis in axes:
        lines.append(
            f"{axis}\t{float(a.node_scores[axis]):.6f}\t{float(b.node_scores[axis]):.6f}"
        )
    tsv = "\n".join(lines) + "\n"

    size, cx, cy, radius = 360, 180.0, 180.0, 140.0
    body = []
    for ring in (0.25, 0.5, 0.75, 1.0):
        body.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius * ring)}" '
            'fill="none" stroke="#ddd"/>'
        )

    def point(index: int, value: float) -> tuple[float, float]:
        angle = -math.pi / 2 + 2 * math.pi * index / len(axes)
        return cx + radius * value * math.cos(angle), cy + radius * value * math.sin(angle)

    for index, axis in enumerate(axes):
        x, y = point(index, 1.08)
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="middle" '
            f'font-size="9">{_escape(axis)}</text>'
        )
        x, y = point(index, 1.0)
        body.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(x)}" y2="{_fmt(y)}" '
            'stroke="#eee"/>'
        )
    for result, color in ((a, "#4e79a7"), (b, "#e15759")):
        points = " ".join(
            "{},{}".format(*map(_fmt, point(i, float(result.node_scores[axis]))))
            for i, axis in enumerate(axes)
        )
        body.append(
            f'<polygon points="{points}" fill="{color}" fill-opacity="0.25" '
            f'stroke="{color}"/>'
        )
    return tsv, _svg(size, size, body)


def boxplot_figure(report: Report, catalog: Catalog) -> tuple[str, str]:
    """Box stats of every hierarchy node over all audited datasets.

    The TSV carries all nodes; the SVG draws the root and the steps, which
    is where the spread is usually read.
    """
    results = [result for _, result in report.rows()]
    per_node: dict[str, tuple[Fraction, ...]] = {}
    lines = ["node\tstat\tfraction\tdecimal"]
    for node_id in catalog.node_ids():
        stats = boxplot_stats(result.node_scores[node_id] for result in results)
        per_node[node_id] = stats
        for name, value in zip(("min", "q1", "median", "q3", "max"), stats):
            lines.append(f"{node_id}\t{name}\t{value}\t{float(value):.6f}")
    tsv = "\n".join(lines) + "\n"

    shown = ["root"] + [step.id for step in catalog.steps()]
    row_h, gap, label_w, plot_w, pad = 40, 12, 130, 360, 10
    height = gap + len(shown) * (row_h + gap) + 26
    left = label_w + pad

    def x(v: Fraction) -> float:
        return left + float(v) * plot_w

    body = []
    for idx, node_id in enumerate(shown):
        low, q1, median, q3, high = per_node[node_id]
        mid = gap + idx * (row_h + gap) + row_h / 2
        box_h = row_h - 12.0
        body.append(
            f'<text x="{label_w - 6}" y="{_fmt(mid + 4)}" text-anchor="end" '
            f'font-size="11">{_escape(node_id)}</text>'
        )
        body.append(
            f'<line x1="{_fmt(x(low))}" y1="{_fmt(mid)}" x2="{_fmt(x(q1))}" '
            f'y2="{_fmt(mid)}" stroke="#333"/>'
        )
        body.append(
            f'<line x1="{_fmt(x(q3))}" y1="{_fmt(mid)}" x2="{_fmt(x(high))}" '
            f'y2="{_fmt(mid)}" stroke="#333"/>'
        )
        body.append(
            f'<rect x="{_fmt(x(q1))}" y="{_fmt(mid - box_h / 2)}" '
            f'width="{_fmt(max(x(q3) - x(q1), 0.5))}" height="{_fmt(box_h)}" '
            'fill="#a0cbe8" stroke="#333"/>'
        )
        body.append(
            f'<line x1="{_fmt(x(median))}" y1="{_fmt(mid - box_h / 2)}" '
            f'x2="{_fmt(x(median))}" y2="{_fmt(mid + box_h / 2)}" '
            'stroke="#333" stroke-width="2"/>'
        )
        for whisker in (low, high):
            body.append(
                f'<line x1="{_fmt(x(whisker))}" y1="{_fmt(mid - 8)}" '
                f'x2="{_fmt(x(whisker))}" y2="{_fmt(mid + 8)}" stroke="#333"/>'
            )
    axis_y = gap + len(shown) * (row_h + gap) + 4
    body.append(
        f'<line x1="{left}" y1="{axis_y}" x2="{_fmt(left + plot_w)}" '
        f'y2="{axis_y}" stroke="#333"/>'
    )
    for tick in (0, 25, 50, 75, 100):
        tx = left + plot_w * tick / 100
        body.append(
            f'<text x="{_fmt(tx)}" y="{axis_y + 14}" text-anchor="middle" '
            f'font-size="10">{tick}%</text>'
        )
    return tsv, _svg(left + plot_w + 20, height, body)


def figure_files(
    report: Report,
    catalog: Catalog,
    *,
    radar: tuple[str, str] | None = None,
) -> dict[str, str]:
    """All figure artifacts as filename -> content.

    ``radar`` names the two datasets to compare; by default the two
    best-scoring ones are picked, and the radar is skipped when the report
    holds fewer than two datasets.
    """
    out: dict[str, str] = {}
    tsv, svg = bars_figure(report, catalog)
    out["bars.tsv"], out["bars.svg"] = tsv, svg
    tsv, svg = boxplot_figure(report, catalog)
    out["boxplot.tsv"], out["boxplot.svg"] = tsv, svg
    if radar is not None:
        by_id = {result.dataset: result for _, result in report.rows()}
        missing = [dataset for dataset in radar if dataset not in by_id]
        if missing:
            raise ValueError(f"dataset {missing[0]} is not in the report")
        pair = [by_id[dataset] for dataset in radar]
    else:
        pair = sorted(
            (result for _, result in report.rows()),
            key=lambda r: (-r.score, r.dataset),
        )[:2]
    if len(pair) >= 2:
        tsv, svg = radar_figure(pair[0], pair[1], catalog)
        out["radar.tsv"], out["radar.svg"] = tsv, svg
    return out


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
