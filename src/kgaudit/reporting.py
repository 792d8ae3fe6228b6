"""Report assembly and export: DQV N-Triples, JSON, CSV, figure files.

A report is the durable outcome of an audit: catalog identity, one
timestamp (the newest run), and per endpoint the scored datasets.  All
exports are deterministic byte-for-byte, so replaying a recorded campaign
reproduces identical files.

The DQV export is lossless: every query outcome and every node score goes
out as a quality measurement, and scores carry their exact fraction next
to the rounded decimal.  :func:`dqv_blocks` formats the N-Triples lines
straight from the report, without building a graph, one block of lines
per subject with each measurement's lines in a fixed predicate order;
sorting the subjects alone then gives the sorted line order, since no
subject IRI is a prefix of another.  :func:`to_dqv` returns the text,
those blocks joined, and the CLI writes the same blocks to ``report.nt``
as they are formed.

The export is write-only: no command reads DQV back.  ``report.nt`` is
plain N-Triples that any RDF library reads.  The reference reader, which
checks that nothing is lost and refuses tampered exports, lives with the
tests (``tests/helpers.py``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .catalog import Catalog
from .rdf import RDF_TYPE, XSD, Iri, Literal, _Record, _new_tuple, format_term
from .scoring import DatasetResult, FailureKind, format_percent

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


class RunRecord(NamedTuple):
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


class _Report(NamedTuple):
    catalog_version: str
    catalog_hash: str
    generated_at: str
    results: Mapping[str, tuple[DatasetResult, ...]]


class Report(_Record, _Report):
    """Everything one audit produced, ready for export.

    ``runs`` is provenance, not measurement: it is no field, so it takes
    no part in equality, hash or repr, and a report read back from its DQV
    export compares equal when it carries the same results.  An endpoint
    lists each dataset once: a dataset listed twice under one endpoint
    raises ``ValueError``, from ``_replace`` too.
    """

    def __new__(
        cls,
        catalog_version: str,
        catalog_hash: str,
        generated_at: str,
        results: Mapping[str, tuple[DatasetResult, ...]],
        runs: tuple[RunRecord, ...] = (),
    ) -> "Report":
        for endpoint, listed in results.items():
            seen: set[str] = set()
            for result in listed:
                if result.dataset in seen:
                    raise ValueError(
                        f"endpoint {endpoint!r} lists dataset {result.dataset!r} twice"
                    )
                seen.add(result.dataset)
        self = _new_tuple(cls, (catalog_version, catalog_hash, generated_at, results))
        self.runs = runs
        return self

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
    """The part of an N-Triples line after its subject, line break included."""
    return f" {format_term(predicate)} {obj} .\n"


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

    The text is the blocks of :func:`dqv_blocks`, joined.
    """
    return "".join(dqv_blocks(report, catalog))


def dqv_blocks(report: Report, catalog: Catalog) -> Iterator[str]:
    """The lines of :func:`to_dqv`, one block of lines per subject, in order.

    Lines are formatted straight from the report.  Each subject keeps its
    block as a tuple of line tails (what follows the subject), most of
    them strings shared by many blocks, and a block's text is formed only
    when it is yielded, so a writer can write each block as it comes.
    Only the subjects are sorted.  That yields the sorted line order
    because every subject is an IRI in angle brackets and no IRI holds
    ``>``: no subject is a prefix of another, so two lines of different
    subjects differ first within the shorter subject and compare as their
    subjects do.  Within a block a measurement's tails go out in the
    order of their predicate IRIs (``rdf:type``, ``dqv:computedOn``,
    ``dqv:isMeasurementOf``, ``dqv:value``, then the tool's ``endpoint``
    and ``exactValue`` or ``failureKind``), which is their sorted order
    since no predicate repeats.

    Every distinct endpoint, dataset and metric IRI goes through
    :class:`Iri` once, before the first block is yielded, so a value that
    makes no valid IRI raises ``ValueError`` then.  Metric IRIs are
    declared only when some measurement references them, so an empty
    report exports nothing beyond its own metadata.
    """
    report_node = format_term(REPORT_NODE)
    blocks: dict[str, tuple[str, ...]] = {  # subject -> its tails
        report_node: tuple(
            sorted(
                _tail(predicate, format_term(Literal(value)))
                for predicate, value in (
                    (_T_GENERATED, report.generated_at),
                    (_T_VERSION, report.catalog_version),
                    (_T_HASH, report.catalog_hash),
                )
            )
        )
    }
    iris: dict[str, str] = {}
    metrics: dict[str, str] = {}  # metric IRI -> its isMeasurementOf tail
    # (numerator, denominator) of a score -> its value and exactValue tails;
    # the pair hashes in C, a Fraction in Python
    scores_out: dict[tuple[int, int], tuple[str, str]] = {}

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
                if outcome.success:
                    block = (_IS_MEASUREMENT, computed_on, metric, _TRUE, on_endpoint)
                else:
                    block = (
                        _IS_MEASUREMENT, computed_on, metric, _FALSE, on_endpoint,
                        _FAILURE[outcome.failure],
                    )
                blocks[m] = block
            for kind, prefix, scores in (
                ("question", _METRIC_QUESTION, result.question_scores),
                ("node", _METRIC_NODE, result.node_scores),
            ):
                for key, score in scores.items():
                    metric = measurement_of(prefix + key)
                    score_key = (score.numerator, score.denominator)
                    tails = scores_out.get(score_key)
                    if tails is None:
                        decimal = Literal(f"{float(score):.6f}", datatype=_XSD_DECIMAL)
                        tails = scores_out[score_key] = (
                            _tail(_D_VALUE, format_term(decimal)),
                            _tail(_T_EXACT, format_term(Literal(str(score)))),
                        )
                    m = f"<{_MEASURE}{kind}:{pair}:{key}>"
                    block = (_IS_MEASUREMENT, computed_on, metric, tails[0], on_endpoint, tails[1])
                    blocks[m] = block
    for value in metrics:
        blocks[iris[value]] = (_IS_METRIC,)
    # Sort subjects with their closing ">": "-", "." and the digits sort
    # below it, so <...:collection.how> and its lines precede
    # <...:collection>, although the bare names sort the other way.  The
    # report block keeps the text from being empty.
    for subject in sorted(blocks):
        yield subject + subject.join(blocks[subject])


# ---------------------------------------------------------------------------
# JSON


def to_json(report: Report, catalog: Catalog) -> str:
    """Canonical JSON: keys sorted, scores as fraction, decimal and percent.

    The text is what ``json.dumps(doc, sort_keys=True, indent=2)`` makes
    of the document, written by :func:`_indented_json`: each score and
    each kind of query outcome is one shared dict, rendered once per depth.
    """

    # A report holds few distinct scores, so each is rendered once.  They
    # are looked up by numerator and denominator, which hash in C.
    rendered: dict[tuple[int, int], dict] = {}

    def score_obj(score: Fraction) -> dict:
        key = (score.numerator, score.denominator)
        obj = rendered.get(key)
        if obj is None:
            obj = rendered[key] = {
                "fraction": str(score),
                "decimal": float(score),
                "percent": format_percent(score),
            }
        return obj

    success = {"success": True}
    failures = {kind: {"success": False, "failure": kind.value} for kind in FailureKind}
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
                    o.query_id: success if o.success else failures[o.failure]
                    for o in result.outcomes
                },
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
    return _indented_json(doc) + "\n"


def _indented_json(doc: object) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` for a document of
    dicts with str keys, lists, tuples, str, int, float, bool and None.

    NaN and the infinities raise ValueError, other keys and values
    TypeError.  A dict that holds no dict or list is rendered once per
    depth however often the document holds that very object.
    """
    out: list[str] = []
    _write_json(doc, 0, out, {}, [])
    return "".join(out)


def _write_json(
    value: object,
    depth: int,
    out: list[str],
    flat: dict[tuple[int, int], str],
    layouts: list[tuple[str, str, str, str, str]],
) -> None:
    """Append the text of ``value`` at ``depth`` to ``out``.

    ``flat`` holds the text of each dict of scalars by (id, depth).
    ``layouts`` holds, per depth, the texts that open a dict's and a
    list's members, go between two members, and close a dict and a list:
    built once and reused.
    """
    while len(layouts) <= depth:
        inner = "\n" + "  " * (len(layouts) + 1)
        outer = "\n" + "  " * len(layouts)
        layouts.append(("{" + inner, "[" + inner, "," + inner, outer + "}", outer + "]"))
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        text = flat.get((id(value), depth))
        if text is not None:
            out.append(text)
            return
        open_dict, _, between, close_dict, _ = layouts[depth]
        items = sorted(value.items())
        if not any(isinstance(v, (dict, list, tuple)) for v in value.values()):
            members = between.join(_json_str(k) + ": " + _json_scalar(v) for k, v in items)
            text = flat[id(value), depth] = open_dict + members + close_dict
            out.append(text)
            return
        separator = open_dict
        for k, v in items:
            out.append(separator)
            out.append(_json_str(k))
            out.append(": ")
            _write_json(v, depth + 1, out, flat, layouts)
            separator = between
        out.append(close_dict)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        _, open_list, between, _, close_list = layouts[depth]
        separator = open_list
        for v in value:
            out.append(separator)
            _write_json(v, depth + 1, out, flat, layouts)
            separator = between
        out.append(close_list)
    else:
        out.append(_json_scalar(value))


def _json_scalar(value: object) -> str:
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value or value in (math.inf, -math.inf):
            raise ValueError(f"out of range float value for JSON: {value!r}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    return _boxplot(*_over_common_denominator(values))


def _over_common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The values' numerators over their least common denominator, sorted,
    and that denominator: sorting and summing integers costs no
    ``Fraction`` arithmetic."""
    ratios = [value.as_integer_ratio() for value in values]
    if not ratios:
        raise ValueError("boxplot needs at least one value")
    denominator = math.lcm(*{d for _, d in ratios})
    return sorted(n * (denominator // d) for n, d in ratios), denominator


def _boxplot(
    numerators: list[int], denominator: int
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """:func:`boxplot_stats` of the sorted ``numerators`` over ``denominator``."""

    def quartile(k: int) -> Fraction:
        # rank (n - 1) * k / 4 = lo + rest / 4
        lo, rest = divmod((len(numerators) - 1) * k, 4)
        if not rest:
            return Fraction(numerators[lo], denominator)
        low, high = numerators[lo], numerators[lo + 1]
        return Fraction(4 * low + rest * (high - low), 4 * denominator)

    return (
        Fraction(numerators[0], denominator),
        quartile(1),
        quartile(2),
        quartile(3),
        Fraction(numerators[-1], denominator),
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
        numerators, denominator = _over_common_denominator(
            result.node_scores[node_id] for result in results
        )
        low, q1, median, q3, high = _boxplot(numerators, denominator)
        aggregates[node_id] = {
            "mean": Fraction(sum(numerators), denominator * len(numerators)),
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
