"""Spans around the program's layer boundaries, recorded from outside it.

The tracer replaces public functions at the module attributes their
callers look up (``kgaudit.scoring.saturate_traced``,
``kgaudit.client.evaluate_graph``, ``TranscriptTransport.query`` ...) with
wrappers that record a span: name, start, end, parent span and trace id.
A thread-local stack supplies the parent; each endpoint-run
(``client.audit_run``) starts a trace of its own.  Spans stay in memory
and are written out once the command has finished.

Refactors move and rename functions.  A wrap point that no longer exists
is reported as absent and the run carries on, so its metrics read zero
instead of the benchmark crashing.  When a wrapped function calls another
wrapped function of the same span name (``saturate`` calling
``saturate_traced``), the outer call records the span and the inner one
runs the counting hook: the inner call sees the richer result (a
``SaturationTrace`` with its passes), and the outer hook then stays quiet
so nothing is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

# The client functions a transport request is attributed to, by span name.
STAGES = {
    "client.probe": "probe",
    "client.discovery": "discovery",
    "client.fetch": "fetch",
    "client.remote_ask": "remote_ask",
}
ERROR_KINDS = ("connection", "timeout", "http", "malformed")
TRACE_ROOTS = {"client.audit_run"}


def _count_parse(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["rdf.parse_triples"] += len(result)


def _count_serialize(tracer, args, kwargs, result, exc):
    if isinstance(result, str):
        tracer.counts["rdf.serialize_bytes"] += len(result.encode("utf-8"))


def _count_saturation(tracer, args, kwargs, result, exc):
    if result is None:
        return
    graph, trace = result if isinstance(result, tuple) else (result, None)
    source = args[0] if args else kwargs["graph"]
    tracer.counts["saturation.calls"] += 1
    tracer.counts["saturation.input_triples"] += len(source)
    tracer.counts["saturation.derived_triples"] += len(graph) - len(source)
    tracer.counts["saturation.passes"] += getattr(trace, "passes", 0)


def _count_evaluate_graph(tracer, args, kwargs, result, exc):
    graph = args[1] if len(args) > 1 else kwargs.get("graph")
    dataset = args[2] if len(args) > 2 else kwargs.get("dataset")
    tracer.counts["scoring.evaluate_graph_calls"] += 1
    tracer.distinct.add((getattr(dataset, "value", dataset), tracer.content_key(graph)))


def _count_query(tracer, args, kwargs, result, exc):
    stage = "other"
    for frame in reversed(tracer.stack()):
        if frame[1] in STAGES:
            stage = STAGES[frame[1]]
            break
    tracer.counts[f"transport.requests.{stage}"] += 1
    if isinstance(result, list):
        tracer.counts["transport.rows"] += len(result)
    kind = getattr(exc, "kind", None)
    if kind is not None:
        tracer.counts[f"transport.errors.{kind}"] += 1


def _counter(name):
    def hook(tracer, args, kwargs, result, exc):
        tracer.counts[name] += 1

    return hook


# (span name, module, attribute, hook).  Several attributes share a span
# name where callers import the same function under different modules.
POINTS = (
    ("cli", "kgaudit.cli", "main", None),
    ("rdf.parse", "kgaudit.rdf", "parse_ntriples", _count_parse),
    ("rdf.parse", "kgaudit.rdf", "parse_turtle", _count_parse),
    ("rdf.parse", "kgaudit.transport", "parse_ntriples", _count_parse),
    ("rdf.parse", "kgaudit.client", "parse_ntriples", _count_parse),
    ("rdf.serialize", "kgaudit.cli", "serialize_ntriples", _count_serialize),
    ("rdf.serialize", "kgaudit.client", "serialize_ntriples", _count_serialize),
    ("saturation", "kgaudit.saturation", "saturate_traced", _count_saturation),
    ("saturation", "kgaudit.saturation", "saturate", _count_saturation),
    ("saturation", "kgaudit.scoring", "saturate_traced", _count_saturation),
    ("saturation", "kgaudit.cli", "saturate", _count_saturation),
    ("sparql.ask", "kgaudit.scoring", "eval_ask", _counter("sparql.ask_calls")),
    ("sparql.format", "kgaudit.client", "format_query", None),
    ("sparql.format", "kgaudit.cli", "format_query", None),
    ("catalog.expand", "kgaudit.client", "expand_extended", _counter("catalog.expand_calls")),
    ("catalog.expand", "kgaudit.cli", "expand_extended", _counter("catalog.expand_calls")),
    ("scoring.evaluate_graph", "kgaudit.client", "evaluate_graph", _count_evaluate_graph),
    ("scoring.evaluate_graph", "kgaudit.cli", "evaluate_graph", _count_evaluate_graph),
    ("scoring.build_result", "kgaudit.scoring", "build_result", None),
    ("scoring.build_result", "kgaudit.client", "build_result", None),
    ("transport.load", "kgaudit.transport", "TranscriptTransport.__init__", None),
    ("transport.query", "kgaudit.transport", "TranscriptTransport.query", _count_query),
    ("client.throttle", "kgaudit.client", "ThrottledTransport.query", None),
    ("client.campaign", "kgaudit.cli", "run_campaign", None),
    ("client.audit_run", "kgaudit.client", "audit_run", _counter("client.endpoint_runs")),
    ("client.probe", "kgaudit.client", "probe", None),
    ("client.discovery", "kgaudit.client", "discover_datasets", None),
    ("client.discovery", "kgaudit.cli", "discover_datasets", None),
    ("client.fetch", "kgaudit.client", "fetch_metadata", None),
    ("client.remote_ask", "kgaudit.client", "evaluate_remote", None),
    ("client.remote_ask", "kgaudit.cli", "evaluate_remote", None),
    ("client.merge", "kgaudit.client", "merge_runs", None),
    ("client.journal_load", "kgaudit.client", "Journal.load", None),
    ("client.journal_append", "kgaudit.client", "Journal.append", _counter("client.journal_append_calls")),
    ("reporting.build_report", "kgaudit.client", "build_report", None),
    ("reporting.build_report", "kgaudit.cli", "build_report", None),
    ("reporting.to_json", "kgaudit.cli", "to_json", None),
    ("reporting.to_csv", "kgaudit.cli", "to_csv", None),
    ("reporting.to_dqv", "kgaudit.cli", "to_dqv", None),
    ("reporting.figures", "kgaudit.cli", "figure_files", None),
)

# Per-layer metrics that are exact counts: they must repeat across runs of
# one seed.  Everything else in a summary is a timing.
COUNT_METRICS = (
    ["rdf.parse_triples", "rdf.serialize_bytes"]
    + [f"saturation.{n}" for n in ("calls", "input_triples", "derived_triples", "passes")]
    + ["sparql.ask_calls", "catalog.expand_calls"]
    + ["scoring.evaluate_graph_calls", "scoring.distinct_graphs", "scoring.useful_share"]
    + [f"transport.requests.{s}" for s in (*STAGES.values(), "other")]
    + ["transport.rows"] + [f"transport.errors.{k}" for k in ERROR_KINDS]
    + ["client.journal_append_calls", "requests_per_endpoint_run", "requests_per_dataset"]
)


class Tracer:
    """Spans and counts of one command, collected by the installed wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, trace id, name, start, end)
        self.counts: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.distinct: set = set()
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._content_keys: dict[int, tuple] = {}

    def stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def content_key(self, graph):
        """A key equal for graphs with equal triples, computed once per object."""
        entry = self._content_keys.get(id(graph))
        if entry is None or entry[0] is not graph:
            entry = self._content_keys[id(graph)] = (graph, frozenset(graph))
        return entry[1]

    def install(self) -> None:
        for name, module, attribute, hook in POINTS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                self.absent.append(f"{module}.{attribute}")
                continue
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{module}.{attribute}")
                continue
            setattr(owner, leaf, self.wrap(name, fn, hook))

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            if stack and stack[-1][1] == name:
                return tracer.nested(stack[-1], fn, hook, args, kwargs)
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            trace = parent[2] if parent and name not in TRACE_ROOTS else sid
            frame = [sid, name, trace, False]  # the last item: a nested call ran the hook
            stack.append(frame)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent and parent[0], trace, name, start, end))
                tracer.durations[name].append(end - start)
                if hook is not None and not frame[3]:
                    hook(tracer, args, kwargs, result, exc)

        return wrapper

    def nested(self, frame, fn, hook, args, kwargs):
        """A call inside a span of its own name: no span, but it runs the hook."""
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as error:
            exc = error
            raise
        finally:
            if hook is not None:
                frame[3] = True
                hook(self, args, kwargs, result, exc)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        children: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            totals[name] += (end - start) - children[sid]
        return totals

    def summary(self, datasets: int) -> dict[str, float]:
        """Every per-layer metric of one repetition, by name."""
        s = self.self_times()
        c = self.counts
        requests = sum(c[f"transport.requests.{stage}"] for stage in (*STAGES.values(), "other"))
        out = {
            "rdf.parse_s": s["rdf.parse"],
            "rdf.parse_triples": c["rdf.parse_triples"],
            "rdf.parse_us_per_triple": _ratio(s["rdf.parse"] * 1e6, c["rdf.parse_triples"]),
            "rdf.serialize_s": s["rdf.serialize"],
            "rdf.serialize_bytes": c["rdf.serialize_bytes"],
            "saturation.calls": c["saturation.calls"],
            "saturation.s": s["saturation"],
            "saturation.input_triples": c["saturation.input_triples"],
            "saturation.derived_triples": c["saturation.derived_triples"],
            "saturation.passes": c["saturation.passes"],
            "saturation.us_per_input_triple": _ratio(
                s["saturation"] * 1e6, c["saturation.input_triples"]
            ),
            "sparql.ask_calls": c["sparql.ask_calls"],
            "sparql.ask_s": s["sparql.ask"],
            "sparql.format_s": s["sparql.format"],
            "catalog.expand_calls": c["catalog.expand_calls"],
            "catalog.expand_s": s["catalog.expand"],
            "scoring.evaluate_graph_calls": c["scoring.evaluate_graph_calls"],
            "scoring.distinct_graphs": len(self.distinct),
            "scoring.useful_share": _ratio(len(self.distinct), c["scoring.evaluate_graph_calls"]),
            "scoring.evaluate_graph_s": s["scoring.evaluate_graph"],
            "scoring.build_result_s": s["scoring.build_result"],
            "transport.load_s": s["transport.load"],
            "transport.query_s": s["transport.query"],
            "transport.query_ms.p50": _percentile(self.durations["transport.query"], 50) * 1e3,
            "transport.query_ms.p99": _percentile(self.durations["transport.query"], 99) * 1e3,
            "transport.rows": c["transport.rows"],
            "client.throttle_wait_s": s["client.throttle"],
            "client.audit_run_s.p50": _percentile(self.durations["client.audit_run"], 50),
            "client.audit_run_s.p90": _percentile(self.durations["client.audit_run"], 90),
            "client.campaign_s": s["client.campaign"],
            "client.fetch_s": s["client.fetch"],
            "client.merge_s": s["client.merge"],
            "client.journal_load_s": s["client.journal_load"],
            "client.journal_append_s": s["client.journal_append"],
            "client.journal_append_calls": c["client.journal_append_calls"],
            "reporting.build_report_s": s["reporting.build_report"],
            "reporting.to_json_s": s["reporting.to_json"],
            "reporting.to_csv_s": s["reporting.to_csv"],
            "reporting.to_dqv_s": s["reporting.to_dqv"],
            "reporting.figures_s": s["reporting.figures"],
            "cli.self_s": s["cli"],
            "requests_per_endpoint_run": _ratio(requests, c["client.endpoint_runs"]),
            "requests_per_dataset": _ratio(requests, datasets),
        }
        for stage in (*STAGES.values(), "other"):
            out[f"transport.requests.{stage}"] = c[f"transport.requests.{stage}"]
        for kind in ERROR_KINDS:
            out[f"transport.errors.{kind}"] = c[f"transport.errors.{kind}"]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, trace, name, start, end in self.spans:
                handle.write(json.dumps([sid, parent, trace, name, start, end]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
