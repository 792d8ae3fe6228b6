"""Reporting tests: DQV round trip, canonical JSON, CSV, figures, box stats."""

from __future__ import annotations

import hashlib
import json
import random
import re
import statistics
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
import yaml

from kgaudit.catalog import default_catalog, parse_catalog
from kgaudit.client import CampaignConfig, run_campaign
from kgaudit.rdf import RDF_TYPE, Iri, format_term, load_rdf, parse_ntriples, serialize_ntriples
from kgaudit.reporting import (
    _D_COMPUTED_ON,
    _D_MEASUREMENT_OF,
    _D_VALUE,
    _MEASURE,
    _T_ENDPOINT,
    _T_EXACT,
    _T_FAILURE,
    Report,
    _indented_json,
    bars_figure,
    boxplot_figure,
    boxplot_stats,
    build_report,
    csv_columns,
    dqv_blocks,
    figure_files,
    radar_figure,
    to_csv,
    to_json,
)
from kgaudit.scoring import (
    FailureKind,
    QueryOutcome,
    build_result,
    not_evaluated_result,
)
from kgaudit.transport import TranscriptTransport

from helpers import FIXTURES, default_catalog_doc, evaluate_graph, from_dqv, ref_to_dqv

CATALOG = default_catalog()


@pytest.fixture(scope="module")
def report() -> Report:
    full = evaluate_graph(
        CATALOG, load_rdf(str(FIXTURES / "accountable.nt")), Iri("http://example.org/kg/full")
    )
    sparse = evaluate_graph(
        CATALOG,
        load_rdf(str(FIXTURES / "publisher_only.nt")),
        Iri("http://example.org/kg/sparse"),
    )
    dead = not_evaluated_result(CATALOG, "http://dead.example.org/sparql")
    return build_report(
        CATALOG,
        {
            "http://example.org/sparql": [full, sparse],
            "http://dead.example.org/sparql": [dead],
        },
        "2024-05-03T10:00:00Z",
    )


def test_build_report_pins_catalog_identity(report):
    assert report.catalog_version == CATALOG.version
    assert report.catalog_hash == CATALOG.content_hash()
    assert isinstance(report.results["http://dead.example.org/sparql"], tuple)


def test_rows_and_best(report):
    rows = report.rows()
    assert [r.dataset for _, r in rows] == [
        "http://example.org/kg/full",
        "http://example.org/kg/sparse",
        "http://dead.example.org/sparql",
    ]
    best = report.best_per_endpoint()
    assert best["http://example.org/sparql"].dataset == "http://example.org/kg/full"


def test_best_breaks_ties_on_dataset_key():
    a = not_evaluated_result(CATALOG, "http://example.org/kg/b")
    b = not_evaluated_result(CATALOG, "http://example.org/kg/a")
    rep = build_report(CATALOG, {"http://e.org/": [a, b]}, "t")
    assert rep.best_per_endpoint()["http://e.org/"].dataset == "http://example.org/kg/a"


# ---------------------------------------------------------------------------
# DQV


def test_dqv_round_trip_is_exact(report):
    assert from_dqv("".join(dqv_blocks(report, CATALOG)), CATALOG) == report


def test_dqv_text_is_canonical_ntriples(report):
    text = "".join(dqv_blocks(report, CATALOG))
    assert serialize_ntriples(parse_ntriples(text)) == text


def test_dqv_refuses_other_catalog(report):
    text = "".join(dqv_blocks(report, CATALOG))
    doc = default_catalog_doc()
    doc["version"] = "9.9"
    other = parse_catalog(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match="different catalog"):
        from_dqv(text, other)


def test_dqv_refuses_tampered_scores(report):
    text = "".join(dqv_blocks(report, CATALOG))
    stored = ' <urn:kgaudit:v1:ns:exactValue> "1/30" .'
    victim = next(line for line in text.splitlines() if line.endswith(stored))
    tampered = text.replace(victim, victim.replace('"1/30"', '"29/30"'))
    with pytest.raises(ValueError, match="outcomes yield"):
        from_dqv(tampered, CATALOG)


def test_dqv_failure_kinds_round_trip(report):
    rebuilt = from_dqv("".join(dqv_blocks(report, CATALOG)), CATALOG)
    dead = rebuilt.results["http://dead.example.org/sparql"][0]
    assert {o.failure for o in dead.outcomes} == {FailureKind.NOT_EVALUATED}


def test_dqv_empty_report_is_metadata_only(report):
    empty = build_report(CATALOG, {}, "2024-01-01T00:00:00Z")
    assert "".join(dqv_blocks(empty, CATALOG)) == (
        '<urn:kgaudit:v1:report> <urn:kgaudit:v1:ns:catalogHash> '
        f'"{CATALOG.content_hash()}" .\n'
        '<urn:kgaudit:v1:report> <urn:kgaudit:v1:ns:catalogVersion> '
        f'"{CATALOG.version}" .\n'
        '<urn:kgaudit:v1:report> <urn:kgaudit:v1:ns:generatedAt> '
        '"2024-01-01T00:00:00Z" .\n'
    )


@pytest.mark.parametrize("endpoint", ["not a url", "http://e.org/a b"])
def test_dqv_refuses_an_invalid_endpoint_iri(endpoint):
    result = not_evaluated_result(CATALOG, "http://example.org/kg/a")
    rep = build_report(CATALOG, {endpoint: [result]}, "t")
    with pytest.raises(ValueError, match="IRI"):
        "".join(dqv_blocks(rep, CATALOG))


def test_dqv_refuses_a_key_that_makes_an_invalid_iri():
    result = not_evaluated_result(CATALOG, "http://example.org/kg/a")
    bad = result._replace(question_scores={"bad key": Fraction(0), **result.question_scores})
    rep = build_report(CATALOG, {"http://e.org/": [bad]}, "t")
    with pytest.raises(ValueError, match="forbidden character"):
        "".join(dqv_blocks(rep, CATALOG))


# Line count and SHA-256 of the report.nt text for the two reports below,
# recorded from the graph-building exporter that the direct writer
# replaced: any change to the exported bytes shows here.  Every pin that
# holds the catalog hash was taken again when the hash came to be made
# from canonical JSON; the earlier bytes with only the hash replaced
# gave the same pins.
CAMPAIGN_DQV = (1489, "b7f19a7e7da83d13a456cd49e844b92ddc491923fe058b7041892ebfc020fba7")
AWKWARD_DQV = (1010, "d55a9e12929c8f3e61dcf65f9ec8bb370be38aee4093742ccf0e341e834a4d1b")
# The same campaign's report.json, report.csv and sorted journal lines.
# The CSV was recorded while terms were still dataclasses; the JSON since
# journal records became per run and the saturation block went; the
# journal since its header moved to format 5 (the JSON-made catalog hash;
# only the header changed).
CAMPAIGN_JSON = (2328, "a976f60c1ad03395c82c77b1f9ec0211ff68c3d6b11b87e45bbf09158754e6f4")
CAMPAIGN_CSV = (4, "bd701e420649ea768d15efa75f483785e244b809de83eaa9c3d33d01159fad09")
CAMPAIGN_JOURNAL = (10, "0c3cc6536caf47e58fe8c16c019f6ab927e5fbc891c1882e6aab1232b17dce5c")


def _pin(text: str) -> tuple[int, str]:
    return text.count("\n"), hashlib.sha256(text.encode("utf-8")).hexdigest()


def _campaign_report(journal_path: str | None = None) -> Report:
    """The criterion-08 campaign: three endpoints, three runs, transcript-fed."""
    endpoints = [
        "http://example.org/sparql",
        "http://sparse.example.org/sparql",
        "http://dead.example.org/sparql",
    ]
    config = CampaignConfig(
        endpoints=endpoints,
        catalog=CATALOG,
        runs=3,
        delay=0.0,
        journal_path=journal_path,
        transport=TranscriptTransport(str(FIXTURES / "campaign.yaml")),
    )
    return run_campaign(config)


def test_dqv_bytes_of_the_campaign_report_are_pinned():
    assert _pin("".join(dqv_blocks(_campaign_report(), CATALOG))) == CAMPAIGN_DQV


def test_json_csv_and_journal_bytes_of_the_campaign_are_pinned(tmp_path):
    journal = tmp_path / "journal.jsonl"
    report = _campaign_report(str(journal))
    assert _pin(to_json(report, CATALOG)) == CAMPAIGN_JSON
    assert _pin(to_csv(report, CATALOG)) == CAMPAIGN_CSV
    # workers append in completion order, so only the sorted lines are stable
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    assert _pin("".join(sorted(lines))) == CAMPAIGN_JOURNAL


def test_dqv_bytes_of_an_awkward_report_are_pinned(report):
    # a not-evaluated endpoint row and report literals that need escaping
    full = report.results["http://example.org/sparql"][0]
    dead = report.results["http://dead.example.org/sparql"][0]
    awkward = build_report(
        CATALOG,
        {"http://example.org/sparql": [full], "http://dead.example.org/sparql": [dead]},
        'stamp "q" \\ back\nslash',
    )._replace(catalog_version='v"1\\0\n')
    text = "".join(dqv_blocks(awkward, CATALOG))
    assert _pin(text) == AWKWARD_DQV
    version = '<urn:kgaudit:v1:report> <urn:kgaudit:v1:ns:catalogVersion> "v\\"1\\\\0\\n" .'
    assert version in text.splitlines()
    # node keys sort as whole lines: "collection.how>" before "collection>"
    lines = text.splitlines()
    how = lines.index(next(line for line in lines if ":collection.how> " in line))
    bare = lines.index(next(line for line in lines if ":collection> " in line))
    assert how < bare


_DQV_ENDPOINTS = [
    "http://example.org/sparql",
    "http://example.org/sparql/",
    "http://dead.example.org/sparql",
    "urn:x:endpoint",
]
_DQV_DATASETS = [
    "http://example.org/kg/a",
    "http://example.org/kg/a.b",
    "http://example.org/kg/a/b",
    "http://example.org/kg/\u00e9\u2028",
    "urn:x:kg",
]
_DQV_STAMPS = ["2024-05-03T10:00:00Z", 'stamp "q" \\ back\nslash', ""]


def _random_row(rng: random.Random, dataset: str):
    outcomes = [
        QueryOutcome(qid, True)
        if rng.random() < 0.5
        else QueryOutcome(qid, False, rng.choice(list(FailureKind)))
        for qid in CATALOG.plan.query_ids
    ]
    return build_result(CATALOG, dataset, outcomes)


def _random_dqv_report(rng: random.Random, endpoints: int) -> Report:
    """A report over ``endpoints`` random endpoints, each with one to four
    rows of distinct datasets in random order."""
    results = {}
    for endpoint in rng.sample(_DQV_ENDPOINTS, endpoints):
        datasets = rng.sample(_DQV_DATASETS, rng.randint(1, 4))
        results[endpoint] = [_random_row(rng, dataset) for dataset in datasets]
    report = build_report(CATALOG, results, rng.choice(_DQV_STAMPS))
    return report._replace(catalog_version=rng.choice(_DQV_STAMPS))


def _in_dataset_order(report: Report) -> Report:
    """The report with each endpoint's rows in dataset order: the form
    from_dqv rebuilds."""
    results = {
        endpoint: tuple(sorted(rows, key=lambda row: row.dataset))
        for endpoint, rows in report.results.items()
    }
    return report._replace(results=results)


def test_the_catalog_has_a_node_key_that_extends_another():
    # the case the writer's subject order must get right: "collection.how>"
    # sorts before "collection>" although "collection" is a prefix
    keys = set(CATALOG.node_ids())
    assert any(key.rpartition(".")[0] in keys for key in keys)


@pytest.mark.parametrize("seed", range(24))
def test_dqv_writer_matches_the_set_and_sort_reference(seed):
    rng = random.Random(seed)
    # every fourth seed makes the empty report
    report = _random_dqv_report(rng, seed % 4)
    text = "".join(dqv_blocks(report, CATALOG))
    assert text == ref_to_dqv(report)
    ordered = _in_dataset_order(report)
    assert from_dqv("".join(dqv_blocks(ordered, CATALOG)), CATALOG) == ordered


def test_a_dataset_listed_twice_under_one_endpoint_is_refused(report):
    full, sparse = report.results["http://example.org/sparql"]
    # sparse's result under full's dataset key: the same subjects, other values
    other = sparse._replace(dataset=full.dataset)
    refusal = "endpoint 'http://example.org/sparql' lists dataset 'http://example.org/kg/full' twice"
    for rows in ([full, full], [full, other], [other, sparse, full]):
        with pytest.raises(ValueError, match=re.escape(refusal)):
            build_report(CATALOG, {"http://example.org/sparql": rows}, "t")
        with pytest.raises(ValueError, match=re.escape(refusal)):
            report._replace(results={"http://example.org/sparql": rows})
    # one dataset under two endpoints is two pairs, and each has its blocks
    two = build_report(CATALOG, {"http://example.org/sparql": [full], "urn:x:e": [full]}, "t")
    assert "".join(dqv_blocks(two, CATALOG)) == ref_to_dqv(two)


def test_dqv_tails_go_out_in_the_sorted_order_of_their_predicates(report):
    # The writer emits each measurement's tails in a fixed order, which
    # must be the sorted order of their predicate IRIs; a changed predicate
    # constant shows here, not as silently reordered bytes.
    common = [Iri(RDF_TYPE), _D_COMPUTED_ON, _D_MEASUREMENT_OF, _D_VALUE, _T_ENDPOINT]
    kinds = {
        "query": common + [_T_FAILURE],
        "question": common + [_T_EXACT],
        "node": common + [_T_EXACT],
    }
    written: dict[str, list[str]] = {}
    for line in "".join(dqv_blocks(report, CATALOG)).split("\n")[:-1]:
        subject, predicate, _ = line.split(" ", 2)
        written.setdefault(subject, []).append(predicate)
    for kind, predicates in kinds.items():
        order = sorted(format_term(predicate) for predicate in predicates)
        blocks = [
            block
            for subject, block in written.items()
            if subject.startswith(f"<{_MEASURE}{kind}:")
        ]
        assert blocks
        assert all(block == [p for p in order if p in block] for block in blocks)
        assert order in blocks


# ---------------------------------------------------------------------------
# JSON


def test_json_is_canonical(report):
    text = to_json(report, CATALOG)
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


_JSON_STRINGS = [
    "",
    "plain",
    "Élan, Grüße, 東京",
    "astral \U0001F600 \U00010348",
    "controls \x00\x01\x08\t\n\x0c\r\x1f\x7f",
    'quo"te',
    "back\\slash \\u0041",
    "\u2028\u2029 and a lone \ud800",
]
_JSON_FLOATS = [1 / 3, 0.1, 1e-7, 1e16, -0.0, 0.0, 2.5e-308, 1.7976931348623157e308]
_JSON_INTS = [0, -1, 7, 2**63, -(10**30), 10**40 + 1]


def _random_json(rng: random.Random, depth: int, shared: list) -> object:
    roll = rng.random()
    if depth < 6 and roll < 0.35:
        if shared and rng.random() < 0.3:
            return rng.choice(shared)
        size = rng.randrange(5)
        obj = {
            rng.choice(_JSON_STRINGS) + str(rng.randrange(3)): _random_json(rng, depth + 1, shared)
            for _ in range(size)
        }
        if rng.random() < 0.3:
            shared.append(obj)
        return obj
    if depth < 6 and roll < 0.5:
        items = [_random_json(rng, depth + 1, shared) for _ in range(rng.randrange(4))]
        return tuple(items) if rng.random() < 0.2 else items
    return rng.choice(
        [rng.choice(_JSON_STRINGS), rng.choice(_JSON_FLOATS), rng.choice(_JSON_INTS)]
        + [True, False, None, rng.uniform(-1e6, 1e6)]
    )


def _nesting(value: object) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return 1 + max(map(_nesting, value), default=0)
    return 0


@pytest.mark.parametrize("seed", [3, 1013, 20261018])
def test_indented_json_matches_json_dumps(seed):
    rng = random.Random(seed)
    deepest = 0
    for _ in range(60):
        shared = [{"fraction": "1/3", "decimal": 1 / 3, "percent": "33.3%"}, {}]
        doc = {"top": _random_json(rng, 1, shared), "again": shared[:3]}
        doc["nested"] = {"deeper": {"still": shared[0]}}
        assert _indented_json(doc) == json.dumps(doc, sort_keys=True, indent=2)
        deepest = max(deepest, _nesting(doc))
    assert deepest >= 6
    for scalar in [*_JSON_STRINGS, *_JSON_FLOATS, *_JSON_INTS, True, False, None, [], {}]:
        assert _indented_json(scalar) == json.dumps(scalar, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_indented_json_refuses_nan_and_infinities(value):
    with pytest.raises(ValueError):
        _indented_json({"score": [value]})


@pytest.mark.parametrize("key", [1, None, 2.5, True, ("a", "b")])
def test_indented_json_refuses_keys_that_are_not_strings(key):
    with pytest.raises(TypeError):
        _indented_json({key: 1})
    with pytest.raises(TypeError):
        _indented_json({"a": {"b": 1, key: 2}})
    # nor values of a type JSON lacks
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        _indented_json({"a": [Fraction(1, 3)]})


def test_json_contents(report):
    doc = json.loads(to_json(report, CATALOG))
    assert doc["generated_at"] == "2024-05-03T10:00:00Z"
    assert doc["catalog"]["hash"] == CATALOG.content_hash()
    sparse = doc["endpoints"]["http://example.org/sparql"]["datasets"][
        "http://example.org/kg/sparse"
    ]
    assert sparse["score"] == {"fraction": "1/30", "decimal": 1 / 30, "percent": "3.3%"}
    assert sparse["queries"]["publisher.1"] == {"success": True}
    assert sparse["queries"]["creator.1"] == {"success": False, "failure": "answer-false"}
    assert doc["endpoints"]["http://example.org/sparql"]["best"] == "http://example.org/kg/full"


def test_json_carries_aggregates_and_no_saturation(report):
    # every route asks the expanded queries, so no report saturates anything
    # or carries a saturation block: not a campaign's endpoints or datasets ...
    campaign = json.loads(to_json(_campaign_report(), CATALOG))["endpoints"]
    assert "http://dead.example.org/sparql" in campaign
    assert not any("saturation" in e for e in campaign.values())
    assert not any("saturation" in d for e in campaign.values() for d in e["datasets"].values())
    doc = json.loads(to_json(report, CATALOG))
    # ... nor results scored on their own, as by `evaluate --file`
    assert not any("saturation" in e for e in doc["endpoints"].values())
    root = doc["aggregates"]["datasets"]["root"]
    assert root["mean"]["fraction"] == "31/90"
    assert root["median"]["fraction"] == "1/30"
    assert doc["aggregates"]["best"]["root"]["mean"]["fraction"] == "1/2"
    assert doc["runs"] == []


def test_node_aggregates_populations(report):
    from kgaudit.reporting import node_aggregates

    per_dataset = node_aggregates(report, CATALOG)
    assert set(per_dataset) == set(CATALOG.node_ids())
    assert per_dataset["root"]["mean"] == Fraction(31, 90)
    assert per_dataset["root"]["min"] == 0
    assert per_dataset["root"]["max"] == 1

    best = node_aggregates(report, CATALOG, population="best")
    assert best["root"]["mean"] == Fraction(1, 2)
    assert best["root"]["q1"] == Fraction(1, 4)

    with pytest.raises(ValueError):
        node_aggregates(report, CATALOG, population="datasets-and-best")
    empty = build_report(CATALOG, {}, "2024-01-01T00:00:00Z")
    assert node_aggregates(empty, CATALOG) == {}


# ---------------------------------------------------------------------------
# CSV


def test_csv_layout(report):
    text = to_csv(report, CATALOG)
    lines = text.split("\r\n")
    header = lines[0].split(",")
    assert header == csv_columns(CATALOG)
    assert len(header) == 19
    assert header[:6] == ["endpoint", "dataset", "global", "collection", "maintenance", "usage"]
    sparse = lines[2].split(",")
    assert sparse[2] == "1/30"
    assert sparse[header.index("usage.who")] == "1/2"
    assert len(lines) == 5  # header + 3 rows + trailing empty


def test_csv_quotes_awkward_fields():
    # commas are legal in IRIs, so the writer must quote
    result = not_evaluated_result(CATALOG, "http://example.org/kg/a,b")
    rep = build_report(CATALOG, {"http://e.org/": [result]}, "t")
    line = to_csv(rep, CATALOG).split("\r\n")[1]
    assert '"http://example.org/kg/a,b"' in line


# ---------------------------------------------------------------------------
# box stats


def test_boxplot_stats_pinned_case():
    stats = boxplot_stats([Fraction(0), Fraction(1, 30), Fraction(1)])
    assert stats == (
        Fraction(0),
        Fraction(1, 60),
        Fraction(1, 30),
        Fraction(31, 60),
        Fraction(1),
    )


def test_boxplot_stats_single_value():
    half = Fraction(1, 2)
    assert boxplot_stats([half]) == (half, half, half, half, half)


def test_boxplot_stats_empty_rejected():
    with pytest.raises(ValueError):
        boxplot_stats([])


def test_boxplot_stats_matches_statistics_module():
    rng = random.Random(20240503)
    for _ in range(50):
        values = [Fraction(rng.randrange(0, 121), 120) for _ in range(rng.randrange(2, 25))]
        _, q1, q2, q3, _ = boxplot_stats(values)
        oracle = statistics.quantiles([float(v) for v in values], n=4, method="inclusive")
        for ours, theirs in zip((q1, q2, q3), oracle):
            assert abs(float(ours) - theirs) < 1e-12


# ---------------------------------------------------------------------------
# figures


def test_figure_files_bundle(report):
    files = figure_files(report, CATALOG)
    assert set(files) == {
        "bars.tsv",
        "bars.svg",
        "boxplot.tsv",
        "boxplot.svg",
        "radar.tsv",
        "radar.svg",
    }
    for name, content in files.items():
        if name.endswith(".svg"):
            ET.fromstring(content)  # well-formed XML
        else:
            assert content.endswith("\n")


def test_radar_omitted_for_single_dataset():
    result = not_evaluated_result(CATALOG, "http://example.org/kg/only")
    rep = build_report(CATALOG, {"http://e.org/": [result]}, "t")
    assert "radar.tsv" not in figure_files(rep, CATALOG)


def test_radar_pair_can_be_named(report):
    files = figure_files(
        report,
        CATALOG,
        radar=("http://example.org/kg/sparse", "http://example.org/kg/full"),
    )
    header = files["radar.tsv"].split("\n", 1)[0]
    assert header == "axis\thttp://example.org/kg/sparse\thttp://example.org/kg/full"

    with pytest.raises(ValueError, match="not in the report"):
        figure_files(report, CATALOG, radar=("http://example.org/kg/full", "http://nope/"))


def test_run_records_are_provenance_not_identity(report):
    from kgaudit.reporting import RunRecord

    record = RunRecord(
        endpoint="http://e.org/",
        run=0,
        timestamp="2024-05-01T10:00:00Z",
        available=True,
        scores=(("http://e.org/kg", Fraction(1, 2)),),
    )
    annotated = build_report(CATALOG, dict(report.results), report.generated_at, [record])
    assert annotated.runs == (record,)
    assert annotated == report


def test_bars_figure_tsv(report):
    tsv, svg = bars_figure(report, CATALOG)
    lines = tsv.strip().split("\n")
    assert lines[0] == "endpoint\tdataset\tnode\tfraction\tdecimal"
    # two endpoints x (root + 3 steps)
    assert len(lines) == 1 + 2 * 4
    assert "</svg>" in svg


def test_radar_figure_axes(report):
    full, sparse = report.results["http://example.org/sparql"]
    tsv, svg = radar_figure(full, sparse, CATALOG)
    lines = tsv.strip().split("\n")
    axes = [line.split("\t")[0] for line in lines[1:]]
    assert axes == [
        "collection",
        "maintenance",
        "usage",
        "usage.who",
        "usage.when",
        "usage.where",
        "usage.how",
        "usage.what",
    ]
    assert svg.count("<polygon") == 2


def test_boxplot_figure_tsv(report):
    tsv, _ = boxplot_figure(report, CATALOG)
    rows = [line.split("\t") for line in tsv.strip().split("\n")[1:]]
    assert len(rows) == 17 * 5
    assert {row[0] for row in rows} == set(CATALOG.node_ids())
    root = {row[1]: row[2] for row in rows if row[0] == "root"}
    assert root == {"min": "0", "q1": "1/60", "median": "1/30", "q3": "31/60", "max": "1"}
