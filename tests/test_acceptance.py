"""Acceptance gate: ten pinned criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion is exact (rational arithmetic, zero tolerance) except the
runtime budgets, which are generous for commodity hardware.
"""

from __future__ import annotations

import copy
import random
import time
from fractions import Fraction
from importlib import resources

import yaml

from kgaudit.catalog import default_catalog, expand_extended, load_catalog
from kgaudit.client import CampaignConfig, discover_datasets, discover_in_graph, run_campaign
from kgaudit.rdf import Graph, Iri, Triple, load_rdf, parse_ntriples, serialize_ntriples
from kgaudit.reporting import boxplot_stats, dqv_blocks, radar_figure, to_csv
from kgaudit.scoring import format_percent, score_datasets
from kgaudit.sparql import eval_ask, eval_bgp, substitute
from kgaudit.transport import TranscriptTransport

from helpers import (
    FIXTURES,
    bgp_oracle,
    catalog_vocabulary,
    evaluate_graph,
    from_dqv,
    graph_terms,
    random_bgp,
    random_metadata_graph,
    ref_saturate,
    small_graph,
    solutions_as_sets,
)

CATALOG = default_catalog()
KG = Iri("http://example.org/kg/main")


def _criterion(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {label} [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_catalog_shape():
    start = time.perf_counter()
    path = resources.files("kgaudit").joinpath("data/default_catalog.yaml")
    catalog = load_catalog(str(path))
    elapsed = time.perf_counter() - start

    steps = catalog.steps()
    leaves = list(catalog.leaves())
    questions = list(catalog.questions())
    per_step = {
        step.id: sum(len(leaf.questions) for leaf in step.children) for step in steps
    }
    weight_groups = [
        [q.weight for q in leaf.questions]
        for leaf in leaves
        if leaf.id.startswith("usage.")
    ][:3]
    half = Fraction(1, 2)
    ok = (
        len(steps) == 3
        and len(leaves) == 13
        and len(questions) == 30
        and per_step == {"collection": 5, "maintenance": 5, "usage": 20}
        and weight_groups == [[1, half, half], [1, 1, 1], [half, half, 1]]
        and all(
            q.weight == 1
            for q in questions
            if q.id not in ("usage-rights", "audience", "webpage", "access-url")
        )
        and elapsed < 1.0
    )
    _criterion(
        1,
        "catalog shape and weights",
        ok,
        f"3 steps, 13 leaves, 30 questions 5/5/20, weights verbatim, {elapsed:.3f}s",
    )


def test_criterion_02_compact_extended_duality():
    predicates, constants = catalog_vocabulary(CATALOG)
    pairs = []
    for _, cq in CATALOG.queries():
        compact = substitute(cq.query, {"kg": KG})
        extended = substitute(expand_extended(cq.query, CATALOG.rules), {"kg": KG})
        pairs.append((cq.id, compact, extended))

    rng = random.Random(20240815)
    disagreements = 0
    start = time.perf_counter()
    for _ in range(1000):
        g = random_metadata_graph(rng, predicates, constants, max_triples=200)
        saturated, _ = ref_saturate(g, CATALOG.rules)
        for _, compact, extended in pairs:
            if eval_ask(saturated, compact) != eval_ask(g, extended):
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 60.0
    _criterion(
        2,
        "compact/extended duality",
        ok,
        f"1000 graphs x {len(pairs)} queries, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_03_bgp_oracle():
    rng = random.Random(16180339)
    mismatches = 0
    for _ in range(500):
        g = small_graph(rng, max_triples=50)
        patterns = random_bgp(rng, g, max_patterns=4)
        if solutions_as_sets(eval_bgp(g, patterns)) != bgp_oracle(g, patterns):
            mismatches += 1
    _criterion(
        3,
        "BGP evaluation vs brute-force oracle",
        mismatches == 0,
        f"500 cases, {mismatches} mismatches",
    )


def test_criterion_04_scoring_exactness():
    full = evaluate_graph(
        CATALOG, load_rdf(str(FIXTURES / "accountable.nt")), Iri("http://example.org/kg/full")
    )
    sparse = evaluate_graph(
        CATALOG,
        load_rdf(str(FIXTURES / "publisher_only.nt")),
        Iri("http://example.org/kg/sparse"),
    )
    empty = evaluate_graph(
        CATALOG, load_rdf(str(FIXTURES / "empty.ttl")), Iri("http://example.org/kg/empty")
    )
    ok = (
        full.score == 1
        and format_percent(full.score) == "100.0%"
        and sparse.node_scores["usage.who"] == Fraction(1, 2)
        and sparse.node_scores["usage"] == Fraction(1, 10)
        and sparse.score == Fraction(1, 30)
        and format_percent(sparse.score) == "3.3%"
        and empty.score == 0
        and format_percent(empty.score) == "0.0%"
    )
    _criterion(
        4,
        "scoring exactness on fixtures",
        ok,
        f"full={full.score}, sparse={sparse.score} ({format_percent(sparse.score)}), "
        f"empty={empty.score}",
    )


def test_criterion_05_monotonicity():
    predicates, constants = catalog_vocabulary(CATALOG)
    rng = random.Random(27182818)
    violations = 0
    cases = 0
    while cases < 200:
        g = random_metadata_graph(rng, predicates, constants, max_triples=60)
        nodes = [t for t in graph_terms(g) if isinstance(t, Iri)] + [KG]
        extra = Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(nodes + constants))
        if extra in g:
            continue
        cases += 1
        before = evaluate_graph(CATALOG, g, KG)
        after = evaluate_graph(CATALOG, Graph([*g, extra]), KG)
        for node_id in CATALOG.node_ids():
            if after.node_scores[node_id] < before.node_scores[node_id]:
                violations += 1
    _criterion(
        5,
        "adding a triple never lowers any node score",
        violations == 0,
        f"200 pairs x 17 nodes, {violations} violations",
    )


def _transcript_config(path: str, endpoints: list[str]) -> CampaignConfig:
    return CampaignConfig(
        endpoints=endpoints,
        catalog=CATALOG,
        runs=3,
        delay=0.0,
        transport=TranscriptTransport(path),
    )


def test_criterion_06_discovery(tmp_path):
    classes = [
        "http://www.w3.org/ns/dcat#Dataset",
        "http://rdfs.org/ns/void#Dataset",
        "http://purl.org/dc/dcmitype/Dataset",
        "http://schema.org/Dataset",
        "http://www.w3.org/ns/sparql-service-description#Dataset",
        "http://dataid.dbpedia.org/ns/core#Dataset",
    ]
    url = "http://six.example.org/sparql"
    lines = []
    for index, cls in enumerate(classes):
        kg = f"http://example.org/kg/{index}"
        lines.append(
            f"          <{kg}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{cls}> ."
        )
        lines.append(f"          <{kg}> <http://rdfs.org/ns/void#sparqlEndpoint> <{url}> .")
    six = tmp_path / "six.yaml"
    six.write_text(
        f'endpoints:\n  "{url}":\n    runs:\n'
        '      - available: true\n        timestamp: "2024-06-01T00:00:00Z"\n'
        "        data: |\n" + "\n".join(lines) + "\n"
    )
    found = discover_datasets(TranscriptTransport(str(six)), url)
    local = discover_in_graph(parse_ntriples("\n".join(l.strip() for l in lines) + "\n"))

    none_url = "http://none.example.org/sparql"
    none = tmp_path / "none.yaml"
    none.write_text(
        f'endpoints:\n  "{none_url}":\n    runs:\n'
        '      - available: true\n        timestamp: "2024-06-01T00:00:00Z"\n'
        "        data: |\n"
        "          <http://example.org/thing> <http://purl.org/dc/terms/title> \"no dataset here\" .\n"
    )
    report = run_campaign(_transcript_config(str(none), [none_url]))
    zero_rows = report.results[none_url]

    ok = (
        len(found) == 6
        and len(local) == 6
        and set(found) == set(local)
        and len(zero_rows) == 1
        and zero_rows[0].score == 0
        and zero_rows[0].dataset == none_url
    )
    _criterion(
        6,
        "dataset discovery over all six classes; zero datasets scores 0",
        ok,
        f"{len(found)} remote, {len(local)} local, empty endpoint -> {zero_rows[0].score}",
    )


def test_criterion_07_down_run_equivalence(tmp_path):
    endpoints = [
        "http://example.org/sparql",
        "http://sparse.example.org/sparql",
        "http://dead.example.org/sparql",
    ]
    down = run_campaign(_transcript_config(str(FIXTURES / "campaign.yaml"), endpoints))

    doc = yaml.safe_load((FIXTURES / "campaign.yaml").read_text())
    flipped = copy.deepcopy(doc)
    runs = flipped["endpoints"]["http://example.org/sparql"]["runs"]
    runs[1] = {
        "available": True,
        "timestamp": runs[1]["timestamp"],
        "data": runs[0]["data"],
    }
    allup_path = tmp_path / "allup.yaml"
    allup_path.write_text(yaml.safe_dump(flipped))
    allup = run_campaign(_transcript_config(str(allup_path), endpoints))

    ok = (
        down == allup
        and down.results == allup.results
        and to_csv(down, CATALOG) == to_csv(allup, CATALOG)
    )
    _criterion(
        7,
        "endpoint down in run 2 of 3 scores like always-available",
        ok,
        f"results equal: {down.results == allup.results}",
    )


def test_criterion_08_dqv_round_trip():
    endpoints = [
        "http://example.org/sparql",
        "http://sparse.example.org/sparql",
        "http://dead.example.org/sparql",
    ]
    report = run_campaign(_transcript_config(str(FIXTURES / "campaign.yaml"), endpoints))
    rebuilt = from_dqv("".join(dqv_blocks(report, CATALOG)), CATALOG)

    outcomes_ok = all(
        rebuilt.results[e][i].outcomes == r.outcomes
        and rebuilt.results[e][i].node_scores == r.node_scores
        for e, rs in report.results.items()
        for i, r in enumerate(rs)
    )
    ok = rebuilt == report and outcomes_ok
    _criterion(
        8,
        "DQV export inverts to the exact report",
        ok,
        f"{sum(len(rs) for rs in report.results.values())} dataset results compared",
    )


def test_criterion_09_figure_data():
    stats = boxplot_stats([Fraction(0), Fraction(1, 30), Fraction(1)])
    expected_stats = (
        Fraction(0),
        Fraction(1, 60),
        Fraction(1, 30),
        Fraction(31, 60),
        Fraction(1),
    )

    full = evaluate_graph(
        CATALOG, load_rdf(str(FIXTURES / "accountable.nt")), Iri("http://example.org/kg/full")
    )
    sparse = evaluate_graph(
        CATALOG,
        load_rdf(str(FIXTURES / "publisher_only.nt")),
        Iri("http://example.org/kg/sparse"),
    )
    tsv, _ = radar_figure(full, sparse, CATALOG)
    rows = [line.split("\t") for line in tsv.strip().split("\n")[1:]]
    radar = {axis: (a, b) for axis, a, b in rows}
    expected_sparse = {
        "collection": Fraction(0),
        "maintenance": Fraction(0),
        "usage": Fraction(1, 10),
        "usage.who": Fraction(1, 2),
        "usage.when": Fraction(0),
        "usage.where": Fraction(0),
        "usage.how": Fraction(0),
        "usage.what": Fraction(0),
    }
    radar_ok = all(
        radar[axis] == (f"{float(1):.6f}", f"{float(value):.6f}")
        for axis, value in expected_sparse.items()
    )
    ok = stats == expected_stats and radar_ok
    _criterion(
        9,
        "box-plot order statistics and radar vectors",
        ok,
        f"stats={tuple(str(s) for s in stats)}, radar axes={len(radar)}",
    )


def test_criterion_10_performance(tmp_path):
    base = load_rdf(str(FIXTURES / "accountable.nt"))
    triples: dict[Triple, None] = {}  # an ordered set
    copies = 0
    while len(triples) < 10000:
        suffix = f"/{copies}"

        def shift(term):
            if isinstance(term, Iri) and term.value.startswith("http://example.org/"):
                return Iri(term.value + suffix)
            return term

        triples.update((Triple(shift(t.subject), t.predicate, shift(t.object)), None) for t in base)
        copies += 1
    big = Graph(triples)
    kg = Iri("http://example.org/kg/full/0")
    # the reference (saturation, then the compact queries), then the program
    start = time.perf_counter()
    result = evaluate_graph(CATALOG, big, kg)
    eval_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    (scored,) = score_datasets(CATALOG, big, [kg])
    score_elapsed = time.perf_counter() - start

    data_lines = [
        "          " + line
        for line in serialize_ntriples(base).strip().split("\n")
    ]
    blocks = []
    endpoints = []
    for n in range(50):
        url = f"http://mock{n}.example.org/sparql"
        endpoints.append(url)
        data = "\n".join(
            line.replace("http://example.org/sparql", url).replace(
                "http://example.org/kg/full", f"http://example.org/kg/{n}"
            )
            for line in data_lines
        )
        blocks.append(
            f'  "{url}":\n    runs:\n'
            f"      - available: true\n"
            f'        timestamp: "2024-06-01T00:00:{n:02d}Z"\n'
            f"        data: |\n{data}\n"
        )
    mock_path = tmp_path / "mock50.yaml"
    mock_path.write_text("endpoints:\n" + "".join(blocks))

    start = time.perf_counter()
    report = run_campaign(_transcript_config(str(mock_path), endpoints))
    campaign_elapsed = time.perf_counter() - start
    scores = {r.score for rs in report.results.values() for r in rs}

    ok = (
        result.score == 1
        and eval_elapsed < 1.0
        and scored == result
        and score_elapsed < 1.0
        and len(report.results) == 50
        and scores == {Fraction(1)}
        and campaign_elapsed < 30.0
    )
    _criterion(
        10,
        "performance budgets",
        ok,
        f"{len(big)}-triple evaluation {eval_elapsed:.4f}s < 1s (reference), "
        f"{score_elapsed:.4f}s < 1s (score_datasets), "
        f"50-endpoint campaign {campaign_elapsed:.2f}s < 30s",
    )
