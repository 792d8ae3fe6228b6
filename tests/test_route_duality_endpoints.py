"""The fetch route and the remote route agree on endpoints that serve
several datasets at once.

Each case is one endpoint describing two to four datasets.  Their
metadata is built from the catalog's compact patterns and expanded
branches, and the datasets share IRI and blank-node neighbours and link to
one another: one is part of another, a catalog lists them, they share a
publisher and a service description names them.  So one dataset's fetch
reaches into its neighbours' descriptions.  A campaign scores all of them
in the endpoint's one fetched graph; the remote route asks the expanded
queries for all of them with VALUES.  The last test replays several runs
of such an endpoint, some down and some serving part of its graph, and
checks each run's own scores.
"""

from __future__ import annotations

import random

import pytest
import yaml

from kgaudit.catalog import default_catalog
from kgaudit.client import (
    CampaignConfig,
    audit_run,
    build_fetch,
    evaluate_remote_datasets,
    run_campaign,
    score_endpoint,
)
from kgaudit.rdf import BlankNode, Graph, Iri, Literal, Triple, serialize_ntriples
from kgaudit.transport import TranscriptTransport

from helpers import (
    RDF_TYPE_IRI,
    catalog_shapes,
    catalog_vocabulary,
    evaluate_graph,
    instantiate_shape,
)

CATALOG = default_catalog()
FETCH = build_fetch(CATALOG)
URL = "http://endpoints.example.org/sparql"
DCAT = "http://www.w3.org/ns/dcat#"
DCT = "http://purl.org/dc/terms/"
SD = "http://www.w3.org/ns/sparql-service-description#"
VOID = "http://rdfs.org/ns/void#"

DATASET_CLASSES = [Iri(DCAT + "Dataset"), Iri(VOID + "Dataset"), Iri(SD + "Dataset")]
PUBLISHER = Iri("http://example.org/agent/acme")
SERVICE = BlankNode("service")
NEIGHBOURS = [
    PUBLISHER,
    Iri("http://example.org/agent/1"),
    Iri("http://example.org/thing/a"),
    BlankNode("b0"),
    BlankNode("b1"),
    SERVICE,
]
LITERALS = [
    Literal("Alice"),
    Literal("2023-05-17", datatype="http://www.w3.org/2001/XMLSchema#date"),
    Literal("hello", language="en"),
]


def _links(rng: random.Random, datasets: list[Iri]) -> list[Triple]:
    """Discovery triples for every dataset, and links between them."""
    triples = []
    for dataset in datasets:
        endpoint = Iri(URL) if rng.random() < 0.7 else Literal(URL)
        triples += [
            Triple(dataset, RDF_TYPE_IRI, rng.choice(DATASET_CLASSES)),
            Triple(dataset, Iri(VOID + "sparqlEndpoint"), endpoint),
        ]
    first, second, *_ = rng.sample(datasets, len(datasets))
    candidates = [
        Triple(first, Iri(DCT + "isPartOf"), second),
        Triple(second, Iri(DCAT + "dataset"), first),
        Triple(first, Iri(DCT + "publisher"), PUBLISHER),
        Triple(second, Iri(DCT + "publisher"), PUBLISHER),
        Triple(PUBLISHER, RDF_TYPE_IRI, Iri("http://xmlns.com/foaf/0.1/Organization")),
        Triple(SERVICE, Iri(SD + "endpoint"), Iri(URL)),
        *(Triple(SERVICE, Iri(SD + "defaultDataset"), dataset) for dataset in datasets),
    ]
    return triples + [t for t in candidates if rng.random() < 0.6]


def _case(rng: random.Random, shapes, predicates) -> tuple[Graph, list[Iri]]:
    datasets = [Iri(f"http://example.org/kg/{index}") for index in range(rng.randint(2, 4))]
    triples = _links(rng, datasets)
    # other datasets are neighbours too, so a shape can link one to another
    nodes = NEIGHBOURS + datasets
    for dataset in datasets:
        for _ in range(3):
            patterns = rng.choice(shapes)
            triples += instantiate_shape(rng, patterns, dataset, predicates, nodes, LITERALS)
    return Graph(triples), datasets


def _serve(path, graph: Graph) -> TranscriptTransport:
    run = {"timestamp": "2024-05-01T10:00:00Z", "data": serialize_ntriples(graph)}
    path.write_text(yaml.safe_dump({"endpoints": {URL: {"runs": [run]}}}), encoding="utf-8")
    return TranscriptTransport(str(path))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_routes_agree_on_every_dataset_of_an_endpoint(tmp_path, seed):
    rng = random.Random(seed)
    shapes = catalog_shapes(CATALOG)
    predicates, _ = catalog_vocabulary(CATALOG)
    shared_blank = linked = 0
    for _ in range(25):
        graph, datasets = _case(rng, shapes, predicates)
        transport = _serve(tmp_path / "served.yaml", graph)
        results, _ = score_endpoint(CATALOG, URL, [audit_run(transport, URL, 0, FETCH)])
        fetched = {r.dataset: r.score for r in results}
        remote = evaluate_remote_datasets(transport, URL, CATALOG, datasets)
        assert fetched == {r.dataset: r.score for r in remote}
        # what each dataset reaches in one hop: a blank node two of them
        # share, and another dataset
        reach = [
            {t.object for t in graph.match(d)} | {t.subject for t in graph.match(None, None, d)}
            for d in datasets
        ]
        shared_blank += any(
            isinstance(node, BlankNode) and sum(node in r for r in reach) > 1
            for node in set().union(*reach)
        )
        linked += any(o in r for d, r in zip(datasets, reach) for o in datasets if o != d)
    assert shared_blank > 15 and linked > 15


def _replay(path, served: list[Graph | None]) -> TranscriptTransport:
    """One run per entry: ``None`` is a run the endpoint was down for."""
    runs = [
        {"timestamp": f"2024-05-0{n + 1}T10:00:00Z", "data": serialize_ntriples(graph)}
        if graph is not None
        else {"available": False, "timestamp": f"2024-05-0{n + 1}T10:00:00Z"}
        for n, graph in enumerate(served)
    ]
    path.write_text(yaml.safe_dump({"endpoints": {URL: {"runs": runs}}}), encoding="utf-8")
    return TranscriptTransport(str(path))


@pytest.mark.parametrize("seed", [4, 5])
def test_each_run_record_scores_its_own_graph_alone(tmp_path, seed):
    # a run that differs from the endpoint's union is asked only what the
    # union satisfied; its record must still hold its own graph's scores
    rng = random.Random(seed)
    shapes = catalog_shapes(CATALOG)
    predicates, _ = catalog_vocabulary(CATALOG)
    pruned_runs = lower_than_union = 0
    for _ in range(12):
        graph, _ = _case(rng, shapes, predicates)
        served = []
        for _ in range(rng.randint(2, 4)):
            roll = rng.random()
            if roll < 0.2:
                served.append(None)
            elif roll < 0.4:
                served.append(graph)
            else:
                kept = rng.uniform(0.3, 0.9)
                served.append(Graph(t for t in graph if rng.random() < kept))
        transport = _replay(tmp_path / "runs.yaml", served)
        config = CampaignConfig([URL], CATALOG, runs=len(served), delay=0.0, transport=transport)
        report = run_campaign(config)
        union = {r.dataset: r.score for r in report.results[URL]}
        runs = [audit_run(transport, URL, run, FETCH) for run in range(len(served))]
        merged = Graph(t for er in runs for t in er.graph)
        whole = (merged, {d for er in runs for d in er.datasets})
        assert [(record.run, record.available) for record in report.runs] == [
            (er.run, er.available) for er in runs
        ]
        for record, er in zip(report.runs, runs):
            expected = tuple(
                (d, evaluate_graph(CATALOG, er.graph, Iri(d)).score) for d in er.datasets
            )
            assert record.scores == expected
            if er.datasets and (er.graph, set(er.datasets)) != whole:
                pruned_runs += 1
                lower_than_union += any(score < union[d] for d, score in record.scores)
    assert pruned_runs > 10 and lower_than_union > 5, (pruned_runs, lower_than_union)
