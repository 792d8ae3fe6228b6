"""The fetch route and the remote route agree on endpoints that serve
several datasets at once.

Each case is one endpoint describing two to four datasets.  Their
metadata is built from the catalog's compact patterns and expanded
branches, and the datasets share IRI and blank-node neighbours and link to
one another: one is part of another, a catalog lists them, they share a
publisher and a service description names them.  So one dataset's fetch
reaches into its neighbours' descriptions.  A campaign scores all of them
in the endpoint's one fetched graph; the remote route asks the expanded
queries for all of them with VALUES.
"""

from __future__ import annotations

import random

import pytest
import yaml

from kgaudit.catalog import default_catalog
from kgaudit.client import (
    audit_run,
    build_fetch,
    evaluate_merged,
    evaluate_remote_datasets,
    merge_runs,
)
from kgaudit.rdf import BlankNode, Graph, Iri, Literal, Triple, serialize_ntriples
from kgaudit.transport import TranscriptTransport

from helpers import RDF_TYPE_IRI, catalog_shapes, catalog_vocabulary, instantiate_shape

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
    graph = Graph(_links(rng, datasets))
    # other datasets are neighbours too, so a shape can link one to another
    nodes = NEIGHBOURS + datasets
    for dataset in datasets:
        for _ in range(3):
            patterns = rng.choice(shapes)
            graph.update(instantiate_shape(rng, patterns, dataset, predicates, nodes, LITERALS))
    return graph, datasets


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
        merged = merge_runs([audit_run(transport, URL, 0, FETCH)])
        fetched = {r.dataset: r.score for r in evaluate_merged(CATALOG, merged, [URL])[URL]}
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
