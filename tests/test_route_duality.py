"""The fetch route and the remote route score the same served data alike.

Each case serves one metadata graph as a one-run transcript (two runs
where runs reuse blank-node labels).  The fetch route finds and downloads
the datasets in one paged query built from the catalog, merges, and asks
the union the expanded queries; the remote route sends those queries to
the endpoint.  The graphs are
built from the catalog's own compact patterns and expanded branches, with
free variables bound to IRIs, literals and blank nodes, so metadata
hanging off blank nodes (creators, service descriptions, distributions,
activities) is covered, at page sizes that cut through it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import yaml

from kgaudit.catalog import Catalog, default_catalog, dump_catalog, parse_catalog
from kgaudit.client import (
    DEFAULT_PAGE_SIZE,
    audit_run,
    build_fetch,
    evaluate_remote_datasets,
    score_endpoint,
)
from kgaudit.rdf import BlankNode, Graph, Iri, Literal, Triple, parse_ntriples, serialize_ntriples
from kgaudit.sparql import Variable
from kgaudit.transport import TranscriptTransport

from helpers import (
    catalog_shapes,
    catalog_vocabulary,
    evaluate_graph,
    random_metadata_graph,
    three_hop_catalog,
)

CATALOG = default_catalog()
URL = "http://duality.example.org/sparql"
KG = Iri("http://example.org/kg/main")
DISCOVERABLE = (
    f"<{KG.value}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://www.w3.org/ns/dcat#Dataset> .\n"
    f"<{KG.value}> <http://rdfs.org/ns/void#sparqlEndpoint> <{URL}> .\n"
)

_NODES = [Iri("http://example.org/agent/1"), Iri("http://example.org/thing/a")]
_BLANKS = [BlankNode("b0"), BlankNode("b1"), BlankNode("b2")]
_LITERALS = [
    Literal("Alice"),
    Literal("2023-05-17", datatype="http://www.w3.org/2001/XMLSchema#date"),
    Literal("hello", language="en"),
]


def _instantiate(rng: random.Random, patterns, predicates: list[Iri]) -> list[Triple]:
    """One match of the patterns, ?kg bound to KG, other variables at random."""
    subjects = {
        tp.subject.name for tp in patterns if isinstance(tp.subject, Variable)
    }
    verbs = {tp.predicate.name for tp in patterns if isinstance(tp.predicate, Variable)}
    binding = {"kg": KG}

    def bind(pos):
        if not isinstance(pos, Variable):
            return pos
        if pos.name not in binding:
            if pos.name in verbs:
                binding[pos.name] = rng.choice(predicates)
            else:
                roll = rng.random()
                if roll < 0.4:
                    binding[pos.name] = rng.choice(_BLANKS)
                elif roll < 0.8 or pos.name in subjects:
                    binding[pos.name] = rng.choice(_NODES)
                else:
                    binding[pos.name] = rng.choice(_LITERALS)
        return binding[pos.name]

    return [Triple(bind(tp.subject), bind(tp.predicate), bind(tp.object)) for tp in patterns]


def _serve(path, *graphs: Graph) -> TranscriptTransport:
    """One run per graph."""
    runs = [
        {"available": True, "timestamp": f"2024-05-0{n + 1}T10:00:00Z", "data": serialize_ntriples(g)}
        for n, g in enumerate(graphs)
    ]
    path.write_text(yaml.safe_dump({"endpoints": {URL: {"runs": runs}}}), encoding="utf-8")
    return TranscriptTransport(str(path))


def _fetched_scores(
    transport: TranscriptTransport,
    catalog: Catalog = CATALOG,
    *,
    runs: int = 1,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> dict[str, Fraction]:
    """Each dataset's score on the union of what ``runs`` runs fetched."""
    fetch = build_fetch(catalog)
    results, _ = score_endpoint(
        catalog,
        URL,
        [audit_run(transport, URL, run, fetch, page_size=page_size) for run in range(runs)],
    )
    return {r.dataset: r.score for r in results}


def _route_scores(
    transport: TranscriptTransport, catalog: Catalog = CATALOG, *, page_size: int = DEFAULT_PAGE_SIZE
) -> tuple[Fraction, Fraction]:
    """(fetch route score, remote route score) of KG."""
    fetched = _fetched_scores(transport, catalog, page_size=page_size)[KG.value]
    return fetched, evaluate_remote_datasets(transport, URL, catalog, [KG])[0].score


@pytest.mark.parametrize(
    "catalog", [CATALOG, three_hop_catalog()], ids=["default", "three-hop"]
)
def test_routes_agree_on_random_metadata(tmp_path, catalog):
    rng = random.Random(20240501)
    shapes = catalog_shapes(catalog)
    predicates, constants = catalog_vocabulary(catalog)
    path = tmp_path / "served.yaml"
    blank_cases = disagreements = 0
    # every shape leads a case; two more random shapes ride along
    for index in range(200):
        served = list(parse_ntriples(DISCOVERABLE))
        served += random_metadata_graph(rng, predicates, constants, max_triples=10)
        for patterns in (shapes[index % len(shapes)], rng.choice(shapes), rng.choice(shapes)):
            triples = _instantiate(rng, patterns, predicates)
            if len(triples) > 1 and rng.random() < 0.25:
                triples.pop(rng.randrange(len(triples)))  # a near miss
            served += triples
        graph = Graph(served)
        blank_cases += any(isinstance(t.subject, BlankNode) for t in graph)
        fetched, remote = _route_scores(_serve(path, graph), catalog)
        if fetched != remote:
            disagreements += 1
    assert len(shapes) < 200
    assert blank_cases > 100
    assert disagreements == 0


def test_routes_agree_on_blank_creator(tmp_path):
    graph = parse_ntriples(
        DISCOVERABLE
        + f"<{KG.value}> <http://purl.org/dc/terms/creator> _:c .\n"
        + '_:c <http://xmlns.com/foaf/0.1/name> "Alice" .\n'
    )
    assert _route_scores(_serve(tmp_path / "alice.yaml", graph)) == (
        Fraction(13, 120),
        Fraction(13, 120),
    )


_PUBLISH_ACTIVITY = (
    f"<{KG.value}> <http://www.w3.org/ns/prov#wasGeneratedBy> <http://example.org/act> .\n"
    "<http://example.org/act> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://www.w3.org/ns/prov#Publish> .\n"
    "<http://example.org/act> <http://www.w3.org/ns/prov#wasAssociatedWith> "
    "<http://example.org/acme> .\n"
    "<http://example.org/acme> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://xmlns.com/foaf/0.1/Person> .\n"
)


# publisher.1's branch joins three triples on the activity, which a
# campaign fetches as one row of a branch of their own
_BLANK_PUBLISH_ACTIVITY = (
    f"<{KG.value}> <http://www.w3.org/ns/prov#wasGeneratedBy> _:act .\n"
    "_:act <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/ns/prov#Publish> .\n"
    "_:act <http://www.w3.org/ns/prov#wasAssociatedWith> <http://example.org/acme> .\n"
)


@pytest.mark.parametrize("page_size", [1, 2, 3, 4, 5])
def test_routes_agree_on_a_blank_publish_activity(tmp_path, page_size):
    transport = _serve(tmp_path / "act.yaml", parse_ntriples(DISCOVERABLE + _BLANK_PUBLISH_ACTIVITY))
    assert _route_scores(transport, page_size=page_size) == (Fraction(17, 120), Fraction(17, 120))


def test_runs_that_reuse_blank_labels_keep_their_nodes_apart(tmp_path):
    # two runs serve the same description, the labels of its two blank
    # nodes swapped: merged, no creator gains the publisher's name
    first = (
        f"<{KG.value}> <http://purl.org/dc/terms/creator> _:b0 .\n"
        f"<{KG.value}> <http://purl.org/dc/terms/publisher> _:b1 .\n"
        '_:b1 <http://xmlns.com/foaf/0.1/name> "Acme" .\n'
    )
    second = first.replace("_:b0", "_:tmp").replace("_:b1", "_:b0").replace("_:tmp", "_:b1")
    graphs = [parse_ntriples(DISCOVERABLE + data) for data in (first, second)]
    transport = _serve(tmp_path / "swapped.yaml", *graphs)
    assert _fetched_scores(transport, runs=1) == {KG.value: Fraction(1, 10)}
    assert _fetched_scores(transport, runs=2) == {KG.value: Fraction(1, 10)}
    assert evaluate_graph(CATALOG, graphs[0], KG).score == Fraction(1, 10)


@pytest.mark.parametrize(
    "extra",
    [
        "",
        # acme links in to the dataset, so a campaign fetches its rdf:type too
        f"<http://example.org/acme> <http://example.org/funds> <{KG.value}> .\n",
    ],
    ids=["published", "acme-links-in"],
)
def test_routes_agree_when_a_rule_source_matches_a_derived_triple(tmp_path, extra):
    # creator-any-person's source ?kg ?p ?c matches the dct:publisher triple
    # that publisher-prov-activity derives.  Rules apply once to the
    # published triples, so no route lets the two compose.
    doc = yaml.safe_load(dump_catalog(CATALOG))
    doc["rules"].append(
        {
            "id": "creator-any-person",
            "source": "?kg ?p ?c . ?c a foaf:Person .",
            "target": "?kg dct:creator ?c .",
        }
    )
    catalog = parse_catalog(yaml.safe_dump(doc))
    graph = parse_ntriples(DISCOVERABLE + _PUBLISH_ACTIVITY + extra)
    fetched, remote = _route_scores(_serve(tmp_path / "served.yaml", graph), catalog)
    local = evaluate_graph(catalog, graph, KG).score  # as `evaluate --file` scores it
    assert fetched == remote == local


DATASETS = [Iri(f"http://example.org/kg/{name}") for name in ("a", "b", "c")]


def _renamed(triples, dataset: Iri) -> list[Triple]:
    return [
        Triple(*(dataset if term == KG else term for term in (t.subject, t.predicate, t.object)))
        for t in triples
    ]


@pytest.mark.parametrize("page_size", [1, 2, 3])
def test_routes_agree_when_pages_cross_datasets(tmp_path, page_size):
    # one endpoint serves three datasets at once, so the run's pages cut
    # through them
    rng = random.Random(page_size)
    shapes = catalog_shapes(CATALOG)
    predicates, _ = catalog_vocabulary(CATALOG)
    path = tmp_path / "served.yaml"
    for _ in range(12):
        served = []
        for dataset in DATASETS:
            served += parse_ntriples(DISCOVERABLE.replace(KG.value, dataset.value))
            for _ in range(3):
                served += _renamed(_instantiate(rng, rng.choice(shapes), predicates), dataset)
        transport = _serve(path, Graph(served))
        fetched = _fetched_scores(transport, page_size=page_size)
        remote = evaluate_remote_datasets(transport, URL, CATALOG, DATASETS)
        assert fetched == {r.dataset: r.score for r in remote}


def _person_catalog() -> Catalog:
    doc = yaml.safe_load(dump_catalog(CATALOG))
    creator = next(q for q in doc["questions"] if q["id"] == "creator")
    creator["queries"][1]["ask"] = "ASK { ?kg dct:creator ?c . ?c a foaf:Person . ?c foaf:name ?n . }"
    return parse_catalog(yaml.safe_dump(doc))


# Four rows sort before the creator's, so pages of 1, 2 or 3 rows cut
# between the rows about the creator; the query's match still arrives whole
# in one row of a branch of its own.
_PERSON = "".join(
    f'<{KG.value}> <http://example.org/pad/{index}> "pad" .\n' for index in range(4)
) + (
    f"<{KG.value}> <http://purl.org/dc/terms/creator> _:c .\n"
    "_:c <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://xmlns.com/foaf/0.1/Person> .\n"
    '_:c <http://xmlns.com/foaf/0.1/name> "Alice" .\n'
)

@pytest.mark.parametrize("page_size", [1, 2, 3, DEFAULT_PAGE_SIZE])
def test_routes_agree_when_a_query_joins_two_rows_on_a_blank_node(tmp_path, page_size):
    transport = _serve(tmp_path / "person.yaml", parse_ntriples(DISCOVERABLE + _PERSON))
    fetched, remote = _route_scores(transport, _person_catalog(), page_size=page_size)
    assert fetched == remote == Fraction(13, 120)
