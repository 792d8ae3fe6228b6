"""Shared test helpers: fixture paths, random RDF generators, oracles."""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import yaml

from kgaudit.catalog import default_catalog, dump_catalog, parse_catalog
from kgaudit.rdf import BlankNode, Graph, Iri, Literal, Term, Triple, term_sort_key
from kgaudit.sparql import TriplePattern, UnionPattern, Variable

FIXTURES = Path(__file__).parent / "fixtures"

# A catalog rule whose source walks ?kg -> distribution -> part -> download
# URL, and a creator query that walks ?kg -> creator -> friend -> name: both
# reach three hops out of the dataset, one further than a path of two
# triples, so a campaign fetches each of their matches in a branch of its own.
THREE_HOP_RULE = {
    "id": "access-distribution-part",
    "source": "?kg dcat:distribution ?d . ?d <http://example.org/part> ?e . "
    "?e dcat:downloadURL ?url .",
    "target": "?kg dcat:accessURL ?url .",
}
THREE_HOP_QUERY = "ASK { ?kg dct:creator ?c . ?c foaf:knows ?f . ?f foaf:name ?n . }"


def three_hop_catalog():
    """The default catalog with ``THREE_HOP_RULE`` added and ``creator``'s
    second query replaced by ``THREE_HOP_QUERY``."""
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    doc["rules"].append(THREE_HOP_RULE)
    creator = next(q for q in doc["questions"] if q["id"] == "creator")
    creator["queries"][1]["ask"] = THREE_HOP_QUERY
    return parse_catalog(yaml.safe_dump(doc))

_IRIS = [
    "http://example.org/dataset/a",
    "http://example.org/dataset/b",
    "http://example.org/agent/1",
    "http://example.org/agent/2",
    "http://example.org/place/x",
    "http://purl.org/dc/terms/publisher",
    "http://purl.org/dc/terms/creator",
    "http://purl.org/dc/terms/title",
    "http://xmlns.com/foaf/0.1/name",
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
    "mailto:someone@example.org",
]
_DATATYPES = [
    None,
    "http://www.w3.org/2001/XMLSchema#integer",
    "http://www.w3.org/2001/XMLSchema#date",
]
_LANGS = ["en", "fr", "en-GB"]
_LEXICALS = [
    "alpha",
    "beta with space",
    'quo"te',
    "tab\there",
    "new\nline",
    "42",
    "",
    "\\slash",
    "Élan, Grüße, 東京 \U0001F600",
    "cr\rff\fbs\b mixed \\\" '",
    "ends in a backslash \\",
    "\\u0041 is not an escape here",
]


def random_iri(rng: random.Random) -> Iri:
    return Iri(rng.choice(_IRIS))


def random_literal(rng: random.Random) -> Literal:
    lex = rng.choice(_LEXICALS)
    if rng.random() < 0.3:
        return Literal(lex, language=rng.choice(_LANGS))
    return Literal(lex, datatype=rng.choice(_DATATYPES))


def random_term(rng: random.Random, allow_literal: bool = True) -> Term:
    roll = rng.random()
    if roll < 0.6:
        return random_iri(rng)
    if roll < 0.8 or not allow_literal:
        return BlankNode(f"b{rng.randrange(4)}")
    return random_literal(rng)


def random_triple(rng: random.Random) -> Triple:
    return Triple(
        random_term(rng, allow_literal=False),
        random_iri(rng),
        random_term(rng),
    )


def random_graph(rng: random.Random, max_triples: int = 200) -> Graph:
    g = Graph()
    for _ in range(rng.randrange(max_triples + 1)):
        g.add(random_triple(rng))
    return g


# ---------------------------------------------------------------------------
# Small-universe graphs and a brute-force join oracle for pattern matching.
# The oracle enumerates every assignment of pattern variables to terms of
# the graph, so the term universe is kept deliberately tiny.

_SMALL_SUBJECTS = [Iri(f"http://example.org/node/{i}") for i in range(4)] + [
    BlankNode("s0"),
    BlankNode("s1"),
]
_SMALL_PREDICATES = [Iri(f"http://example.org/p/{i}") for i in range(4)] + [
    Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
]
_SMALL_OBJECTS = _SMALL_SUBJECTS[:4] + [Literal("v0"), Literal("v1"), Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer")]
_VAR_NAMES = ["x", "y", "z"]


def small_graph(rng: random.Random, max_triples: int = 50) -> Graph:
    g = Graph()
    for _ in range(rng.randrange(max_triples + 1)):
        g.add(
            Triple(
                rng.choice(_SMALL_SUBJECTS),
                rng.choice(_SMALL_PREDICATES),
                rng.choice(_SMALL_OBJECTS),
            )
        )
    return g


def random_bgp(
    rng: random.Random, g: Graph, max_patterns: int = 4
) -> list[TriplePattern]:
    """A random BGP biased towards patterns that can match the graph."""
    triples = list(g)
    patterns: list[TriplePattern] = []
    for _ in range(rng.randrange(1, max_patterns + 1)):
        if triples and rng.random() < 0.7:
            base = rng.choice(triples)
            positions = [base.subject, base.predicate, base.object]
        else:
            positions = [
                rng.choice(_SMALL_SUBJECTS),
                rng.choice(_SMALL_PREDICATES),
                rng.choice(_SMALL_OBJECTS),
            ]
        terms = [
            Variable(rng.choice(_VAR_NAMES)) if rng.random() < 0.45 else pos
            for pos in positions
        ]
        patterns.append(TriplePattern(*terms))
    return patterns


def bgp_oracle(g: Graph, patterns: list[TriplePattern]) -> set[frozenset]:
    """Reference BGP semantics: try every assignment of variables to graph terms."""
    names = sorted(
        {
            pos.name
            for tp in patterns
            for pos in tp.positions()
            if isinstance(pos, Variable)
        }
    )
    facts = {(t.subject, t.predicate, t.object) for t in g}
    universe = sorted(g.terms(), key=term_sort_key)
    found: set[frozenset] = set()
    for combo in itertools.product(universe, repeat=len(names)):
        assignment = dict(zip(names, combo))

        def ground(pos):
            return assignment[pos.name] if isinstance(pos, Variable) else pos

        if all(
            (ground(tp.subject), ground(tp.predicate), ground(tp.object)) in facts
            for tp in patterns
        ):
            found.add(frozenset(assignment.items()))
    return found


def solutions_as_sets(solutions: list[dict[str, Term]]) -> set[frozenset]:
    return {frozenset(sol.items()) for sol in solutions}


# ---------------------------------------------------------------------------
# Metadata-flavoured graphs: vocabulary drawn from a catalog, so rule and
# query machinery actually has something to chew on.

_KG = Iri("http://example.org/kg/main")
RDF_TYPE_IRI = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


def catalog_vocabulary(catalog) -> tuple[list[Iri], list[Iri]]:
    """(predicates, constant objects) mentioned by a catalog's queries and rules."""
    predicates: set[Iri] = set()
    constants: set[Iri] = set()
    for _, cq in catalog.queries():
        for tp in cq.query.pattern.patterns:
            if isinstance(tp.predicate, Iri):
                predicates.add(tp.predicate)
            if isinstance(tp.object, Iri):
                constants.add(tp.object)
    for rule in catalog.rules:
        for tp in rule.source + rule.target:
            if isinstance(tp.predicate, Iri):
                predicates.add(tp.predicate)
            if isinstance(tp.object, Iri):
                constants.add(tp.object)
    key = lambda iri: iri.value
    return sorted(predicates, key=key), sorted(constants, key=key)


def random_metadata_graph(
    rng: random.Random,
    predicates: list[Iri],
    constants: list[Iri],
    max_triples: int = 40,
) -> Graph:
    resources: list = [
        _KG,
        Iri("http://example.org/kg/other"),
        Iri("http://example.org/agent/1"),
        Iri("http://example.org/agent/2"),
        Iri("http://example.org/thing/a"),
        Iri("http://example.org/thing/b"),
        BlankNode("m0"),
        BlankNode("m1"),
    ]
    literals = [
        Literal("Alice"),
        Literal("a knowledge graph"),
        Literal("2023-05-17", datatype="http://www.w3.org/2001/XMLSchema#date"),
        Literal("hello", language="en"),
    ]
    noise = [Iri("http://example.org/unrelated"), RDF_TYPE_IRI]
    g = Graph()
    for _ in range(rng.randrange(max_triples + 1)):
        subject = rng.choice(resources)
        predicate = rng.choice(predicates + noise)
        roll = rng.random()
        if roll < 0.5:
            obj = rng.choice(resources)
        elif roll < 0.75:
            obj = rng.choice(literals)
        elif constants:
            obj = rng.choice(constants)
        else:
            obj = rng.choice(resources)
        g.add(Triple(subject, predicate, obj))
    return g


def catalog_shapes(catalog) -> list[tuple]:
    """Every compact pattern list and every expanded branch of a catalog:
    the shapes a dataset's metadata must take for its queries to match."""
    shapes = []
    for _, cq in catalog.queries():
        shapes.append(cq.query.pattern.patterns)
        expanded = catalog.expanded[cq.id].pattern
        branches = expanded.branches if isinstance(expanded, UnionPattern) else (expanded,)
        shapes.extend(branch.patterns for branch in branches)
    return shapes


def instantiate_shape(
    rng: random.Random,
    patterns,
    kg: Iri,
    predicates: list[Iri],
    nodes: list,
    literals: list[Literal],
) -> list[Triple]:
    """One match of ``patterns`` with ?kg bound to ``kg``.  A variable in
    predicate position takes one of ``predicates``; any other takes one of
    ``nodes`` (IRIs and blank nodes), or a literal where it is never a
    subject."""
    subjects = {tp.subject.name for tp in patterns if isinstance(tp.subject, Variable)}
    verbs = {tp.predicate.name for tp in patterns if isinstance(tp.predicate, Variable)}
    binding = {"kg": kg}

    def bind(pos):
        if not isinstance(pos, Variable):
            return pos
        if pos.name not in binding:
            if pos.name in verbs:
                binding[pos.name] = rng.choice(predicates)
            elif pos.name in subjects or rng.random() < 0.8:
                binding[pos.name] = rng.choice(nodes)
            else:
                binding[pos.name] = rng.choice(literals)
        return binding[pos.name]

    return [Triple(bind(tp.subject), bind(tp.predicate), bind(tp.object)) for tp in patterns]


# ---------------------------------------------------------------------------
# Reference term model: the frozen dataclasses ``kgaudit.rdf`` used for its
# terms before they became tuples, copied as they were, so tests can check
# the tuple terms against them.  Each sets ``__qualname__`` so that its
# repr reads like the class it models.

_REF_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
_REF_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_REF_LANGTAG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")
_REF_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
_REF_IRI_FORBIDDEN_RE = re.compile(r'[\x00-\x20<>"{}|^`\\\ud800-\udfff]')


@dataclass(frozen=True, order=False)
class RefIri:
    __qualname__ = "Iri"

    value: str

    def __post_init__(self) -> None:
        if not _REF_SCHEME_RE.match(self.value):
            raise ValueError(f"IRI is not absolute: {self.value!r}")
        if _REF_IRI_FORBIDDEN_RE.search(self.value):
            raise ValueError(f"IRI contains a forbidden character: {self.value!r}")

    def __repr__(self) -> str:
        return f"Iri({self.value!r})"


@dataclass(frozen=True)
class RefBlankNode:
    __qualname__ = "BlankNode"

    label: str

    def __post_init__(self) -> None:
        if not _REF_BLANK_LABEL_RE.match(self.label) or self.label.endswith("."):
            raise ValueError(f"invalid blank node label: {self.label!r}")


@dataclass(frozen=True)
class RefLiteral:
    __qualname__ = "Literal"

    lexical: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise ValueError("literal cannot carry both a datatype and a language")
        if self.language is not None and not _REF_LANGTAG_RE.match(self.language):
            raise ValueError(f"invalid language tag: {self.language!r}")
        if self.datatype == _REF_XSD_STRING:
            object.__setattr__(self, "datatype", None)


@dataclass(frozen=True)
class RefTriple:
    __qualname__ = "Triple"

    subject: object
    predicate: object
    object: object

    def __post_init__(self) -> None:
        if isinstance(self.subject, RefLiteral):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(self.predicate, RefIri):
            raise ValueError("triple predicate must be an IRI")


_REF_ECHAR_ENCODE = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


def ref_format_term(term) -> str:
    """``format_term`` over the reference classes."""
    if isinstance(term, RefIri):
        return f"<{term.value}>"
    if isinstance(term, RefBlankNode):
        return f"_:{term.label}"
    body = "".join(_REF_ECHAR_ENCODE.get(c, c) for c in term.lexical)
    if term.language is not None:
        return f'"{body}"@{term.language}'
    if term.datatype is not None:
        return f'"{body}"^^<{term.datatype}>'
    return f'"{body}"'


# ---------------------------------------------------------------------------
# Reference aggregation: ``kgaudit.scoring.build_result`` as it computed
# scores before they were read off the catalog's scoring plan, copied as it
# was, so tests can check the plan against it.


def ref_build_result(catalog, dataset: str, outcomes):
    """(outcomes in catalog order, question scores, node scores)."""
    by_id = {}
    for outcome in outcomes:
        if outcome.query_id in by_id:
            raise ValueError(f"duplicate outcome for query '{outcome.query_id}'")
        by_id[outcome.query_id] = outcome
    expected = [cq.id for _, cq in catalog.queries()]
    missing = [qid for qid in expected if qid not in by_id]
    stray = sorted(set(by_id) - set(expected))
    if missing or stray:
        parts = []
        if missing:
            parts.append("missing outcomes: " + ", ".join(missing))
        if stray:
            parts.append("unknown query ids: " + ", ".join(stray))
        raise ValueError("; ".join(parts))

    question_scores = {}
    for question in catalog.questions():
        hits = sum(1 for cq in question.queries if by_id[cq.id].success)
        question_scores[question.id] = Fraction(hits, len(question.queries))

    node_scores = {}
    for leaf in catalog.leaves():
        total = sum(q.weight for q in leaf.questions)
        weighted = sum(q.weight * question_scores[q.id] for q in leaf.questions)
        node_scores[leaf.id] = weighted / total
    for step in catalog.steps():
        node_scores[step.id] = sum(
            node_scores[leaf.id] for leaf in step.children
        ) / len(step.children)
    node_scores["root"] = sum(
        node_scores[step.id] for step in catalog.steps()
    ) / len(catalog.steps())

    ordered = tuple(by_id[qid] for qid in expected)
    return ordered, question_scores, node_scores
