"""Shared test helpers: fixture paths, random RDF generators, oracles."""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import yaml

from kgaudit.catalog import Catalog, default_catalog, parse_catalog
from kgaudit.rdf import (
    RDF_TYPE,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    format_term,
    parse_ntriples,
    term_sort_key,
)
from kgaudit.reporting import (
    _D_COMPUTED_ON,
    _D_MEASUREMENT,
    _D_MEASUREMENT_OF,
    _D_METRIC,
    _D_VALUE,
    _MEASURE,
    _METRIC_NODE,
    _METRIC_QUERY,
    _METRIC_QUESTION,
    _T_ENDPOINT,
    _T_EXACT,
    _T_FAILURE,
    _T_GENERATED,
    _T_HASH,
    _T_VERSION,
    _XSD_BOOLEAN,
    _XSD_DECIMAL,
    REPORT_NODE,
    Report,
    _pair_id,
)
from kgaudit.scoring import DatasetResult, FailureKind, QueryOutcome, build_result
from kgaudit.sparql import (
    Bgp,
    TriplePattern,
    UnionPattern,
    Variable,
    _gen,
    eval_ask,
    substitute,
)

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


def counted_parse(monkeypatch, module) -> list[str]:
    """The texts ``module`` parses as N-Triples from now on, in call order:
    its global ``parse_ntriples``, the one the benchmark's tracer wraps, is
    replaced by a recording one."""
    parsed = []

    def counting(text, memo=None):
        parsed.append(text)
        return parse_ntriples(text, memo)

    monkeypatch.setattr(module, "parse_ntriples", counting)
    return parsed


def default_catalog_doc() -> dict:
    """The bundled catalog file as a fresh YAML document, for a test to
    change and write back with ``yaml.safe_dump``."""
    path = resources.files("kgaudit").joinpath("data/default_catalog.yaml")
    return yaml.safe_load(path.read_text("utf-8"))


def three_hop_catalog_text() -> str:
    """The default catalog with ``THREE_HOP_RULE`` added and ``creator``'s
    second query replaced by ``THREE_HOP_QUERY``, as YAML."""
    doc = default_catalog_doc()
    doc["rules"].append(THREE_HOP_RULE)
    creator = next(q for q in doc["questions"] if q["id"] == "creator")
    creator["queries"][1]["ask"] = THREE_HOP_QUERY
    return yaml.safe_dump(doc)


def three_hop_catalog() -> Catalog:
    return parse_catalog(three_hop_catalog_text())


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
    return Graph(random_triple(rng) for _ in range(rng.randrange(max_triples + 1)))


def graph_terms(g: Graph) -> list[Term]:
    """Each term occurring in any position of the graph's triples, once, in
    term order, so that a seeded draw from them repeats from run to run."""
    return sorted({term for triple in g for term in triple}, key=term_sort_key)


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
    return Graph(
        Triple(
            rng.choice(_SMALL_SUBJECTS),
            rng.choice(_SMALL_PREDICATES),
            rng.choice(_SMALL_OBJECTS),
        )
        for _ in range(rng.randrange(max_triples + 1))
    )


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


def eval_bgp(g: Graph, patterns: Bgp | Iterable[TriplePattern]) -> list[dict[str, Term]]:
    """Distinct solutions of a basic graph pattern, natural-join semantics,
    in the order the evaluator's own join walk meets them.

    They are distinct without a pass that removes repeats: a graph holds
    each triple once, and two triples one join step matches agree on the
    fixed and the supplied positions, so they differ in a position that
    binds a new name or in one that must equal such a position.  Either
    way the two extensions differ.  A :class:`Bgp` keeps its join plans
    from one call to the next.
    """
    bgp = patterns if isinstance(patterns, Bgp) else Bgp(tuple(patterns))
    return _gen(g, bgp, {})


def bgp_oracle(g: Graph, patterns: list[TriplePattern]) -> set[frozenset]:
    """Reference BGP semantics: try every assignment of variables to graph terms."""
    names = sorted({pos.name for tp in patterns for pos in tp if isinstance(pos, Variable)})
    facts = {(t.subject, t.predicate, t.object) for t in g}
    universe = graph_terms(g)
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
    triples = []
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
        triples.append(Triple(subject, predicate, obj))
    return Graph(triples)


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
# Reference saturation: every rule applied once to the published triples.
# The compact queries over its result answer like the expanded queries
# every route asks over the raw graph; tests check the one against the
# other.


class SaturationTrace(NamedTuple):
    """What happened during one saturation run."""

    input_size: int
    output_size: int
    firings: Mapping[str, int]

    @property
    def derived(self) -> int:
        return self.output_size - self.input_size


def ref_instantiate(tp: TriplePattern, solution) -> Triple | None:
    def resolve(pos):
        if isinstance(pos, Variable):
            return solution.get(pos.name)
        return pos

    subject = resolve(tp.subject)
    predicate = resolve(tp.predicate)
    obj = resolve(tp.object)
    if subject is None or predicate is None or obj is None:
        return None
    try:
        return Triple(subject, predicate, obj)
    except ValueError:
        # e.g. a literal bound into subject position; nothing sound to add
        return None


def ref_saturate(graph: Graph, rules) -> tuple[Graph, SaturationTrace]:
    work = dict.fromkeys(graph)
    firings = {rule.id: 0 for rule in rules}
    for rule in rules:
        for solution in eval_bgp(graph, rule.source):
            added = 0
            for tp in rule.target:
                triple = ref_instantiate(tp, solution)
                if triple is not None and triple not in work:
                    work[triple] = None
                    added += 1
            if added:
                firings[rule.id] += 1
    return Graph(work), SaturationTrace(len(graph), len(work), firings)


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


def evaluate_graph(catalog: Catalog, graph: Graph, dataset: Iri) -> DatasetResult:
    """Audit one dataset in a local graph the rule-based way: saturate it,
    then ask each compact query with ?kg bound to the dataset."""
    saturated, _ = ref_saturate(graph, catalog.rules)
    outcomes = []
    for _, cq in catalog.queries():
        ok = eval_ask(saturated, substitute(cq.query, {"kg": dataset}))
        outcomes.append(QueryOutcome(cq.id, ok, None if ok else FailureKind.ANSWER_FALSE))
    return build_result(catalog, dataset.value, outcomes)


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


# ---------------------------------------------------------------------------
# Reference DQV writer: the report.nt writer as it was before it sorted
# subject blocks, less its caches of formatted terms, so tests can check
# the block writer's bytes against it.  It collects whole lines in a set
# and sorts them all, which needs no argument about order.


def ref_to_dqv(report) -> str:
    def tail(predicate, obj: str) -> str:
        return f" {format_term(predicate)} {obj} ."

    is_measurement = tail(Iri(RDF_TYPE), format_term(_D_MEASUREMENT))
    is_metric = tail(Iri(RDF_TYPE), format_term(_D_METRIC))
    true = tail(_D_VALUE, format_term(Literal("true", datatype=_XSD_BOOLEAN)))
    false = tail(_D_VALUE, format_term(Literal("false", datatype=_XSD_BOOLEAN)))
    failures = {
        kind: tail(_T_FAILURE, format_term(Literal(kind.value))) for kind in FailureKind
    }

    report_node = format_term(REPORT_NODE)
    lines = {
        report_node + tail(predicate, format_term(Literal(value)))
        for predicate, value in (
            (_T_GENERATED, report.generated_at),
            (_T_VERSION, report.catalog_version),
            (_T_HASH, report.catalog_hash),
        )
    }
    metrics: set[str] = set()
    for endpoint, results in report.results.items():
        for result in results:
            pair = _pair_id(endpoint, result.dataset)
            computed_on = tail(_D_COMPUTED_ON, format_term(Iri(result.dataset)))
            on_endpoint = tail(_T_ENDPOINT, format_term(Iri(endpoint)))
            for outcome in result.outcomes:
                metric = _METRIC_QUERY + outcome.query_id
                metrics.add(metric)
                m = f"<{_MEASURE}query:{pair}:{outcome.query_id}>"
                lines.update(
                    (
                        m + is_measurement,
                        m + computed_on,
                        m + tail(_D_MEASUREMENT_OF, format_term(Iri(metric))),
                        m + on_endpoint,
                        m + (true if outcome.success else false),
                    )
                )
                if outcome.failure is not None:
                    lines.add(m + failures[outcome.failure])
            for kind, prefix, scores in (
                ("question", _METRIC_QUESTION, result.question_scores),
                ("node", _METRIC_NODE, result.node_scores),
            ):
                for key, score in scores.items():
                    metric = prefix + key
                    metrics.add(metric)
                    decimal = Literal(f"{float(score):.6f}", datatype=_XSD_DECIMAL)
                    m = f"<{_MEASURE}{kind}:{pair}:{key}>"
                    lines.update(
                        (
                            m + is_measurement,
                            m + computed_on,
                            m + tail(_D_MEASUREMENT_OF, format_term(Iri(metric))),
                            m + on_endpoint,
                            m + tail(_D_VALUE, format_term(decimal)),
                            m + tail(_T_EXACT, format_term(Literal(str(score)))),
                        )
                    )
    lines.update(format_term(Iri(metric)) + is_metric for metric in metrics)
    return "\n".join(sorted(lines)) + "\n"


# ---------------------------------------------------------------------------
# Reference DQV reader: ``from_dqv`` parses a DQV export back into the full
# report, recomputing the aggregation and refusing exports whose stored
# node scores disagree with their own query outcomes or that name another
# catalog.  No command reads DQV back; tests use it to check that
# ``dqv_blocks`` loses nothing.


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
# Dump-shaped files: a small VoID/DCAT description inside instance data, the
# way a knowledge graph's published dump holds its own metadata.

_DUMP_RESOURCE = "http://dump.example.org/resource/"
# classes that no dataset discovery or catalog query looks for
_DUMP_CLASSES = [
    Iri("http://dbpedia.org/ontology/Person"),
    Iri("http://dbpedia.org/ontology/Place"),
    Iri("http://dbpedia.org/ontology/Film"),
]
# predicates no catalog query or rule names
_DUMP_PREDICATES = [
    Iri("http://dbpedia.org/ontology/birthPlace"),
    Iri("http://dbpedia.org/ontology/populationTotal"),
    Iri("http://dbpedia.org/ontology/director"),
    Iri("http://www.w3.org/2000/01/rdf-schema#comment"),
]


def dump_text(metadata: str, instances: int, seed: int = 0) -> str:
    """The N-Triples ``metadata`` with ``instances`` distinct seeded lines
    of instance data around it, half before and half after.  Every subject
    and every IRI object of those lines is a dump resource that no metadata
    names, so no dataset reaches one.  About a fifth of them type a
    resource with a class no discovery looks for; the rest use predicates
    of the default catalog and predicates outside it, with resource,
    plain-literal and typed-literal objects."""
    rng = random.Random(seed)
    predicates = catalog_vocabulary(default_catalog())[0] + _DUMP_PREDICATES
    resources = [Iri(f"{_DUMP_RESOURCE}{n}") for n in range(max(1, instances // 5))]
    integer = "http://www.w3.org/2001/XMLSchema#integer"
    lines: dict[str, None] = {}  # each line once, in the order made
    for n in itertools.count():
        if len(lines) == instances:
            break
        subject = rng.choice(resources)
        roll = rng.random()
        if roll < 0.2:
            triple = Triple(subject, RDF_TYPE_IRI, rng.choice(_DUMP_CLASSES))
        else:
            if roll < 0.5:
                obj = rng.choice(resources)
            elif roll < 0.8:
                obj = Literal(f"label {n}", language=rng.choice(["en", "de", None]))
            else:
                obj = Literal(str(n), datatype=integer)
            triple = Triple(subject, rng.choice(predicates), obj)
        lines[" ".join(map(format_term, triple)) + " .\n"] = None
    instance = list(lines)
    half = instances // 2
    return "".join(instance[:half]) + metadata + "".join(instance[half:])


def write_dump(metadata_path: str, dump_path: str, instances: int, seed: int = 0) -> None:
    """Write ``dump_text`` of the metadata file to ``dump_path``."""
    with open(metadata_path, encoding="utf-8") as handle:
        metadata = handle.read()
    with open(dump_path, "w", encoding="utf-8") as handle:
        handle.write(dump_text(metadata, instances, seed))
