"""The reference saturation (``helpers.ref_saturate``): its semantics, its
trace, and its agreement with the expanded queries every route asks."""

import random

from kgaudit.catalog import EquivalenceRule, default_catalog, expand_extended
from kgaudit.rdf import BlankNode, Graph, Iri, Literal, Triple, parse_ntriples
from kgaudit.sparql import (
    Variable,
    eval_ask,
    parse_query,
    parse_triple_patterns,
    substitute,
)

from helpers import (
    catalog_vocabulary,
    eval_bgp,
    random_metadata_graph,
    ref_instantiate,
    ref_saturate,
)

EX = "http://example.org/"
KG = Iri(EX + "kg/main")


def _rules(*pairs: tuple[str, str]) -> tuple[EquivalenceRule, ...]:
    return tuple(
        EquivalenceRule(f"r{i}", parse_triple_patterns(src, {}), parse_triple_patterns(tgt, {}))
        for i, (src, tgt) in enumerate(pairs)
    )


def test_single_step_rewrite():
    g = parse_ntriples(f"<{KG.value}> <http://schema.org/author> <{EX}alice> .\n")
    sat, _ = ref_saturate(g, default_catalog().rules)
    derived = Triple(KG, Iri("http://purl.org/dc/terms/creator"), Iri(EX + "alice"))
    assert derived in sat
    assert len(sat) == 2


def test_publication_activity_chain_fires():
    g = parse_ntriples(
        f"<{KG.value}> <http://www.w3.org/ns/prov#wasGeneratedBy> <{EX}act> .\n"
        f"<{EX}act> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<http://www.w3.org/ns/prov#Publish> .\n"
        f"<{EX}act> <http://www.w3.org/ns/prov#wasAssociatedWith> <{EX}acme> .\n"
    )
    sat, trace = ref_saturate(g, default_catalog().rules)
    assert Triple(KG, Iri("http://purl.org/dc/terms/publisher"), Iri(EX + "acme")) in sat
    assert trace.firings["publisher-prov-activity"] == 1
    assert trace.derived == 1


def test_input_graph_is_not_mutated():
    g = parse_ntriples(f"<{KG.value}> <http://schema.org/author> <{EX}alice> .\n")
    before = list(g)
    ref_saturate(g, default_catalog().rules)
    assert list(g) == before


def test_no_rules_is_a_copy():
    g = parse_ntriples(f"<{KG.value}> <{EX}p> <{EX}o> .\n")
    sat, trace = ref_saturate(g, ())
    assert sat == g
    assert sat is not g
    assert trace.derived == 0


def test_empty_graph():
    sat, trace = ref_saturate(Graph(), default_catalog().rules)
    assert len(sat) == 0
    assert trace.derived == 0


def test_idempotent():
    rng = random.Random(7)
    predicates, constants = catalog_vocabulary(default_catalog())
    for _ in range(10):
        g = random_metadata_graph(rng, predicates, constants)
        once, _ = ref_saturate(g, default_catalog().rules)
        twice, _ = ref_saturate(once, default_catalog().rules)
        assert once == twice


def test_output_contains_input():
    rng = random.Random(8)
    predicates, constants = catalog_vocabulary(default_catalog())
    for _ in range(10):
        g = random_metadata_graph(rng, predicates, constants)
        sat, _ = ref_saturate(g, default_catalog().rules)
        assert all(t in sat for t in g)


def test_firings_count_distinct_solutions():
    g = parse_ntriples(
        f"<{KG.value}> <http://schema.org/author> <{EX}alice> .\n"
        f"<{KG.value}> <http://schema.org/author> <{EX}bob> .\n"
    )
    _, trace = ref_saturate(g, default_catalog().rules)
    assert trace.firings["creator-schema-author"] == 2


def test_duplicate_derivations_counted_once():
    # both rules would derive the same canonical triple; only the first adds it
    g = parse_ntriples(
        f"<{KG.value}> <http://purl.org/dc/elements/1.1/creator> <{EX}alice> .\n"
        f"<{KG.value}> <http://schema.org/creator> <{EX}alice> .\n"
    )
    sat, trace = ref_saturate(g, default_catalog().rules)
    assert trace.derived == 1
    assert trace.firings["creator-dce"] + trace.firings["creator-schema"] == 1


def test_unsound_instantiations_are_skipped():
    # ?o can bind a literal, which cannot be a subject; nothing is derived
    rules = _rules((f"?s <{EX}p> ?o .", f"?o <{EX}q> ?s ."))
    g = Graph(
        [
            Triple(Iri(EX + "x"), Iri(EX + "p"), Literal("text")),
            Triple(Iri(EX + "x"), Iri(EX + "p"), Iri(EX + "y")),
        ]
    )
    sat, _ = ref_saturate(g, rules)
    assert len(sat) == 3
    assert Triple(Iri(EX + "y"), Iri(EX + "q"), Iri(EX + "x")) in sat


def _naive_fixpoint(g: Graph, rules) -> Graph:
    """Reference: re-run every rule on the whole graph until nothing is new."""
    work = g
    while True:
        additions = []
        for rule in rules:
            for solution in eval_bgp(work, rule.source):
                for tp in rule.target:
                    triple = ref_instantiate(tp, solution)
                    if triple is not None and triple not in work:
                        additions.append(triple)
        if not additions:
            return work
        work = Graph([*work, *additions])


def test_matches_naive_fixpoint():
    # The catalog refuses rules whose source uses a derived predicate, so
    # on the default catalog one application is already a fixpoint.
    rng = random.Random(20250214)
    predicates, constants = catalog_vocabulary(default_catalog())
    rules = default_catalog().rules
    for _ in range(25):
        g = random_metadata_graph(rng, predicates, constants)
        sat, _ = ref_saturate(g, rules)
        assert sat == _naive_fixpoint(g, rules)


_PREDICATES = [Iri(EX + name) for name in "abcd"]
_IRIS = [Iri(EX + "n0"), Iri(EX + "n1")]
_NODES = _IRIS + [BlankNode("x"), BlankNode("y")]
_LITERALS = [Literal("v"), Literal("w", language="en")]


def _term(rng: random.Random, variables: list[str], literal: bool = True) -> str:
    """A variable, or now and then a constant IRI or literal (never a blank node)."""
    roll = rng.random()
    if roll < 0.8:
        return "?" + rng.choice(variables)
    if roll < 0.9 or not literal:
        return f"<{rng.choice(_IRIS).value}>"
    return '"v"'


def _random_rule(rng: random.Random, index: int) -> EquivalenceRule:
    """A rule ?s <p> ?o whose source may chain or have variable predicates."""
    while True:
        source = []
        for position in range(rng.randrange(1, 3)):
            subject = "?s" if position == 0 else "?" + rng.choice(["s", "o", "m"])
            predicate = (
                "?" + rng.choice(["p", "q"])
                if rng.random() < 0.3
                else f"<{rng.choice(_PREDICATES).value}>"
            )
            obj = _term(rng, ["o", "m", "p"])
            source.append(f"{subject} {predicate} {obj} .")
        patterns = parse_triple_patterns(" ".join(source), {})
        bound = {p.name for tp in patterns for p in tp if isinstance(p, Variable)}
        if bound - {"s"}:
            break
    target = f"?s <{rng.choice(_PREDICATES).value}> ?{rng.choice(sorted(bound - {'s'}))} ."
    return EquivalenceRule(f"r{index}", patterns, parse_triple_patterns(target, {}))


def _random_compact_query(rng: random.Random):
    patterns = []
    for _ in range(rng.randrange(1, 3)):
        subject = _term(rng, ["kg", "y"], literal=False)
        obj = _term(rng, ["kg", "y", "z"])
        patterns.append(f"{subject} <{rng.choice(_PREDICATES).value}> {obj} .")
    return parse_query("ASK { " + " ".join(patterns) + " }")


def _random_graph(rng: random.Random) -> Graph:
    triples = []
    for _ in range(rng.randrange(1, 12)):
        subject = rng.choice(_NODES + _PREDICATES)
        obj = rng.choice(_NODES + _PREDICATES + _LITERALS)
        triples.append(Triple(subject, rng.choice(_PREDICATES), obj))
    return Graph(triples)


def test_random_rule_sets_saturate_like_expansion():
    # Chains (a source predicate another rule derives) and variable-predicate
    # sources included: one application to the published triples answers
    # every compact ASK exactly like the expanded query on the raw graph.
    rng = random.Random(60606)
    checked = positive = derived_only = beyond_one_step = variable_firings = 0
    for case in range(120):
        rules = tuple(_random_rule(rng, i) for i in range(rng.randrange(1, 5)))
        queries = [_random_compact_query(rng) for _ in range(6)]
        for _ in range(4):
            g = _random_graph(rng)
            sat, trace = ref_saturate(g, rules)
            beyond_one_step += _naive_fixpoint(g, rules) != sat
            variable_firings += sum(
                trace.firings[rule.id]
                for rule in rules
                if any(isinstance(tp.predicate, Variable) for tp in rule.source)
            )
            for query in queries:
                answer = eval_ask(sat, query)
                assert answer == eval_ask(g, expand_extended(query, rules)), (case, query)
                checked += 1
                positive += answer
                derived_only += answer and not eval_ask(g, query)
    assert checked == 120 * 4 * 6
    assert 0.1 < positive / checked < 0.9
    assert derived_only > 50  # answers that need a derived triple
    assert beyond_one_step > 50  # a fixpoint would have derived more
    assert variable_firings > 50


def test_compact_on_saturated_agrees_with_extended_on_raw():
    rng = random.Random(424242)
    cat = default_catalog()
    predicates, constants = catalog_vocabulary(cat)
    extended = {
        cq.id: expand_extended(cq.query, cat.rules) for _, cq in cat.queries()
    }
    checked = disagreements = 0
    for _ in range(150):
        g = random_metadata_graph(rng, predicates, constants)
        sat, _ = ref_saturate(g, cat.rules)
        for _, cq in cat.queries():
            compact = substitute(cq.query, {"kg": KG})
            expanded = substitute(extended[cq.id], {"kg": KG})
            checked += 1
            if eval_ask(sat, compact) != eval_ask(g, expanded):
                disagreements += 1
    assert checked == 150 * 33
    assert disagreements == 0
