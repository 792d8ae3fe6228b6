"""Saturation semantics, tracing, and agreement with extended queries."""

import random

import pytest

from kgaudit.catalog import EquivalenceRule, default_catalog, expand_extended
from kgaudit.rdf import BlankNode, Graph, Iri, Literal, Triple, parse_ntriples
from kgaudit.saturation import SaturationCapExceeded, saturate
from kgaudit.sparql import eval_ask, parse_triple_patterns, substitute

from helpers import catalog_vocabulary, random_metadata_graph

EX = "http://example.org/"
KG = Iri(EX + "kg/main")


def _rules(*pairs: tuple[str, str]) -> tuple[EquivalenceRule, ...]:
    return tuple(
        EquivalenceRule(f"r{i}", parse_triple_patterns(src, {}), parse_triple_patterns(tgt, {}))
        for i, (src, tgt) in enumerate(pairs)
    )


def test_single_step_rewrite():
    g = parse_ntriples(f"<{KG.value}> <http://schema.org/author> <{EX}alice> .\n")
    sat, _ = saturate(g, default_catalog().rules)
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
    sat, trace = saturate(g, default_catalog().rules)
    assert Triple(KG, Iri("http://purl.org/dc/terms/publisher"), Iri(EX + "acme")) in sat
    assert trace.firings["publisher-prov-activity"] == 1
    assert trace.passes == 2
    assert trace.derived == 1


def test_input_graph_is_not_mutated():
    g = parse_ntriples(f"<{KG.value}> <http://schema.org/author> <{EX}alice> .\n")
    before = g.copy()
    saturate(g, default_catalog().rules)
    assert g == before


def test_no_rules_is_a_copy():
    g = parse_ntriples(f"<{KG.value}> <{EX}p> <{EX}o> .\n")
    sat, trace = saturate(g, ())
    assert sat == g
    assert sat is not g
    assert trace.derived == 0
    assert trace.passes == 1  # one pass that found nothing new to derive


def test_empty_graph():
    sat, trace = saturate(Graph(), default_catalog().rules)
    assert len(sat) == 0
    assert trace.passes == 0


def test_idempotent():
    rng = random.Random(7)
    predicates, constants = catalog_vocabulary(default_catalog())
    for _ in range(10):
        g = random_metadata_graph(rng, predicates, constants)
        once, _ = saturate(g, default_catalog().rules)
        twice, _ = saturate(once, default_catalog().rules)
        assert once == twice


def test_output_contains_input():
    rng = random.Random(8)
    predicates, constants = catalog_vocabulary(default_catalog())
    for _ in range(10):
        g = random_metadata_graph(rng, predicates, constants)
        sat, _ = saturate(g, default_catalog().rules)
        assert all(t in sat for t in g)


def test_firings_count_distinct_solutions():
    g = parse_ntriples(
        f"<{KG.value}> <http://schema.org/author> <{EX}alice> .\n"
        f"<{KG.value}> <http://schema.org/author> <{EX}bob> .\n"
    )
    _, trace = saturate(g, default_catalog().rules)
    assert trace.firings["creator-schema-author"] == 2


def test_duplicate_derivations_counted_once():
    # both rules would derive the same canonical triple; only the first adds it
    g = parse_ntriples(
        f"<{KG.value}> <http://purl.org/dc/elements/1.1/creator> <{EX}alice> .\n"
        f"<{KG.value}> <http://schema.org/creator> <{EX}alice> .\n"
    )
    sat, trace = saturate(g, default_catalog().rules)
    assert trace.derived == 1
    assert trace.firings["creator-dce"] + trace.firings["creator-schema"] == 1


def test_pass_cap_raises_on_chained_rules():
    rules = _rules(
        (f"?s <{EX}a> ?o .", f"?s <{EX}b> ?o ."),
        (f"?s <{EX}b> ?o .", f"?s <{EX}c> ?o ."),
        (f"?s <{EX}c> ?o .", f"?s <{EX}d> ?o ."),
    )
    g = parse_ntriples(f"<{EX}x> <{EX}a> <{EX}y> .\n")
    sat, trace = saturate(g, rules, cap=10)
    assert len(sat) == 4
    assert trace.passes == 4
    with pytest.raises(SaturationCapExceeded):
        saturate(g, rules, cap=2)


def test_unsound_instantiations_are_skipped():
    # ?o can bind a literal, which cannot be a subject; nothing is derived
    rules = _rules((f"?s <{EX}p> ?o .", f"?o <{EX}q> ?s ."))
    g = Graph()
    g.add(Triple(Iri(EX + "x"), Iri(EX + "p"), Literal("text")))
    g.add(Triple(Iri(EX + "x"), Iri(EX + "p"), Iri(EX + "y")))
    sat, _ = saturate(g, rules)
    assert len(sat) == 3
    assert Triple(Iri(EX + "y"), Iri(EX + "q"), Iri(EX + "x")) in sat


def _naive_fixpoint(g: Graph, rules) -> tuple[Graph, int]:
    """Reference implementation: re-run every rule on the whole graph.

    Also returns the number of rounds that derived something.
    """
    from kgaudit.sparql import eval_bgp
    from kgaudit.saturation import _instantiate

    work = g.copy()
    rounds = 0
    while True:
        additions = []
        for rule in rules:
            for solution in eval_bgp(work, rule.source):
                for tp in rule.target:
                    triple = _instantiate(tp, solution)
                    if triple is not None and triple not in work:
                        additions.append(triple)
        if not additions:
            return work, rounds
        rounds += 1
        work.update(additions)


def _expected_passes(g: Graph, rounds: int) -> int:
    # one pass per deriving round, then one that finds nothing new
    return rounds + 1 if len(g) else 0


def test_matches_naive_fixpoint():
    rng = random.Random(20250214)
    predicates, constants = catalog_vocabulary(default_catalog())
    rules = default_catalog().rules
    for _ in range(25):
        g = random_metadata_graph(rng, predicates, constants)
        sat, trace = saturate(g, rules)
        expected, rounds = _naive_fixpoint(g, rules)
        assert sat == expected
        assert trace.passes == _expected_passes(g, rounds)


def test_chained_and_variable_predicate_rules_match_naive_fixpoint():
    # Later passes derive here, so the delta each pattern is bound to
    # matters: a chain a -> b -> c -> d, and a rule whose source has a
    # variable predicate that turns aliased predicates into their target.
    rules = _rules(
        (f"?s <{EX}a> ?o .", f"?s <{EX}b> ?o ."),
        (f"?s <{EX}b> ?o .", f"?s <{EX}c> ?o ."),
        (f"?s <{EX}c> ?o .", f"?s <{EX}d> ?o ."),
        (f"?s ?p ?o . ?p <{EX}alias> ?q .", f"?s ?q ?o ."),
    )
    predicates = [Iri(EX + name) for name in ("a", "b", "c", "d", "q", "alias")]
    nodes = [Iri(EX + f"n{i}") for i in range(3)] + [BlankNode("x")]
    rng = random.Random(31337)
    late_passes = alias_firings = 0
    for _ in range(60):
        g = Graph()
        for _ in range(rng.randrange(1, 10)):
            s = rng.choice(nodes + predicates)
            p = rng.choice(predicates)
            o = rng.choice(nodes + predicates + [Literal("v")])
            g.add(Triple(s, p, o))
        sat, trace = saturate(g, rules, cap=50)
        expected, rounds = _naive_fixpoint(g, rules)
        assert sat == expected
        assert trace.passes == _expected_passes(g, rounds)
        assert trace.derived == len(expected) - len(g)
        late_passes += trace.passes >= 4
        alias_firings += trace.firings["r3"]
    assert late_passes >= 10
    assert alias_firings > 0


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
        sat, _ = saturate(g, cat.rules)
        for _, cq in cat.queries():
            compact = substitute(cq.query, {"kg": KG})
            expanded = substitute(extended[cq.id], {"kg": KG})
            checked += 1
            if eval_ask(sat, compact) != eval_ask(g, expanded):
                disagreements += 1
    assert checked == 150 * 33
    assert disagreements == 0
