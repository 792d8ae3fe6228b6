"""Tests for the SPARQL fragment: parsing, printing, substitution, evaluation."""

from __future__ import annotations

import random

import pytest

from helpers import bgp_oracle, random_bgp, small_graph, solutions_as_sets
from kgaudit import sparql
from kgaudit.rdf import BlankNode, Graph, Iri, Literal, Triple, parse_ntriples, term_sort_key
from kgaudit.sparql import (
    Bgp,
    InlineData,
    Query,
    SeqPattern,
    SparqlError,
    TriplePattern,
    UnionPattern,
    UnsupportedSparqlFeature,
    Variable,
    bind_values,
    eval_ask,
    eval_bgp,
    eval_select,
    format_query,
    parse_query,
    parse_triple_patterns,
    pattern_variables,
    substitute,
    values_with_solution,
)

DCT = "http://purl.org/dc/terms/"

PUBLISHER_ASK = (
    "PREFIX dct: <http://purl.org/dc/terms/>\n"
    "ASK { ?kg dct:publisher ?publisher . }\n"
)

DISCOVERY_SELECT = """
PREFIX dcat: <http://www.w3.org/ns/dcat#>
PREFIX void: <http://rdfs.org/ns/void#>
PREFIX dcmitype: <http://purl.org/dc/dcmitype/>
PREFIX schema: <http://schema.org/>
PREFIX sd: <http://www.w3.org/ns/sparql-service-description#>
PREFIX dataid: <http://dataid.dbpedia.org/ns/core#>
SELECT ?kg WHERE {
  ?kg ?endpointLink $rawEndpointUrl .
  { ?kg a dcat:Dataset } UNION { ?kg a void:Dataset } UNION { ?kg a dcmitype:Dataset }
  UNION { ?kg a schema:Dataset } UNION { ?kg a sd:Dataset } UNION { ?kg a dataid:Dataset }
}
"""


# ---------------------------------------------------------------------------
# Parsing


def test_parse_simple_ask() -> None:
    q = parse_query(PUBLISHER_ASK)
    assert q.form == "ask"
    assert q.projection is None
    assert q.pattern == Bgp(
        (TriplePattern(Variable("kg"), Iri(DCT + "publisher"), Variable("publisher")),)
    )
    assert q.prefixes == {"dct": DCT}


def test_parse_discovery_shape() -> None:
    q = parse_query(DISCOVERY_SELECT)
    assert q.form == "select"
    assert q.projection == ("kg",)
    assert isinstance(q.pattern, SeqPattern)
    first, alternatives = q.pattern.parts
    assert first == Bgp(
        (TriplePattern(Variable("kg"), Variable("endpointLink"), Variable("rawEndpointUrl")),)
    )
    assert isinstance(alternatives, UnionPattern)
    assert len(alternatives.branches) == 6


def test_parse_predicate_object_lists_and_type_shortcut() -> None:
    q = parse_query(
        "PREFIX dcat: <http://www.w3.org/ns/dcat#>\n"
        'ASK { ?kg a dcat:Dataset ; dcat:keyword "a", "b" . }'
    )
    assert isinstance(q.pattern, Bgp)
    assert len(q.pattern.patterns) == 3


def test_parse_empty_ask_and_select_star() -> None:
    assert parse_query("ASK {}").pattern == Bgp(())
    q = parse_query("SELECT * WHERE { ?s ?p ?o }")
    assert q.projection == ()


def test_dollar_and_question_mark_spell_one_variable() -> None:
    # SPARQL 1.1 §4.1.3: $abc and ?abc identify the same variable
    assert parse_query("SELECT ?s WHERE { $s ?p ?o }") == parse_query("SELECT ?s WHERE { ?s ?p ?o }")
    assert parse_query("SELECT $s WHERE { ?s ?p ?o }") == parse_query("SELECT ?s WHERE { ?s ?p ?o }")
    assert parse_query("ASK { VALUES $x { } }") == parse_query("ASK { VALUES ?x { } }")


def test_parse_typed_and_tagged_literals() -> None:
    q = parse_query(
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
        'ASK { ?s ?p "2021-01-01"^^xsd:date . ?s ?q "hi"@en . }'
    )
    objects = [tp.object for tp in q.pattern.patterns]
    assert Literal("2021-01-01", datatype="http://www.w3.org/2001/XMLSchema#date") in objects
    assert Literal("hi", language="en") in objects


@pytest.mark.parametrize(
    ("text", "feature"),
    [
        ("ASK { ?s ?p ?o . FILTER(?o > 1) }", "FILTER"),
        ("ASK { OPTIONAL { ?s ?p ?o } }", "OPTIONAL"),
        ("PREFIX dct: <http://purl.org/dc/terms/> ASK { ?s dct:a/dct:b ?o }", "property paths"),
        ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5", "LIMIT"),
        ("ASK { GRAPH ?g { ?s ?p ?o } }", "GRAPH"),
        ("ASK { BIND(1 AS ?x) }", "BIND"),
        ("ASK { VALUES (?x ?y) { (<http://e.org/a> <http://e.org/b>) } }", "VALUES over several"),
        ("ASK { VALUES ?x { UNDEF } }", "UNDEF"),
        ("SELECT ?x WHERE { ?x ?p ?o } VALUES ?x { <http://e.org/a> }", "VALUES other than"),
        ("ASK { ?x ?p ?o . VALUES ?x { <http://e.org/a> } }", "VALUES other than"),
        ("ASK { ?x ?p ?o VALUES ?x { <http://e.org/a> } }", "VALUES other than"),
        ("ASK { VALUES ?x { 1 } }", "numeric literals"),
        ("ASK { ?s ?p _:b }", "blank nodes"),
        ("ASK { ?s ?p 42 }", "numeric literals"),
        ("ASK { ?s ?p (1 2) }", "RDF collections"),
        ("ASK { ?s ?p [ ?q ?o ] }", "blank node property lists"),
        ("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }", "CONSTRUCT"),
    ],
)
def test_out_of_fragment_constructs_are_named(text: str, feature: str) -> None:
    with pytest.raises(UnsupportedSparqlFeature) as err:
        parse_query(text)
    assert feature in str(err.value)


def test_syntax_errors() -> None:
    with pytest.raises(SparqlError):
        parse_query("ASK {")
    with pytest.raises(SparqlError) as err:
        parse_query("ASK { ?s dct:title ?o }")
    assert "dct:" in str(err.value)
    with pytest.raises(SparqlError) as err2:
        parse_query("SELECT ?nope WHERE { ?s ?p ?o }")
    assert "nope" in str(err2.value)


@pytest.mark.parametrize(
    "text",
    [
        "ASK { VALUES ?x { ?y } }",
        "ASK { VALUES ?x <http://e.org/a> }",
    ],
)
def test_inline_data_needs_one_variable_and_concrete_terms(text: str) -> None:
    with pytest.raises(SparqlError) as err:
        parse_query(text)
    assert not isinstance(err.value, UnsupportedSparqlFeature)


def test_parse_inline_data_at_the_head_of_any_group() -> None:
    q = parse_query(
        'PREFIX e: <http://e.org/> SELECT ?kg WHERE { VALUES ?kg { e:a "b"@en } '
        "{ VALUES ?o { e:o } ?kg e:p ?o } UNION { ?kg e:q ?o } }"
    )
    data, alternatives = q.pattern.parts
    assert data == InlineData("kg", (Iri("http://e.org/a"), Literal("b", language="en")))
    first = alternatives.branches[0]
    assert first.parts[0] == InlineData("o", (Iri("http://e.org/o"),))
    assert parse_query("ASK { VALUES ?x { } }").pattern == SeqPattern((InlineData("x", ()),))


def test_inline_data_only_leads_and_holds_no_blank_nodes() -> None:
    with pytest.raises(ValueError):
        SeqPattern((Bgp(()), InlineData("x", ())))
    with pytest.raises(ValueError):
        InlineData("x", (BlankNode("b"),))


def test_rule_patterns_need_the_dot_a_group_needs() -> None:
    text = "?a <http://e.org/p> ?c ?d <http://e.org/q> ?f"
    with pytest.raises(SparqlError) as err:
        parse_query("ASK { " + text + " }")
    assert "expected '.'" in str(err.value)
    with pytest.raises(SparqlError) as err:
        parse_triple_patterns(text, {})
    assert "expected '.'" in str(err.value)


def test_hash_after_a_prefixed_name_starts_a_comment() -> None:
    q = parse_query("PREFIX e: <http://e.org/>\nASK { ?kg e:p e:o#x\n}")
    assert q.pattern == Bgp(
        (TriplePattern(Variable("kg"), Iri("http://e.org/p"), Iri("http://e.org/o")),)
    )


def test_parse_triple_patterns_for_rules() -> None:
    patterns = parse_triple_patterns(
        "?kg prov:wasGeneratedBy ?activity . ?activity a prov:Publish",
        {"prov": "http://www.w3.org/ns/prov#"},
    )
    assert len(patterns) == 2
    assert patterns[1].predicate == Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


# ---------------------------------------------------------------------------
# Pretty-printing


@pytest.mark.parametrize(
    "text",
    [
        PUBLISHER_ASK,
        DISCOVERY_SELECT,
        "ASK {}",
        "SELECT * WHERE { ?s ?p ?o }",
        'PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> ASK { ?s ?p "x"^^xsd:date . ?s ?q "y"@fr }',
        "PREFIX dcat: <http://www.w3.org/ns/dcat#> ASK { { ?s a dcat:Dataset } UNION { ?s a dcat:Catalog } }",
        "ASK { { ?s ?p ?o } UNION { { ?s ?p ?o . ?o ?q ?r } UNION { ?s ?p ?r } } }",
        'PREFIX e: <http://e.org/> SELECT ?s WHERE { VALUES ?s { e:a <http://f.org/b> "x\\"y\\n"@en } ?s ?p ?o }',
        "ASK { VALUES ?x { } { VALUES ?y { <http://e.org/a> } } }",
    ],
)
def test_print_then_parse_is_identity(text: str) -> None:
    q = parse_query(text)
    assert parse_query(format_query(q)) == q


def test_every_abbreviated_local_name_parses_back() -> None:
    # inner dots, a leading digit or '_', '-' and the empty local name
    locals_ = ["a.b", "1x", "_x", "x-y", "a..b-", ""]
    text = "PREFIX e: <http://e.org/> ASK { " + " ".join(
        f"?kg <http://e.org/p> <http://e.org/{local}> ." for local in locals_
    ) + " }"
    q = parse_query(text)
    out = format_query(q)
    assert all(f"e:{local} ." in out for local in locals_)
    assert parse_query(out) == q


def test_printer_output_is_plain_sparql() -> None:
    out = format_query(parse_query(PUBLISHER_ASK))
    assert "PREFIX dct: <http://purl.org/dc/terms/>" in out
    assert "?kg dct:publisher ?publisher ." in out


# ---------------------------------------------------------------------------
# Substitution


def test_substitute_fills_kg_variable() -> None:
    q = parse_query(PUBLISHER_ASK)
    bound = substitute(q, {"kg": Iri("http://example.org/kg1")})
    assert bound.pattern == Bgp(
        (
            TriplePattern(
                Iri("http://example.org/kg1"), Iri(DCT + "publisher"), Variable("publisher")
            ),
        )
    )


def test_substitute_with_empty_map_is_identity() -> None:
    q = parse_query(PUBLISHER_ASK)
    assert substitute(q, {}) == q


def test_substitute_fills_a_dollar_variable() -> None:
    kg = {"kg": Iri("http://example.org/kg1")}
    dollar = substitute(parse_query(PUBLISHER_ASK.replace("?kg", "$kg")), kg)
    assert dollar == substitute(parse_query(PUBLISHER_ASK), kg)


def test_substitute_refuses_a_variable_inline_data_binds() -> None:
    q = bind_values(parse_query(PUBLISHER_ASK), "kg", [Iri("http://example.org/kg1")])
    with pytest.raises(SparqlError):
        substitute(q, {"kg": Iri("http://example.org/kg2")})


def test_substitute_rejects_literal_subject() -> None:
    q = parse_query(PUBLISHER_ASK)
    with pytest.raises(SparqlError):
        substitute(q, {"kg": Literal("not a node")})


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_bgp_matches_brute_force_oracle() -> None:
    rng = random.Random(2112)
    for _ in range(120):
        g = small_graph(rng)
        patterns = random_bgp(rng, g)
        assert solutions_as_sets(eval_bgp(g, patterns)) == bgp_oracle(g, patterns)


def test_eval_bgp_never_repeats_a_solution() -> None:
    # solutions_as_sets cannot see a repeat, so the lengths are compared too;
    # each BGP may gain a pattern that repeats a variable and a ground one
    rng = random.Random(4747)
    for _ in range(300):
        g = small_graph(rng)
        patterns = random_bgp(rng, g)
        triples = list(g)
        if triples and rng.random() < 0.5:
            x = Variable(rng.choice(["x", "y", "z"]))
            patterns.append(TriplePattern(x, rng.choice(triples).predicate, x))
        if triples and rng.random() < 0.5:
            patterns.append(TriplePattern(*rng.choice(triples)))
        rng.shuffle(patterns)
        solutions = eval_bgp(g, patterns)
        expected = bgp_oracle(g, patterns)
        assert len(solutions) == len(expected)
        assert solutions_as_sets(solutions) == expected


def test_empty_bgp_has_one_empty_solution() -> None:
    assert eval_bgp(Graph(), []) == [{}]
    assert eval_ask(Graph(), parse_query("ASK {}")) is True


def test_ask_monotonicity_under_triple_addition() -> None:
    rng = random.Random(1984)
    for _ in range(60):
        g = small_graph(rng)
        patterns = random_bgp(rng, g)
        query = Query("ask", None, Bgp(tuple(patterns)))
        before = eval_ask(g, query)
        bigger = g.copy()
        subjects = [t for t in bigger.terms() if not isinstance(t, Literal)]
        subjects.append(Iri("http://example.org/x"))
        for _ in range(3):
            bigger.add(Triple(rng.choice(subjects), Iri("http://example.org/p/0"), Literal("v0")))
        if before:
            assert eval_ask(bigger, query) is True


def test_union_is_commutative_and_distinct() -> None:
    rng = random.Random(777)
    for _ in range(40):
        g = small_graph(rng)
        a = Bgp(tuple(random_bgp(rng, g, max_patterns=2)))
        b = Bgp(tuple(random_bgp(rng, g, max_patterns=2)))
        ab = Query("select", (), UnionPattern((a, b)))
        ba = Query("select", (), UnionPattern((b, a)))
        assert solutions_as_sets(eval_select(g, ab)) == solutions_as_sets(eval_select(g, ba))


def test_union_requires_two_branches() -> None:
    with pytest.raises(ValueError):
        UnionPattern((Bgp(()),))


def test_select_projection_and_order() -> None:
    g = parse_ntriples(
        "<http://example.org/a> <http://example.org/p/0> <http://example.org/o> .\n"
        "<http://example.org/b> <http://example.org/p/0> <http://example.org/o> .\n"
        "<http://example.org/b> <http://example.org/p/1> <http://example.org/o> .\n"
    )
    q = parse_query("SELECT ?s WHERE { ?s ?p <http://example.org/o> }")
    rows = eval_select(g, q)
    assert [sol["s"] for sol in rows] == [
        Iri("http://example.org/a"),
        Iri("http://example.org/b"),
    ]


def test_discovery_query_against_small_store() -> None:
    g = parse_ntriples(
        "<http://example.org/kg1> <http://rdfs.org/ns/void#sparqlEndpoint> <http://example.org/sparql> .\n"
        "<http://example.org/kg1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/ns/dcat#Dataset> .\n"
        "<http://example.org/kg2> <http://rdfs.org/ns/void#sparqlEndpoint> <http://example.org/sparql> .\n"
        "<http://example.org/other> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/ns/dcat#Dataset> .\n"
    )
    q = substitute(parse_query(DISCOVERY_SELECT), {"rawEndpointUrl": Iri("http://example.org/sparql")})
    rows = eval_select(g, q)
    assert [sol["kg"] for sol in rows] == [Iri("http://example.org/kg1")]



def test_inline_data_joins_with_the_rest_of_its_group() -> None:
    g = parse_ntriples(
        "<http://example.org/a> <http://example.org/p/0> <http://example.org/o> .\n"
        "<http://example.org/b> <http://example.org/p/0> <http://example.org/o> .\n"
    )
    q = parse_query(
        "SELECT * WHERE { VALUES ?s { <http://example.org/a> <http://example.org/c> } "
        "{ VALUES ?s { <http://example.org/a> <http://example.org/b> } } ?s ?p ?o }"
    )
    assert [sol["s"] for sol in eval_select(g, q)] == [Iri("http://example.org/a")]
    assert eval_ask(g, q._replace(form="ask", projection=None)) is True


def test_dollar_and_question_mark_variables_join() -> None:
    g = parse_ntriples(
        "<http://example.org/a> <http://example.org/p/0> <http://example.org/o> .\n"
        "<http://example.org/b> <http://example.org/p/0> <http://example.org/o> .\n"
    )
    dollar = parse_query(
        "SELECT * WHERE { VALUES $s { <http://example.org/a> <http://example.org/c> } ?s ?p $o }"
    )
    assert eval_select(g, dollar) == [
        {"s": Iri("http://example.org/a"), "p": Iri("http://example.org/p/0"), "o": Iri("http://example.org/o")}
    ]


def test_values_select_keeps_the_values_with_a_solution() -> None:
    # projecting only the VALUES variable stops at each value's first
    # solution; the rows must be those of enumerating every solution
    rng = random.Random(4242)
    for _ in range(80):
        g = small_graph(rng)
        patterns = random_bgp(rng, g)
        names = sorted(pattern_variables(Bgp(tuple(patterns))))
        if not names:
            continue
        name = rng.choice(names)
        free = Query("select", (name,), Bgp(tuple(patterns)))
        found = [sol[name] for sol in eval_select(g, free)]
        terms = sorted(g.terms(), key=term_sort_key) + [Iri("http://example.org/none")]
        values = [
            t for t in rng.sample(found, min(2, len(found))) + rng.sample(terms, min(3, len(terms)))
            if not isinstance(t, BlankNode)
        ]
        one = bind_values(free, name, values)
        every = one._replace(projection=())
        expected = {sol[name] for sol in eval_select(g, every)}
        assert {sol[name] for sol in eval_select(g, one)} == expected
        assert eval_ask(g, one._replace(form="ask", projection=None)) is bool(expected)


# ---------------------------------------------------------------------------
# Pruning, join plans and the values entry


def greedy_solutions(g: Graph, patterns: list[TriplePattern], binding: dict):
    """The per-binding greedy join that plans replaced: the pattern with the
    most bound positions first, the earliest on a tie, recounted for every
    binding."""
    if not patterns:
        yield binding
        return

    def boundness(i: int) -> tuple[int, int]:
        return sum(not isinstance(p, Variable) or p.name in binding for p in patterns[i]), -i

    best = max(range(len(patterns)), key=boundness)
    tp, rest = patterns[best], patterns[:best] + patterns[best + 1 :]
    s, p, o = (binding.get(x.name) if isinstance(x, Variable) else x for x in tp)
    for triple in g.match(s, p, o):
        extended = dict(binding)
        for pos, value in zip(tp, triple):
            if isinstance(pos, Variable) and extended.setdefault(pos.name, value) != value:
                break
        else:
            yield from greedy_solutions(g, rest, extended)


def greedy_eval_bgp(g: Graph, patterns: list[TriplePattern]) -> list[dict]:
    names = [pos.name for tp in patterns for pos in tp if isinstance(pos, Variable)]
    seen: dict = {}
    for binding in greedy_solutions(g, list(patterns), {}):
        seen.setdefault(tuple(binding[name] for name in names), binding)
    return list(seen.values())


ABSENT = Iri("http://example.org/p/absent")


def with_absent_predicate(rng: random.Random, patterns: list[TriplePattern]) -> list[TriplePattern]:
    """The patterns and one more whose predicate no small graph has."""
    extra = TriplePattern(Variable(rng.choice("xyz")), ABSENT, Variable(rng.choice("xyz")))
    return patterns + [extra] if rng.random() < 0.5 else [extra] + patterns


def test_planned_eval_bgp_keeps_the_greedy_solutions_and_their_order() -> None:
    rng = random.Random(2323)
    for _ in range(200):
        g = small_graph(rng)
        patterns = random_bgp(rng, g, max_patterns=5)
        bgp = Bgp(tuple(patterns))
        expected = greedy_eval_bgp(g, patterns)
        assert eval_bgp(g, patterns) == expected
        # twice through one Bgp: the second call walks the kept plan
        assert eval_bgp(g, bgp) == expected and eval_bgp(g, bgp) == expected


def test_plans_for_names_bound_at_the_start_keep_the_greedy_order() -> None:
    rng = random.Random(99)
    for _ in range(100):
        g = small_graph(rng)
        patterns = random_bgp(rng, g)
        bgp = Bgp(tuple(patterns))
        for value in sorted(g.terms(), key=term_sort_key)[:4]:
            for start in ({"x": value}, {"x": value, "y": value}, {"unused": value}):
                expected = list(greedy_solutions(g, patterns, start))
                assert list(sparql._gen(g, bgp, dict(start))) == expected


def test_union_branches_with_absent_predicates_match_the_oracle() -> None:
    rng = random.Random(5150)
    for _ in range(80):
        g = small_graph(rng)
        branches = [random_bgp(rng, g, max_patterns=3) for _ in range(rng.randrange(2, 5))]
        branches = [with_absent_predicate(rng, b) if rng.random() < 0.5 else b for b in branches]
        union = UnionPattern(tuple(Bgp(tuple(b)) for b in branches))
        expected = set().union(*(bgp_oracle(g, b) for b in branches))
        assert solutions_as_sets(eval_select(g, Query("select", (), union))) == expected
        assert eval_ask(g, Query("ask", None, union)) is bool(expected)
        # a sequence holding a part with no solution has none
        absent = Bgp(tuple(with_absent_predicate(rng, random_bgp(rng, g))))
        assert eval_select(g, Query("select", (), SeqPattern((union, absent)))) == []


def test_union_with_only_absent_predicates_has_no_solution() -> None:
    g = parse_ntriples("<http://example.org/a> <http://example.org/p/0> <http://example.org/o> .\n")
    q = parse_query(
        "SELECT ?s WHERE { { ?s <http://example.org/p/absent> ?o } "
        "UNION { ?s <http://example.org/p/1> ?o } }"
    )
    assert eval_select(g, q) == []
    assert eval_ask(g, q._replace(form="ask", projection=None)) is False
    assert values_with_solution(g, q.pattern, "s", [Iri("http://example.org/a")]) == []
    # pruned before evaluation, so no branch was ever planned
    assert [branch.plans for branch in q.pattern.branches] == [{}, {}]


def test_one_query_answers_each_graph_for_its_own_predicates() -> None:
    a, b = Iri("http://example.org/a"), Iri("http://example.org/b")
    only_p0 = parse_ntriples(
        "<http://example.org/a> <http://example.org/p/0> <http://example.org/o> .\n"
    )
    only_p1 = parse_ntriples(
        "<http://example.org/b> <http://example.org/p/1> <http://example.org/o> .\n"
    )
    q = parse_query(
        "SELECT ?s WHERE { { ?s <http://example.org/p/0> ?o } "
        "UNION { ?s <http://example.org/p/1> ?o } }"
    )
    for _ in range(2):
        assert eval_select(only_p0, q) == [{"s": a}]
        assert eval_select(only_p1, q) == [{"s": b}]
        assert values_with_solution(only_p0, q.pattern, "s", [b, a]) == [a]
        assert values_with_solution(only_p1, q.pattern, "s", [b, a]) == [b]


def test_values_with_solution_agrees_with_eval_select() -> None:
    rng = random.Random(6060)
    for _ in range(100):
        g = small_graph(rng)
        branches = [random_bgp(rng, g, max_patterns=3) for _ in range(rng.randrange(1, 3))]
        branches = [with_absent_predicate(rng, b) if rng.random() < 0.3 else b for b in branches]
        bgps = tuple(Bgp(tuple(b)) for b in branches)
        pattern = bgps[0] if len(bgps) == 1 else UnionPattern(bgps)
        names = sorted(pattern_variables(pattern))
        if not names:
            continue
        name = rng.choice(names)
        terms = [t for t in g.terms() if not isinstance(t, BlankNode)] + [Iri("http://example.org/none")]
        values = [rng.choice(terms) for _ in range(5)]
        found = values_with_solution(g, pattern, name, values)
        assert found == [value for value in dict.fromkeys(values) if value in found]
        select = bind_values(Query("select", (name,), pattern), name, values)
        assert [row[name] for row in eval_select(g, select)] == sorted(found, key=term_sort_key)
        every = {sol[name] for sol in eval_select(g, select._replace(projection=()))}
        assert set(found) == every


def test_plans_leave_equality_hash_and_repr_unchanged() -> None:
    g = parse_ntriples(
        "<http://example.org/a> <http://example.org/p/0> <http://example.org/o> .\n"
    )
    text = "SELECT ?s WHERE { ?s <http://example.org/p/0> ?o . ?o ?p ?s }"
    used, fresh = parse_query(text), parse_query(text)
    eval_select(g, used)
    values_with_solution(g, used.pattern, "s", [Iri("http://example.org/a")])
    assert used.pattern.plans and not fresh.pattern.plans
    assert used == fresh and hash(used.pattern) == hash(fresh.pattern)
    assert repr(used) == repr(fresh) and "plans" not in repr(used)
    assert used.pattern._replace().plans == {}
