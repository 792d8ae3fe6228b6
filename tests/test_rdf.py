"""Tests for the RDF term model, graph, and the two readers."""

from __future__ import annotations

import random

import pytest

from helpers import FIXTURES, random_graph
from kgaudit.rdf import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    ParseError,
    Triple,
    load_rdf,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
)

DCT = "http://purl.org/dc/terms/"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Terms and triples


def test_literal_rejects_datatype_and_language_together() -> None:
    with pytest.raises(ValueError):
        Literal("x", datatype="http://www.w3.org/2001/XMLSchema#date", language="en")


def test_literal_normalises_xsd_string_to_plain() -> None:
    typed = Literal("x", datatype="http://www.w3.org/2001/XMLSchema#string")
    assert typed == Literal("x")
    assert typed.datatype is None


def test_iri_must_be_absolute() -> None:
    with pytest.raises(ValueError):
        Iri("relative/path")
    with pytest.raises(ValueError):
        Iri("no scheme at all")


@pytest.mark.parametrize("char", ["\x00", "\t", "\n", "\r", "\x1f", " ", "\ud800"])
def test_iri_rejects_controls_space_and_surrogates(char: str) -> None:
    with pytest.raises(ValueError):
        Iri(f"http://example.org/x{char}y")


def test_triple_shape_invariants() -> None:
    iri = Iri("http://example.org/s")
    with pytest.raises(ValueError):
        Triple(Literal("nope"), iri, iri)
    with pytest.raises(ValueError):
        Triple(iri, Literal("nope"), iri)
    with pytest.raises(ValueError):
        Triple(iri, BlankNode("b"), iri)


# ---------------------------------------------------------------------------
# Graph semantics


def test_graph_is_a_set_of_triples() -> None:
    t = Triple(Iri("http://example.org/s"), Iri(DCT + "title"), Literal("x"))
    g = Graph()
    assert g.add(t) is True
    assert g.add(t) is False
    assert len(g) == 1
    assert t in g


def test_graph_equality_ignores_insertion_order() -> None:
    a = Triple(Iri("http://example.org/s"), Iri(DCT + "title"), Literal("x"))
    b = Triple(Iri("http://example.org/s"), Iri(DCT + "title"), Literal("y"))
    assert Graph([a, b]) == Graph([b, a])
    assert Graph([a]) != Graph([b])


def test_match_agrees_with_scan_for_all_binding_combinations() -> None:
    rng = random.Random(90125)
    for _ in range(30):
        g = random_graph(rng, max_triples=200)
        triples = list(g)
        probes = [rng.choice(triples) if triples else None for _ in range(3)]
        for mask in range(8):
            s = probes[0].subject if (mask & 1 and probes[0]) else None
            p = probes[1].predicate if (mask & 2 and probes[1]) else None
            o = probes[2].object if (mask & 4 and probes[2]) else None
            expected = {
                t
                for t in triples
                if (s is None or t.subject == s)
                and (p is None or t.predicate == p)
                and (o is None or t.object == o)
            }
            assert set(g.match(s, p, o)) == expected


# ---------------------------------------------------------------------------
# N-Triples


def test_term_shapes_fixture_parses_every_statement_line() -> None:
    text = fixture_text("term_shapes.nt")
    statement_lines = [
        line for line in text.splitlines() if line.strip() and not line.strip().startswith("#")
    ]
    g = parse_ntriples(text)
    assert len(statement_lines) == 20
    assert len(g) == len(statement_lines)


def test_ntriples_escapes_decode() -> None:
    g = parse_ntriples(fixture_text("term_shapes.nt"))
    titles = {
        t.object.lexical
        for t in g.match(predicate=Iri(DCT + "title"))
        if isinstance(t.object, Literal)
    }
    assert 'Quote: "quoted"' in titles
    assert "Tab\there" in titles
    assert "backslash \\ included" in titles
    labels = {
        t.object
        for t in g.match(predicate=Iri(DCT + "label"))
    }
    assert Literal("jeu de données", language="fr") in labels


def test_round_trip_on_fixture_and_random_graphs() -> None:
    first = parse_ntriples(fixture_text("term_shapes.nt"))
    assert parse_ntriples(serialize_ntriples(first)) == first

    rng = random.Random(5150)
    for _ in range(50):
        g = random_graph(rng, max_triples=200)
        assert parse_ntriples(serialize_ntriples(g)) == g


def test_serialization_is_sorted_and_stable() -> None:
    g = parse_ntriples(fixture_text("term_shapes.nt"))
    out = serialize_ntriples(g)
    assert out == serialize_ntriples(parse_ntriples(out))
    lines = out.splitlines()
    assert lines == sorted(lines)


def test_ntriples_error_carries_line_number() -> None:
    bad = '<http://example.org/s> <http://example.org/p> "ok" .\n<http://example.org/s> nonsense .\n'
    with pytest.raises(ParseError) as err:
        parse_ntriples(bad)
    assert "line 2" in str(err.value)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "line",
    [
        '<http://example.org/s> <http://example.org/p> "unterminated .',
        '<http://example.org/s> <http://example.org/p> "bad \\q escape" .',
        '"literal" <http://example.org/p> <http://example.org/o> .',
        "<http://example.org/s> <http://example.org/p> <http://example.org/o> . extra",
        "<relative> <http://example.org/p> <http://example.org/o> .",
        '<http://example.org/s> <http://example.org/p> "x"@en- .',
        '<http://example.org/s> <http://example.org/p> "x"@1a .',
        '<http://example.org/s> <http://example.org/p> "short \\u12 escape" .',
        "<http://example.org/a b> <http://example.org/p> <http://example.org/o> .",
        "<http://example.org/a\\nb> <http://example.org/p> <http://example.org/o> .",
        "<http://example.org/a\tb> <http://example.org/p> <http://example.org/o> .",
        '<http://example.org/s> <http://example.org/p> "out of range \\U00110000" .',
        '<http://example.org/s> <http://example.org/p> "surrogate \\uD800" .',
        "<http://example.org/s\\uDFFF> <http://example.org/p> <http://example.org/o> .",
    ],
)
def test_ntriples_rejects_malformed_lines(line: str) -> None:
    text = '<http://example.org/s> <http://example.org/p> "ok" .\n# a comment\n\n' + line
    with pytest.raises(ParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 4


_S = Iri("http://example.org/s")
_P = Iri("http://example.org/p")


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        (
            '<http://example.org/s> <http://example.org/p> "caf\\u00E9 \\U0001F600" .',
            Triple(_S, _P, Literal("café \U0001F600")),
        ),
        (
            "<http://example.org/\\u00E9t\\U000000C9> <http://example.org/p> <http://example.org/o> .",
            Triple(Iri("http://example.org/étÉ"), _P, Iri("http://example.org/o")),
        ),
        (
            '<http://example.org/s> <http://example.org/p> "Grüße, 東京 \U0001F600"@de .',
            Triple(_S, _P, Literal("Grüße, 東京 \U0001F600", language="de")),
        ),
        (
            "<http://example.org/ünï> <http://example.org/p> _:a.b .",
            Triple(Iri("http://example.org/ünï"), _P, BlankNode("a.b")),
        ),
        ("_:a.b <http://example.org/p> _:c .", Triple(BlankNode("a.b"), _P, BlankNode("c"))),
        ("_:s <http://example.org/p> _:o.", Triple(BlankNode("s"), _P, BlankNode("o"))),
        (
            "<http://example.org/s><http://example.org/p><http://example.org/o>.",
            Triple(_S, _P, Iri("http://example.org/o")),
        ),
        (
            '<http://example.org/s> <http://example.org/p> "x"@en-GB . # a trailing comment',
            Triple(_S, _P, Literal("x", language="en-GB")),
        ),
        (
            '<http://example.org/s> <http://example.org/p> "x"'
            "^^<http://www.w3.org/2001/XMLSchema#string> .",
            Triple(_S, _P, Literal("x")),
        ),
        (
            '<http://example.org/s> <http://example.org/p> "\\t\\b\\n\\r\\f\\"\\\'\\\\" .',
            Triple(_S, _P, Literal("\t\b\n\r\f\"'\\")),
        ),
    ],
)
def test_ntriples_reads_each_term_form(text: str, expected: Triple) -> None:
    assert list(parse_ntriples(text)) == [expected]


def test_ntriples_interns_terms_within_a_parse() -> None:
    g = parse_ntriples(
        '<http://example.org/s> <http://example.org/p> "v" .\n'
        '<http://example.org/s> <http://example.org/q> "v" .\n'
    )
    first, second = list(g)
    assert first.subject is second.subject
    assert first.object is second.object


@pytest.mark.parametrize("escape", ["\\U00110000", "\\uD800", "\\uDC00"])
def test_turtle_rejects_escapes_that_name_no_character(escape: str) -> None:
    text = f'<http://e.org/s> <http://e.org/p> "ok" .\n<http://e.org/s> <http://e.org/p> "x{escape}" .\n'
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert err.value.line == 2


# ---------------------------------------------------------------------------
# Turtle subset


def test_turtle_matches_hand_translated_ntriples() -> None:
    ttl = parse_turtle(fixture_text("dataset_pair.ttl"))
    nt = parse_ntriples(fixture_text("dataset_pair.nt"))
    assert ttl == nt


def test_turtle_handles_predicate_and_object_lists() -> None:
    g = parse_turtle(fixture_text("dataset_pair.ttl"))
    titles = list(g.match(predicate=Iri(DCT + "title")))
    assert len(titles) == 2


@pytest.mark.parametrize(
    ("snippet", "feature"),
    [
        ("<http://e.org/s> <http://e.org/p> (1 2) .", "collections"),
        ("<http://e.org/s> <http://e.org/p> [ <http://e.org/q> 1 ] .", "blank node property lists"),
        ("@base <http://e.org/> .", "base declarations"),
        ("BASE <http://e.org/>", "base declarations"),
        ("<http://e.org/s> <http://e.org/p> 42 .", "numeric and boolean literals"),
        ("<http://e.org/s> <http://e.org/p> true .", "numeric and boolean literals"),
        ('<http://e.org/s> <http://e.org/p> """long""" .', "long strings"),
        ("<http://e.org/s> <http://e.org/p> 'single' .", "single-quoted strings"),
    ],
)
def test_turtle_rejects_unsupported_features_by_name(snippet: str, feature: str) -> None:
    with pytest.raises(ParseError) as err:
        parse_turtle(snippet)
    assert feature in str(err.value)


def test_turtle_rejects_undeclared_prefix_with_its_name() -> None:
    with pytest.raises(ParseError) as err:
        parse_turtle("<http://e.org/s> dct:title \"x\" .")
    assert "dct:" in str(err.value)


def test_turtle_keyword_like_prefixes_are_not_keywords() -> None:
    g = parse_turtle(
        "@prefix a: <http://example.org/ns#> .\n"
        "@prefix true: <http://example.org/t#> .\n"
        "a:s a:p true:o .\n"
    )
    assert len(g) == 1


def test_turtle_type_shortcut_and_semicolon_before_dot() -> None:
    g = parse_turtle(
        "@prefix dcat: <http://www.w3.org/ns/dcat#> .\n"
        "<http://e.org/d> a dcat:Dataset ;\n"
        "    dcat:keyword \"k\" ;\n"
        ".\n"
    )
    assert len(g) == 2


# ---------------------------------------------------------------------------
# File loading


def test_load_rdf_dispatches_on_extension(tmp_path) -> None:
    nt = tmp_path / "g.nt"
    nt.write_text('<http://e.org/s> <http://e.org/p> "x" .\n', encoding="utf-8")
    assert len(load_rdf(str(nt))) == 1

    ttl = tmp_path / "g.ttl"
    ttl.write_text('<http://e.org/s> <http://e.org/p> "x" .\n', encoding="utf-8")
    assert load_rdf(str(ttl)) == load_rdf(str(nt))

    stray = tmp_path / "g.rdf"
    stray.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        load_rdf(str(stray))
