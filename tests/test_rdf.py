"""Tests for the RDF term model, graph, and the two readers."""

from __future__ import annotations

import copy
import copyreg
import importlib
import itertools
import pickle
import random
from pathlib import Path

import pytest

import kgaudit
from helpers import (
    _DATATYPES,
    _IRIS,
    _LANGS,
    _LEXICALS,
    FIXTURES,
    RefBlankNode,
    RefIri,
    RefLiteral,
    RefTriple,
    random_graph,
    random_triple,
    ref_format_term,
)
from kgaudit.rdf import (
    XSD,
    XSD_STRING,
    _ECHAR_ENCODE,
    BlankNode,
    Graph,
    Iri,
    Literal,
    NTriplesMemo,
    ParseError,
    Triple,
    _escape_literal,
    format_term,
    load_rdf,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
)
from kgaudit.catalog import default_catalog, dump_catalog, parse_catalog
from kgaudit.reporting import RunRecord, build_report
from kgaudit.scoring import FailureKind, QueryOutcome
from kgaudit.sparql import (
    Bgp,
    InlineData,
    Query,
    SeqPattern,
    TriplePattern,
    UnionPattern,
    UnsupportedSparqlFeature,
    Variable,
    eval_select,
    parse_query,
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


_TERM_SAMPLES = [
    Iri("http://x"),
    BlankNode("x"),
    Literal("http://x"),
    Literal("x", language="en"),
    Literal("5", datatype=XSD + "integer"),
    Triple(BlankNode("x"), Iri("http://x"), Literal("http://x")),
]


@pytest.mark.parametrize("cls", [Iri, BlankNode, Literal, Triple], ids=lambda c: c.__name__)
def test_term_hash_and_equality_are_tuple_slots(cls) -> None:
    assert issubclass(cls, tuple)
    assert cls.__hash__ is tuple.__hash__
    assert cls.__eq__ is tuple.__eq__
    assert cls.__ne__ is tuple.__ne__


@pytest.mark.parametrize("term", _TERM_SAMPLES, ids=repr)
def test_terms_are_immutable_and_carry_no_instance_dict(term) -> None:
    assert not hasattr(term, "__dict__")
    with pytest.raises(AttributeError):
        term.extra = 1
    with pytest.raises(AttributeError):
        setattr(term, term._fields[0], "http://y")


@pytest.mark.parametrize("term", _TERM_SAMPLES, ids=repr)
def test_pickle_and_deepcopy_keep_the_class_and_rebuild_through_the_checks(term) -> None:
    for again in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
        assert type(again) is type(term)
        assert again == term and repr(again) == repr(term)
    # both rebuild a term as cls.__new__(cls, *fields), the validating constructor
    rebuild, args = term.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
    assert rebuild is copyreg.__newobj__
    assert args == (type(term), *term)


def test_unpickling_runs_the_constructor_checks() -> None:
    data = pickle.dumps(Iri("http://x/abcd"))
    # same length, so the pickle's string header still fits
    with pytest.raises(ValueError, match="IRI is not absolute: 'not an iri!!!'"):
        pickle.loads(data.replace(b"http://x/abcd", b"not an iri!!!"))
    typed = pickle.dumps(Literal("x", datatype=XSD + "strinG"))
    assert pickle.loads(typed.replace(b"#strinG", b"#string")).datatype is None


def test_make_and_replace_rebuild_through_the_checks() -> None:
    with pytest.raises(ValueError, match="IRI is not absolute"):
        Iri._make(["relative/path"])
    with pytest.raises(ValueError, match="invalid blank node label"):
        BlankNode("b")._replace(label="b.")
    with pytest.raises(ValueError, match="both a datatype and a language"):
        Literal("x", language="en")._replace(datatype=XSD + "date")
    assert Literal("x", language="en")._replace(language=None, datatype=XSD_STRING) == Literal("x")
    with pytest.raises(ValueError, match="predicate must be an IRI"):
        _TERM_SAMPLES[-1]._replace(predicate=BlankNode("p"))


def test_terms_of_different_classes_never_compare_equal() -> None:
    same_text = [Iri("http://x"), BlankNode("x"), Literal("http://x"), Literal("x")]
    for a, b in itertools.combinations(same_text, 2):
        assert a != b and not a == b
    # equality is tuple equality: a term equals the plain tuple of its fields
    assert Iri("http://x") == ("http://x",)
    assert Literal("x") == ("x", None, None)


def test_src_never_rebuilds_a_term_around_its_checks() -> None:
    # NamedTuple's _make and _replace are where a tuple gets built without
    # __new__; kgaudit's own code builds terms only through the classes
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(Path(kgaudit.__file__).parent.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "._make(" in line or "._replace(" in line
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# Every other record is built the way the terms are

_RECORDS = {
    "catalog": ["Catalog", "CompactQuery", "EquivalenceRule", "HierarchyNode", "Question",
                "ScoringPlan"],
    "client": ["CampaignConfig", "EndpointRun", "Fetch"],
    "reporting": ["Report", "RunRecord"],
    "scoring": ["DatasetResult", "QueryOutcome"],
    "sparql": ["Bgp", "InlineData", "Query", "SeqPattern", "TriplePattern", "UnionPattern",
               "Variable"],
    "transport": ["TranscriptRun"],
}


@pytest.mark.parametrize("module", sorted(_RECORDS))
def test_records_are_named_tuples_with_tuple_hash_and_equality(module) -> None:
    namespace = vars(importlib.import_module(f"kgaudit.{module}"))
    assert [name for name, obj in namespace.items() if hasattr(obj, "__dataclass_fields__")] == []
    for name in _RECORDS[module]:
        cls = namespace[name]
        assert issubclass(cls, tuple) and cls._fields
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__ and cls.__ne__ is tuple.__ne__


_OUTCOME = QueryOutcome("q.1", False, FailureKind.TIMEOUT)
_UNION = UnionPattern((Bgp(()), Bgp(())))
_VALUES = InlineData("v", (Iri("http://x"), Literal("x")))
_SEQ = SeqPattern((_VALUES, Bgp(())))
_QUERY = parse_query("PREFIX x: <http://x/> SELECT ?s WHERE { ?s x:p ?o }")

# A validated record, fields its checks refuse, and the refusal.
_VALIDATED = [
    (_OUTCOME, {"failure": None}, "a failed outcome needs a failure kind"),
    (QueryOutcome("q.1", True), {"failure": FailureKind.TIMEOUT}, "cannot carry a failure"),
    (_UNION, {"branches": (Bgp(()),)}, "UNION needs at least two branches"),
    (_VALUES, {"values": (BlankNode("b"),)}, "inline data holds IRIs and literals only"),
    (_SEQ, {"parts": (Bgp(()), _VALUES)}, "inline data must lead its group"),
    (_QUERY, {"form": "construct"}, "unknown query form: construct"),
]


@pytest.mark.parametrize(
    "record, bad, message",
    _VALIDATED,
    ids=["QueryOutcome-failed", "QueryOutcome-succeeded", "UnionPattern", "InlineData",
         "SeqPattern", "Query"],
)
def test_validated_records_rebuild_through_their_checks(record, bad, message) -> None:
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(again) is type(record)
        assert again == record and repr(again) == repr(record)
    # pickle and deepcopy rebuild a record as cls.__new__(cls, *fields)
    rebuild, args = record.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
    assert rebuild is copyreg.__newobj__
    assert args == (type(record), *record)
    assert type(record)._make(record) == record
    with pytest.raises(ValueError, match=message):
        record._replace(**bad)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **bad}.values())


@pytest.fixture(scope="module")
def with_members() -> dict[str, object]:
    """A record of each class with members outside equality, each member set."""
    catalog = parse_catalog(dump_catalog(default_catalog()))
    catalog.content_hash()
    graph = Graph([Triple(Iri("http://x/s"), Iri("http://x/p"), Iri("http://x/o"))])
    bgp = parse_query("ASK { ?s <http://x/p> ?o }").pattern
    eval_select(graph, Query("select", (), bgp))
    runs = [RunRecord("http://e.org/", 0, "t", True)]
    report = build_report(catalog, {}, "t", runs)
    return {"Bgp": bgp, "Catalog": catalog, "Report": report}


# Each member outside equality, and its value in a record built from fields
# alone.
_MEMBERS = {
    "Bgp.plans": {},
    "Catalog.plan": None,
    "Catalog._hash": None,
    "Report.runs": (),
}


@pytest.mark.parametrize("name", _MEMBERS)
def test_members_outside_equality_stay_outside_eq_hash_and_repr(with_members, name) -> None:
    cls, member = name.split(".")
    record = with_members[cls]
    value = getattr(record, member)
    assert value and member not in record._fields
    other = copy.copy(record)
    setattr(other, member, None)
    assert other == record and not other != record
    assert repr(other) == repr(record) and f"{member}=" not in repr(record)
    try:
        assert hash(other) == hash(record)
    except TypeError:  # a record holding a dict has no hash
        pass
    # pickle and deepcopy carry the member over ...
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert getattr(again, member) == value
    # ... and _make and _replace, which build from the fields, start it afresh
    fresh = getattr(record._replace(), member)
    assert fresh is not value
    assert fresh == _MEMBERS[name]


def test_records_equal_as_tuples_never_meet() -> None:
    # equality is tuple equality, so these pairs compare equal ...
    s, p, o = Iri("http://a/s"), Iri("http://a/p"), Iri("http://a/o")
    assert Variable("b") == BlankNode("b")
    assert TriplePattern(s, p, o) == Triple(s, p, o)
    assert "never meet" in Variable.__doc__ and "never meet" in TriplePattern.__doc__
    # ... but no pattern holds a blank node, and a variable named like one binds it
    with pytest.raises(UnsupportedSparqlFeature, match="blank nodes"):
        parse_query("ASK { _:b <http://a/p> ?o }")
    with pytest.raises(ValueError, match="IRIs and literals only"):
        InlineData("b", (BlankNode("b"),))
    graph = Graph([Triple(BlankNode("b"), p, o), Triple(s, p, o)])
    rows = eval_select(graph, parse_query("SELECT ?b WHERE { ?b <http://a/p> <http://a/o> }"))
    assert rows == [{"b": s}, {"b": BlankNode("b")}]
    # a pattern without variables is asked of the graph, never looked up in it
    ask = parse_query("SELECT * WHERE { <http://a/s> <http://a/p> <http://a/o> }")
    assert eval_select(graph, ask) == [{}]
    assert eval_select(Graph(), ask) == []


# ---------------------------------------------------------------------------
# Terms against the reference dataclasses (tests/helpers.py)

_NEW_CLASSES = {"Iri": Iri, "BlankNode": BlankNode, "Literal": Literal, "Triple": Triple}
_REF_CLASSES = {"Iri": RefIri, "BlankNode": RefBlankNode, "Literal": RefLiteral, "Triple": RefTriple}
_BLANK_LABELS = ["b0", "b1", "x", "alpha", "42", "a.b", "a.b.c", "_9-z.q", "0"]


def _term_recipe(rng: random.Random, allow_literal: bool = True) -> tuple:
    roll = rng.random()
    if roll < 0.4:
        return ("Iri", (rng.choice(_IRIS),), {})
    if roll < 0.65 or not allow_literal:
        return ("BlankNode", (rng.choice(_BLANK_LABELS),), {})
    lexical = rng.choice(_LEXICALS + _IRIS)
    if rng.random() < 0.3:
        return ("Literal", (lexical,), {"language": rng.choice(_LANGS)})
    return ("Literal", (lexical,), {"datatype": rng.choice(_DATATYPES + [XSD_STRING])})


def _recipe(rng: random.Random) -> tuple:
    if rng.random() < 0.25:
        parts = (
            _term_recipe(rng, allow_literal=False),
            ("Iri", (rng.choice(_IRIS),), {}),
            _term_recipe(rng),
        )
        return ("Triple", parts, {})
    return _term_recipe(rng)


def _build(recipe: tuple, classes: dict):
    name, args, kwargs = recipe
    if name == "Triple":
        args = tuple(_build(part, classes) for part in args)
    return classes[name](*args, **kwargs)


@pytest.mark.parametrize("seed", [7, 20261018])
def test_terms_agree_with_the_reference_dataclasses(seed: int) -> None:
    rng = random.Random(seed)
    recipes = [_recipe(rng) for _ in range(160)]
    new = [_build(r, _NEW_CLASSES) for r in recipes]
    ref = [_build(r, _REF_CLASSES) for r in recipes]
    equal_pairs = 0
    for a, ra in zip(new, ref):
        assert repr(a) == repr(ra)
        if not isinstance(a, Triple):
            assert format_term(a) == ref_format_term(ra)
        for b, rb in zip(new, ref):
            assert (a == b) is (ra == rb)
            assert (a != b) is (ra != rb)
            if a == b:
                assert hash(a) == hash(b)
                equal_pairs += a is not b
    assert equal_pairs > 0
    assert len(set(new)) == len(set(ref))


_BAD_RECIPES = [
    ("Iri", ("relative/path",), {}),
    ("Iri", ("no scheme at all",), {}),
    ("Iri", ("",), {}),
    ("Iri", ("http://example.org/a b",), {}),
    ("Iri", ("http://example.org/<x>",), {}),
    ("Iri", ("http://example.org/\ud800",), {}),
    ("BlankNode", ("",), {}),
    ("BlankNode", ("a.",), {}),
    ("BlankNode", (".a",), {}),
    ("BlankNode", ("a:b",), {}),
    ("Literal", ("x",), {"datatype": XSD + "date", "language": "en"}),
    ("Literal", ("x",), {"datatype": XSD_STRING, "language": "en"}),
    ("Literal", ("x",), {"language": "e n"}),
    ("Literal", ("x",), {"language": ""}),
    ("Triple", (("Literal", ("s",), {}), ("Iri", ("http://p",), {}), ("Iri", ("http://o",), {})), {}),
    ("Triple", (("Iri", ("http://s",), {}), ("BlankNode", ("p",), {}), ("Iri", ("http://o",), {})), {}),
    ("Triple", (("Iri", ("http://s",), {}), ("Literal", ("p",), {}), ("Iri", ("http://o",), {})), {}),
]


@pytest.mark.parametrize("recipe", _BAD_RECIPES)
def test_constructors_refuse_what_the_reference_refuses(recipe: tuple) -> None:
    with pytest.raises(ValueError) as refused:
        _build(recipe, _REF_CLASSES)
    with pytest.raises(ValueError) as also_refused:
        _build(recipe, _NEW_CLASSES)
    assert str(also_refused.value) == str(refused.value)


# The pieces the IRI property test strings together: schemes valid and
# not, and characters an IRI may hold, the controls, space, each IRIREF
# exclusion, lone surrogates and non-ASCII letters.
_IRI_SCHEMES = ["", "http:", "urn:x:", "a+b.c-d:", "Z9:", "1a:", "+a:", ":", "ht tp:", "é:"]
_IRI_ALLOWED = list("abcXYZ019/:#?.-_~%&=+@!$'()*,;[]")
_IRI_PIECES = (
    _IRI_ALLOWED
    + [chr(c) for c in range(0x21)]
    + ["\x7f", " ", "<", ">", '"', "{", "}", "|", "^", "`", "\\"]
    + ["\ud800", "\udbff", "\udc00", "\udfff"]
    + ["é", "ß", "Ω", "ж", "中", "\U0001d538", "\u00a0", "\u2028"]
)


@pytest.mark.parametrize("seed", [11, 20261019])
def test_iri_accepts_and_refuses_like_the_reference(seed: int) -> None:
    rng = random.Random(seed)
    accepted = 0
    messages = set()
    for _ in range(3000):
        body = "".join(rng.choice(_IRI_PIECES) for _ in range(rng.randrange(6)))
        if rng.random() < 0.5:  # allowed characters and at most one other, so some pass
            body = "".join(rng.choice(_IRI_ALLOWED) for _ in range(rng.randrange(4))) + body[:1]
        value = rng.choice(_IRI_SCHEMES) + body
        try:
            expected = RefIri(value)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                Iri(value)
            assert str(refused.value) == str(exc)
            messages.add(str(exc).split(":")[0])
        else:
            assert Iri(value).value == expected.value
            accepted += 1
    assert 500 < accepted < 2500
    assert messages == {"IRI is not absolute", "IRI contains a forbidden character"}


# ---------------------------------------------------------------------------
# Graph semantics


def test_graph_is_a_set_of_triples() -> None:
    s, o = Iri("http://example.org/s"), Iri("http://example.org/o")
    x = Triple(s, Iri(DCT + "title"), Literal("x"))
    y = Triple(o, Iri(DCT + "title"), Literal("y"))
    z = Triple(s, Iri(DCT + "creator"), o)
    met = iter([x, y, x, z, y, z, x])
    g = Graph(t for t in met)
    assert next(met, None) is None  # the generator is read to its end
    assert len(g) == 3
    assert x in g and y in g and z in g
    assert Triple(o, Iri(DCT + "creator"), s) not in g
    assert list(g) == [x, y, z]  # the order each was first met
    assert list(g.match()) == [x, y, z]
    assert list(g.match(s)) == [x, z]
    assert list(g.match(None, Iri(DCT + "title"))) == [x, y]
    assert list(g.match(None, None, o)) == [z]
    assert list(g.match(s, Iri(DCT + "title"), Literal("x"))) == [x]
    assert list(Graph()) == [] and len(Graph()) == 0
    # built once: no method adds a triple later
    assert not any(hasattr(g, name) for name in ("add", "update", "copy", "terms"))


def test_graph_equality_ignores_insertion_order() -> None:
    a = Triple(Iri("http://example.org/s"), Iri(DCT + "title"), Literal("x"))
    b = Triple(Iri("http://example.org/s"), Iri(DCT + "title"), Literal("y"))
    assert Graph([a, b]) == Graph([b, a])
    assert Graph([a]) != Graph([b])


def test_match_agrees_with_scan_for_all_binding_combinations() -> None:
    # in insertion order; a bound subject and predicate scan the shorter of
    # their two index lists, and both kinds of pair are checked
    rng = random.Random(90125)
    shorter = {"subject": 0, "predicate": 0}
    for _ in range(30):
        g = random_graph(rng, max_triples=200)
        triples = list(g)
        for s, p, o in triples:
            by_subject, by_predicate = len(g._by_subject[s]), len(g._by_predicate[p])
            if by_subject != by_predicate:
                shorter["predicate" if by_predicate < by_subject else "subject"] += 1
            expected = [t for t in triples if t.subject == s and t.predicate == p]
            assert list(g.match(s, p)) == expected
            assert list(g.match(s, p, o)) == [Triple(s, p, o)]
        probes = [rng.choice(triples) if triples else None for _ in range(3)]
        for mask in range(8):
            s = probes[0].subject if (mask & 1 and probes[0]) else None
            p = probes[1].predicate if (mask & 2 and probes[1]) else None
            o = probes[2].object if (mask & 4 and probes[2]) else None
            expected = [
                t
                for t in triples
                if (s is None or t.subject == s)
                and (p is None or t.predicate == p)
                and (o is None or t.object == o)
            ]
            assert list(g.match(s, p, o)) == expected
    assert min(shorter.values()) > 100


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


def test_escape_literal_escapes_exactly_the_echar_characters() -> None:
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
    assert _ECHAR_ENCODE == escapes
    for char, escaped in escapes.items():
        assert _escape_literal(char) == escaped
        assert _escape_literal(f"a{char}{char}b") == f"a{escaped}{escaped}b"
    for text in ("", "plain text", "jeu de données ☃ \x85 \u2028 '", "\\u0041 is text"):
        assert _escape_literal(text) == "".join(escapes.get(c, c) for c in text)
    assert _escape_literal("no escapes at all") == "no escapes at all"


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


@pytest.mark.parametrize("eol", ["\n", "\r", "\r\n", "\r\r", "\n\r\n"])
def test_ntriples_lines_end_at_lf_cr_and_crlf(eol: str) -> None:
    text = eol.join(
        [
            "<http://a/s> <http://a/p> <http://a/o> .",
            "<http://a/s> <http://a/p> <http://a/o2> .",
            '<http://a/s> <http://a/p> "last" .',
        ]
    )
    assert parse_ntriples(text) == parse_ntriples(text.replace(eol, "\n"))
    assert len(parse_ntriples(text + eol)) == 3


@pytest.mark.parametrize("eol", ["\r", "\r\n"])
def test_ntriples_counts_each_cr_and_crlf_as_one_line(eol: str) -> None:
    good = "<http://a/s> <http://a/p> <http://a/o> ."
    text = eol.join([good, "# a comment", "", good, "<http://a/s> nonsense ."])
    with pytest.raises(ParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 5
    assert "nonsense" in str(err.value) and good not in str(err.value)


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c"])
def test_ntriples_keeps_a_literal_with_a_unicode_line_separator_on_one_line(char) -> None:
    text = f'<http://a/s> <http://a/p> "one{char}line" .\n<http://a/s> nonsense .\n'
    with pytest.raises(ParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 2
    (triple,) = parse_ntriples(text[: text.index("\n")])
    assert triple.object == Literal(f"one{char}line")


_GOOD = "<http://a/s> <http://a/p> <http://a/o> ."


@pytest.mark.parametrize(
    "line",
    [
        " " + _GOOD + "\x0c",
        "\x0c" + _GOOD,
        _GOOD + "\x0b",
        _GOOD + " \u2028",
        "\x1c",
        "\x0c",
        "\u2028",
        "\u3000",
        "\x85",
    ],
    ids=repr,
)
def test_ntriples_white_space_is_space_and_tab_only(line: str) -> None:
    text = _GOOD + "\n\n" + line + "\n" + _GOOD
    with pytest.raises(ParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 3
    assert len(parse_ntriples(f" \t{_GOOD}\t \n \t\n\t# note\x0c\n")) == 1


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


def shared_texts(rng: random.Random) -> list[str]:
    """Texts drawing their lines from one pool, so that most lines recur,
    padded and spaced out with comments, blank lines and CRLF or CR ends."""
    pool = serialize_ntriples(Graph(random_triple(rng) for _ in range(60))).splitlines()
    pool += ["_:b1 <http://e.org/p> _:b2 .", '_:b1 <http://e.org/p> "x"@en . # a note']
    texts = []
    for _ in range(6):
        lines = [rng.choice(["", " ", "\t"]) + line for line in rng.choices(pool, k=40)]
        lines += ["# a comment", "", " \t "]
        rng.shuffle(lines)
        texts.append(rng.choice(["\n", "\r\n", "\r"]).join(lines))
    return texts


@pytest.mark.parametrize("seed", range(5))
def test_texts_read_through_one_memo_read_as_each_alone(seed: int) -> None:
    memo: NTriplesMemo = ({}, {})
    texts = shared_texts(random.Random(seed))
    for text in texts:
        # the same triples in the same order
        assert list(parse_ntriples(text, memo)) == list(parse_ntriples(text))
    # and again, now that every line is remembered
    for text in texts:
        assert list(parse_ntriples(text, memo)) == list(parse_ntriples(text))


def test_a_line_met_again_through_a_memo_is_the_same_triple() -> None:
    memo: NTriplesMemo = ({}, {})
    line = '<http://e.org/s> <http://e.org/p> "v" .'
    (first,) = parse_ntriples(" " + line + "\n", memo)
    (again,) = parse_ntriples("# a comment\r\n\t" + line + "  \r\n", memo)
    assert again is first
    # a new line built from remembered spellings shares their terms
    (other,) = parse_ntriples('<http://e.org/s> <http://e.org/q> "v" .', memo)
    assert other.subject is first.subject and other.object is first.object
    # no memo, no line kept from one text to the next
    assert parse_ntriples(line) == parse_ntriples(line)
    assert next(iter(parse_ntriples(line))) is not next(iter(parse_ntriples(line)))


@pytest.mark.parametrize(
    "bad",
    [
        "<http://a/s> nonsense .",
        "<relative> <http://a/p> <http://a/o> .",
        '<http://a/s> <http://a/p> "\\uD800" .',
        # lines spelled like a remembered term
        '"abc"',
        "<http://a/s>",
        "_:b1",
    ],
)
def test_a_memo_refuses_a_bad_line_after_remembered_ones_with_its_own_number(bad: str) -> None:
    good = '<http://a/s> <http://a/p> "abc" .'
    other = "_:b1 <http://a/p> <http://a/o> ."
    memo: NTriplesMemo = ({}, {})
    parse_ntriples(good + "\n" + other, memo)
    text = "\r\n".join([good, "# a comment", other, bad, good])
    for _ in range(2):  # a refused line is never remembered
        with pytest.raises(ParseError) as err:
            parse_ntriples(text, memo)
        assert err.value.line == 4
    lines, _ = memo
    assert bad not in lines


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


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ('@prefix e: "http://e.org/" .', "line 1: expected an IRI in the prefix declaration"),
        (
            '<http://e.org/s> <http://e.org/p>\n  "x"^^"y" .',
            "line 2: expected an IRI, found '\"y\"'",
        ),
        (
            "<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n@keywords a .",
            "line 2: unknown directive",
        ),
        ("<http://e.org/s> _:p <http://e.org/o> .", "line 1: predicate must be an IRI"),
        ('"s" <http://e.org/p> <http://e.org/o> .', "line 1: subject cannot be a literal"),
        ("<http://e.org/s>\n<http://e.org/p>\n", "line 3: unexpected end of input"),
        (
            "<http://e.org/\\u0020> <http://e.org/p> <http://e.org/o> .",
            "line 1: IRI contains a forbidden character: 'http://e.org/ '",
        ),
    ],
    ids=["prefix-iri", "datatype", "directive", "predicate", "subject", "end", "escaped-iri"],
)
def test_turtle_refuses_malformed_input_with_its_line(text: str, message: str) -> None:
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert str(err.value) == message


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


def test_turtle_reads_serialized_ntriples_as_the_same_graph() -> None:
    # N-Triples is a subset of Turtle, and both readers share the term productions
    assert parse_turtle(fixture_text("term_shapes.nt")) == parse_ntriples(fixture_text("term_shapes.nt"))
    rng = random.Random(2718)
    for _ in range(40):
        g = random_graph(rng, max_triples=120)
        assert parse_turtle(serialize_ntriples(g)) == g


@pytest.mark.parametrize("eol", ["\r", "\r\n"])
def test_turtle_counts_each_cr_and_crlf_as_one_line(eol: str) -> None:
    text = eol.join(
        ["@prefix e: <http://e.org/> .", "", "e:s e:p e:o .", "e:s e:p nonsense ."]
    )
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert err.value.line == 4


def test_turtle_refuses_a_raw_carriage_return_in_a_string() -> None:
    # as N-Triples does: a string may hold a CR only as the escape \r
    text = '<http://e.org/s> <http://e.org/p> "ok" .\n<http://e.org/s> <http://e.org/p> "a\rb" .\n'
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert err.value.line == 2


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


def test_load_rdf_reads_any_case_of_extension(tmp_path) -> None:
    text = '<http://e.org/s> <http://e.org/p> "x" .\n'
    for name in ("g.NT", "g.TTL", "g.Turtle"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert len(load_rdf(str(path))) == 1


def test_load_rdf_skips_a_leading_byte_order_mark_only(tmp_path) -> None:
    # Windows Notepad starts a UTF-8 file with U+FEFF
    text = '<http://e.org/s> <http://e.org/p> "x" .\n'
    for suffix in (".nt", ".ttl"):
        path = tmp_path / ("marked" + suffix)
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert load_rdf(str(path)) == parse_ntriples(text)
        # anywhere else it is a stray character, refused with its line
        path.write_text("\ufeff" + text + "\ufeff" + text, encoding="utf-8")
        with pytest.raises(ParseError, match=r"^line 2: "):
            load_rdf(str(path))
