"""Catalog loading, validation, round-tripping and query expansion."""

import hashlib
import re
from fractions import Fraction
from importlib import resources

import pytest
import yaml

import kgaudit.catalog
from kgaudit.catalog import (
    CatalogError,
    default_catalog,
    dump_catalog,
    expand_extended,
    load_catalog,
    parse_catalog,
    validate,
)
from kgaudit.client import discover_in_graph, evaluate_remote_datasets
from kgaudit.rdf import Iri, load_rdf
from kgaudit.scoring import score_datasets
from kgaudit.sparql import Bgp, SparqlError, UnionPattern, format_query, pattern_variables
from kgaudit.transport import TranscriptTransport

from helpers import FIXTURES, THREE_HOP_QUERY, THREE_HOP_RULE, evaluate_graph


# ---------------------------------------------------------------------------
# Shape of the bundled catalog


def test_default_catalog_counts():
    cat = default_catalog()
    assert len(list(cat.questions())) == 30
    assert len([cq for _, cq in cat.queries()]) == 33
    assert len(list(cat.nodes())) == 17
    assert len(cat.rules) == 78


def test_default_catalog_is_cached():
    assert default_catalog() is default_catalog()


def test_hierarchy_layout():
    cat = default_catalog()
    assert [step.id for step in cat.steps()] == ["collection", "maintenance", "usage"]
    leaves = {step.id: [leaf.id for leaf in step.children] for step in cat.steps()}
    assert leaves["collection"] == [
        "collection.who",
        "collection.when",
        "collection.where",
        "collection.how",
    ]
    assert leaves["usage"][-1] == "usage.what"
    assert len(leaves["usage"]) == 5
    per_step = {
        step.id: sum(len(leaf.questions) for leaf in step.children)
        for step in cat.steps()
    }
    assert per_step == {"collection": 5, "maintenance": 5, "usage": 20}


def test_default_catalog_validates_clean():
    assert validate(default_catalog()) == []


def test_usage_weights():
    cat = default_catalog()
    by_leaf = {
        leaf.id: [(q.id, q.weight) for q in leaf.questions] for leaf in cat.leaves()
    }
    assert by_leaf["usage.who"] == [
        ("publisher", Fraction(1)),
        ("usage-rights", Fraction(1, 2)),
        ("audience", Fraction(1, 2)),
    ]
    assert [w for _, w in by_leaf["usage.when"]] == [Fraction(1)] * 3
    assert [w for _, w in by_leaf["usage.where"]] == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1),
    ]
    for leaf_id in ("collection.who", "maintenance.who", "usage.how", "usage.what"):
        assert all(w == Fraction(1) for _, w in by_leaf[leaf_id])


def test_follow_up_queries():
    cat = default_catalog()
    assert [cq.id for cq in cat.question("creator").queries] == ["creator.1", "creator.2"]
    assert [cq.id for cq in cat.question("contributor").queries] == [
        "contributor.1",
        "contributor.2",
    ]
    assert len(cat.question("access-url-how").queries) == 2
    # the access point is asked under both "where" and "how"
    assert (
        cat.question("access-url").queries[0].text
        == cat.question("access-url-how").queries[0].text
    )
    with pytest.raises(KeyError):
        cat.question("no-such-question")


def test_queries_are_parsed_asks():
    for _, cq in default_catalog().queries():
        assert cq.query.form == "ask"
        assert isinstance(cq.query.pattern, Bgp)
        assert "kg" in pattern_variables(cq.query.pattern)


def _dollar_kg_catalog():
    """The default catalog with ``$kg`` in place of ``?kg`` in every query."""
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    for question in doc["questions"]:
        for index, query in enumerate(question["queries"]):
            if isinstance(query, dict):
                query["ask"] = re.sub(r"\?kg\b", "$kg", query["ask"])
            else:
                question["queries"][index] = re.sub(r"\?kg\b", "$kg", query)
    return parse_catalog(yaml.safe_dump(doc))


def test_a_kg_placeholder_reads_as_the_kg_variable():
    cat, dollar = default_catalog(), _dollar_kg_catalog()
    assert all("$kg" in cq.text and "?kg" not in cq.text for _, cq in dollar.queries())
    assert [cq.query for _, cq in dollar.queries()] == [cq.query for _, cq in cat.queries()]
    for qid, query in cat.expanded.items():
        assert format_query(dollar.expanded[qid]) == format_query(query)


def test_a_kg_placeholder_scores_alike_on_both_routes():
    cat, dollar = default_catalog(), _dollar_kg_catalog()
    graph = load_rdf(str(FIXTURES / "accountable.nt"))
    datasets = [Iri("http://example.org/kg/full"), Iri("http://example.org/kg/absent")]
    for catalog in (cat, dollar):
        local = [evaluate_graph(catalog, graph, dataset) for dataset in datasets]
        assert [r.score for r in local] == [1, 0]
    transport = TranscriptTransport(str(FIXTURES / "campaign.yaml"))
    for url, dataset in (
        ("http://example.org/sparql", "http://example.org/kg/full"),
        ("http://sparse.example.org/sparql", "http://example.org/kg/sparse"),
    ):
        scores = {
            evaluate_remote_datasets(transport, url, catalog, [Iri(dataset)])[0].score
            for catalog in (cat, dollar)
        }
        assert len(scores) == 1 and scores != {0}


def test_any_dollar_variable_is_its_question_mark_spelling():
    def license_query(ask):
        doc = yaml.safe_load(dump_catalog(default_catalog()))
        for q in doc["questions"]:
            if q["id"] == "license":
                q["queries"] = [ask]
        catalog = parse_catalog(yaml.safe_dump(doc))
        return next(cq.query for _, cq in catalog.queries() if cq.id == "license.1")

    dollar = license_query("ASK { ?kg dct:license $license . }")
    assert dollar == license_query("ASK { ?kg dct:license ?license . }")
    assert "license" in pattern_variables(dollar.pattern)


# ---------------------------------------------------------------------------
# Round-trip


def test_dump_parse_round_trip():
    cat = default_catalog()
    again = parse_catalog(dump_catalog(cat))
    assert again == cat
    assert again.content_hash() == cat.content_hash()


def test_dump_parse_round_trip_keeps_line_breaks():
    text = "Who created\nthe knowledge graph?\r\n(any agent)"
    label = "Creator,\non three\x85lines"
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    doc["questions"][0]["text"] = text
    doc["questions"][0]["queries"][0]["label"] = label
    cat = parse_catalog(yaml.safe_dump(doc))
    assert cat.question("creator").text == text
    assert cat.question("creator").queries[0].label == label
    assert parse_catalog(dump_catalog(cat)) == cat


# YAML 1.1 reads each of these plain spellings as something other than
# that string, or not at all
_AWKWARD = (
    "null", "yes", "0x1F", "0b101", ".inf", ".NaN", "x #y", "a: b", "1e5", "2001-12-14",
    "~", "- a", "1_000",
)


def _set_every_string_field(doc: dict, value: str) -> None:
    doc["version"] = value
    doc["hierarchy"]["collection.who"] = value
    question = doc["questions"][0]
    question["id"] = value
    question["text"] = value
    question["queries"][0]["label"] = value
    doc["rules"][0]["id"] = value


@pytest.mark.parametrize("value", _AWKWARD)
def test_dump_round_trips_every_string_field(value):
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    _set_every_string_field(doc, value)
    cat = parse_catalog(yaml.safe_dump(doc))
    assert cat.version == value
    assert next(cat.leaves()).label == value
    assert cat.question(value).text == value
    assert cat.question(value).queries[0].label == value
    assert cat.rules[0].id == value
    assert parse_catalog(dump_catalog(cat)) == cat


DEFAULT_TEXT = (
    resources.files("kgaudit").joinpath("data/default_catalog.yaml").read_text("utf-8")
)


def test_a_prefix_written_with_an_escape_serves_queries_and_rules_alike():
    # single quotes keep the backslash, so the prefix reaches the parser escaped
    plain = 'dct: "http://purl.org/dc/terms/"'
    assert plain in DEFAULT_TEXT
    escaped = parse_catalog(DEFAULT_TEXT.replace(plain, "dct: 'http://purl.org/dc/\\u0074erms/'"))
    assert escaped.prefixes["dct"] == "http://purl.org/dc/terms/"
    assert escaped == default_catalog()
    assert dump_catalog(escaped) == dump_catalog(default_catalog())
    for path in sorted(FIXTURES.glob("*.nt")):
        graph = load_rdf(str(path))
        datasets = discover_in_graph(graph)
        assert datasets
        expected = score_datasets(default_catalog(), graph, datasets)
        assert score_datasets(escaped, graph, datasets) == expected


def test_load_catalog_from_file(tmp_path):
    path = tmp_path / "catalog.yaml"
    path.write_text(dump_catalog(default_catalog()), encoding="utf-8")
    assert load_catalog(str(path)) == default_catalog()


def test_content_hash_is_made_once_and_unchanged(monkeypatch):
    cat = parse_catalog(dump_catalog(default_catalog()))
    expected = hashlib.sha256(dump_catalog(cat).encode("utf-8")).hexdigest()
    dumped = []
    real_dump = kgaudit.catalog.dump_catalog
    monkeypatch.setattr(kgaudit.catalog, "dump_catalog", lambda c: dumped.append(c) or real_dump(c))
    assert [cat.content_hash() for _ in range(3)] == [expected] * 3
    assert dumped == [cat]
    assert "_hash" not in repr(cat) and cat == default_catalog()


def test_content_hash_tracks_changes():
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    for q in doc["questions"]:
        if q["id"] == "audience":
            q["weight"] = "1/4"
    other = parse_catalog(yaml.safe_dump(doc))
    assert other.content_hash() != default_catalog().content_hash()


# ---------------------------------------------------------------------------
# Rejection of malformed catalogs


def _mutated(mutate) -> str:
    """Apply a mutation to the default catalog document; return the error text."""
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    mutate(doc)
    with pytest.raises(CatalogError) as err:
        parse_catalog(yaml.safe_dump(doc))
    return str(err.value)


_WEIGHT_TYPES = 'weights must be integers or strings like "1/2"'


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(version=""), "<string>: version: must be a non-empty string"),
        (lambda d: d.update(prefixes=["dct"]), "<string>: prefixes: must map prefix names to IRIs"),
        (
            lambda d: d["hierarchy"].update(usage={"title": "Usage"}),
            "<string>: hierarchy.usage: expected a label",
        ),
        (lambda d: d.update(questions={"creator": 1}), "<string>: questions: must be a list"),
        (lambda d: d["questions"].append("creator"), "<string>: questions[30]: expected a mapping"),
        (lambda d: d.update(rules="none"), "<string>: rules: must be a list"),
        (lambda d: d["questions"][0].pop("id"), "<string>: questions[0].id: required"),
        (lambda d: d["questions"][0].update(leaf=""), "<string>: questions[0].leaf: required"),
        (lambda d: d["questions"][0].update(text=5), "<string>: questions[0].text: required"),
        (
            lambda d: d["questions"][0].update(queries=[]),
            "<string>: questions[0].queries: need at least one query",
        ),
        (
            lambda d: d["questions"][0].update(queries=[5]),
            "<string>: questions[0].queries[0]: expected SPARQL text",
        ),
        (
            lambda d: d["questions"][0].update(weight=True),
            f"<string>: questions[0].weight: {_WEIGHT_TYPES}",
        ),
        (
            lambda d: d["questions"][0].update(weight="a half"),
            "<string>: questions[0].weight: not a rational number: 'a half'",
        ),
        (
            lambda d: d["questions"][0].update(weight=[1]),
            f"<string>: questions[0].weight: {_WEIGHT_TYPES}",
        ),
        (lambda d: d["rules"].insert(0, "creator-dce"), "<string>: rules[0]: expected a mapping"),
        (lambda d: d["rules"][0].pop("id"), "<string>: rules[0].id: required"),
        (lambda d: d["rules"][0].update(source="  "), "<string>: rules[0].source: required"),
        (
            lambda d: d["rules"][0].update(target="?kg no:creator ?creator ."),
            "rule 'creator-dce' target: line 1: undeclared prefix 'no:'",
        ),
        (
            lambda d: d["hierarchy"].update({"usage.why": "Why"}),
            "unknown hierarchy nodes: usage.why",
        ),
    ],
    ids=[
        "version", "prefixes", "label", "questions", "question", "rules", "question-id",
        "leaf", "text", "queries", "query", "weight-bool", "weight-text", "weight-list",
        "rule", "rule-id", "rule-source", "rule-target", "stray-node",
    ],
)
def test_a_malformed_catalog_document_is_refused(mutate, message):
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    mutate(doc)
    with pytest.raises(CatalogError) as err:
        parse_catalog(yaml.safe_dump(doc))
    assert str(err.value) == message
    assert err.value.diagnostics == []


@pytest.mark.parametrize(
    "mutate, diagnostic",
    [
        (
            lambda d: d["questions"][0].update(leaf="collection.when"),
            "leaf collection.who has no questions",
        ),
        (
            lambda d: d["questions"][0]["queries"][0].update(
                ask="ASK { { ?kg dct:creator ?c . } UNION { ?kg dct:contributor ?c . } }"
            ),
            "question 'creator' query creator.1 must be a plain BGP",
        ),
        (lambda d: d["rules"].append(dict(d["rules"][0])), "duplicate rule id 'creator-dce'"),
        (
            lambda d: d["rules"][0].update(target="?kg ?p ?creator ."),
            "rule 'creator-dce' target predicate must be a constant IRI",
        ),
    ],
    ids=["empty-leaf", "non-bgp", "duplicate-rule", "variable-target"],
)
def test_validation_names_each_unsound_part(mutate, diagnostic):
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    mutate(doc)
    with pytest.raises(CatalogError) as err:
        parse_catalog(yaml.safe_dump(doc))
    assert err.value.diagnostics == [diagnostic]
    assert str(err.value) == f"<string>: catalog is invalid\n  - {diagnostic}"


def test_missing_leaf_is_reported_with_counts():
    def mutate(doc):
        del doc["hierarchy"]["usage.what"]
        doc["questions"] = [q for q in doc["questions"] if q["leaf"] != "usage.what"]

    message = _mutated(mutate)
    assert "usage has 4 children, expected 5" in message


def test_non_positive_weight_rejected():
    def mutate(doc):
        for q in doc["questions"]:
            if q["id"] == "publisher":
                q["weight"] = 0

    message = _mutated(mutate)
    assert "question 'publisher' has non-positive weight" in message


def test_weights_summing_to_zero_are_a_catalog_error():
    # collection.where's weights would sum to 0: the error must name the
    # bad weight, not come from dividing by that sum
    def mutate(doc):
        weights = {"source": 1, "creation-location": -1}
        for q in doc["questions"]:
            if q["id"] in weights:
                q["weight"] = weights[q["id"]]

    message = _mutated(mutate)
    assert "question 'creation-location' has non-positive weight -1" in message


def test_float_weight_rejected_with_hint():
    def mutate(doc):
        doc["questions"][0]["weight"] = 0.5

    message = _mutated(mutate)
    assert '"1/2"' in message


def test_dead_rule_rejected():
    def mutate(doc):
        doc["rules"].append(
            {
                "id": "dead-end",
                "source": "?kg <http://example.org/p> ?v .",
                "target": "?kg <http://example.org/q> ?v .",
            }
        )

    message = _mutated(mutate)
    assert "rule 'dead-end' is dead" in message


def test_chained_rules_rejected():
    def mutate(doc):
        doc["rules"].append(
            {
                "id": "chainy",
                "source": "?kg dct:publisher ?v .",
                "target": "?kg dcat:theme ?v .",
            }
        )

    message = _mutated(mutate)
    assert "rule 'chainy'" in message
    assert "another rule derives" in message


@pytest.mark.parametrize(
    "target",
    ["?kg dct:creator <http://example.org/someone> .", "?kg dct:creator ?kg ."],
    ids=["constant-object", "repeated-variable"],
)
def test_rule_target_must_be_two_distinct_variables(target):
    def mutate(doc):
        doc["rules"].append(
            {"id": "odd-target", "source": "?kg schema:accountablePerson ?x .", "target": target}
        )

    message = _mutated(mutate)
    assert "rule 'odd-target' target must be '?s <p> ?o' with two distinct variables" in message


def test_query_with_variable_predicate_rejected():
    def mutate(doc):
        doc["questions"][0]["queries"] = ["ASK { ?kg ?p ?o . ?o a foaf:Person . }"]

    message = _mutated(mutate)
    assert "question 'creator' query creator.1 has a variable predicate" in message


def test_rule_reaching_three_hops_accepted():
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    doc["rules"].append(THREE_HOP_RULE)
    catalog = parse_catalog(yaml.safe_dump(doc))
    assert validate(catalog) == []
    for qid in ("access-url.1", "access-url-how.1"):
        branches = catalog.expanded[qid].pattern.branches
        assert len(branches) == len(default_catalog().expanded[qid].pattern.branches) + 1
        assert len(branches[-1].patterns) == 3


def test_query_reaching_past_a_neighbour_accepted():
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    doc["questions"][0]["queries"] = [THREE_HOP_QUERY]
    catalog = parse_catalog(yaml.safe_dump(doc))
    assert validate(catalog) == []
    assert len(catalog.question("creator").queries[0].query.pattern.patterns) == 3


def test_unbound_target_variable_rejected():
    def mutate(doc):
        doc["rules"].append(
            {
                "id": "loose",
                "source": "?kg dce:creator ?creator .",
                "target": "?kg dct:creator ?other .",
            }
        )

    message = _mutated(mutate)
    assert "rule 'loose' target variable ?other is not bound" in message


def test_target_subject_must_come_from_source_subject():
    def mutate(doc):
        doc["rules"].append(
            {
                "id": "flipped",
                "source": "?kg schema:about ?c .",
                "target": "?c dcat:theme ?kg .",
            }
        )

    message = _mutated(mutate)
    assert "rule 'flipped' target subject ?c could bind a literal" in message


def test_non_ask_query_rejected():
    def mutate(doc):
        for q in doc["questions"]:
            if q["id"] == "publisher":
                q["queries"] = ["SELECT ?p WHERE { ?kg dct:publisher ?p . }"]

    message = _mutated(mutate)
    assert "is not an ASK query" in message


def test_query_must_mention_kg():
    def mutate(doc):
        for q in doc["questions"]:
            if q["id"] == "license":
                q["queries"] = ["ASK { ?s dct:license ?license . }"]

    message = _mutated(mutate)
    assert "never mentions ?kg" in message


def test_query_parse_errors_name_the_question():
    def mutate(doc):
        for q in doc["questions"]:
            if q["id"] == "creator":
                q["queries"] = ["ASK { ?kg dct:creator ?c . FILTER (?c) }"]

    message = _mutated(mutate)
    assert "question 'creator' query 1" in message
    assert "FILTER" in message


def test_query_parse_error_lines_count_from_the_query():
    def mutate(doc):
        for q in doc["questions"]:
            if q["id"] == "creator":
                q["queries"] = ["ASK {\n  ?kg dct:creator ?c .\n  FILTER (?c)\n}"]

    assert "question 'creator' query 1: line 3: " in _mutated(mutate)


@pytest.mark.parametrize(
    "name, iri, message",
    [
        ("spare", "not an iri", "malformed IRI"),
        ("a b", "http://example.org/", "expected a prefix name ending in ':'"),
    ],
)
def test_a_malformed_prefix_is_rejected(name, iri, message):
    def mutate(doc):
        doc["prefixes"][name] = iri

    assert re.search(f": prefixes: line [0-9]+: .*{message}", _mutated(mutate))


def test_question_on_undeclared_leaf_rejected():
    def mutate(doc):
        for q in doc["questions"]:
            if q["id"] == "creator":
                q["leaf"] = "collection.extra"

    message = _mutated(mutate)
    assert "collection.extra" in message


def test_duplicate_question_id_rejected():
    def mutate(doc):
        copy = dict(next(q for q in doc["questions"] if q["id"] == "audience"))
        doc["questions"].append(copy)

    message = _mutated(mutate)
    assert "duplicate question id 'audience'" in message


def test_not_yaml_rejected():
    with pytest.raises(CatalogError):
        parse_catalog("questions: [unclosed")
    with pytest.raises(CatalogError):
        parse_catalog("- just\n- a list\n")


# ---------------------------------------------------------------------------
# Extended queries


def test_publisher_expands_to_five_branches():
    cat = default_catalog()
    compact = cat.question("publisher").queries[0].query
    extended = expand_extended(compact, cat.rules)
    assert isinstance(extended.pattern, UnionPattern)
    branches = extended.pattern.branches
    assert len(branches) == 5
    assert branches[0] == compact.pattern
    sizes = sorted(len(b.patterns) for b in branches)
    assert sizes == [1, 1, 1, 1, 3]
    # every branch still talks about the dataset and binds ?publisher
    for branch in branches:
        assert {"kg", "publisher"} <= pattern_variables(branch)
    # only a plain BGP expands, so an expansion is not expanded again
    with pytest.raises(SparqlError, match="needs a plain BGP"):
        expand_extended(extended, cat.rules)


def test_follow_up_expansion_is_a_product():
    cat = default_catalog()
    compact = cat.question("creator").queries[1].query
    extended = expand_extended(compact, cat.rules)
    branches = extended.pattern.branches
    # 8 ways to say "creator" times 3 ways to say "name"
    assert len(branches) == 24
    for branch in branches:
        assert {"kg", "creator", "name"} <= pattern_variables(branch)


def test_expansion_without_applicable_rules_is_identity():
    cat = default_catalog()
    compact = cat.question("creation-method").queries[0].query
    extended = expand_extended(compact, cat.rules)
    assert extended.pattern == compact.pattern


def test_expansion_renames_rule_variables_apart():
    cat = default_catalog()
    compact = cat.question("creation-location").queries[0].query
    extended = expand_extended(compact, cat.rules)
    branches = extended.pattern.branches
    assert len(branches) == 2
    chain = branches[1]
    names = pattern_variables(chain)
    assert "kg" in names and "location" in names
    # the intermediate activity variable must not collide with query variables
    intermediates = names - {"kg", "location"}
    assert len(intermediates) == 1
    assert next(iter(intermediates)).startswith("activity")
