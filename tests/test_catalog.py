"""Catalog loading, validation, content hashing and query expansion."""

import itertools
import re
from types import SimpleNamespace
from fractions import Fraction
from importlib import resources

import pytest
import yaml

import kgaudit.catalog
from kgaudit.catalog import (
    CatalogError,
    default_catalog,
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

from helpers import FIXTURES, THREE_HOP_QUERY, THREE_HOP_RULE, default_catalog_doc, evaluate_graph


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
    doc = default_catalog_doc()
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
        doc = default_catalog_doc()
        for q in doc["questions"]:
            if q["id"] == "license":
                q["queries"] = [ask]
        catalog = parse_catalog(yaml.safe_dump(doc))
        return next(cq.query for _, cq in catalog.queries() if cq.id == "license.1")

    dollar = license_query("ASK { ?kg dct:license $license . }")
    assert dollar == license_query("ASK { ?kg dct:license ?license . }")
    assert "license" in pattern_variables(dollar.pattern)


# ---------------------------------------------------------------------------
# Parsing strings and content hashing


def test_parse_keeps_line_breaks():
    text = "Who created\nthe knowledge graph?\r\n(any agent)"
    label = "Creator,\non three\x85lines"
    doc = default_catalog_doc()
    doc["questions"][0]["text"] = text
    doc["questions"][0]["queries"][0]["label"] = label
    cat = parse_catalog(yaml.safe_dump(doc))
    assert cat.question("creator").text == text
    assert cat.question("creator").queries[0].label == label


# YAML 1.1 reads each of these plain spellings as something other than
# that string, or not at all
_AWKWARD = (
    "null", "yes", "0x1F", "0b101", ".inf", ".NaN", "x #y", "a: b", "1e5", "2001-12-14",
    "~", "- a", "1_000",
)


def _set_every_string_field(doc: dict, value: str) -> None:
    doc["version"] = value
    question = doc["questions"][0]
    question["id"] = value
    question["text"] = value
    question["queries"][0]["label"] = value
    doc["rules"][0]["id"] = value


@pytest.mark.parametrize("value", _AWKWARD)
def test_parse_reads_every_string_field(value):
    doc = default_catalog_doc()
    _set_every_string_field(doc, value)
    cat = parse_catalog(yaml.safe_dump(doc))
    assert cat.version == value
    assert cat.question(value).text == value
    assert cat.question(value).queries[0].label == value
    assert cat.rules[0].id == value


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
    assert escaped.content_hash() == default_catalog().content_hash()
    for path in sorted(FIXTURES.glob("*.nt")):
        graph = load_rdf(str(path))
        datasets = discover_in_graph(graph)
        assert datasets
        expected = score_datasets(default_catalog(), graph, datasets)
        assert score_datasets(escaped, graph, datasets) == expected


def test_load_catalog_from_file(tmp_path):
    path = tmp_path / "catalog.yaml"
    path.write_text(yaml.safe_dump(default_catalog_doc()), encoding="utf-8")
    assert load_catalog(str(path)) == default_catalog()


def test_content_hash_is_made_once_and_unchanged(monkeypatch):
    cat = parse_catalog(yaml.safe_dump(default_catalog_doc()))
    expected = default_catalog().content_hash()
    dumped = []
    real_dumps = kgaudit.catalog.json.dumps
    counting = SimpleNamespace(dumps=lambda *a, **k: dumped.append(a) or real_dumps(*a, **k))
    monkeypatch.setattr(kgaudit.catalog, "json", counting)
    assert [cat.content_hash() for _ in range(3)] == [expected] * 3
    assert len(dumped) == 1
    assert "_hash" not in repr(cat) and cat == default_catalog()


def _edited(edit):
    doc = default_catalog_doc()
    edit(doc)
    return parse_catalog(yaml.safe_dump(doc))


def _question(doc, question_id):
    return next(q for q in doc["questions"] if q["id"] == question_id)


def _weights(value):
    def edit(doc):
        for question in doc["questions"]:
            if question["weight"] == 1:
                del question["weight"]
                if value is not None:
                    question["weight"] = value
    return edit


def _reverse_keys(value):
    if isinstance(value, dict):
        return {key: _reverse_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_reverse_keys(item) for item in value]
    return value


# Spellings of the bundled catalog that read as the same catalog
_RESPELLED = {
    "comments-dropped-keys-sorted": lambda: _edited(lambda d: None),
    "keys-reversed": lambda: parse_catalog(
        yaml.safe_dump(_reverse_keys(default_catalog_doc()), sort_keys=False)
    ),
    "prefixes-reversed": lambda: _edited(
        lambda d: d.update(prefixes=dict(reversed(d["prefixes"].items())))
    ),
    'weights-"1"': lambda: _edited(_weights("1")),
    'weights-"2/2"': lambda: _edited(_weights("2/2")),
    "weights-omitted": lambda: _edited(_weights(None)),
    "dct-escaped": lambda: parse_catalog(
        DEFAULT_TEXT.replace(
            'dct: "http://purl.org/dc/terms/"', "dct: 'http://purl.org/dc/\\u0074erms/'"
        )
    ),
}

# Edits of one part each, each making another catalog
_MUTATIONS = {
    "version": lambda d: d.update(version="1.1"),
    "question-id": lambda d: _question(d, "creator").update(id="author"),
    "question-leaf": lambda d: _question(d, "creation-location").update(leaf="collection.how"),
    "question-text": lambda d: _question(d, "creator").update(text="Who made the graph?"),
    "query-label": lambda d: _question(d, "creator")["queries"][0].update(label="Author"),
    "query-whitespace": lambda d: _question(d, "creator")["queries"][0].update(
        ask="ASK {  ?kg dct:creator ?creator . }"
    ),
    "weight": lambda d: _question(d, "audience").update(weight="1/4"),
    "prefix-iri": lambda d: d["prefixes"].update(dqv="http://www.w3.org/ns/dqv/"),
    "rule-id": lambda d: d["rules"][0].update(id="creator-dc-elements"),
    "rule-source": lambda d: d["rules"][0].update(source="?kg schema:author ?creator ."),
    "rule-target": lambda d: d["rules"][0].update(target="?kg dct:contributor ?creator ."),
}


def test_content_hash_is_equal_exactly_when_catalogs_are_equal():
    base = default_catalog()
    respelled = {name: make() for name, make in _RESPELLED.items()}
    mutated = {name: _edited(edit) for name, edit in _MUTATIONS.items()}
    assert [name for name, cat in respelled.items() if cat != base] == []
    assert [name for name, cat in mutated.items() if cat == base] == []
    catalogs = [base, *respelled.values(), *mutated.values()]
    for a, b in itertools.combinations(catalogs, 2):
        assert (a.content_hash() == b.content_hash()) == (a == b)
    assert len({cat.content_hash() for cat in catalogs}) == 1 + len(mutated)


# ---------------------------------------------------------------------------
# Rejection of malformed catalogs


def _mutated(mutate) -> str:
    """Apply a mutation to the default catalog document; return the error text."""
    doc = default_catalog_doc()
    mutate(doc)
    with pytest.raises(CatalogError) as err:
        parse_catalog(yaml.safe_dump(doc))
    return str(err.value)


_WEIGHT_TYPES = 'weights must be integers or strings like "1/2"'
_TOP_KEYS = "version, prefixes, questions, rules"
_QUESTION_KEYS = "id, leaf, text, weight, queries"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(version=""), "<string>: version: must be a non-empty string"),
        (lambda d: d.update(prefixes=["dct"]), "<string>: prefixes: must map prefix names to IRIs"),
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
            "<string>: rules[0].target: line 1: undeclared prefix 'no:'",
        ),
        (
            lambda d: d["questions"][0]["queries"][1].update(
                ask="ASK { ?kg dct:creator ?c . FILTER (?c) }"
            ),
            "<string>: questions[0].queries[1]: line 1: unsupported SPARQL feature: FILTER",
        ),
        (
            lambda d: d["questions"][0].update(leaf="usage.why"),
            "<string>: questions[0].leaf: no such leaf: 'usage.why'",
        ),
        # a misspelt or retired key is refused, never read as an absent one
        (
            lambda d: d.update(rule=d.pop("rules")),
            f"<string>: unknown key 'rule'; allowed: {_TOP_KEYS}",
        ),
        (
            lambda d: d["questions"][0].update(wieght=5),
            f"<string>: questions[0]: unknown key 'wieght'; allowed: {_QUESTION_KEYS}",
        ),
        (
            lambda d: d["questions"][0]["queries"][0].update(lable="Creator"),
            "<string>: questions[0].queries[0]: unknown key 'lable'; allowed: label, ask",
        ),
        (
            lambda d: d["rules"][0].update(sources=d["rules"][0]["source"]),
            "<string>: rules[0]: unknown key 'sources'; allowed: id, source, target",
        ),
        (
            lambda d: d.update(hierarchy={"root": "Accountability"}),
            f"<string>: unknown key 'hierarchy'; allowed: {_TOP_KEYS}",
        ),
        (
            lambda d: d["questions"][0]["queries"][0].update(label=5),
            "<string>: questions[0].queries[0].label: must be a string",
        ),
    ],
    ids=[
        "version", "prefixes", "questions", "question", "rules", "question-id",
        "leaf", "text", "queries", "query", "weight-bool", "weight-text", "weight-list",
        "rule", "rule-id", "rule-source", "rule-target", "query-sparql", "unknown-leaf",
        "key-rule", "key-wieght", "key-lable", "key-sources", "key-hierarchy", "label-number",
    ],
)
def test_a_malformed_catalog_document_is_refused(mutate, message):
    doc = default_catalog_doc()
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
    doc = default_catalog_doc()
    mutate(doc)
    with pytest.raises(CatalogError) as err:
        parse_catalog(yaml.safe_dump(doc))
    assert err.value.diagnostics == [diagnostic]
    assert str(err.value) == f"<string>: catalog is invalid\n  - {diagnostic}"


def test_missing_leaf_is_reported_with_counts():
    doc = default_catalog_doc()
    doc["questions"] = [q for q in doc["questions"] if q["leaf"] != "usage.what"]
    with pytest.raises(CatalogError) as err:
        parse_catalog(yaml.safe_dump(doc))
    # the rules only those questions used are dead, and reported after these
    assert err.value.diagnostics[:2] == [
        "usage has 13 questions, expected 20",
        "leaf usage.what has no questions",
    ]


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
    doc = default_catalog_doc()
    doc["rules"].append(THREE_HOP_RULE)
    catalog = parse_catalog(yaml.safe_dump(doc))
    assert validate(catalog) == []
    for qid in ("access-url.1", "access-url-how.1"):
        branches = catalog.expanded[qid].pattern.branches
        assert len(branches) == len(default_catalog().expanded[qid].pattern.branches) + 1
        assert len(branches[-1].patterns) == 3


def test_query_reaching_past_a_neighbour_accepted():
    doc = default_catalog_doc()
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
    assert message.startswith("<string>: questions[0].queries[0]: ")  # creator is the first
    assert "FILTER" in message


def test_query_parse_error_lines_count_from_the_query():
    def mutate(doc):
        for q in doc["questions"]:
            if q["id"] == "creator":
                q["queries"] = ["ASK {\n  ?kg dct:creator ?c .\n  FILTER (?c)\n}"]

    assert _mutated(mutate).startswith("<string>: questions[0].queries[0]: line 3: ")


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
