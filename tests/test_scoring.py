"""Score aggregation: exact fractions, hand-computed chains, monotonicity."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from kgaudit.catalog import default_catalog, parse_catalog
from kgaudit.rdf import Iri, load_rdf
from kgaudit.scoring import (
    FailureKind,
    QueryOutcome,
    build_result,
    format_percent,
    not_evaluated_result,
    results_from_answers,
)

from helpers import FIXTURES, default_catalog_doc, evaluate_graph, ref_build_result

CATALOG = default_catalog()
ALL_QUERY_IDS = [cq.id for _, cq in CATALOG.queries()]


def outcomes_where(true_ids: set[str]) -> list[QueryOutcome]:
    return [
        QueryOutcome(qid, qid in true_ids, None if qid in true_ids else FailureKind.ANSWER_FALSE)
        for qid in ALL_QUERY_IDS
    ]


# ---------------------------------------------------------------------------
# Outcome invariants


def test_outcome_consistency_enforced():
    with pytest.raises(ValueError):
        QueryOutcome("publisher.1", True, FailureKind.TIMEOUT)
    with pytest.raises(ValueError):
        QueryOutcome("publisher.1", False, None)


def test_cover_errors_keep_their_messages():
    none = outcomes_where(set())
    stray = [
        QueryOutcome("nope.1", False, FailureKind.ANSWER_FALSE),
        QueryOutcome("aaa.1", True),
    ]
    cases = [
        (none[:-1], "missing outcomes: quality.1"),
        (none[2:-1], "missing outcomes: creator.1, creator.2, quality.1"),
        (none + [none[1]], "duplicate outcome for query 'creator.2'"),
        (none + stray, "unknown query ids: aaa.1, nope.1"),
        (none[1:] + stray, "missing outcomes: creator.1; unknown query ids: aaa.1, nope.1"),
    ]
    for outcomes, message in cases:
        for build in (build_result, ref_build_result):
            with pytest.raises(ValueError) as err:
                build(CATALOG, "d", outcomes)
            assert str(err.value) == message


def test_build_result_requires_exact_query_cover():
    with pytest.raises(ValueError, match="missing outcomes"):
        build_result(CATALOG, "d", outcomes_where(set())[:-1])
    with pytest.raises(ValueError, match="duplicate outcome"):
        build_result(CATALOG, "d", outcomes_where(set()) + [outcomes_where(set())[0]])
    with pytest.raises(ValueError, match="unknown query ids"):
        build_result(
            CATALOG,
            "d",
            outcomes_where(set()) + [QueryOutcome("nope.1", False, FailureKind.ANSWER_FALSE)],
        )


# ---------------------------------------------------------------------------
# The catalog's scoring plan against the reference aggregation
# (tests/helpers.py), on catalogs with other weights and query counts

_WEIGHTS = [1, 2, 5, "1/2", "1/3", "2/7", "3/4", "5/3"]
# None stands for a success
_KINDS = [None, *FailureKind]


def _catalog_variant(rng: random.Random):
    """The default catalog with random weights and 1-4 queries per question."""
    doc = default_catalog_doc()
    pool = [query for question in doc["questions"] for query in question["queries"]]
    for question in doc["questions"]:
        question["weight"] = rng.choice(_WEIGHTS)
        extra = rng.randrange(5 - len(question["queries"]))
        for _ in range(extra):
            query = rng.choice(pool)
            question["queries"].append(dict(query) if isinstance(query, dict) else query)
    return parse_catalog(yaml.safe_dump(doc))


def _random_outcomes(rng: random.Random, catalog) -> list[QueryOutcome]:
    outcomes = []
    for _, cq in catalog.queries():
        kind = rng.choice(_KINDS)
        outcomes.append(QueryOutcome(cq.id, kind is None, kind))
    rng.shuffle(outcomes)
    return outcomes


def _assert_matches_reference(result, catalog, outcomes):
    ordered, questions, nodes = ref_build_result(catalog, result.dataset, outcomes)
    assert result.outcomes == ordered
    assert list(result.question_scores.items()) == list(questions.items())
    assert list(result.node_scores.items()) == list(nodes.items())
    scores = [*result.question_scores.values(), *result.node_scores.values()]
    assert all(type(score) is Fraction for score in scores)


@pytest.mark.parametrize("seed", [13, 2026])
def test_plan_scores_like_the_reference(seed):
    rng = random.Random(seed)
    catalogs = [CATALOG] + [_catalog_variant(rng) for _ in range(3)]
    counts = {len(q.queries) for catalog in catalogs for q in catalog.questions()}
    assert counts == {1, 2, 3, 4}
    for catalog in catalogs:
        for _ in range(25):
            outcomes = _random_outcomes(rng, catalog)
            result = build_result(catalog, "d", outcomes)
            _assert_matches_reference(result, catalog, outcomes)


@pytest.mark.parametrize("seed", [5, 77])
def test_results_from_answers_score_like_the_reference(seed):
    rng = random.Random(seed)
    catalog = _catalog_variant(rng)
    datasets = [Iri(f"http://example.org/kg/{i}") for i in range(4)]
    answers = {}
    for _, cq in catalog.queries():
        kind = rng.choice([None, *FailureKind])
        answers[cq.id] = (
            {d for d in datasets if rng.random() < 0.5}
            if kind in (None, FailureKind.ANSWER_FALSE)
            else kind
        )
    results = results_from_answers(catalog, datasets, answers)
    assert [r.dataset for r in results] == [d.value for d in datasets]
    for dataset, result in zip(datasets, results):
        expected = []
        for _, cq in catalog.queries():
            answer = answers[cq.id]
            if isinstance(answer, FailureKind):
                expected.append(QueryOutcome(cq.id, False, answer))
            elif dataset in answer:
                expected.append(QueryOutcome(cq.id, True))
            else:
                expected.append(QueryOutcome(cq.id, False, FailureKind.ANSWER_FALSE))
        _assert_matches_reference(result, catalog, expected)
    for kind in FailureKind:
        result = not_evaluated_result(catalog, "key", kind)
        expected = [QueryOutcome(cq.id, False, kind) for _, cq in catalog.queries()]
        _assert_matches_reference(result, catalog, expected)


# ---------------------------------------------------------------------------
# Exact fixture scores


def test_fully_accountable_dataset_scores_one():
    graph = load_rdf(str(FIXTURES / "accountable.nt"))
    result = evaluate_graph(CATALOG, graph, Iri("http://example.org/kg/full"))
    assert result.score == 1
    assert all(score == 1 for score in result.node_scores.values())
    assert all(score == 1 for score in result.question_scores.values())
    assert format_percent(result.score) == "100.0%"


def test_publisher_only_dataset_scores_one_thirtieth():
    graph = load_rdf(str(FIXTURES / "publisher_only.nt"))
    result = evaluate_graph(CATALOG, graph, Iri("http://example.org/kg/sparse"))
    assert result.score == Fraction(1, 30)
    assert result.node_scores["usage.who"] == Fraction(1, 2)
    assert result.node_scores["usage"] == Fraction(1, 10)
    assert result.node_scores["collection"] == 0
    assert result.node_scores["maintenance"] == 0
    assert format_percent(result.score) == "3.3%"


def test_the_readme_library_example_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    for old, new in (
        ('"metadata.ttl"', repr(str(FIXTURES / "publisher_only.nt"))),
        ('"http://example.org/kg"', '"http://example.org/kg/sparse"'),
    ):
        assert old in code
        code = code.replace(old, new)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "1/30"


def test_alternate_vocabulary_scores_like_canonical():
    graph = load_rdf(str(FIXTURES / "alt_publisher.nt"))
    result = evaluate_graph(CATALOG, graph, Iri("http://example.org/kg/alt"))
    assert result.score == Fraction(1, 30)
    assert result.question_scores["publisher"] == 1


def test_unknown_dataset_scores_zero():
    graph = load_rdf(str(FIXTURES / "accountable.nt"))
    result = evaluate_graph(CATALOG, graph, Iri("http://example.org/kg/absent"))
    assert result.score == 0
    assert all(o.failure is FailureKind.ANSWER_FALSE for o in result.outcomes)


def test_not_evaluated_result_is_zero():
    result = not_evaluated_result(CATALOG, "http://example.org/sparql")
    assert result.dataset == "http://example.org/sparql"
    assert result.score == 0
    assert all(o.failure is FailureKind.NOT_EVALUATED for o in result.outcomes)


# ---------------------------------------------------------------------------
# Hand-computed aggregation chains


def test_single_leaf_chain():
    # all three usage.who questions true, everything else false
    result = build_result(
        CATALOG, "d", outcomes_where({"publisher.1", "usage-rights.1", "audience.1"})
    )
    assert result.node_scores["usage.who"] == 1
    assert result.node_scores["usage"] == Fraction(1, 5)
    assert result.score == Fraction(1, 15)


def test_partial_question_counts_half():
    # creator.1 true but creator.2 false: the question scores 1/2
    result = build_result(CATALOG, "d", outcomes_where({"creator.1"}))
    assert result.question_scores["creator"] == Fraction(1, 2)
    assert result.node_scores["collection.who"] == Fraction(1, 2)
    assert result.node_scores["collection"] == Fraction(1, 8)
    assert result.score == Fraction(1, 24)


def test_weighted_leaf_mean():
    # usage.where: webpage (1/2) true, access-url (1/2) and usage-location (1) false
    result = build_result(CATALOG, "d", outcomes_where({"webpage.1"}))
    assert result.node_scores["usage.where"] == Fraction(1, 4)


def test_two_questions_same_leaf_unweighted_inside_weights():
    # collection.where has source and creation-location, both weight 1
    result = build_result(CATALOG, "d", outcomes_where({"source.1"}))
    assert result.node_scores["collection.where"] == Fraction(1, 2)


def test_all_outcomes_true_gives_one():
    result = build_result(CATALOG, "d", outcomes_where(set(ALL_QUERY_IDS)))
    assert result.score == 1


# ---------------------------------------------------------------------------
# Rendering


@pytest.mark.parametrize(
    "score,rendered",
    [
        (Fraction(0), "0.0%"),
        (Fraction(1), "100.0%"),
        (Fraction(1, 30), "3.3%"),
        (Fraction(1, 2), "50.0%"),
        (Fraction(1, 3), "33.3%"),
        (Fraction(2, 3), "66.7%"),
        (Fraction(1, 15), "6.7%"),
        (Fraction(3, 2000), "0.2%"),  # 1.5 per mille rounds half to even
        (Fraction(1, 2000), "0.0%"),
    ],
)
def test_format_percent(score, rendered):
    assert format_percent(score) == rendered


# ---------------------------------------------------------------------------
# Monotonicity: turning any failure into a success never lowers any score


def test_monotone_in_outcomes():
    rng = random.Random(1311)
    for _ in range(40):
        true_ids = {qid for qid in ALL_QUERY_IDS if rng.random() < 0.4}
        false_ids = [qid for qid in ALL_QUERY_IDS if qid not in true_ids]
        if not false_ids:
            continue
        base = build_result(CATALOG, "d", outcomes_where(true_ids))
        flipped = rng.choice(false_ids)
        improved = build_result(CATALOG, "d", outcomes_where(true_ids | {flipped}))
        for node_id, score in base.node_scores.items():
            assert improved.node_scores[node_id] >= score
        assert improved.score > base.score


def test_outcome_lookup():
    result = build_result(CATALOG, "d", outcomes_where({"publisher.1"}))
    by_id = {o.query_id: o for o in result.outcomes}
    assert by_id["publisher.1"].success
    assert "publisher.9" not in by_id
