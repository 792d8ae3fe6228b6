"""From query answers to hierarchical accountability scores.

Each catalog query is asked once for a whole set of datasets: which of
them, bound to ?kg, give it a solution.  Every route asks the same
question, the vocabulary-expanded form of the query
(``Catalog.expanded``).  Locally it is asked of a raw graph (a file, or
what a campaign fetched from one endpoint) by :func:`score_datasets`,
which ``evaluate --file`` and a campaign call with all the datasets of a
graph, and a library caller with one; the remote route asks an endpoint
the same pattern as ``SELECT DISTINCT ?kg`` with ?kg bound to the
datasets by VALUES, and hands its answers to :func:`results_from_answers`
too.

Scores are exact rationals all the way up: a question is the mean of its
query outcomes, a leaf is the weighted mean of its questions, and every
node above that is the plain mean of its children.  Each score is thus a
fixed function of the hits per question, which the catalog's
:class:`~kgaudit.catalog.ScoringPlan` holds as precomputed fractions and
integer coefficients; :func:`build_result` only counts hits and reads the
scores off it.  Nothing is rounded until a score is rendered for people
(tenth of a percent).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .catalog import KG, Catalog
from .rdf import Graph, Iri, Term, _Record, _new_tuple
from .sparql import values_with_solution


class FailureKind(Enum):
    """Why a query did not count as satisfied."""

    ANSWER_FALSE = "answer-false"
    REMOTE_ERROR = "remote-error"
    TIMEOUT = "timeout"
    NOT_EVALUATED = "not-evaluated"


class _QueryOutcome(NamedTuple):
    query_id: str
    success: bool
    failure: FailureKind | None


class QueryOutcome(_Record, _QueryOutcome):
    """The answer one catalog query produced for one dataset."""

    __slots__ = ()

    def __new__(
        cls, query_id: str, success: bool, failure: FailureKind | None = None
    ) -> "QueryOutcome":
        if success and failure is not None:
            raise ValueError("a successful outcome cannot carry a failure kind")
        if not success and failure is None:
            raise ValueError("a failed outcome needs a failure kind")
        return _new_tuple(cls, (query_id, success, failure))


class DatasetResult(NamedTuple):
    """Scores for one dataset: per query, per question, per hierarchy node.

    ``dataset`` is normally the dataset IRI; for an endpoint where nothing
    could be audited it falls back to the endpoint URL so the zero still
    shows up in reports.
    """

    dataset: str
    outcomes: tuple[QueryOutcome, ...]
    question_scores: Mapping[str, Fraction]
    node_scores: Mapping[str, Fraction]

    @property
    def score(self) -> Fraction:
        return self.node_scores["root"]


def build_result(
    catalog: Catalog, dataset: str, outcomes: Iterable[QueryOutcome]
) -> DatasetResult:
    """Aggregate outcomes; they must cover the catalog's queries exactly."""
    plan = catalog.plan
    by_id: dict[str, QueryOutcome] = {}
    for outcome in outcomes:
        if outcome.query_id in by_id:
            raise ValueError(f"duplicate outcome for query '{outcome.query_id}'")
        by_id[outcome.query_id] = outcome
    missing = [qid for qid in plan.query_ids if qid not in by_id]
    if missing or len(by_id) != len(plan.query_ids):
        stray = sorted(set(by_id).difference(plan.query_ids))
        parts = []
        if missing:
            parts.append("missing outcomes: " + ", ".join(missing))
        if stray:
            parts.append("unknown query ids: " + ", ".join(stray))
        raise ValueError("; ".join(parts))

    hits = []
    question_scores: dict[str, Fraction] = {}
    for question_id, query_ids, fractions in plan.questions:
        if len(query_ids) == 1:
            count = int(by_id[query_ids[0]].success)
        else:
            count = sum([by_id[qid].success for qid in query_ids])
        hits.append(count)
        question_scores[question_id] = fractions[count]
    node_scores = {
        node_id: Fraction(sum(map(mul, coefficients, hits[span])), denominator)
        for node_id, span, coefficients, denominator in plan.nodes
    }
    ordered = tuple(map(by_id.__getitem__, plan.query_ids))
    return DatasetResult(dataset, ordered, question_scores, node_scores)


def score_datasets(
    catalog: Catalog,
    graph: Graph,
    datasets: Sequence[Iri],
    *,
    union: Sequence[DatasetResult] | None = None,
) -> list[DatasetResult]:
    """Score datasets of one local graph: ask each expanded query of it
    once for all of them, as the remote route asks an endpoint.

    ``union`` holds the results, for these datasets among others, of a
    graph that holds every triple of ``graph``.  Every catalog pattern is
    positive (BGPs, UNION and VALUES), so a query a dataset fails there it
    fails here too, and each query is asked only for the datasets it
    succeeded for there.
    """
    satisfied = None
    if union is not None:
        satisfied = {(r.dataset, o.query_id) for r in union for o in r.outcomes if o.success}
    answers = {}
    for qid, query in catalog.expanded.items():
        asked = datasets
        if satisfied is not None:
            asked = [dataset for dataset in datasets if (dataset.value, qid) in satisfied]
        answers[qid] = set(values_with_solution(graph, query.pattern, KG.name, asked))
    return results_from_answers(catalog, datasets, answers)


def results_from_answers(
    catalog: Catalog,
    datasets: Sequence[Iri],
    answers: Mapping[str, Collection[Term] | FailureKind],
) -> list[DatasetResult]:
    """One result per dataset, from the datasets each query found, or the
    failure that query met, which then holds for every dataset alike."""
    # (datasets found, outcome if found, outcome if not), shared by all datasets
    per_query = []
    for qid in catalog.plan.query_ids:
        answer = answers[qid]
        if isinstance(answer, FailureKind):
            per_query.append(((), None, QueryOutcome(qid, False, answer)))
        else:
            per_query.append(
                (
                    answer,
                    QueryOutcome(qid, True),
                    QueryOutcome(qid, False, FailureKind.ANSWER_FALSE),
                )
            )
    return [
        build_result(
            catalog,
            dataset.value,
            [hit if dataset in found else miss for found, hit, miss in per_query],
        )
        for dataset in datasets
    ]


def not_evaluated_result(
    catalog: Catalog, key: str, failure: FailureKind = FailureKind.NOT_EVALUATED
) -> DatasetResult:
    """An all-zero result for something that could not be audited at all."""
    outcomes = [QueryOutcome(qid, False, failure) for qid in catalog.plan.query_ids]
    return build_result(catalog, key, outcomes)


def format_percent(score: Fraction) -> str:
    """Human rendering, tenth of a percent: Fraction(1, 30) -> '3.3%'."""
    permille = round(score * 1000)
    return f"{permille // 10}.{permille % 10}%"
