"""The requirement catalog: a weighted question hierarchy plus rewrite rules.

The hierarchy is KGAcc's and fixed in code (``STEP_IDS``, ``LEAF_NAMES``):
three life-cycle steps, each with who/when/where/how leaves, and "what"
under usage.  A catalog attaches thirty questions to those leaves and adds
directional equivalence rules that map alternative vocabulary onto the
canonical predicates used by the compact ASK queries.

Catalogs live in a single YAML document so that curators can edit texts,
weights, queries and rules without touching code.  The document holds
``version``, ``prefixes``, ``questions`` and ``rules``; a key the format
lacks, at any level, is refused rather than read as absent.
``load_catalog`` parses and validates, then derives the
:class:`ScoringPlan` that scoring reads every score off, and
``default_catalog`` loads the catalog bundled with the package.  The
package only reads YAML: a catalog's identity in reports
and journals is ``Catalog.content_hash()``, a SHA-256 of canonical JSON
over what was read, so it ignores comments, key order and quoting.  A query
names the dataset it scores with the variable ``?kg`` (``$kg`` is the same
variable, as in SPARQL 1.1), which scoring binds with VALUES.

The rules reach scoring one way only: each compact query is expanded once
into a UNION of rewritten variants (``expand_extended``), kept in
``Catalog.expanded``, and every route asks that expanded query, of a
local graph or of an endpoint.  Expansion replaces, independently for
every triple pattern of the compact BGP, the pattern by each rule source
whose target unifies with it, and emits one UNION branch per combination.
That answers like the compact query over the graph with every rule
applied once to its published triples; the tests keep such a saturation
as the reference the expansion is checked against.  Validation refuses
the shapes unification would miss (a compact pattern with a variable
predicate, a rule target other than ``?s <p> ?o``), so the two agree on
every graph.  How far a query or rule reaches from the dataset is not
limited.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from importlib import resources
from typing import Iterator, Mapping, NamedTuple

import yaml

from .rdf import Iri, _Record, _new_tuple
from .sparql import (
    Bgp,
    GroupPattern,
    Query,
    SparqlError,
    TriplePattern,
    UnionPattern,
    Variable,
    format_triple_pattern,
    parse_query,
    parse_triple_patterns,
)

# The variable every query binds to the dataset it scores.
KG = Variable("kg")

STEP_IDS = ("collection", "maintenance", "usage")
LEAF_NAMES = {
    "collection": ("who", "when", "where", "how"),
    "maintenance": ("who", "when", "where", "how"),
    "usage": ("who", "when", "where", "how", "what"),
}
QUESTIONS_PER_STEP = {"collection": 5, "maintenance": 5, "usage": 20}


class CatalogError(ValueError):
    """Raised when a catalog file cannot be loaded or fails validation."""

    def __init__(self, message: str, diagnostics: list[str] | None = None):
        self.diagnostics = diagnostics or []
        if self.diagnostics:
            message = message + "\n" + "\n".join(f"  - {d}" for d in self.diagnostics)
        super().__init__(message)


# ---------------------------------------------------------------------------
# Types


class CompactQuery(NamedTuple):
    """One ASK query of a question, canonical-vocabulary form."""

    id: str
    text: str
    query: Query
    label: str | None = None


class Question(NamedTuple):
    """A requirement question scored as the mean of its query outcomes."""

    id: str
    leaf: str
    text: str
    weight: Fraction
    queries: tuple[CompactQuery, ...]


class HierarchyNode(NamedTuple):
    id: str
    children: tuple["HierarchyNode", ...] = ()
    questions: tuple[Question, ...] = ()


class EquivalenceRule(NamedTuple):
    """Directional rewrite: when ``source`` holds, the ``target`` triples hold."""

    id: str
    source: tuple[TriplePattern, ...]
    target: tuple[TriplePattern, ...]


class ScoringPlan(NamedTuple):
    """Every score of the hierarchy as a fixed function of hit counts.

    A question scores ``hits / n`` over its ``n`` queries, and every node is
    a linear function of those question scores, so with the hits per
    question in catalog order a node scores ``Fraction(Σ c·hits, D)``
    over the questions under it.
    """

    # The catalog's query ids in order.
    query_ids: tuple[str, ...]
    # Per question: its id, its query ids, and Fraction(hits, n) for each
    # possible hit count.
    questions: tuple[tuple[str, tuple[str, ...], tuple[Fraction, ...]], ...]
    # Per node, leaves then steps then root: its id, the run of consecutive
    # questions under it (as a slice of the questions), one integer
    # coefficient per question of that run, and the denominator D.
    nodes: tuple[tuple[str, slice, tuple[int, ...], int], ...]


class _Catalog(NamedTuple):
    version: str
    root: HierarchyNode
    rules: tuple[EquivalenceRule, ...]
    # The vocabulary-expanded query of each plain-BGP query id, computed once
    # by ``parse_catalog``; the remote route asks its pattern of an endpoint
    # as ``SELECT DISTINCT ?kg`` with ?kg bound to the datasets by VALUES.
    expanded: Mapping[str, Query]
    prefixes: Mapping[str, str]


class Catalog(_Record, _Catalog):
    """A validated catalog and the plan its scores are read off.

    ``plan`` is derived from the hierarchy by ``parse_catalog`` once the
    catalog has validated (None only while it validates), and
    ``content_hash()`` is made on its first call; neither is a field, so
    neither takes part in equality, hash or repr.
    """

    def __new__(
        cls,
        version: str,
        root: HierarchyNode,
        rules: tuple[EquivalenceRule, ...],
        expanded: Mapping[str, Query],
        prefixes: Mapping[str, str] = {},
        plan: ScoringPlan | None = None,
    ) -> "Catalog":
        self = _new_tuple(cls, (version, root, rules, expanded, prefixes))
        self.plan = plan
        self._hash = None
        return self

    def steps(self) -> tuple[HierarchyNode, ...]:
        return self.root.children

    def leaves(self) -> Iterator[HierarchyNode]:
        for step in self.root.children:
            yield from step.children

    def nodes(self) -> Iterator[HierarchyNode]:
        """Root, then steps, then leaves, in canonical order."""
        yield self.root
        for step in self.root.children:
            yield step
        yield from self.leaves()

    def node_ids(self) -> list[str]:
        return [node.id for node in self.nodes()]

    def questions(self) -> Iterator[Question]:
        for leaf in self.leaves():
            yield from leaf.questions

    def question(self, question_id: str) -> Question:
        for q in self.questions():
            if q.id == question_id:
                return q
        raise KeyError(question_id)

    def queries(self) -> Iterator[tuple[Question, CompactQuery]]:
        for q in self.questions():
            for cq in q.queries:
                yield q, cq

    def content_hash(self) -> str:
        """SHA-256 of one canonical JSON text of what ``parse_catalog`` read.

        Two catalogs hash alike exactly when they are equal: prefixes are
        sorted, as equality ignores their order, and rules are written with
        full IRIs, as their patterns hold no prefix.
        """
        if self._hash is None:
            content = {
                "version": self.version,
                "prefixes": sorted(self.prefixes.items()),
                "questions": [
                    [q.id, q.leaf, q.text, str(q.weight), [[cq.label, cq.text] for cq in q.queries]]
                    for q in self.questions()
                ],
                "rules": [
                    [rule.id]
                    + [" ".join(format_triple_pattern(tp, {}) for tp in side)
                       for side in (rule.source, rule.target)]
                    for rule in self.rules
                ],
            }
            canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
            self._hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return self._hash


# ---------------------------------------------------------------------------
# Loading


def load_catalog(path: str) -> Catalog:
    """Load and validate a catalog file; raises CatalogError on any problem."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_catalog(handle.read(), source=path)


def default_catalog() -> Catalog:
    """The catalog bundled with the package."""
    global _DEFAULT
    if _DEFAULT is None:
        text = resources.files("kgaudit").joinpath("data/default_catalog.yaml").read_text("utf-8")
        _DEFAULT = parse_catalog(text, source="<default>")
    return _DEFAULT


_DEFAULT: Catalog | None = None

# libyaml's scanner and parser when this PyYAML was built with them, the
# pure-Python ones otherwise.  Tags are resolved and objects built by
# PyYAML's SafeConstructor either way, so both give equal documents.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(stream):
    """Parse one YAML document (text or a text file) with the safe loader."""
    return yaml.load(stream, Loader=YAML_LOADER)


def parse_catalog(text: str, source: str = "<string>") -> Catalog:
    try:
        doc = load_yaml(text)
    except yaml.YAMLError as exc:
        raise CatalogError(f"{source}: not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise CatalogError(f"{source}: catalog must be a mapping")
    _refuse_unknown_keys(doc, ("version", "prefixes", "questions", "rules"), source)

    version = doc.get("version")
    if not isinstance(version, str) or not version:
        raise CatalogError(f"{source}: version: must be a non-empty string")

    prefixes = doc.get("prefixes") or {}
    if not isinstance(prefixes, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in prefixes.items()
    ):
        raise CatalogError(f"{source}: prefixes: must map prefix names to IRIs")
    # read once as the PREFIX lines a query would declare them in; queries,
    # rules and the content hash all use this map
    header = "".join(f"PREFIX {name}: <{iri}>\n" for name, iri in prefixes.items())
    try:
        declared = parse_query(header + "ASK {}").prefixes
    except SparqlError as exc:
        raise CatalogError(f"{source}: prefixes: {exc}") from None

    raw_questions = doc.get("questions")
    if not isinstance(raw_questions, list):
        raise CatalogError(f"{source}: questions: must be a list")
    questions_by_leaf: dict[str, list[Question]] = {}
    for index, entry in enumerate(raw_questions):
        where = f"{source}: questions[{index}]"
        if not isinstance(entry, dict):
            raise CatalogError(f"{where}: expected a mapping")
        question = _parse_question(entry, declared, where)
        questions_by_leaf.setdefault(question.leaf, []).append(question)

    raw_rules = doc.get("rules") or []
    if not isinstance(raw_rules, list):
        raise CatalogError(f"{source}: rules: must be a list")
    rules = tuple(
        _parse_rule(entry, declared, f"{source}: rules[{index}]")
        for index, entry in enumerate(raw_rules)
    )

    compact = {
        cq.id: cq.query
        for questions in questions_by_leaf.values()
        for question in questions
        for cq in question.queries
        if isinstance(cq.query.pattern, Bgp)  # validation refuses the others
    }
    expanded = {qid: expand_extended(query, rules) for qid, query in compact.items()}
    root = _build_tree(questions_by_leaf)
    catalog = Catalog(
        version=version,
        root=root,
        rules=rules,
        expanded=expanded,
        prefixes=declared,
    )
    diagnostics = validate(catalog)
    if diagnostics:
        raise CatalogError(f"{source}: catalog is invalid", diagnostics)
    # only a valid catalog has positive leaf weights and no empty node
    return Catalog(*catalog, plan=_scoring_plan(catalog))


def _scoring_plan(catalog: Catalog) -> ScoringPlan:
    # Per node id: the run of consecutive catalog questions under the node
    # (a slice), and the node's score per hit of each of them as integer
    # coefficients over one denominator.
    rows: dict[str, tuple[slice, tuple[int, ...], int]] = {}
    start = 0
    for leaf in catalog.leaves():
        total = sum(q.weight for q in leaf.questions)
        per_hit = [q.weight / (total * len(q.queries)) for q in leaf.questions]
        denominator = math.lcm(*(w.denominator for w in per_hit))
        coefficients = tuple(w.numerator * (denominator // w.denominator) for w in per_hit)
        rows[leaf.id] = (slice(start, start + len(per_hit)), coefficients, denominator)
        start += len(per_hit)

    def mean(children: list[str]) -> tuple[slice, tuple[int, ...], int]:
        common = math.lcm(*(rows[child][2] for child in children))
        coefficients = [
            c * (common // rows[child][2]) for child in children for c in rows[child][1]
        ]
        denominator = common * len(children)
        divisor = math.gcd(denominator, *coefficients)
        span = slice(rows[children[0]][0].start, rows[children[-1]][0].stop)
        return span, tuple(c // divisor for c in coefficients), denominator // divisor

    for step in catalog.steps():
        rows[step.id] = mean([leaf.id for leaf in step.children])
    rows["root"] = mean([step.id for step in catalog.steps()])

    # questions with as many queries share one table of scores
    sizes = {len(q.queries) for q in catalog.questions()}
    tables = {n: tuple(Fraction(hits, n) for hits in range(n + 1)) for n in sizes}
    return ScoringPlan(
        query_ids=tuple(cq.id for _, cq in catalog.queries()),
        questions=tuple(
            (q.id, tuple(cq.id for cq in q.queries), tables[len(q.queries)])
            for q in catalog.questions()
        ),
        nodes=tuple((node_id, *row) for node_id, row in rows.items()),
    )


def _refuse_unknown_keys(entry: dict, allowed: tuple[str, ...], where: str) -> None:
    # a misspelt key would otherwise read as an absent one
    unknown = [str(key) for key in entry if key not in allowed]
    if unknown:
        raise CatalogError(f"{where}: unknown key {unknown[0]!r}; allowed: {', '.join(allowed)}")


def _parse_question(entry: dict, prefixes: Mapping[str, str], where: str) -> Question:
    _refuse_unknown_keys(entry, ("id", "leaf", "text", "weight", "queries"), where)
    qid = entry.get("id")
    leaf = entry.get("leaf")
    text = entry.get("text")
    if not isinstance(qid, str) or not qid:
        raise CatalogError(f"{where}.id: required")
    if not isinstance(leaf, str) or not leaf:
        raise CatalogError(f"{where}.leaf: required")
    step, _, name = leaf.partition(".")
    if name not in LEAF_NAMES.get(step, ()):
        raise CatalogError(f"{where}.leaf: no such leaf: {leaf!r}")
    if not isinstance(text, str) or not text:
        raise CatalogError(f"{where}.text: required")
    weight = _parse_weight(entry.get("weight", 1), f"{where}.weight")
    raw_queries = entry.get("queries")
    if not isinstance(raw_queries, list) or not raw_queries:
        raise CatalogError(f"{where}.queries: need at least one query")
    queries = []
    for qindex, q in enumerate(raw_queries):
        qwhere = f"{where}.queries[{qindex}]"
        label: str | None = None
        if isinstance(q, dict):
            _refuse_unknown_keys(q, ("label", "ask"), qwhere)
            label = q.get("label")
            if label is not None and not isinstance(label, str):
                raise CatalogError(f"{qwhere}.label: must be a string")
            q = q.get("ask")
        if not isinstance(q, str):
            raise CatalogError(f"{qwhere}: expected SPARQL text")
        body = q.strip()
        try:
            parsed = parse_query(body, prefixes)
        except SparqlError as exc:
            raise CatalogError(f"{qwhere}: {exc}") from None
        queries.append(CompactQuery(f"{qid}.{qindex + 1}", body, parsed, label))
    return Question(qid, leaf, text, weight, tuple(queries))


def _parse_weight(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise CatalogError(f"{where}: weights must be integers or strings like \"1/2\"")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise CatalogError(f"{where}: write fractional weights as strings like \"1/2\"")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise CatalogError(f"{where}: not a rational number: {value!r}") from None
    raise CatalogError(f"{where}: weights must be integers or strings like \"1/2\"")


def _parse_rule(entry: object, prefixes: Mapping[str, str], where: str) -> EquivalenceRule:
    if not isinstance(entry, dict):
        raise CatalogError(f"{where}: expected a mapping")
    _refuse_unknown_keys(entry, ("id", "source", "target"), where)
    rid = entry.get("id")
    if not isinstance(rid, str) or not rid:
        raise CatalogError(f"{where}.id: required")
    out = {}
    for key in ("source", "target"):
        value = entry.get(key)
        if not isinstance(value, str) or not value.strip():
            raise CatalogError(f"{where}.{key}: required")
        try:
            out[key] = parse_triple_patterns(value, prefixes)
        except SparqlError as exc:
            raise CatalogError(f"{where}.{key}: {exc}") from None
    return EquivalenceRule(rid, out["source"], out["target"])


def _build_tree(questions_by_leaf: dict[str, list[Question]]) -> HierarchyNode:
    steps = []
    for step_id in STEP_IDS:
        leaves = tuple(
            HierarchyNode(leaf_id, questions=tuple(questions_by_leaf.get(leaf_id, ())))
            for leaf_id in (f"{step_id}.{name}" for name in LEAF_NAMES[step_id])
        )
        steps.append(HierarchyNode(step_id, children=leaves))
    return HierarchyNode("root", children=tuple(steps))


# ---------------------------------------------------------------------------
# Validation


def validate(catalog: Catalog) -> list[str]:
    """Structural diagnostics; an empty list means the catalog is sound."""
    problems: list[str] = []
    for step in catalog.steps():
        count = sum(len(leaf.questions) for leaf in step.children)
        wanted = QUESTIONS_PER_STEP[step.id]
        if count != wanted:
            problems.append(f"{step.id} has {count} questions, expected {wanted}")
        for leaf in step.children:
            if not leaf.questions:
                problems.append(f"leaf {leaf.id} has no questions")

    seen_questions: set[str] = set()
    for question in catalog.questions():
        if question.id in seen_questions:
            problems.append(f"duplicate question id '{question.id}'")
        seen_questions.add(question.id)
        if question.weight <= 0:
            problems.append(f"question '{question.id}' has non-positive weight {question.weight}")
        for cq in question.queries:
            problems.extend(_check_query(question, cq))

    problems.extend(_check_rules(catalog))
    return problems


def _check_query(question: Question, cq: CompactQuery) -> list[str]:
    problems = []
    if cq.query.form != "ask":
        problems.append(f"question '{question.id}' query {cq.id} is not an ASK query")
    if not isinstance(cq.query.pattern, Bgp):
        problems.append(f"question '{question.id}' query {cq.id} must be a plain BGP")
        return problems
    if not any(KG in tp for tp in cq.query.pattern.patterns):
        problems.append(f"question '{question.id}' query {cq.id} never mentions ?kg")
    if any(isinstance(tp.predicate, Variable) for tp in cq.query.pattern.patterns):
        problems.append(
            f"question '{question.id}' query {cq.id} has a variable predicate; "
            "query expansion cannot match rule targets against it"
        )
    return problems


def _check_rules(catalog: Catalog) -> list[str]:
    problems = []
    compact_predicates = {
        tp.predicate
        for _, cq in catalog.queries()
        if isinstance(cq.query.pattern, Bgp)
        for tp in cq.query.pattern.patterns
        if isinstance(tp.predicate, Iri)
    }
    target_predicates: set[Iri] = set()
    seen_rules: set[str] = set()
    for rule in catalog.rules:
        if rule.id in seen_rules:
            problems.append(f"duplicate rule id '{rule.id}'")
        seen_rules.add(rule.id)
        source_vars = {pos.name for tp in rule.source for pos in tp if isinstance(pos, Variable)}
        source_subject_vars = {
            tp.subject.name for tp in rule.source if isinstance(tp.subject, Variable)
        }
        for tp in rule.target:
            if not isinstance(tp.predicate, Iri):
                problems.append(f"rule '{rule.id}' target predicate must be a constant IRI")
                continue
            target_predicates.add(tp.predicate)
            if not (
                isinstance(tp.subject, Variable)
                and isinstance(tp.object, Variable)
                and tp.subject != tp.object
            ):
                problems.append(
                    f"rule '{rule.id}' target must be '?s <p> ?o' with two distinct "
                    "variables; query expansion cannot match any other shape"
                )
            for pos in tp:
                if isinstance(pos, Variable) and pos.name not in source_vars:
                    problems.append(
                        f"rule '{rule.id}' target variable ?{pos.name} is not bound by the source"
                    )
            if isinstance(tp.subject, Variable) and tp.subject.name not in source_subject_vars:
                problems.append(
                    f"rule '{rule.id}' target subject ?{tp.subject.name} could bind a literal; "
                    "it must appear in a source subject position"
                )
            if tp.predicate not in compact_predicates:
                problems.append(
                    f"rule '{rule.id}' is dead: target predicate <{tp.predicate.value}> "
                    "is used by no compact query"
                )
    for rule in catalog.rules:
        for tp in rule.source:
            if isinstance(tp.predicate, Iri) and tp.predicate in target_predicates:
                problems.append(
                    f"rule '{rule.id}' source uses <{tp.predicate.value}>, which another rule "
                    "derives; rules apply once to the published triples, so this rule "
                    "would never see what the other derives"
                )
    return problems


# ---------------------------------------------------------------------------
# Extended queries


def expand_extended(query: Query, rules: tuple[EquivalenceRule, ...]) -> Query:
    """Rewrite a compact ASK into the UNION over rule-based variants.

    Every triple pattern of the compact BGP independently contributes its
    original form plus one variant per rule source whose target unifies
    with it (rule variables renamed apart); branches are the cartesian
    combinations.  With no applicable rule the query comes back unchanged.
    """
    if not isinstance(query.pattern, Bgp):
        raise SparqlError("extended expansion needs a plain BGP query")
    counter = [0]
    alternatives: list[list[tuple[TriplePattern, ...]]] = []
    for tp in query.pattern.patterns:
        options: list[tuple[TriplePattern, ...]] = [(tp,)]
        for rule in rules:
            for target in rule.target:
                mapping = _unify(target, tp)
                if mapping is None:
                    continue
                counter[0] += 1
                options.append(_instantiate_source(rule.source, mapping, counter[0]))
        alternatives.append(options)

    branches = [
        Bgp(tuple(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*alternatives)
    ]
    pattern: GroupPattern = branches[0] if len(branches) == 1 else UnionPattern(tuple(branches))
    return Query(query.form, query.projection, pattern, dict(query.prefixes))


def _unify(target: TriplePattern, concrete: TriplePattern) -> dict[str, object] | None:
    """Map target variables onto the compact pattern's positions, or None.

    Conservative on purpose: a constant in the target must match the same
    constant in the compact pattern, never a compact variable.
    """
    mapping: dict[str, object] = {}
    for t_pos, c_pos in zip(target, concrete):
        if isinstance(t_pos, Variable):
            if t_pos.name in mapping and mapping[t_pos.name] != c_pos:
                return None
            mapping[t_pos.name] = c_pos
        elif t_pos != c_pos:
            return None
    return mapping


def _instantiate_source(
    source: tuple[TriplePattern, ...], mapping: dict[str, object], stamp: int
) -> tuple[TriplePattern, ...]:
    def convert(pos):
        if isinstance(pos, Variable):
            if pos.name in mapping:
                return mapping[pos.name]
            return Variable(f"{pos.name}__e{stamp}")
        return pos

    out = []
    for tp in source:
        out.append(TriplePattern(convert(tp.subject), convert(tp.predicate), convert(tp.object)))
    return tuple(out)
