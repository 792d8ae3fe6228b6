"""A small SPARQL fragment: ASK and SELECT over basic graph patterns and UNION.

The fragment covers exactly what the requirement queries, the dataset
discovery query and scoring need: PREFIX declarations, ASK and SELECT
forms, triple patterns with ``a``, predicate/object lists, grouped
patterns, UNION, and inline data over one variable (``VALUES ?v { ... }``
with IRIs and literals, at the head of a group).  ``?name`` and ``$name``
are the same variable, as in SPARQL 1.1.

Queries are lexed by the tokenizer the Turtle reader uses (``rdf``), so
IRIs, prefixed names, strings, language tags and comments read exactly as
the SPARQL 1.1 grammar spells them.  Before parsing, the token list is
checked in text order: the first construct outside the fragment (FILTER,
OPTIONAL, property paths, blank nodes, numbers, solution modifiers, and so
on) raises :class:`UnsupportedSparqlFeature` naming it, so a query outside
the fragment fails loudly instead of being half-understood.  So do the
forms of VALUES the fragment lacks: several variables, ``UNDEF``, and
inline data anywhere but at the head of a group.

Evaluation implements natural-join semantics over an in-memory graph with
distinct solutions.  Each call first prunes the pattern for the graph in
hand: a BGP or UNION branch with a constant predicate no triple has is
dropped, and a sequence holding one, or a query pruned to nothing, has no
solution.  Inside a BGP the pattern with the most bound positions is
joined first, the earliest on a tie; that order depends only on the names
bound when the BGP starts, so it is planned once per BGP and set of bound
names and kept on the :class:`Bgp`.  :func:`values_with_solution` asks
which values of one variable have a solution, stopping at the first
solution of each; it answers a SELECT that projects only the variable its
leading inline data binds.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Union as TypingUnion

from .rdf import (
    RDF_TYPE,
    Graph,
    Iri,
    Literal,
    Term,
    _MALFORMED,
    _Record,
    _TokenReader,
    _new_tuple,
    format_term,
    term_sort_key,
)

# ---------------------------------------------------------------------------
# Errors


class SparqlError(ValueError):
    """Base error for query parsing, substitution and evaluation."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedSparqlFeature(SparqlError):
    """A syntactically valid SPARQL construct outside the supported fragment."""

    def __init__(self, feature: str, line: int | None = None):
        self.feature = feature
        super().__init__(f"unsupported SPARQL feature: {feature}", line)


# ---------------------------------------------------------------------------
# AST


class Variable(NamedTuple):
    """A query variable, by its name without the ``?``.

    Equal as a tuple to the blank node of the same label, yet the two
    never meet: the fragment has no blank nodes, so no pattern holds one,
    and code tells a variable from a term by its class before it looks
    the term up or compares it.
    """

    name: str


PatternTerm = TypingUnion[Iri, Literal, Variable]


class TriplePattern(NamedTuple):
    """A triple of IRIs, literals and variables.

    One with no variable is equal as a tuple to the :class:`~kgaudit.rdf.Triple`
    of its terms, yet patterns and triples never meet: graphs hold
    triples, queries hold patterns, and a pattern becomes a triple only
    through ``Triple``'s checks.
    """

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm


class _Bgp(NamedTuple):
    patterns: tuple[TriplePattern, ...]


class Bgp(_Record, _Bgp):
    """A basic graph pattern: a conjunction of triple patterns.

    ``plans`` holds its join plans by the names bound at the start, made
    when first needed (threads that race make equal plans); like
    ``Catalog.plan``, it is no field, so no part of equality, hash or repr.
    """

    def __new__(cls, patterns: tuple[TriplePattern, ...] = ()) -> "Bgp":
        self = _new_tuple(cls, (patterns,))
        self.plans = {}
        return self


class _UnionPattern(NamedTuple):
    branches: tuple["GroupPattern", ...]


class UnionPattern(_Record, _UnionPattern):
    """Alternative group patterns; solutions are the union over branches."""

    __slots__ = ()

    def __new__(cls, branches: tuple["GroupPattern", ...]) -> "UnionPattern":
        if len(branches) < 2:
            raise ValueError("UNION needs at least two branches")
        return _new_tuple(cls, (branches,))


class _InlineData(NamedTuple):
    variable: str
    values: tuple[Term, ...]


class InlineData(_Record, _InlineData):
    """``VALUES ?variable { ... }``: one solution per value, IRIs and literals."""

    __slots__ = ()

    def __new__(cls, variable: str, values: tuple[Term, ...]) -> "InlineData":
        if not all(isinstance(value, (Iri, Literal)) for value in values):
            raise ValueError("inline data holds IRIs and literals only")
        return _new_tuple(cls, (variable, values))


class _SeqPattern(NamedTuple):
    parts: tuple["GroupPattern", ...]


class SeqPattern(_Record, _SeqPattern):
    """Group patterns evaluated in sequence and joined.

    Inline data may only lead: that is the one place the parser reads it.
    """

    __slots__ = ()

    def __new__(cls, parts: tuple["GroupPattern", ...]) -> "SeqPattern":
        if any(isinstance(part, InlineData) for part in parts[1:]):
            raise ValueError("inline data must lead its group")
        return _new_tuple(cls, (parts,))


GroupPattern = TypingUnion[Bgp, UnionPattern, SeqPattern, InlineData]


class _Query(NamedTuple):
    form: str  # "ask" | "select"
    projection: tuple[str, ...] | None
    pattern: GroupPattern
    prefixes: Mapping[str, str]
    limit: int | None
    offset: int


class Query(_Record, _Query):
    """A parsed query.

    ``projection`` is None for ASK; for SELECT it lists the projected
    variable names, with the empty tuple standing for ``*``.  ``limit``
    and ``offset`` page a SELECT's ordered rows; the client sets them and
    the parser never does, so catalog queries cannot page.
    """

    __slots__ = ()

    def __new__(
        cls,
        form: str,
        projection: tuple[str, ...] | None,
        pattern: GroupPattern,
        prefixes: Mapping[str, str] = {},
        limit: int | None = None,
        offset: int = 0,
    ) -> "Query":
        if form not in ("ask", "select"):
            raise ValueError(f"unknown query form: {form}")
        return _new_tuple(cls, (form, projection, pattern, prefixes, limit, offset))


def pattern_variables(pattern: GroupPattern) -> set[str]:
    """Names of all variables occurring anywhere in the pattern."""
    out: set[str] = set()
    for leaf in _leaves(pattern):
        if isinstance(leaf, InlineData):
            out.add(leaf.variable)
            continue
        for tp in leaf.patterns:
            for pos in tp:
                if isinstance(pos, Variable):
                    out.add(pos.name)
    return out


def _projected_names(query: Query) -> list[str]:
    """The variables a SELECT returns, in order; ``*`` projects all, sorted."""
    if query.projection == ():
        return sorted(pattern_variables(query.pattern))
    return list(query.projection or ())


def _leaves(pattern: GroupPattern) -> list[Bgp | InlineData]:
    """The basic graph patterns and inline data the pattern is built from,
    in no particular order."""
    leaves, stack = [], [pattern]
    while stack:
        node = stack.pop()
        if isinstance(node, UnionPattern):
            stack.extend(node.branches)
        elif isinstance(node, SeqPattern):
            stack.extend(node.parts)
        else:
            leaves.append(node)
    return leaves


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = {"PREFIX", "ASK", "SELECT", "WHERE", "UNION", "DISTINCT", "VALUES"}
_REJECTED_KEYWORDS = {
    "FILTER", "OPTIONAL", "GRAPH", "SERVICE", "BIND", "UNDEF", "MINUS",
    "EXISTS", "LIMIT", "OFFSET", "ORDER", "GROUP", "HAVING", "CONSTRUCT",
    "DESCRIBE", "INSERT", "DELETE", "FROM", "NAMED", "REDUCED", "BASE",
}
# Token kinds and punctuation outside the fragment, by the feature they start.
_UNSUPPORTED = {
    "blank": "blank nodes in query patterns",
    "number": "numeric literals",
    "(": "RDF collections or expressions",
    "[": "blank node property lists",
    "'": "single-quoted strings",
    '"""': "long strings",
    **dict.fromkeys("/|^+", "property paths"),
}


class _Parser(_TokenReader):
    error_type = SparqlError

    def __init__(self, text: str, prefixes: Mapping[str, str] = {}):
        super().__init__(text, prefixes)
        # Refuse what the fragment lacks before parsing, first in text order.
        for index, (kind, spelling, line) in enumerate(self.tokens):
            if kind == "word":
                word = spelling.upper()
                if word == "VALUES":
                    if index == 0 or self.tokens[index - 1].text != "{":
                        feature = "VALUES other than at the head of a group"
                        raise UnsupportedSparqlFeature(feature, line)
                    if self.tokens[index + 1].text == "(":
                        raise UnsupportedSparqlFeature("VALUES over several variables", line)
                if word in _REJECTED_KEYWORDS:
                    raise UnsupportedSparqlFeature(word, line)
                if word not in _KEYWORDS and spelling != "a":
                    raise SparqlError(f"unexpected token {spelling!r}", line)
            elif kind in _UNSUPPORTED or spelling in _UNSUPPORTED:
                feature = _UNSUPPORTED.get(kind) or _UNSUPPORTED[spelling]
                raise UnsupportedSparqlFeature(feature, line)
            elif spelling in _MALFORMED:
                raise SparqlError(_MALFORMED[spelling], line)

    def parse_query(self) -> Query:
        while self.at_keyword("PREFIX"):
            self.next()
            self.prefix_decl()

        if self.at_keyword("ASK"):
            self.next()
            pattern = self.group()
            query = Query("ask", None, pattern, self.prefixes)
        elif self.at_keyword("SELECT"):
            self.next()
            if self.at_keyword("DISTINCT"):
                self.next()
            projection: list[str] = []
            star = self.accept("*")
            if not star:
                while self.peek().kind == "var":
                    projection.append(self.next().text[1:])
                if not projection:
                    raise self.error("SELECT needs '*' or at least one variable")
            if self.at_keyword("WHERE"):
                self.next()
            pattern = self.group()
            if not star:
                missing = set(projection) - pattern_variables(pattern)
                if missing:
                    raise SparqlError(
                        "projected variables not in pattern: "
                        + ", ".join(sorted(missing))
                    )
            query = Query("select", tuple(projection), pattern, self.prefixes)
        else:
            raise self.error("expected ASK or SELECT")

        tok = self.next()
        if tok.kind != "eof":
            raise SparqlError("unexpected content after query", tok.line)
        return query

    def group(self) -> GroupPattern:
        self.expect("{")
        parts: list[GroupPattern] = []
        bgp: list[TriplePattern] = []
        if self.at_keyword("VALUES"):
            parts.append(self.inline_data())

        def flush() -> None:
            if bgp:
                parts.append(Bgp(tuple(bgp)))
                bgp.clear()

        while not self.accept("}"):
            tok = self.peek()
            if tok.text == "{":
                flush()
                branches = [self.group()]
                while self.at_keyword("UNION"):
                    self.next()
                    branches.append(self.group())
                parts.append(branches[0] if len(branches) == 1 else UnionPattern(tuple(branches)))
                self.accept(".")
                continue
            if tok.kind == "eof":
                raise SparqlError("unterminated group pattern", tok.line)
            self.triples_same_subject(bgp)
            if not self.accept(".") and self.peek().text not in ("}", "{"):
                raise self.error("expected '.', '}' or a group")

        flush()
        if not parts:
            return Bgp(())
        if len(parts) == 1 and not isinstance(parts[0], InlineData):
            return parts[0]
        return SeqPattern(tuple(parts))

    def inline_data(self) -> InlineData:
        """``VALUES ?v { term ... }``, keyword included."""
        self.next()
        var = self.next()
        if var.kind != "var":
            raise SparqlError(f"VALUES needs a variable, found {var.text!r}", var.line)
        self.expect("{")
        values = []
        while not self.accept("}"):
            tok = self.peek()
            term = self.term()
            if isinstance(term, Variable):
                raise SparqlError(f"VALUES holds IRIs and literals, found {tok.text!r}", tok.line)
            values.append(term)
        return InlineData(var.text[1:], tuple(values))

    def triples_same_subject(self, bgp: list[TriplePattern]) -> None:
        subject = self.term()
        while True:
            predicate = self.verb()
            bgp.append(TriplePattern(subject, predicate, self.term()))
            while self.accept(","):
                bgp.append(TriplePattern(subject, predicate, self.term()))
            if not self.accept(";") or self.peek().text in (".", "}"):
                return

    def verb(self) -> PatternTerm:
        if self.accept("a"):
            return Iri(RDF_TYPE)
        term = self.term()
        if isinstance(term, Literal):
            raise self.error("a literal cannot be a predicate")
        return term

    def term(self) -> PatternTerm:
        tok = self.next()
        if tok.kind == "var":
            return Variable(tok.text[1:])
        if tok.kind == "string":
            return self.literal(tok)
        if tok.kind == "iri" or tok.kind == "pname":
            return self.iri(tok)
        raise SparqlError(f"expected a term, found {tok.text!r}", tok.line)


def parse_query(text: str, prefixes: Mapping[str, str] = {}) -> Query:
    """Parse an ASK or SELECT query in the supported fragment.

    Prefixed names resolve against ``prefixes`` as if each were declared
    before the text, which may declare more or redeclare them.
    """
    return _Parser(text, prefixes).parse_query()


def parse_triple_patterns(text: str, prefixes: Mapping[str, str]) -> tuple[TriplePattern, ...]:
    """Parse a bare list of triple patterns, e.g. for equivalence rules.

    The text uses the same syntax as a BGP body; prefixed names resolve
    against the supplied mapping.
    """
    parser = _Parser(text, prefixes)
    bgp: list[TriplePattern] = []
    while parser.peek().kind != "eof":
        parser.triples_same_subject(bgp)
        if not parser.accept(".") and parser.peek().kind != "eof":
            raise parser.error("expected '.' between triple patterns")
    if not bgp:
        raise SparqlError("no triple patterns found")
    return tuple(bgp)


# ---------------------------------------------------------------------------
# Pretty-printing

_SAFE_LOCAL = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.")


def format_query(query: Query) -> str:
    """Render a query as standard SPARQL.

    Parsing the output reproduces an unpaged query.  A SELECT asks for
    DISTINCT rows, the set semantics eval_select answers with, so that an
    endpoint's duplicate rows cannot shift pages.  A paged SELECT orders by
    its projected variables, as eval_select does, then pages.
    """
    lines = [
        f"PREFIX {name}: <{iri}>"
        for name, iri in sorted(query.prefixes.items())
    ]
    if query.form == "ask":
        head = "ASK "
    else:
        proj = "*" if query.projection == () else " ".join(f"?{v}" for v in query.projection or ())
        head = f"SELECT DISTINCT {proj} WHERE "
    body = _format_group(query.pattern, query.prefixes, indent=0)
    lines.append(head + body)
    if query.limit is not None or query.offset:
        order = " ".join(f"?{name}" for name in _projected_names(query))
        limit = "" if query.limit is None else f" LIMIT {query.limit}"
        lines.append(f"ORDER BY {order}{limit} OFFSET {query.offset}")
    return "\n".join(lines) + "\n"


def _format_group(pattern: GroupPattern, prefixes: Mapping[str, str], indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(pattern, InlineData):
        values = [_format_pattern_term(value, prefixes) for value in pattern.values]
        return f"VALUES ?{pattern.variable} " + " ".join(["{", *values, "}"])
    if isinstance(pattern, Bgp):
        if not pattern.patterns:
            return "{ }"
        lines = [inner + format_triple_pattern(tp, prefixes) for tp in pattern.patterns]
        return "{\n" + "\n".join(lines) + "\n" + pad + "}"
    if isinstance(pattern, UnionPattern):
        rendered = [_format_group(b, prefixes, indent + 1) for b in pattern.branches]
        joined = ("\n" + inner + "UNION ").join(rendered)
        return "{\n" + inner + joined + "\n" + pad + "}"
    parts = [_format_group(p, prefixes, indent + 1) for p in pattern.parts]
    return "{\n" + "\n".join(inner + p for p in parts) + "\n" + pad + "}"


def format_triple_pattern(tp: TriplePattern, prefixes: Mapping[str, str]) -> str:
    """One pattern as SPARQL text, dot-terminated; inverse of parse_triple_patterns."""
    if tp.predicate == Iri(RDF_TYPE):
        verb = "a"
    else:
        verb = _format_pattern_term(tp.predicate, prefixes)
    return (
        f"{_format_pattern_term(tp.subject, prefixes)} {verb} "
        f"{_format_pattern_term(tp.object, prefixes)} ."
    )


def _format_pattern_term(term: PatternTerm, prefixes: Mapping[str, str]) -> str:
    if isinstance(term, Variable):
        return f"?{term.name}"
    if isinstance(term, Iri):
        return _abbreviate(term, prefixes)
    if isinstance(term, Literal) and term.datatype is not None:
        dt = _abbreviate(Iri(term.datatype), prefixes)
        if not dt.startswith("<"):
            return f'"{term.lexical}"^^{dt}' if _plain(term.lexical) else format_term(term)
    return format_term(term)


def _plain(lexical: str) -> bool:
    return all(c not in '"\\\n\r\t\b\f' for c in lexical)


def _abbreviate(iri: Iri, prefixes: Mapping[str, str]) -> str:
    best: tuple[int, str, str] | None = None
    for name, base in prefixes.items():
        if iri.value.startswith(base):
            local = iri.value[len(base):]
            if local and (not all(c in _SAFE_LOCAL for c in local)):
                continue
            if local.startswith((".", "-")) or local.endswith("."):
                continue
            if local and not (local[0].isalnum() or local[0] == "_"):
                continue
            if best is None or len(base) > best[0]:
                best = (len(base), name, local)
    if best is None:
        return f"<{iri.value}>"
    return f"{best[1]}:{best[2]}"


def bind_values(query: Query, name: str, values: Iterable[Term]) -> Query:
    """The query with ``?name`` bound to each of ``values``: inline data
    leads its pattern, as in ``{ VALUES ?name { ... } pattern }``."""
    pattern = SeqPattern((InlineData(name, tuple(values)), query.pattern))
    return Query(query.form, query.projection, pattern, query.prefixes, query.limit, query.offset)


# ---------------------------------------------------------------------------
# Substitution


def substitute(query: Query, values: Mapping[str, Term]) -> Query:
    """The query with each variable named in ``values`` replaced by its term."""
    if query.projection:
        clash = set(query.projection) & set(values)
        if clash:
            raise SparqlError(
                "cannot substitute projected variables: " + ", ".join(sorted(clash))
            )
    pattern = _substitute_group(query.pattern, values)
    return Query(
        query.form, query.projection, pattern, dict(query.prefixes), query.limit, query.offset
    )


def _substitute_group(pattern: GroupPattern, values: Mapping[str, Term]) -> GroupPattern:
    if isinstance(pattern, InlineData):
        if pattern.variable in values:
            raise SparqlError(f"cannot substitute ?{pattern.variable}: VALUES binds it")
        return pattern
    if isinstance(pattern, Bgp):
        return Bgp(tuple(_substitute_triple(tp, values) for tp in pattern.patterns))
    if isinstance(pattern, UnionPattern):
        return UnionPattern(tuple(_substitute_group(b, values) for b in pattern.branches))
    return SeqPattern(tuple(_substitute_group(p, values) for p in pattern.parts))


def _substitute_triple(tp: TriplePattern, values: Mapping[str, Term]) -> TriplePattern:
    subject = _substitute_term(tp.subject, values)
    predicate = _substitute_term(tp.predicate, values)
    obj = _substitute_term(tp.object, values)
    if isinstance(subject, Literal):
        raise SparqlError("cannot substitute a literal into subject position")
    if isinstance(predicate, Literal):
        raise SparqlError("cannot substitute a literal into predicate position")
    return TriplePattern(subject, predicate, obj)


def _substitute_term(term: PatternTerm, values: Mapping[str, Term]) -> PatternTerm:
    if isinstance(term, Variable) and term.name in values:
        return values[term.name]
    return term


# ---------------------------------------------------------------------------
# Solutions and evaluation


def _plan(bgp: Bgp, bound: frozenset[str]) -> tuple[tuple, ...]:
    """The join order of ``bgp`` when the names ``bound`` are bound at its
    start: each time the pattern with the most bound positions, the earliest
    on a tie.  A step holds the (subject, predicate, object) to match, None
    where the binding supplies the term; the positions the binding supplies;
    those that bind a new name; and those that must equal an earlier one."""
    steps, left, known = [], list(bgp.patterns), set(bound)

    def boundness(i: int) -> tuple[int, int]:
        return sum(not isinstance(pos, Variable) or pos.name in known for pos in left[i]), -i

    while left:
        match, supplied, new, same, first = [], [], [], [], {}
        for i, pos in enumerate(left.pop(max(range(len(left)), key=boundness))):
            match.append(None if isinstance(pos, Variable) else pos)
            if not isinstance(pos, Variable):
                continue
            if pos.name in known:
                supplied.append((i, pos.name))
            elif pos.name in first:
                same.append((i, first[pos.name]))
            else:
                first[pos.name] = i
                new.append((i, pos.name))
        known.update(first)
        steps.append((tuple(match), tuple(supplied), tuple(new), tuple(same)))
    return tuple(steps)


def _walk(
    g: Graph, steps: tuple[tuple, ...], depth: int, binding: dict[str, Term]
) -> Iterator[dict[str, Term]]:
    match, supplied, new, same = steps[depth]
    if supplied:
        match = list(match)
        for i, name in supplied:
            match[i] = binding[name]
    last = depth + 1 == len(steps)
    for triple in g.match(*match):
        if same and any(triple[i] != triple[j] for i, j in same):
            continue
        extended = dict(binding)
        for i, name in new:
            extended[name] = triple[i]
        if last:
            yield extended
        else:
            yield from _walk(g, steps, depth + 1, extended)


def _gen(g: Graph, pattern: GroupPattern, binding: dict[str, Term]) -> Iterator[dict[str, Term]]:
    if isinstance(pattern, Bgp):
        bound = frozenset(binding)
        steps = pattern.plans.get(bound)
        if steps is None:
            steps = pattern.plans[bound] = _plan(pattern, bound)
        return _walk(g, steps, 0, binding) if steps else iter((binding,))
    if isinstance(pattern, UnionPattern):
        return chain.from_iterable(_gen(g, branch, binding) for branch in pattern.branches)
    if isinstance(pattern, InlineData):
        bound = binding.get(pattern.variable)
        if bound is None:
            return ({**binding, pattern.variable: value} for value in pattern.values)
        return (binding for value in pattern.values if value == bound)
    return _gen_seq(g, pattern.parts, binding)


def _gen_seq(
    g: Graph, parts: tuple[GroupPattern, ...], binding: dict[str, Term]
) -> Iterator[dict[str, Term]]:
    if len(parts) < 2:
        return _gen(g, parts[0], binding) if parts else iter((binding,))
    rest = parts[1:]
    return (solution for head in _gen(g, parts[0], binding) for solution in _gen_seq(g, rest, head))


def _prune(g: Graph, pattern: GroupPattern) -> GroupPattern | None:
    """``pattern`` without the BGPs and UNION branches that name a predicate
    no triple of ``g`` has; None when no solution is left."""
    if isinstance(pattern, Bgp):
        for tp in pattern.patterns:
            if not isinstance(tp.predicate, Variable) and not g.has_predicate(tp.predicate):
                return None
        return pattern
    if isinstance(pattern, InlineData):
        return pattern
    if isinstance(pattern, UnionPattern):
        kept = tuple(b for b in (_prune(g, b) for b in pattern.branches) if b is not None)
        # one branch left is a sequence of one part, which inline data may lead
        return (UnionPattern(kept) if len(kept) > 1 else SeqPattern(kept)) if kept else None
    parts = tuple(_prune(g, part) for part in pattern.parts)
    return None if any(part is None for part in parts) else SeqPattern(parts)


def _solutions(g: Graph, pattern: GroupPattern) -> Iterator[dict[str, Term]]:
    """The solutions of ``pattern``, pruned for ``g`` first."""
    pruned = _prune(g, pattern)
    return iter(()) if pruned is None else _gen(g, pruned, {})


def eval_bgp(g: Graph, patterns: Bgp | Iterable[TriplePattern]) -> list[dict[str, Term]]:
    """Distinct solutions of a basic graph pattern, natural-join semantics.

    They are distinct without a pass that removes repeats: a graph holds
    each triple once, and two triples one join step matches agree on the
    fixed and the supplied positions, so they differ in a position that
    binds a new name or in one that must equal such a position.  Either
    way the two extensions differ.  A :class:`Bgp` keeps its join plans
    from one call to the next.
    """
    bgp = patterns if isinstance(patterns, Bgp) else Bgp(tuple(patterns))
    return list(_solutions(g, bgp))


def eval_ask(g: Graph, query: Query) -> bool:
    """True iff the pattern of an ASK query has at least one solution."""
    if query.form != "ask":
        raise SparqlError("eval_ask needs an ASK query")
    return next(_solutions(g, query.pattern), None) is not None


def values_with_solution(
    g: Graph, pattern: GroupPattern, name: str, values: Iterable[Term]
) -> list[Term]:
    """Those of ``values`` for which ``pattern`` has a solution with ``?name``
    bound to them, each once, in the order given: what
    ``SELECT ?name { VALUES ?name { values } pattern }`` answers."""
    pruned = _prune(g, pattern)
    if pruned is None:
        return []
    unique = dict.fromkeys(values)
    return [value for value in unique if next(_gen(g, pruned, {name: value}), None) is not None]


def eval_select(g: Graph, query: Query) -> list[dict[str, Term]]:
    """Distinct projected solutions of a SELECT query, sorted, then paged."""
    if query.form != "select":
        raise SparqlError("eval_select needs a SELECT query")
    names = _projected_names(query)
    pattern = query.pattern
    if (
        isinstance(pattern, SeqPattern)
        and isinstance(pattern.parts[0], InlineData)
        and names == [pattern.parts[0].variable]
    ):
        data, rest = pattern.parts[0], SeqPattern(pattern.parts[1:])
        found = values_with_solution(g, rest, data.variable, data.values)
        seen = {(value,): {data.variable: value} for value in found}
    else:
        seen = {}
        for binding in _solutions(g, pattern):
            key = tuple(binding.get(name) for name in names)
            seen.setdefault(key, {name: binding[name] for name in names if name in binding})

    def row_key(key: tuple) -> tuple:
        return tuple((-1, "") if term is None else term_sort_key(term) for term in key)

    end = None if query.limit is None else query.offset + query.limit
    return [seen[key] for key in sorted(seen, key=row_key)[query.offset : end]]
