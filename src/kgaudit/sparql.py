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
distinct solutions.  Patterns inside a BGP are tried most-selective-first,
counting bound positions under the bindings accumulated so far.  A SELECT
that projects only the variable its leading inline data binds asks, in
effect, which of those values have a solution; it stops at the first
solution of each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Union as TypingUnion

from .rdf import (
    RDF_TYPE,
    Graph,
    Iri,
    Literal,
    Term,
    _MALFORMED,
    _TokenReader,
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


@dataclass(frozen=True)
class Variable:
    name: str


PatternTerm = TypingUnion[Iri, Literal, Variable]


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def positions(self) -> tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.subject, self.predicate, self.object)


@dataclass(frozen=True)
class Bgp:
    """A basic graph pattern: a conjunction of triple patterns."""

    patterns: tuple[TriplePattern, ...] = ()


@dataclass(frozen=True)
class UnionPattern:
    """Alternative group patterns; solutions are the union over branches."""

    branches: tuple["GroupPattern", ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ValueError("UNION needs at least two branches")


@dataclass(frozen=True)
class InlineData:
    """``VALUES ?variable { ... }``: one solution per value, IRIs and literals."""

    variable: str
    values: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(value, (Iri, Literal)) for value in self.values):
            raise ValueError("inline data holds IRIs and literals only")


@dataclass(frozen=True)
class SeqPattern:
    """Group patterns evaluated in sequence and joined.

    Inline data may only lead: that is the one place the parser reads it.
    """

    parts: tuple["GroupPattern", ...]

    def __post_init__(self) -> None:
        if any(isinstance(part, InlineData) for part in self.parts[1:]):
            raise ValueError("inline data must lead its group")


GroupPattern = TypingUnion[Bgp, UnionPattern, SeqPattern, InlineData]


@dataclass(frozen=True, eq=True)
class Query:
    """A parsed query.

    ``projection`` is None for ASK; for SELECT it lists the projected
    variable names, with the empty tuple standing for ``*``.  ``limit``
    and ``offset`` page a SELECT's ordered rows; the client sets them and
    the parser never does, so catalog queries cannot page.
    """

    form: str  # "ask" | "select"
    projection: tuple[str, ...] | None
    pattern: GroupPattern
    prefixes: Mapping[str, str] = field(default_factory=dict)
    limit: int | None = None
    offset: int = 0

    def __post_init__(self) -> None:
        if self.form not in ("ask", "select"):
            raise ValueError(f"unknown query form: {self.form}")


def pattern_variables(pattern: GroupPattern) -> set[str]:
    """Names of all variables occurring anywhere in the pattern."""
    out: set[str] = set()
    for leaf in _leaves(pattern):
        if isinstance(leaf, InlineData):
            out.add(leaf.variable)
            continue
        for tp in leaf.patterns:
            for pos in tp.positions():
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
    return replace(
        query, pattern=_substitute_group(query.pattern, values), prefixes=dict(query.prefixes)
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


def _resolve(term: PatternTerm, binding: Mapping[str, Term]) -> Term | None:
    """Concrete term for a pattern position, or None when still free."""
    if isinstance(term, Variable):
        return binding.get(term.name)
    return term


def _boundness(tp: TriplePattern, binding: Mapping[str, Term]) -> int:
    count = 0
    for pos in tp.positions():
        if not isinstance(pos, Variable) or pos.name in binding:
            count += 1
    return count


def _gen_bgp(
    g: Graph, patterns: list[TriplePattern], binding: dict[str, Term]
) -> Iterator[dict[str, Term]]:
    if not patterns:
        yield binding
        return
    best = max(range(len(patterns)), key=lambda i: (_boundness(patterns[i], binding), -i))
    tp = patterns[best]
    rest = patterns[:best] + patterns[best + 1 :]
    s = _resolve(tp.subject, binding)
    p = _resolve(tp.predicate, binding)
    o = _resolve(tp.object, binding)
    for triple in g.match(s, p, o):
        extended = dict(binding)
        ok = True
        for pos, value in zip(tp.positions(), (triple.subject, triple.predicate, triple.object)):
            if isinstance(pos, Variable):
                if extended.get(pos.name, value) != value:
                    ok = False
                    break
                extended[pos.name] = value
        if ok:
            yield from _gen_bgp(g, rest, extended)


def _gen(g: Graph, pattern: GroupPattern, binding: dict[str, Term]) -> Iterator[dict[str, Term]]:
    if isinstance(pattern, Bgp):
        yield from _gen_bgp(g, list(pattern.patterns), binding)
    elif isinstance(pattern, UnionPattern):
        for branch in pattern.branches:
            yield from _gen(g, branch, binding)
    elif isinstance(pattern, InlineData):
        bound = binding.get(pattern.variable)
        for value in pattern.values:
            if bound is None:
                yield {**binding, pattern.variable: value}
            elif bound == value:
                yield binding
    else:
        yield from _gen_seq(g, list(pattern.parts), binding)


def _gen_seq(
    g: Graph, parts: list[GroupPattern], binding: dict[str, Term]
) -> Iterator[dict[str, Term]]:
    if not parts:
        yield binding
        return
    head, rest = parts[0], parts[1:]
    for solution in _gen(g, head, binding):
        yield from _gen_seq(g, rest, solution)


def eval_bgp(g: Graph, patterns: Iterable[TriplePattern]) -> list[dict[str, Term]]:
    """Distinct solutions of a basic graph pattern, natural-join semantics."""
    pattern_list = list(patterns)
    positions = [pos for tp in pattern_list for pos in tp.positions()]
    names = [pos.name for pos in positions if isinstance(pos, Variable)]
    seen: dict[tuple, dict[str, Term]] = {}
    for binding in _gen_bgp(g, pattern_list, {}):
        seen.setdefault(tuple(binding[name] for name in names), binding)
    return list(seen.values())


def eval_ask(g: Graph, query: Query) -> bool:
    """True iff the pattern of an ASK query has at least one solution."""
    if query.form != "ask":
        raise SparqlError("eval_ask needs an ASK query")
    for _ in _gen(g, query.pattern, {}):
        return True
    return False


def eval_select(g: Graph, query: Query) -> list[dict[str, Term]]:
    """Distinct projected solutions of a SELECT query, sorted, then paged."""
    if query.form != "select":
        raise SparqlError("eval_select needs a SELECT query")
    names = _projected_names(query)
    pattern = query.pattern
    seen: dict[tuple, dict[str, Term]] = {}
    if (
        isinstance(pattern, SeqPattern)
        and isinstance(pattern.parts[0], InlineData)
        and names == [pattern.parts[0].variable]
    ):
        # Which of the values have a solution: the first one settles each.
        name, rest = names[0], list(pattern.parts[1:])
        for value in pattern.parts[0].values:
            if next(_gen_seq(g, rest, {name: value}), None) is not None:
                seen.setdefault((value,), {name: value})
    else:
        for binding in _gen(g, pattern, {}):
            key = tuple(binding.get(name) for name in names)
            seen.setdefault(key, {name: binding[name] for name in names if name in binding})

    def row_key(key: tuple) -> tuple:
        return tuple((-1, "") if term is None else term_sort_key(term) for term in key)

    end = None if query.limit is None else query.offset + query.limit
    return [seen[key] for key in sorted(seen, key=row_key)[query.offset : end]]
