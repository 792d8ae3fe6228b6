"""Minimal RDF data model with N-Triples and Turtle (subset) support.

The model is deliberately small: IRIs, blank nodes and literals, triples
over them, and an in-memory graph with set semantics plus subject and
predicate indexes.  Graphs are mutated while a single owner loads them and
are treated as read-only afterwards; every helper that combines graphs
builds a new one.

Terms and triples are validated, immutable tuples: each class subclasses
a ``NamedTuple`` of its fields with a ``__new__`` that runs the class's
checks.  Hashing and equality are therefore ``tuple``'s own C slots, so
the graph, the parser's interning, saturation and the ASKs put terms into
sets and dicts and compare them without calling back into Python; only
construction runs Python code.  Equality ignores the class, yet terms of
different classes are never equal: an IRI always holds a ':' and a blank
node label never does, and a literal holds strings and None where a
triple holds terms.  A term does equal the plain tuple of its fields; no
set or dict in kgaudit holds both.

The N-Triples reader matches each statement line against one compiled
regular expression built from the RDF 1.1 N-Triples productions, so a
line is either a whole valid statement or rejected with its line number.
Terms are interned per parse: each distinct spelling is built, and
validated, once.

The Turtle reader covers the subset needed for hand-written metadata
fixtures: prefix declarations, prefixed names, ``a``, predicate and object
lists, and quoted literals with an optional datatype or language tag.
Anything outside that subset is rejected by name rather than silently
misread.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Union

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF + "type"
XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_LANGTAG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")
_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
# Characters no IRI may hold: the controls, space and the IRIREF
# exclusions, plus surrogates, which are not characters at all.
_IRI_FORBIDDEN_RE = re.compile(r'[\x00-\x20<>"{}|^`\\\ud800-\udfff]')


class ParseError(ValueError):
    """Raised when RDF input cannot be read; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Terms


# Builds the tuple directly; NamedTuple's own __new__ is one more Python call.
_new_tuple = tuple.__new__


class _Term:
    """Rebuilding a term from fields goes through its validating constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make, which _replace calls too, would skip __new__
        return cls(*iterable)


class _Iri(NamedTuple):
    value: str


class Iri(_Term, _Iri):
    """An absolute IRI: a validated 1-tuple of its string, which holds a ':'."""

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not _SCHEME_RE.match(value):
            raise ValueError(f"IRI is not absolute: {value!r}")
        if _IRI_FORBIDDEN_RE.search(value):
            raise ValueError(f"IRI contains a forbidden character: {value!r}")
        return _new_tuple(cls, (value,))

    def __repr__(self) -> str:
        return f"Iri({self.value!r})"


class _BlankNode(NamedTuple):
    label: str


class BlankNode(_Term, _BlankNode):
    """A blank node identified by a label unique within its graph.

    A validated 1-tuple of the label, which never holds a ':', so no blank
    node equals an IRI.
    """

    __slots__ = ()

    def __new__(cls, label: str) -> "BlankNode":
        if not _BLANK_LABEL_RE.match(label) or label.endswith("."):
            raise ValueError(f"invalid blank node label: {label!r}")
        return _new_tuple(cls, (label,))


class _Literal(NamedTuple):
    lexical: str
    datatype: str | None
    language: str | None


class Literal(_Term, _Literal):
    """A literal with an optional datatype IRI or language tag, not both.

    A validated 3-tuple of strings and None, so no literal equals a triple.
    A literal typed ``xsd:string`` is normalised to a plain literal so the
    two spellings compare equal, as RDF 1.1 intends.
    """

    __slots__ = ()

    def __new__(
        cls, lexical: str, datatype: str | None = None, language: str | None = None
    ) -> "Literal":
        if datatype is not None and language is not None:
            raise ValueError("literal cannot carry both a datatype and a language")
        if language is not None and not _LANGTAG_RE.match(language):
            raise ValueError(f"invalid language tag: {language!r}")
        if datatype == XSD_STRING:
            datatype = None
        return _new_tuple(cls, (lexical, datatype, language))


Term = Union[Iri, BlankNode, Literal]


class _Triple(NamedTuple):
    subject: Term
    predicate: Term
    object: Term


class Triple(_Term, _Triple):
    """An RDF triple; the predicate is an IRI and the subject is not a literal.

    A validated 3-tuple of terms, so no triple equals a literal.
    """

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term) -> "Triple":
        if isinstance(subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(predicate, Iri):
            raise ValueError("triple predicate must be an IRI")
        return _new_tuple(cls, (subject, predicate, object))


def format_term(term: Term) -> str:
    """Render a term in N-Triples syntax."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    body = _escape_literal(term.lexical)
    if term.language is not None:
        return f'"{body}"@{term.language}'
    if term.datatype is not None:
        return f'"{body}"^^<{term.datatype}>'
    return f'"{body}"'


def term_sort_key(term: Term) -> tuple[int, str]:
    """Total order over terms: IRIs, then blank nodes, then literals."""
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, BlankNode):
        return (1, term.label)
    return (2, format_term(term))


# ---------------------------------------------------------------------------
# Graph


class Graph:
    """A set of triples indexed by subject and by predicate.

    Iteration follows insertion order, which keeps downstream output
    deterministic without relying on hash ordering.
    """

    __slots__ = ("_triples", "_by_subject", "_by_predicate")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: dict[Triple, None] = {}
        self._by_subject: dict[Term, list[Triple]] = {}
        self._by_predicate: dict[Term, list[Triple]] = {}
        for t in triples:
            self.add(t)

    def add(self, triple: Triple) -> bool:
        """Add a triple; returns True when it was not already present."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._by_subject.setdefault(triple.subject, []).append(triple)
        self._by_predicate.setdefault(triple.predicate, []).append(triple)
        return True

    def update(self, triples: Iterable[Triple]) -> None:
        for t in triples:
            self.add(t)

    def copy(self) -> "Graph":
        return Graph(self)

    def match(
        self,
        subject: Term | None = None,
        predicate: Term | None = None,
        object: Term | None = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the given positions; None is a wildcard."""
        if subject is not None:
            candidates: Iterable[Triple] = self._by_subject.get(subject, ())
        elif predicate is not None:
            candidates = self._by_predicate.get(predicate, ())
        else:
            candidates = self._triples
        for t in candidates:
            if predicate is not None and t.predicate != predicate:
                continue
            if object is not None and t.object != object:
                continue
            if subject is not None and t.subject != subject:
                continue
            yield t

    def terms(self) -> set[Term]:
        """All terms occurring in any position."""
        out: set[Term] = set()
        for t in self._triples:
            out.add(t.subject)
            out.add(t.predicate)
            out.add(t.object)
        return out

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples.keys() == other._triples.keys()

    def __repr__(self) -> str:
        return f"<Graph with {len(self)} triples>"


# ---------------------------------------------------------------------------
# Shared lexing helpers

_ECHAR_DECODE = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}
_ECHAR_ENCODE = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


def _escape_literal(text: str) -> str:
    return "".join(_ECHAR_ENCODE.get(c, c) for c in text)


def _code_point(digits: str) -> str:
    """The character a ``\\u`` or ``\\U`` escape names."""
    code = int(digits, 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ValueError(f"escape names no Unicode character: U+{code:04X}")
    return chr(code)


class _Scanner:
    """Character cursor over one logical chunk of input."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "\n":
                self.line += 1
                self.pos += 1
            elif c in " \t\r":
                self.pos += 1
            elif c == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self.pos += 1
            else:
                break

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}, found {self.peek()!r}")
        self.pos += 1

    def read_iriref(self) -> Iri:
        self.expect("<")
        out: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated IRI")
            c = self.text[self.pos]
            self.pos += 1
            if c == ">":
                break
            if c == "\\":
                out.append(self._read_uchar(allow_echar=False))
            else:
                out.append(c)
        try:
            return Iri("".join(out))
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def read_blank(self) -> BlankNode:
        if not self.text.startswith("_:", self.pos):
            raise self.error("expected blank node")
        self.pos += 2
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_.-"
        ):
            self.pos += 1
        label = self.text[start : self.pos]
        if label.endswith("."):
            self.pos -= 1
            label = label[:-1]
        try:
            return BlankNode(label)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def read_string_body(self) -> str:
        self.expect('"')
        out: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated string literal")
            c = self.text[self.pos]
            self.pos += 1
            if c == '"':
                return "".join(out)
            if c == "\n":
                raise self.error("newline inside string literal")
            if c == "\\":
                out.append(self._read_uchar(allow_echar=True))
            else:
                out.append(c)

    def read_langtag(self) -> str:
        self.expect("@")
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "-"
        ):
            self.pos += 1
        tag = self.text[start : self.pos]
        if not _LANGTAG_RE.match(tag):
            raise self.error(f"invalid language tag: {tag!r}")
        return tag

    def _read_uchar(self, allow_echar: bool) -> str:
        if self.at_end():
            raise self.error("dangling escape")
        c = self.text[self.pos]
        self.pos += 1
        if c == "u" or c == "U":
            width = 4 if c == "u" else 8
            digits = self.text[self.pos : self.pos + width]
            if len(digits) != width or any(d not in "0123456789abcdefABCDEF" for d in digits):
                raise self.error(f"invalid \\{c} escape")
            self.pos += width
            try:
                return _code_point(digits)
            except ValueError as exc:
                raise self.error(str(exc)) from None
        if allow_echar and c in _ECHAR_DECODE:
            return _ECHAR_DECODE[c]
        raise self.error(f"invalid escape sequence \\{c}")


# ---------------------------------------------------------------------------
# N-Triples


# One statement line, from the RDF 1.1 N-Triples productions.  Escapes
# are checked here and decoded later, only in tokens that hold one.  Blank
# node labels keep to the ASCII letters, digits, '_', '-' and inner '.'
# that BlankNode accepts.
_NT_IRIREF = (
    r'<[^\x00-\x20<>"{}|^`\\]*'
    r'(?:\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^\x00-\x20<>"{}|^`\\]*)*>'
)
_NT_BLANK = r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"
_NT_LITERAL = (
    r'"([^"\\\n\r]*(?:\\(?:[tbnrf"\'\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^"\\\n\r]*)*)"'
    rf"(?:@([A-Za-z]+(?:-[A-Za-z0-9]+)*)|\^\^({_NT_IRIREF}))?"
)
_NT_STATEMENT = re.compile(
    rf"({_NT_IRIREF}|{_NT_BLANK})[ \t]*({_NT_IRIREF})[ \t]*"
    rf"({_NT_IRIREF}|{_NT_BLANK}|{_NT_LITERAL})[ \t]*\.[ \t]*(?:#.*)?"
)
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")


def _decode_escape(match: re.Match) -> str:
    short, long, char = match.groups()
    return _ECHAR_DECODE[char] if char is not None else _code_point(short or long)


def _unescape(token: str) -> str:
    return _ESCAPE_RE.sub(_decode_escape, token) if "\\" in token else token


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples; raises ParseError with the line number on bad input.

    Each statement line must match ``_NT_STATEMENT`` as a whole; a line it
    rejects raises ParseError quoting the line.  Terms are interned by
    their spelling, so the graph holds one object per distinct term, and
    each distinct term goes through its validating constructor once: an
    escape that names no character, or a term its class refuses (such as
    a relative IRI), raises ParseError for the line it first appears on.
    """
    g = Graph()
    terms: dict[str, Term] = {}
    statement = _NT_STATEMENT.fullmatch
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        match = statement(line)
        if match is None:
            raise ParseError(f"malformed N-Triples statement: {line!r}", lineno)
        s, p, o, lexical, language, datatype = match.groups()
        subject = terms[s] if s in terms else _nt_term(terms, lineno, s)
        predicate = terms[p] if p in terms else _nt_term(terms, lineno, p)
        if o in terms:
            obj = terms[o]
        else:
            obj = _nt_term(terms, lineno, o, lexical, language, datatype)
        g.add(Triple(subject, predicate, obj))
    return g


def _nt_term(
    terms: dict[str, Term],
    lineno: int,
    token: str,
    lexical: str | None = None,
    language: str | None = None,
    datatype: str | None = None,
) -> Term:
    """Build, validate and intern the term a matched token spells."""
    try:
        if token[0] == "<":
            term: Term = Iri(_unescape(token[1:-1]))
        elif token[0] == "_":
            term = BlankNode(token[2:])
        else:
            if datatype is not None:
                dt = terms[datatype] if datatype in terms else _nt_term(terms, lineno, datatype)
                datatype = dt.value
            term = Literal(_unescape(lexical), datatype, language)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    terms[token] = term
    return term


def serialize_ntriples(g: Graph) -> str:
    """Serialize a graph as N-Triples, one sorted line per triple."""
    lines = [
        f"{format_term(t.subject)} {format_term(t.predicate)} {format_term(t.object)} ."
        for t in g
    ]
    return "".join(line + "\n" for line in sorted(lines))


# ---------------------------------------------------------------------------
# Turtle subset

_TURTLE_UNSUPPORTED = {
    "(": "collections",
    "[": "blank node property lists",
    "'": "single-quoted strings",
}


def parse_turtle(text: str) -> Graph:
    """Parse the supported Turtle subset.

    Features outside the subset (collections, blank node property lists,
    base declarations, bare numeric or boolean literals, single-quoted or
    long strings) raise ParseError naming the feature.
    """
    sc = _Scanner(text, 1)
    g = Graph()
    prefixes: dict[str, str] = {}
    while True:
        sc.skip_ws()
        if sc.at_end():
            return g
        if sc.text.startswith("@prefix", sc.pos):
            sc.pos += len("@prefix")
            _read_prefix_decl(sc, prefixes, dotted=True)
            continue
        if sc.text.startswith("@base", sc.pos) or _keyword_at(sc, "BASE"):
            raise sc.error("unsupported Turtle feature: base declarations")
        if sc.text.startswith("@", sc.pos):
            raise sc.error("unknown directive")
        if _keyword_at(sc, "PREFIX"):
            sc.pos += len("PREFIX")
            _read_prefix_decl(sc, prefixes, dotted=False)
            continue
        _read_statement(sc, g, prefixes)


def _keyword_at(sc: _Scanner, word: str) -> bool:
    end = sc.pos + len(word)
    if sc.text[sc.pos : end].upper() != word:
        return False
    if end >= len(sc.text):
        return True
    # a following ':' means this is a prefixed name, not a keyword
    return not (sc.text[end].isalnum() or sc.text[end] in "_:")


def _read_prefix_decl(sc: _Scanner, prefixes: dict[str, str], dotted: bool) -> None:
    sc.skip_ws()
    start = sc.pos
    while sc.pos < len(sc.text) and sc.text[sc.pos] != ":":
        if sc.text[sc.pos] in " \t\n<":
            raise sc.error("malformed prefix declaration")
        sc.pos += 1
    name = sc.text[start : sc.pos]
    sc.expect(":")
    sc.skip_ws()
    iri = sc.read_iriref()
    if dotted:
        sc.skip_ws()
        sc.expect(".")
    prefixes[name] = iri.value


def _read_statement(sc: _Scanner, g: Graph, prefixes: dict[str, str]) -> None:
    subject = _turtle_term(sc, prefixes, position="subject")
    while True:
        sc.skip_ws()
        predicate = _turtle_verb(sc, prefixes)
        while True:
            sc.skip_ws()
            obj = _turtle_term(sc, prefixes, position="object")
            g.add(Triple(subject, predicate, obj))
            sc.skip_ws()
            if sc.peek() == ",":
                sc.pos += 1
                continue
            break
        if sc.peek() == ";":
            while sc.peek() == ";":
                sc.pos += 1
                sc.skip_ws()
            if sc.peek() == ".":
                sc.pos += 1
                return
            if sc.at_end():
                raise sc.error("statement not terminated by '.'")
            continue
        sc.expect(".")
        return


def _turtle_verb(sc: _Scanner, prefixes: dict[str, str]) -> Iri:
    if _keyword_at(sc, "A") and sc.text[sc.pos] == "a":
        sc.pos += 1
        return Iri(RDF_TYPE)
    term = _turtle_term(sc, prefixes, position="predicate")
    if not isinstance(term, Iri):
        raise sc.error("predicate must be an IRI")
    return term


def _turtle_term(sc: _Scanner, prefixes: dict[str, str], position: str) -> Term:
    sc.skip_ws()
    c = sc.peek()
    if c == "":
        raise sc.error("unexpected end of input")
    if c in _TURTLE_UNSUPPORTED:
        raise sc.error(f"unsupported Turtle feature: {_TURTLE_UNSUPPORTED[c]}")
    if c == "<":
        return sc.read_iriref()
    if c == "_":
        return sc.read_blank()
    if c == '"':
        if position == "subject":
            raise sc.error("subject cannot be a literal")
        if sc.text.startswith('"""', sc.pos):
            raise sc.error("unsupported Turtle feature: long strings")
        body = sc.read_string_body()
        if sc.peek() == "@":
            return Literal(body, language=sc.read_langtag())
        if sc.text.startswith("^^", sc.pos):
            sc.pos += 2
            sc.skip_ws()
            if sc.peek() == "<":
                return Literal(body, datatype=sc.read_iriref().value)
            dt = _read_pname(sc, prefixes)
            return Literal(body, datatype=dt.value)
        return Literal(body)
    if c.isdigit() or c in "+-" or _keyword_at(sc, "TRUE") or _keyword_at(sc, "FALSE"):
        raise sc.error("unsupported Turtle feature: bare numeric and boolean literals")
    return _read_pname(sc, prefixes)


_PNAME_STOP = set(' \t\r\n,;<>"()[]{}#')


def _read_pname(sc: _Scanner, prefixes: dict[str, str]) -> Iri:
    start = sc.pos
    while sc.pos < len(sc.text) and sc.text[sc.pos] not in _PNAME_STOP:
        sc.pos += 1
    token = sc.text[start : sc.pos]
    if token.endswith("."):
        token = token[:-1]
        sc.pos -= 1
    if ":" not in token:
        raise sc.error(f"expected a prefixed name, found {token!r}")
    prefix, local = token.split(":", 1)
    if prefix not in prefixes:
        raise sc.error(f"undeclared prefix {prefix + ':'!r}")
    try:
        return Iri(prefixes[prefix] + local)
    except ValueError as exc:
        raise sc.error(str(exc)) from None


# ---------------------------------------------------------------------------
# Convenience loading


def load_rdf(path: str) -> Graph:
    """Load an RDF file, picking the reader from the file extension."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".nt"):
        return parse_ntriples(text)
    if path.endswith((".ttl", ".turtle")):
        return parse_turtle(text)
    raise ParseError(f"cannot infer RDF format from file name: {path}")
