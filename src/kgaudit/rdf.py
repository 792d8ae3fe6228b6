"""Minimal RDF data model with N-Triples and Turtle (subset) support.

The model is deliberately small: IRIs, blank nodes and literals, triples
over them, and an in-memory graph with set semantics plus subject and
predicate indexes.  A graph is built once, from its triples, and never
changes: no method adds or removes a triple, so threads and runs share
graphs freely, and code that combines graphs builds a new one.

Terms and triples are validated, immutable tuples: each class subclasses
a ``NamedTuple`` of its fields with a ``__new__`` that runs the class's
checks.  Hashing and equality are therefore ``tuple``'s own C slots, so
the graph, the parser's interning and the ASKs put terms into sets and
dicts and compare them without calling back into Python; only
construction runs Python code.  Equality ignores the class, yet terms of
different classes are never equal: an IRI always holds a ':' and a blank
node label never does, and a literal holds strings and None where a
triple holds terms.  A term does equal the plain tuple of its fields; no
set or dict in kgaudit holds both.

Every other record of kgaudit (queries and patterns, the catalog, results,
runs, reports) is built the same way, so no module builds a dataclass:
a plain ``NamedTuple`` when the record checks nothing, and a subclass
over a private one, mixing in :class:`_Record`, when it has checks to run
or members outside equality.  Such members (a BGP's join plans, the
catalog's scoring plan) are not fields but instance attributes set by
``__new__``: ``==``, hash and repr never see them, pickle and deepcopy
carry them over, and ``_make`` and ``_replace``, which build a record from
its fields alone, start them afresh.

The N-Triples reader matches each statement line against one compiled
regular expression built from the RDF 1.1 N-Triples productions, so a
line is either a whole valid statement or rejected with its line number.
Terms are interned per parse: each distinct spelling is built, and
validated, once.  A caller that reads many texts sharing lines (the runs
of a transcript, the records of a journal) passes one memo to all of
them, which interns lines like terms: each distinct line is matched and
built once per memo, and gives the same triple object wherever it recurs.

Turtle and the SPARQL fragment (``sparql``) share one lexer: a single
compiled regular expression, built from the same N-Triples productions
plus prefixed names, variables, directives, words and punctuation, turns a
text into ``(kind, text, line)`` tokens in one ``finditer`` pass, dropping
spaces and comments.  Each reader walks that token list and refuses what
its language lacks.

The Turtle reader covers the subset needed for hand-written metadata
fixtures: prefix declarations, prefixed names, ``a``, predicate and object
lists, and quoted literals with an optional datatype or language tag.
Anything outside that subset is rejected by name rather than silently
misread.
"""

from __future__ import annotations

import re
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Union

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF + "type"
XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_LANGTAG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")
_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
# An absolute IRI: a scheme, then none of the characters no IRI may hold
# (the controls, space and the IRIREF exclusions, plus surrogates, which
# are not characters at all).
_IRI_RE = re.compile(r'[A-Za-z][A-Za-z0-9+.\-]*:[^\x00-\x20<>"{}|^`\\\ud800-\udfff]*')


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


class _Record:
    """Rebuilding a record from fields goes through its own constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make, which _replace calls too, would skip __new__
        return cls(*iterable)


class _Iri(NamedTuple):
    value: str


class Iri(_Record, _Iri):
    """An absolute IRI: a validated 1-tuple of its string, which holds a ':'."""

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if _IRI_RE.fullmatch(value) is None:
            if not _SCHEME_RE.match(value):
                raise ValueError(f"IRI is not absolute: {value!r}")
            raise ValueError(f"IRI contains a forbidden character: {value!r}")
        return _new_tuple(cls, (value,))

    def __repr__(self) -> str:
        return f"Iri({self.value!r})"


class _BlankNode(NamedTuple):
    label: str


class BlankNode(_Record, _BlankNode):
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


class Literal(_Record, _Literal):
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


class Triple(_Record, _Triple):
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


# what parse_ntriples remembers across texts: lines to triples, spellings to terms
NTriplesMemo = tuple[dict[str, Triple], dict[str, Term]]


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

    ``Graph(triples)`` is the only way to build one, and it never changes
    afterwards.  A triple met again is dropped; iteration, and each index,
    follows the order triples were first met, which keeps downstream
    output deterministic without relying on hash ordering.

    The query evaluator reads the index lists through :meth:`candidates`,
    and :meth:`match` filters them; a graph that builds its indexes lazily
    must still provide both.
    """

    __slots__ = ("_triples", "_by_subject", "_by_predicate")

    def __init__(self, triples: Iterable[Triple] = ()):
        known: dict[Triple, None] = {}
        by_subject: dict[Term, list[Triple]] = {}
        by_predicate: dict[Term, list[Triple]] = {}
        for triple in triples:
            if triple in known:
                continue
            known[triple] = None
            subject, predicate, _ = triple
            listed = by_subject.get(subject)
            if listed is None:
                by_subject[subject] = [triple]
            else:
                listed.append(triple)
            listed = by_predicate.get(predicate)
            if listed is None:
                by_predicate[predicate] = [triple]
            else:
                listed.append(triple)
        self._triples = known
        self._by_subject = by_subject
        self._by_predicate = by_predicate

    def candidates(
        self, subject: Term | None = None, predicate: Term | None = None
    ) -> Collection[Triple]:
        """The index list that holds every triple with this subject and
        predicate (None is a wildcard), which callers must not change.

        With both given it is the shorter of the subject's and the
        predicate's lists; every list keeps insertion order, so either
        holds the matching triples in the same order.  With neither it is
        the whole graph.  With both, the list may hold triples that match
        only one of them, so a caller filters it, as :meth:`match` does.
        """
        if subject is not None:
            listed = self._by_subject.get(subject, ())
            if predicate is not None:
                other = self._by_predicate.get(predicate, ())
                if len(other) < len(listed):
                    return other
            return listed
        if predicate is not None:
            return self._by_predicate.get(predicate, ())
        return self._triples

    def match(
        self,
        subject: Term | None = None,
        predicate: Term | None = None,
        object: Term | None = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the given positions; None is a wildcard.

        They are the triples of :meth:`candidates` that match, in its order.
        """
        for t in self.candidates(subject, predicate):
            if subject is not None and t.subject != subject:
                continue
            if predicate is not None and t.predicate != predicate:
                continue
            if object is not None and t.object != object:
                continue
            yield t

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
_ECHAR_TABLE = str.maketrans(_ECHAR_ENCODE)


def _escape_literal(text: str) -> str:
    return text.translate(_ECHAR_TABLE)


def _code_point(digits: str) -> str:
    """The character a ``\\u`` or ``\\U`` escape names."""
    code = int(digits, 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ValueError(f"escape names no Unicode character: U+{code:04X}")
    return chr(code)


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
_NT_STRING = r'[^"\\\n\r]*(?:\\(?:[tbnrf"\'\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^"\\\n\r]*)*'
_NT_LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_NT_LITERAL = rf'"({_NT_STRING})"(?:@({_NT_LANGTAG})|\^\^({_NT_IRIREF}))?'
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


def parse_ntriples(text: str, memo: NTriplesMemo | None = None) -> Graph:
    """Parse N-Triples; raises ParseError with the line number on bad input.

    Each statement line must match ``_NT_STATEMENT`` as a whole; a line it
    rejects raises ParseError quoting the line.  Terms are interned by
    their spelling, so the graph holds one object per distinct term, and
    each distinct term goes through its validating constructor once: an
    escape that names no character, or a term its class refuses (such as
    a relative IRI), raises ParseError for the line it first appears on.

    ``memo``, a pair of dicts ``(lines, terms)`` that start empty and
    that the caller passes with every text it reads, interns lines as
    well as terms: ``lines`` maps each statement line already read,
    stripped, to its triple, and ``terms`` each spelling to its term, so
    a line met again in any text read through the memo is neither
    matched nor built, and gives the identical ``Triple``.  A line enters
    ``lines`` only once it has matched and its terms are built, and the
    two tables are apart, so a line that is not valid, one spelled like
    a term included, is read, and refused with its own number, every
    time.  Without a memo the terms are interned per text and no line is
    kept.

    Lines end at LF, CR or CRLF, each one break, as the N-Triples EOL
    production has it; no other character ends a line, so a literal may
    hold U+0085 or U+2028.  Only space and tab are white space: a line
    holding any other character outside a literal or comment, form feed
    and U+2028 included, is refused.
    """
    triples = []
    lines, terms = (None, {}) if memo is None else memo
    known = terms.get
    statement = _NT_STATEMENT.fullmatch
    for lineno, raw in enumerate(_lf_lines(text).split("\n"), start=1):
        line = raw.strip(" \t")
        if not line or line[0] == "#":
            continue
        if lines is not None:
            triple = lines.get(line)
            if triple is not None:
                triples.append(triple)
                continue
        match = statement(line)
        if match is None:
            raise ParseError(f"malformed N-Triples statement: {line!r}", lineno)
        s, p, o, lexical, language, datatype = match.groups()
        # a term is a non-empty tuple, so it is never false
        triple = Triple(
            known(s) or _nt_term(terms, lineno, s),
            known(p) or _nt_term(terms, lineno, p),
            known(o) or _nt_term(terms, lineno, o, lexical, language, datatype),
        )
        if lines is not None:
            lines[line] = triple
        triples.append(triple)
    return Graph(triples)


def _lf_lines(text: str) -> str:
    """``text`` with each CRLF and each lone CR made one LF."""
    if "\r" in text:
        return text.replace("\r\n", "\n").replace("\r", "\n")
    return text


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
# Turtle and SPARQL tokens

# Prefixed names and variables, from the productions RDF 1.1 Turtle §6.5
# and SPARQL 1.1 §19.8 share.  PN_LOCAL_ESC ('\' before one of its
# punctuation characters) is the only escape a local name may hold.  On
# ASCII the classes are the W3C's own; beyond it Python's Unicode word
# characters stand in for the W3C code point ranges, which take re tens of
# milliseconds to compile.
_PN_CHARS_BASE = r"[^\W\d_]"
_VARNAME_CHARS = r"\w\u00B7\u0300-\u036F\u203F\u2040"
_PN_CHARS = _VARNAME_CHARS + r"\-"
_PLX = r"%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%]"
_PN_PREFIX = rf"{_PN_CHARS_BASE}(?:[{_PN_CHARS}.]*[{_PN_CHARS}])?"
_PN_LOCAL = rf"(?:[\w:]|{_PLX})(?:(?:[{_PN_CHARS}.:]|{_PLX})*(?:[{_PN_CHARS}:]|{_PLX}))?"

# One token at a time; alternatives are tried in order, and the last takes
# any other single character, so the tokens cover the whole text.  A
# string that is malformed (unterminated, a bad escape, a raw line break)
# leaves its opening '"' as a lone punct token, and so does an IRI with a
# forbidden character its '<'.
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r\n]+|#[^\r\n]*)"
    rf"|(?P<iri>{_NT_IRIREF})"
    rf'|(?P<string>"(?!""){_NT_STRING}")'
    rf"|(?P<blank>{_NT_BLANK})"
    rf"|(?P<pname>(?:{_PN_PREFIX})?:(?:{_PN_LOCAL})?)"
    rf"|(?P<var>[?$][{_VARNAME_CHARS}]+)"
    rf"|(?P<at>@{_NT_LANGTAG})"
    r"|(?P<number>[+-]?[0-9]*\.?[0-9]+)"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_]*)"
    r'|(?P<punct>\^\^|"""|[^ \t\r\n])'
)
_MALFORMED = {'"': "malformed string literal", "<": "malformed IRI"}


class _Token(NamedTuple):
    kind: str  # a group name of _TOKEN_RE other than "space", or "eof"
    text: str
    line: int


def _tokenize(text: str) -> list[_Token]:
    """The tokens of a Turtle or SPARQL text, without spaces and comments.

    A token's line counts LF, CR and CRLF as one break each.
    """
    tokens = []
    line = 1
    for match in _TOKEN_RE.finditer(_lf_lines(text)):
        kind = match.lastgroup
        if kind == "space":
            line += match.group().count("\n")
        else:
            tokens.append(_Token(kind, match.group(), line))
    tokens.append(_Token("eof", "", line))
    return tokens


class _TokenReader:
    """A cursor over the tokens of one text, with the term rules Turtle and
    SPARQL share; errors are ``error_type``, carrying the token's line."""

    error_type: type[ValueError] = ParseError

    def __init__(self, text: str, prefixes: Mapping[str, str] = {}):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes = dict(prefixes)

    def error(self, message: str, line: int | None = None) -> ValueError:
        return self.error_type(message, self.peek().line if line is None else line)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}", tok.line)

    def at_keyword(self, word: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "word" and tok.text.upper() == word

    def prefix_decl(self) -> None:
        """Read ``name: <iri>`` after a prefix keyword."""
        name = self.next()
        prefix, _, local = name.text.partition(":")
        if name.kind != "pname" or local:
            raise self.error("expected a prefix name ending in ':'", name.line)
        iri = self.next()
        if iri.kind != "iri":
            raise self.error("expected an IRI in the prefix declaration", iri.line)
        self.prefixes[prefix] = self.iri(iri).value

    def iri(self, tok: _Token) -> Iri:
        """The IRI an IRIREF or a prefixed name spells."""
        kind, text, line = tok
        prefix, _, local = text.partition(":")
        try:
            if kind == "iri":
                return Iri(_unescape(text[1:-1]))
            if kind == "pname" and prefix in self.prefixes:
                return Iri(self.prefixes[prefix] + local.replace("\\", ""))
        except ValueError as exc:
            raise self.error(str(exc), line) from None
        if kind == "pname":
            raise self.error(f"undeclared prefix {prefix + ':'!r}", line)
        raise self.error(_MALFORMED.get(text, f"expected an IRI, found {text!r}"), line)

    def literal(self, tok: _Token) -> Literal:
        """The literal a string token starts, with its language tag or datatype."""
        try:
            lexical = _unescape(tok.text[1:-1])
        except ValueError as exc:
            raise self.error(str(exc), tok.line) from None
        if self.peek().kind == "at":
            return Literal(lexical, language=self.next().text[1:])
        if self.accept("^^"):
            return Literal(lexical, datatype=self.iri(self.next()).value)
        return Literal(lexical)


# ---------------------------------------------------------------------------
# Turtle subset

_TURTLE_UNSUPPORTED = {
    "(": "collections",
    "[": "blank node property lists",
    "'": "single-quoted strings",
    '"""': "long strings",
}


def parse_turtle(text: str) -> Graph:
    """Parse the supported Turtle subset.

    Features outside the subset (collections, blank node property lists,
    base declarations, bare numeric or boolean literals, single-quoted or
    long strings) raise ParseError naming the feature.  Any other token
    out of place, such as a SPARQL variable, raises ParseError quoting it.
    """
    return _TurtleReader(text).graph()


class _TurtleReader(_TokenReader):
    def graph(self) -> Graph:
        triples: list[Triple] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "@base" or self.at_keyword("BASE"):
                raise self.error("unsupported Turtle feature: base declarations")
            if tok.text == "@prefix" or self.at_keyword("PREFIX"):
                self.next()
                self.prefix_decl()
                if tok.text == "@prefix":
                    self.expect(".")
            elif tok.kind == "at":
                raise self.error("unknown directive")
            else:
                self.triples(triples)
        return Graph(triples)

    def triples(self, out: list[Triple]) -> None:
        subject = self.term("subject")
        while True:
            predicate = self.verb()
            out.append(Triple(subject, predicate, self.term("object")))
            while self.accept(","):
                out.append(Triple(subject, predicate, self.term("object")))
            if not self.accept(";"):
                break
            while self.accept(";"):
                pass
            if self.peek().text == ".":
                break
        self.expect(".")

    def verb(self) -> Iri:
        if self.accept("a"):
            return Iri(RDF_TYPE)
        term = self.term("predicate")
        if not isinstance(term, Iri):
            raise self.error("predicate must be an IRI")
        return term

    def term(self, position: str) -> Term:
        tok = self.next()
        kind, text, line = tok
        if kind == "iri" or kind == "pname":
            return self.iri(tok)
        if kind == "blank":
            return BlankNode(text[2:])
        if kind == "string":
            if position == "subject":
                raise self.error("subject cannot be a literal", line)
            return self.literal(tok)
        if kind == "number" or text in ("true", "false"):
            raise self.error("unsupported Turtle feature: bare numeric and boolean literals", line)
        if text in _TURTLE_UNSUPPORTED:
            raise self.error(f"unsupported Turtle feature: {_TURTLE_UNSUPPORTED[text]}", line)
        if kind == "eof":
            raise self.error("unexpected end of input", line)
        raise self.error(_MALFORMED.get(text, f"expected an RDF term, found {text!r}"), line)


# ---------------------------------------------------------------------------
# Convenience loading


def load_rdf(path: str) -> Graph:
    """Load an RDF file, picking the reader from the file extension in any
    case.  A leading UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        text = handle.read()
    name = path.lower()
    if name.endswith(".nt"):
        return parse_ntriples(text)
    if name.endswith((".ttl", ".turtle")):
        return parse_turtle(text)
    raise ParseError(f"cannot infer RDF format from file name: {path}")
