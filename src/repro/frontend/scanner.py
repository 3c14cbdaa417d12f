"""Statement scanner: the fast path of :func:`repro.frontend.parse_program`.

The grammar (``docs/language.md``) is regular one statement at a time,
so two compiled patterns read a well-formed source without tokens or an
AST:

* ``_DECLARATION`` matches a class header, a field or method header
  (``static`` or not), ``main {`` or a class's closing ``}``;
* ``_STATEMENT`` matches the 13 statement forms and the ``}`` that
  closes a body.

Each pattern is one alternation of forms behind one whitespace-and-comment
part, applied with ``pattern.match(text, pos)``.  An empty marker group
closes every form, so ``match.lastindex`` says which form matched.
:func:`scan_declarations` reads the declarations and skips each body
with ``_BODY``, which only finds its closing brace.  Lowering then fills
the bodies in class-inheritance order, the order site ids are numbered
in, through :func:`scan_body`, which hands the match groups straight to
a :class:`~repro.ir.builder.MethodBuilder`.

The scanner reports nothing itself.  Wherever the token lexer or parser
could answer differently it raises :class:`Unscannable`, and the caller
parses the whole source with them instead, so every diagnostic keeps its
message and position.  That covers:

* text where no form matches, or a form where it cannot stand (a
  field outside a class), including a comment inside a statement or
  header;
* a keyword in a name slot: no name pattern admits one, and a keyword
  must end where a word ends, so ``newA`` stays a name;
* a missing or duplicate ``main``;
* any source holding a non-ASCII character that ``[^\\W\\d]`` admits but
  ``str.isalpha`` rejects (such as ``²``): the lexer refuses one at the
  head of a name.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.ir.builder import MethodBuilder
from repro.ir.program import FieldDecl

__all__ = [
    "Unscannable",
    "ClassHeader",
    "MethodHeader",
    "scan_declarations",
    "scan_body",
]

_KEYWORDS = ("class", "extends", "field", "method", "static", "main", "new",
             "null", "return", "throw", "catch")
#: the end of a word: no identifier character follows
_END = r"(?![\w<>$\[\]])"
#: an identifier, as the lexer reads one, that is not a keyword
_NAME = (rf"(?!(?:{'|'.join(_KEYWORDS)}){_END})"
         rf"(?:[^\W\d]|[<$])[\w<>$\[\]]*{_END}")
#: whitespace and comments; a comment ends at its first possible end,
#: so backtracking can neither stretch nor cut one
_GAP = (r"\s*(?:(?://[^\n]*(?![^\n])"
        r"|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)\s*)*")


def _form(spelling: str) -> str:
    """The pattern of one form, spelled as space-separated tokens: ``N``
    is a captured name, ``L`` a parenthesised name list captured as one
    group, a keyword must end where its word does, and punctuation
    matches itself.  Whitespace may separate any two tokens."""
    parts = []
    for token in spelling.split():
        if token == "N":
            parts.append(f"({_NAME})")
        elif token == "L":
            parts.append(rf"\(\s*((?:{_NAME}(?:\s*,\s*{_NAME})*)?)\s*\)")
        elif token in _KEYWORDS:
            parts.append(token + _END)
        else:
            parts.append(re.escape(token))
    return r"\s*".join(parts)


def _alternation(forms: Sequence[Tuple[str, object]]):
    """One pattern matching any of ``forms`` after a gap, and a table
    from each form's marker group to ``(value, its name groups)``."""
    parts = []
    table: Dict[int, Tuple[object, Tuple[int, ...]]] = {}
    groups = 0
    for spelling, value in forms:
        count = sum(token in ("N", "L") for token in spelling.split())
        parts.append(_form(spelling) + "()")
        table[groups + count + 1] = (
            value, tuple(range(groups + 1, groups + count + 1)))
        groups += count + 1
    return re.compile(f"{_GAP}(?:{'|'.join(parts)})"), table


def _names(text: str) -> List[str]:
    """The names of a matched ``L`` group."""
    return [name.strip() for name in text.split(",")] if text else []


#: Declaration forms: ``(kind, is_static)`` each.
_DECLARATION, _DECLARATION_FORMS = _alternation((
    ("class N {", ("class", False)),
    ("class N extends N {", ("class", False)),
    ("field N : N ;", ("field", False)),
    ("static field N : N ;", ("field", True)),
    ("method N L {", ("method", False)),
    ("static method N L {", ("method", True)),
    ("main {", ("main", True)),
    ("}", ("}", False)),
))

#: Statement forms, most frequent first in generated programs.
_STATEMENT, _STATEMENT_FORMS = _alternation((
    ("N = new N ( ) ;", lambda mb, t, c: mb.new(c, target=t)),
    ("N . N = N ;", lambda mb, b, f, s: mb.store(b, f, s)),
    ("return N ;", lambda mb, s: mb.ret(s)),
    ("N :: N L ;", lambda mb, c, m, a: mb.static_invoke(c, m, *_names(a))),
    ("N = N . N L ;",
     lambda mb, t, b, m, a: mb.invoke(b, m, *_names(a), target=t)),
    ("N . N L ;", lambda mb, b, m, a: mb.invoke(b, m, *_names(a))),
    ("N = N :: N L ;",
     lambda mb, t, c, m, a: mb.static_invoke(c, m, *_names(a), target=t)),
    ("N = ( N ) N ;", lambda mb, t, c, s: mb.cast(c, s, target=t)),
    ("N = N . N ;", lambda mb, t, b, f: mb.load(b, f, target=t)),
    ("N = N ;", lambda mb, t, s: mb.copy(t, s)),
    ("N = null ;", lambda mb, t: mb.assign_null(t)),
    ("N = N :: N ;", lambda mb, t, c, f: mb.static_load(c, f, target=t)),
    ("N :: N = N ;", lambda mb, c, f, s: mb.static_store(c, f, s)),
    ("N = catch ( N ) ;", lambda mb, t, c: mb.catch(c, target=t)),
    ("throw N ;", lambda mb, s: mb.throw(s)),
    ("}", None),
))

#: Skips a body to just past its closing brace, the first ``}`` outside a
#: comment.  It checks nothing else: :func:`scan_body` reads the body,
#: and as no statement holds a brace or a lone ``/``, it ends there too.
_BODY = re.compile(r"[^{}/]*(?:(?://[^\n]*(?![^\n])"
                   r"|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/|/(?![/*]))[^{}/]*)*\}")
_TRAILER = re.compile(_GAP)
#: a non-ASCII word character that is not a letter, such as ``²``
_NON_LETTER = re.compile(r"[^\W\d\x00-\x7f]")


class Unscannable(Exception):
    """The source needs the token lexer and parser."""


class MethodHeader(NamedTuple):
    name: str
    params: Tuple[str, ...]
    is_static: bool
    #: offset of the body's first character
    start: int


class ClassHeader(NamedTuple):
    name: str
    superclass: Optional[str]
    fields: List[FieldDecl]
    methods: List[MethodHeader]
    #: a class-sorting error makes the caller re-parse with the token
    #: parser, which has the position
    position: None = None


def scan_declarations(source: str) -> Tuple[List[ClassHeader], MethodHeader]:
    """The classes and the ``main`` block of ``source``, bodies unread."""
    if not source.isascii() and not all(
            ch.isalpha() for ch in _NON_LETTER.findall(source)):
        raise Unscannable
    classes: List[ClassHeader] = []
    main: Optional[MethodHeader] = None
    current: Optional[ClassHeader] = None
    pos = 0
    while True:
        m = _DECLARATION.match(source, pos)
        if m is None:
            if (current is None and main is not None
                    and _TRAILER.fullmatch(source, pos)):
                return classes, main
            raise Unscannable
        pos = m.end()
        (kind, is_static), groups = _DECLARATION_FORMS[m.lastindex]
        names = [m.group(i) for i in groups]
        if kind == "class" and current is None:
            current = ClassHeader(names[0], names[1] if names[1:] else None,
                                  [], [])
            classes.append(current)
        elif kind == "field" and current is not None:
            current.fields.append(FieldDecl(names[0], names[1], is_static))
        elif kind == "method" and current is not None:
            current.methods.append(MethodHeader(
                names[0], tuple(_names(names[1])), is_static, pos))
            pos = _skip_body(source, pos)
        elif kind == "main" and current is None and main is None:
            main = MethodHeader("main", (), is_static, pos)
            pos = _skip_body(source, pos)
        elif kind == "}" and current is not None:
            current = None
        else:
            raise Unscannable


def _skip_body(source: str, start: int) -> int:
    m = _BODY.match(source, start)
    if m is None:
        raise Unscannable
    return m.end()


def scan_body(source: str, mb: MethodBuilder, method: MethodHeader) -> None:
    """Emit the statements of ``method``'s body into ``mb``."""
    match = _STATEMENT.match
    forms = _STATEMENT_FORMS
    pos = method.start
    while True:
        m = match(source, pos)
        if m is None:
            raise Unscannable
        pos = m.end()
        emit, groups = forms[m.lastindex]
        if emit is None:
            break
        emit(mb, *map(m.group, groups))
