"""Reference lexer: the oracle :func:`repro.frontend.lexer.tokenize` is
checked against (``tests/test_lexer_differential.py``).

The frontend's original hand-written lexer, kept as it was: a cursor
that reads one character at a time, classifies it with ``str`` methods
(``isspace``, ``isalpha``, ``isalnum``) and counts lines and columns as
it advances.  It shares no code with :mod:`repro.frontend`: the kind
strings, the position type and the error type are its own, and it uses
no regular expression.

Rules: identifiers start with ``isalpha()`` or one of ``_<$`` and go on
with ``isalnum()`` or one of ``_<>$[]``; whitespace is ``isspace()``;
``//`` runs to the next ``\\n``; ``/* ... */`` may span lines; lines end
at ``\\n`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List


@dataclass(frozen=True)
class SourcePosition:
    """1-based line/column position in a source text."""

    line: int
    column: int


class LexError(ValueError):
    """An unrecognized character or an unterminated block comment."""

    def __init__(self, message: str, position: SourcePosition) -> None:
        super().__init__(f"{position.line}:{position.column}: {message}")
        self.message = message
        self.position = position


_KEYWORDS = {
    "class": "CLASS",
    "extends": "EXTENDS",
    "field": "FIELD",
    "method": "METHOD",
    "static": "STATIC",
    "main": "MAIN",
    "new": "NEW",
    "null": "NULL",
    "return": "RETURN",
    "throw": "THROW",
    "catch": "CATCH",
}

_SINGLE_CHAR = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ";": "SEMI",
    ",": "COMMA",
    ".": "DOT",
    "=": "ASSIGN",
}


@dataclass(frozen=True)
class Token:
    """A lexed token with its spelling and position."""

    kind: str
    text: str
    position: SourcePosition


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_<$"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_<>$[]"


class _Cursor:
    """Character stream with position tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.index = 0
        self.line = 1
        self.column = 1

    def position(self) -> SourcePosition:
        return SourcePosition(self.line, self.column)

    def peek(self, offset: int = 0) -> str:
        i = self.index + offset
        return self.text[i] if i < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.index]
        self.index += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def at_end(self) -> bool:
        return self.index >= len(self.text)


def tokenize(text: str) -> List[Token]:
    """Lex ``text`` into a token list ending with an ``EOF`` token."""
    return list(iter_tokens(text))


def iter_tokens(text: str) -> Iterator[Token]:
    """Generator variant of :func:`tokenize`."""
    cursor = _Cursor(text)
    while True:
        _skip_trivia(cursor)
        if cursor.at_end():
            yield Token("EOF", "", cursor.position())
            return
        pos = cursor.position()
        ch = cursor.peek()
        if _is_ident_start(ch):
            yield _lex_ident(cursor, pos)
        elif ch == ":":
            cursor.advance()
            if cursor.peek() == ":":
                cursor.advance()
                yield Token("DOUBLE_COLON", "::", pos)
            else:
                yield Token("COLON", ":", pos)
        elif ch in _SINGLE_CHAR:
            cursor.advance()
            yield Token(_SINGLE_CHAR[ch], ch, pos)
        else:
            raise LexError(f"unexpected character {ch!r}", pos)


def _skip_trivia(cursor: _Cursor) -> None:
    while not cursor.at_end():
        ch = cursor.peek()
        if ch.isspace():
            cursor.advance()
        elif ch == "/" and cursor.peek(1) == "/":
            while not cursor.at_end() and cursor.peek() != "\n":
                cursor.advance()
        elif ch == "/" and cursor.peek(1) == "*":
            open_pos = cursor.position()
            cursor.advance()
            cursor.advance()
            while True:
                if cursor.at_end():
                    raise LexError("unterminated block comment", open_pos)
                if cursor.peek() == "*" and cursor.peek(1) == "/":
                    cursor.advance()
                    cursor.advance()
                    break
                cursor.advance()
        else:
            return


def _lex_ident(cursor: _Cursor, pos: SourcePosition) -> Token:
    chars = [cursor.advance()]
    while not cursor.at_end() and _is_ident_part(cursor.peek()):
        chars.append(cursor.advance())
    text = "".join(chars)
    kind = _KEYWORDS.get(text, "IDENT")
    return Token(kind, text, pos)
