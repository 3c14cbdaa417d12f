"""Lexer for the mini-Java surface language: one compiled pattern.

Token kinds:

* ``IDENT`` — identifiers: ``(?:[^\\W\\d]|[<$])[\\w<>$\\[\\]]*`` whose
  first character is ``_``, ``<``, ``$`` or a letter (``str.isalpha``;
  ``[^\\W\\d]`` alone would admit numerics such as ``²``).  ``\\w`` is
  Unicode letters, digits and ``_``; the brackets let generated names
  like ``<Main>`` and ``Obj[]`` round-trip;
* keywords — ``class extends field method static main new null return
  throw catch``
  (lexed as their own kinds);
* punctuation — ``{ } ( ) ; , . : :: =``;
* ``EOF`` — end of input.

Comments (``// ...`` and ``/* ... */``) and whitespace (``\\s``) are
skipped.  Lines end at ``\\n`` only; columns count characters from 1.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, NoReturn

from repro.frontend.errors import LexError, SourcePosition

__all__ = ["Token", "TokenKind", "tokenize"]


class TokenKind:
    """Token kind constants (plain strings for cheap comparison)."""

    IDENT = "IDENT"
    LBRACE = "LBRACE"
    RBRACE = "RBRACE"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    SEMI = "SEMI"
    COMMA = "COMMA"
    DOT = "DOT"
    COLON = "COLON"
    DOUBLE_COLON = "DOUBLE_COLON"
    ASSIGN = "ASSIGN"
    EOF = "EOF"
    # Keywords
    CLASS = "CLASS"
    EXTENDS = "EXTENDS"
    FIELD = "FIELD"
    METHOD = "METHOD"
    STATIC = "STATIC"
    MAIN = "MAIN"
    NEW = "NEW"
    NULL = "NULL"
    RETURN = "RETURN"
    THROW = "THROW"
    CATCH = "CATCH"


#: Spelling -> kind for every keyword and punctuation token; any other
#: ``word`` match is an ``IDENT``.
_KINDS = {
    "class": TokenKind.CLASS,
    "extends": TokenKind.EXTENDS,
    "field": TokenKind.FIELD,
    "method": TokenKind.METHOD,
    "static": TokenKind.STATIC,
    "main": TokenKind.MAIN,
    "new": TokenKind.NEW,
    "null": TokenKind.NULL,
    "return": TokenKind.RETURN,
    "throw": TokenKind.THROW,
    "catch": TokenKind.CATCH,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    ":": TokenKind.COLON,
    "::": TokenKind.DOUBLE_COLON,
    "=": TokenKind.ASSIGN,
}

#: Every position matches exactly one group, so ``finditer`` leaves no
#: gaps.  ``[^\W\d]`` also admits non-ASCII numerics such as ``²``,
#: which :func:`tokenize` rejects by checking an identifier's first
#: character.
_PATTERN = re.compile(
    r"(?P<trivia>(?:\s+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<word>(?:[^\W\d]|[<$])[\w<>$\[\]]*|::|[{}();,.:=])"
    r"|(?P<bad>/\*|.)",
    re.DOTALL,
)


class Token(NamedTuple):
    """A lexed token with its spelling and 1-based line and column."""

    kind: str
    text: str
    line: int
    column: int

    @property
    def position(self) -> SourcePosition:
        return SourcePosition(self.line, self.column)

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


def tokenize(text: str) -> List[Token]:
    """Lex ``text`` into a token list ending with an ``EOF`` token."""
    tokens: List[Token] = []
    append = tokens.append
    kinds = _KINDS.get
    ident = TokenKind.IDENT
    new_token = tuple.__new__  # skips NamedTuple's Python-level __new__
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for match in _PATTERN.finditer(text):
        group = match.lastgroup
        start = match.start()
        if group == "word":
            word = match.group()
            kind = kinds(word)
            if kind is None:
                head = word[0]
                if head > "\x7f" and not head.isalpha():
                    _unexpected(head, line, start - line_start + 1)
                kind = ident
            append(new_token(Token, (kind, word, line, start - line_start + 1)))
        elif group == "trivia":
            end = match.end()
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
        else:
            bad = match.group()
            if bad == "/*":
                raise LexError("unterminated block comment",
                               SourcePosition(line, start - line_start + 1))
            _unexpected(bad, line, start - line_start + 1)
    append(Token(TokenKind.EOF, "", line, len(text) - line_start + 1))
    return tokens


def _unexpected(ch: str, line: int, column: int) -> NoReturn:
    raise LexError(f"unexpected character {ch!r}", SourcePosition(line, column))
