"""Differential tests: the production lexer against the reference lexer.

``repro.frontend.lexer.tokenize`` (one compiled pattern) and
``tests/reference_lexer.py`` (one character at a time, no regular
expression) must produce the same ``(kind, text, line, column)``
sequence on every input, or fail with the same message at the same
position.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.errors import LexError
from repro.frontend.lexer import tokenize
from repro.ir.printer import print_program
from repro.workloads import load_profile
from tests import reference_lexer

#: The four tier-1 and five tier-2 profiles.
PROFILES = ["antlr", "fop", "luindex", "lusearch",
            "bloat", "chart", "pmd", "xalan", "checkstyle"]

#: Fuzz alphabet: every token spelling, the characters the identifier
#: rules single out, comment delimiters, line and column edge cases
#: (``\r``, ``\x0b``, ``\u2028``, which are whitespace but not line
#: ends) and characters on the edge of ``isalpha``/``isalnum``/``\w``
#: (``²`` and ``½`` are numeric but not decimal, ``Ⅻ`` is a letter
#: number, ``٠`` an Arabic-Indic digit).
FRAGMENTS = [
    "a", "Zz", "x_1", "é", "ß", "_", "<", ">", "$", "[", "]", "[]", "<>",
    "1", "9", "²", "½", "Ⅻ", "٠",
    " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\u2028", "\xa0",
    "/*", "*/", "//", "/", "*", "::", ":",
    "{", "}", "(", ")", ";", ",", ".", "=", "%", "#", "\"",
    "class", "extends", "field", "method", "static", "main", "new",
    "null", "return", "throw", "catch",
]


def _production(text):
    try:
        return [tuple(token) for token in tokenize(text)]
    except LexError as error:
        return ("error", error.message,
                error.position.line, error.position.column)


def _reference(text):
    try:
        return [(token.kind, token.text,
                 token.position.line, token.position.column)
                for token in reference_lexer.tokenize(text)]
    except reference_lexer.LexError as error:
        return ("error", error.message,
                error.position.line, error.position.column)


def assert_same_lexing(text):
    assert _production(text) == _reference(text), repr(text)


@pytest.mark.parametrize("profile", PROFILES)
def test_printed_profile_sources_lex_identically(profile):
    source = print_program(load_profile(profile, 0.2))
    assert_same_lexing(source)
    assert_same_lexing("/* header\n  comment */\n" + source + "// tail")


def test_seeded_fragment_strings_lex_identically():
    rng = random.Random(19)
    for _ in range(3000):
        assert_same_lexing("".join(
            rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 24))))


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
@settings(max_examples=400, deadline=None)
def test_fragment_strings_lex_identically(text):
    assert_same_lexing(text)


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_lexes_identically(text):
    assert_same_lexing(text)


def test_errors_inside_a_profile_source_match():
    """An error deep in a multi-line source is reported at the same
    line and column by both lexers."""
    lines = print_program(load_profile("luindex", 0.2)).splitlines()
    rng = random.Random(5)
    for bad in ["%", "²", "/* open", "1x", "/"]:
        row = rng.randrange(len(lines))
        mutated = lines.copy()
        mutated[row] = mutated[row] + " " + bad
        text = "\n".join(mutated)
        assert _production(text)[0] == "error"
        assert_same_lexing(text)
