"""Differential tests: the statement scanner against the token parser.

``parse_program`` reads a well-formed source with the statement scanner
(``repro.frontend.scanner``) and parses anything else with the token
lexer and parser.  On every input it must agree with
``lower(parse_ast(source))``: the same printed program and the same
statements, site ids included, or the same error with the same message
and position.  Beyond agreeing, the scanner must read every well-formed
source here by itself (``parse_ast`` made to fail), and every error must
come from the token parser.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.frontend.lowering as lowering
from repro.frontend import (
    FrontendError,
    LexError,
    ParseError,
    lower,
    parse_ast,
    parse_program,
    tokenize,
)
from repro.frontend.lexer import TokenKind
from repro.ir.printer import print_program
from repro.workloads import CORPUS, load_profile
from tests.program_strategies import ir_programs
from tests.test_lexer_differential import FRAGMENTS, PROFILES

#: every statement form, a static member of each kind, and classes that
#: are declared after their subclasses, with ``main`` first
ALL_FORMS = """
main {
  b = new B();
  n = null;
  c = b;
  r = b.m(c, n);
  b.m(c, n);
  s = B::make();
  B::make();
  x = (A) r;
  f = b.f;
  b.f = x;
  g = B::sf;
  B::sf = g;
  e = catch (A);
  throw e;
}
class B extends A {
  static field sf: A;
  static method make() { t = new B(); return t; }
  method m(p, q) { this.f = p; return q; }
}
class A { field f: A; method m(p, q) { return p; } }
"""

#: malformed sources and the error the token parser reports for each
MALFORMED = {
    "glued new": ("main { x = newA(); }",
                  ParseError, "1:16", "expected ';', found '('"),
    "glued return": ("class A { method m() { returnx; } } main { }",
                     ParseError, "1:31", "expected '=', '.', or '::' after 'returnx'"),
    "glued class": ("classA { } main { }",
                    ParseError, "1:1", "expected 'class' or 'main', found 'classA'"),
    "glued static": ("class A { staticfield f: A; } main { }",
                     ParseError, "1:11",
                     "expected 'field' or 'method', found 'staticfield'"),
    "keyword as source": ("main { x = new; }",
                          ParseError, "1:15", "expected class name, found ';'"),
    "keyword as base": ("main { x = null.f; }",
                        ParseError, "1:16", "expected ';', found '.'"),
    "unterminated comment": ("main { x = y; /* open }",
                             LexError, "1:15", "unterminated block comment"),
    "numeric head": ("main { ²x = y; }",
                     LexError, "1:8", "unexpected character '²'"),
    "comment in a statement": ("main { x = /* c */ new A ( ) ; y = ; }",
                               ParseError, "1:36",
                               "expected right-hand side, found ';'"),
    "missing main": ("class A { }", ParseError, "1:12", "program has no main block"),
    "duplicate main": ("main { } main { }", ParseError, "1:10", "duplicate main block"),
    "duplicate class": ("class A { }\nclass A { }\nmain { }",
                        ParseError, "2:1", "duplicate class 'A'"),
    "inheritance cycle": ("class A extends B { }\nclass B extends A { }\nmain { }",
                          ParseError, "1:1", "inheritance cycle through 'A'"),
    "unknown superclass": ("main { }\nclass A extends Nope { }",
                           ParseError, "2:1", "unknown superclass 'Nope' of 'A'"),
}


def _outcome(parse, source):
    try:
        program = parse(source)
    except FrontendError as error:
        return type(error), error.message, error.position
    except ValueError as error:
        return type(error), str(error)
    return print_program(program), [
        (method.qualified_name, method.params, method.is_static, method.statements)
        for method in program.all_methods()
    ]


def _token_path(source):
    return lower(parse_ast(source))


def assert_same(source):
    assert (_outcome(parse_program, source)
            == _outcome(_token_path, source)), repr(source)


@contextmanager
def scanner_only():
    """``parse_program`` with the token parser out of reach."""
    def refuse(source):
        raise AssertionError("the source went to the token parser")

    with mock.patch.object(lowering, "parse_ast", refuse):
        yield


def assert_scanned(source):
    """The scanner alone reads ``source``, to the token parser's result."""
    with scanner_only():
        scanned = _outcome(parse_program, source)
    assert scanned == _outcome(_token_path, source), repr(source)


def _tokens(source):
    return [token for token in tokenize(source) if token.kind != TokenKind.EOF]


def _is_word(token):
    return token.text[0] not in "{}();,.:="


def _rejoin(source, gap):
    """The tokens of ``source`` with ``gap(token)`` after each; a space
    keeps two words apart where the gap is empty."""
    out = []
    previous = None
    for token in _tokens(source):
        if previous is not None:
            separator = gap(previous)
            if not separator and _is_word(previous) and _is_word(token):
                separator = " "
            out.append(separator)
        out.append(token.text)
        previous = token
    return "".join(out)


def compact(source):
    """``source`` without comments and without optional whitespace."""
    return _rejoin(source, lambda token: "")


def commented(source, rng, every_gap):
    """``source`` with a comment in every gap between tokens, or (when
    ``every_gap`` is false) only after each ``;``, ``{`` and ``}``."""
    comments = [" /* gap */ ", "/**/", "// gap\n", "\n/* a\n * b */\n"]
    return _rejoin(source, lambda token: rng.choice(comments)
                   if every_gap or token.text in ";{}" else "")


@pytest.fixture(scope="module")
def profile_sources():
    return {name: print_program(load_profile(name, 0.2)) for name in PROFILES}


@pytest.mark.parametrize("profile", PROFILES)
def test_profile_sources_are_scanned_identically(profile, profile_sources):
    source = profile_sources[profile]
    assert_scanned(source)
    assert_scanned(compact(source))
    assert_scanned(commented(source, random.Random(profile), every_gap=False))


@pytest.mark.parametrize("profile", PROFILES)
def test_comments_in_every_gap_parse_identically(profile, profile_sources):
    source = profile_sources[profile]
    assert_same(commented(source, random.Random(profile), every_gap=True))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_programs_are_scanned(name):
    assert_scanned(CORPUS[name])


def test_every_form_is_scanned_in_inheritance_order():
    """Site ids follow the sorted classes and then ``main``, as the
    token path numbers them, although the text has ``main`` first and
    subclasses before superclasses."""
    assert_scanned(ALL_FORMS)
    assert_scanned(compact(ALL_FORMS))
    assert_scanned(commented(ALL_FORMS, random.Random(3), every_gap=False))
    assert_same(commented(ALL_FORMS, random.Random(3), every_gap=True))


def test_non_ascii_names_are_scanned():
    assert_scanned("class Été { field ß: Été; }\n"
                   "main { é = new Été(); é.ß = é; }")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_source_reaches_the_token_parser(case):
    source, kind, where, message = MALFORMED[case]
    calls = []

    def spy(text):
        calls.append(text)
        return parse_ast(text)

    with mock.patch.object(lowering, "parse_ast", spy):
        with pytest.raises(kind) as raised:
            parse_program(source)
    assert calls == [source]
    assert (str(raised.value.position), raised.value.message) == (where, message)
    assert_same(source)


@pytest.mark.parametrize("source", [
    "class A { field f: A; field f: A; }\nmain { }",
    "class A { method m() { } method m() { } }\nmain { }",
    "class A { field f: A; field f: A; method m() { x = ; } }\nmain { }",
    "class Object extends A { }\nclass A { }\nmain { }",
    "main { a = new Ghost(); }",
    "main { x = y; } // trailing comment",
    "/* only a comment */",
    "",
])
def test_builder_and_validation_errors_match(source):
    assert_same(source)


@given(ir_programs())
@settings(max_examples=60, deadline=None)
def test_printed_programs_are_scanned_identically(program):
    source = print_program(program)
    assert_scanned(source)
    assert_scanned(compact(source))


def test_seeded_fragment_bodies_parse_identically():
    rng = random.Random(21)
    for _ in range(2000):
        body = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 12)))
        assert_same(f"main {{ {body} }}")
        assert_same(f"class A {{ method m(p) {{ {body} }} }}\nmain {{ }}")


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=20).map("".join))
@settings(max_examples=300, deadline=None)
def test_fragment_bodies_parse_identically(body):
    assert_same(f"main {{ {body} }}")
