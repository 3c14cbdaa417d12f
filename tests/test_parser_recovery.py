"""Tests for statement-level parse-error recovery."""

from repro.frontend import LexError, parse_with_diagnostics
from repro.frontend.ast import AstCopy, AstNew


def test_clean_source_has_no_errors():
    ast, errors = parse_with_diagnostics("main { a = new A(); }")
    assert errors == []
    assert len(ast.main_statements) == 1


def test_recovers_past_bad_statement():
    ast, errors = parse_with_diagnostics(
        "main { a = new A(); b = ; c = a; }"
    )
    assert len(errors) == 1
    kinds = [type(s) for s in ast.main_statements]
    assert kinds == [AstNew, AstCopy]  # the bad statement is dropped


def test_collects_multiple_errors():
    ast, errors = parse_with_diagnostics(
        "main { x = ; y = ; z = new A(); }"
    )
    assert len(errors) == 2
    assert len(ast.main_statements) == 1
    # positions are distinct and ordered
    assert errors[0].position.column < errors[1].position.column


def test_recovery_inside_method_bodies():
    source = """
    class A {
      method m() {
        bad stuff here;
        x = new A();
        return x;
      }
    }
    main { a = new A(); a.m(); }
    """
    ast, errors = parse_with_diagnostics(source)
    assert len(errors) == 1
    method = ast.classes[0].methods[0]
    assert len(method.statements) == 2


def test_declaration_level_errors_still_fatal():
    ast, errors = parse_with_diagnostics("class { } main { }")
    assert ast is None
    assert errors
    assert "class name" in errors[-1].message


def test_unclosed_block_reported():
    ast, errors = parse_with_diagnostics("main { a = new A();")
    assert ast is None
    assert any("end of input" in e.message for e in errors)


def test_lexical_error_is_returned_not_raised():
    ast, errors = parse_with_diagnostics("main { a = %; }")
    assert ast is None
    assert [type(e) for e in errors] == [LexError]
    assert errors[0].message == "unexpected character '%'"
    assert (errors[0].position.line, errors[0].position.column) == (1, 12)


def test_unclosed_block_comment_is_returned_not_raised():
    ast, errors = parse_with_diagnostics("main { a = new A(); }\n/* never")
    assert ast is None
    assert [type(e) for e in errors] == [LexError]
    assert "unterminated block comment" in errors[0].message
    assert (errors[0].position.line, errors[0].position.column) == (2, 1)
