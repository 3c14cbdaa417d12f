"""Recursive-descent parser for the mini-Java surface language.

Grammar (EBNF)::

    program     := (classdecl | mainblock)* EOF
    classdecl   := "class" IDENT ("extends" IDENT)? "{" member* "}"
    member      := "static"? ("field" fieldrest | "method" methodrest)
    fieldrest   := IDENT ":" IDENT ";"
    methodrest  := IDENT "(" params? ")" "{" stmt* "}"
    mainblock   := "main" "{" stmt* "}"
    stmt        := "return" IDENT ";" | "throw" IDENT ";"
                 | IDENT stmt_after_ident
    stmt_after_ident :=
                   "=" rhs ";"
                 | "." IDENT ("=" IDENT ";" | "(" args? ")" ";")
                 | "::" IDENT ("=" IDENT ";" | "(" args? ")" ";")
    rhs         := "new" IDENT "(" ")"
                 | "null"
                 | "catch" "(" IDENT ")"
                 | "(" IDENT ")" IDENT
                 | IDENT ("." IDENT call?)? | IDENT ("::" IDENT call?)?

Exactly one ``main`` block is required.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.frontend.ast import (
    AstCast,
    AstCatch,
    AstClass,
    AstCopy,
    AstField,
    AstInvoke,
    AstLoad,
    AstMethod,
    AstNew,
    AstNull,
    AstProgram,
    AstReturn,
    AstStatement,
    AstStaticInvoke,
    AstStaticLoad,
    AstStaticStore,
    AstStore,
    AstThrow,
)
from repro.frontend.errors import LexError, ParseError
from repro.frontend.lexer import Token, TokenKind, tokenize

__all__ = ["parse_ast", "parse_with_diagnostics"]


class _Parser:
    def __init__(self, tokens: List[Token], collect_errors: bool = False) -> None:
        self._tokens = tokens
        self._index = 0
        self._collect_errors = collect_errors
        self.errors: List[ParseError] = []

    # -- token plumbing -------------------------------------------------
    def _peek(self) -> Token:
        # ``_advance`` never moves past the trailing EOF token.
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != TokenKind.EOF:
            self._index += 1
        return token

    def _check(self, kind: str) -> bool:
        return self._peek().kind == kind

    def _match(self, kind: str) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: str, what: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {what}, found {token.text or 'end of input'!r}",
                token.position,
            )
        return self._advance()

    # -- grammar productions ---------------------------------------------
    def parse_program(self) -> AstProgram:
        program = AstProgram()
        while not self._check(TokenKind.EOF):
            token = self._peek()
            if token.kind == TokenKind.CLASS:
                program.classes.append(self._parse_class())
            elif token.kind == TokenKind.MAIN:
                if program.main_position is not None:
                    raise ParseError("duplicate main block", token.position)
                program.main_position = token.position
                program.main_statements = self._parse_main()
            else:
                raise ParseError(
                    f"expected 'class' or 'main', found {token.text!r}",
                    token.position,
                )
        if program.main_position is None:
            raise ParseError("program has no main block", self._peek().position)
        return program

    def _parse_class(self) -> AstClass:
        start = self._expect(TokenKind.CLASS, "'class'")
        name = self._expect(TokenKind.IDENT, "class name").text
        superclass: Optional[str] = None
        if self._match(TokenKind.EXTENDS):
            superclass = self._expect(TokenKind.IDENT, "superclass name").text
        self._expect(TokenKind.LBRACE, "'{'")
        fields: List[AstField] = []
        methods: List[AstMethod] = []
        while not self._check(TokenKind.RBRACE):
            member_pos = self._peek().position
            is_static = self._match(TokenKind.STATIC) is not None
            if self._match(TokenKind.FIELD):
                fields.append(self._parse_field(is_static, member_pos))
            elif self._match(TokenKind.METHOD):
                methods.append(self._parse_method(is_static, member_pos))
            else:
                raise ParseError(
                    f"expected 'field' or 'method', found {self._peek().text!r}",
                    self._peek().position,
                )
        self._expect(TokenKind.RBRACE, "'}'")
        return AstClass(name, superclass, tuple(fields), tuple(methods), start.position)

    def _parse_field(self, is_static: bool, position) -> AstField:
        name = self._expect(TokenKind.IDENT, "field name").text
        self._expect(TokenKind.COLON, "':'")
        declared_type = self._expect(TokenKind.IDENT, "field type").text
        self._expect(TokenKind.SEMI, "';'")
        return AstField(name, declared_type, is_static, position)

    def _parse_method(self, is_static: bool, position) -> AstMethod:
        name = self._expect(TokenKind.IDENT, "method name").text
        self._expect(TokenKind.LPAREN, "'('")
        params: List[str] = []
        if not self._check(TokenKind.RPAREN):
            params.append(self._expect(TokenKind.IDENT, "parameter name").text)
            while self._match(TokenKind.COMMA):
                params.append(self._expect(TokenKind.IDENT, "parameter name").text)
        self._expect(TokenKind.RPAREN, "')'")
        self._expect(TokenKind.LBRACE, "'{'")
        statements = self._parse_statements()
        self._expect(TokenKind.RBRACE, "'}'")
        return AstMethod(name, tuple(params), is_static, tuple(statements), position)

    def _parse_main(self) -> Tuple[AstStatement, ...]:
        self._expect(TokenKind.MAIN, "'main'")
        self._expect(TokenKind.LBRACE, "'{'")
        statements = self._parse_statements()
        self._expect(TokenKind.RBRACE, "'}'")
        return tuple(statements)

    def _parse_statements(self) -> List[AstStatement]:
        statements: List[AstStatement] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError("unexpected end of input inside a block",
                                 self._peek().position)
            if not self._collect_errors:
                statements.append(self._parse_statement())
                continue
            try:
                statements.append(self._parse_statement())
            except ParseError as error:
                self.errors.append(error)
                self._synchronize()
        return statements

    def _synchronize(self) -> None:
        """Error recovery: skip to just past the next ';' (or stop at a
        closing brace / end of input) so later statements still parse."""
        while True:
            token = self._peek()
            if token.kind in (TokenKind.RBRACE, TokenKind.EOF):
                return
            self._advance()
            if token.kind == TokenKind.SEMI:
                return

    def _parse_statement(self) -> AstStatement:
        token = self._peek()
        if token.kind == TokenKind.RETURN:
            self._advance()
            source = self._expect(TokenKind.IDENT, "variable name").text
            self._expect(TokenKind.SEMI, "';'")
            return AstReturn(token.position, source)
        if token.kind == TokenKind.THROW:
            self._advance()
            source = self._expect(TokenKind.IDENT, "variable name").text
            self._expect(TokenKind.SEMI, "';'")
            return AstThrow(token.position, source)
        first = self._expect(TokenKind.IDENT, "a statement")
        if self._match(TokenKind.ASSIGN):
            return self._parse_assignment(first)
        if self._match(TokenKind.DOT):
            return self._parse_dot_statement(first)
        if self._match(TokenKind.DOUBLE_COLON):
            return self._parse_static_statement(first)
        raise ParseError(
            f"expected '=', '.', or '::' after {first.text!r}", self._peek().position
        )

    def _parse_assignment(self, target: Token) -> AstStatement:
        pos = target.position
        if self._match(TokenKind.NEW):
            class_name = self._expect(TokenKind.IDENT, "class name").text
            self._expect(TokenKind.LPAREN, "'('")
            self._expect(TokenKind.RPAREN, "')'")
            self._expect(TokenKind.SEMI, "';'")
            return AstNew(pos, target.text, class_name)
        if self._match(TokenKind.NULL):
            self._expect(TokenKind.SEMI, "';'")
            return AstNull(pos, target.text)
        if self._match(TokenKind.CATCH):
            self._expect(TokenKind.LPAREN, "'('")
            class_name = self._expect(TokenKind.IDENT, "exception type").text
            self._expect(TokenKind.RPAREN, "')'")
            self._expect(TokenKind.SEMI, "';'")
            return AstCatch(pos, target.text, class_name)
        if self._match(TokenKind.LPAREN):
            class_name = self._expect(TokenKind.IDENT, "cast type").text
            self._expect(TokenKind.RPAREN, "')'")
            source = self._expect(TokenKind.IDENT, "variable name").text
            self._expect(TokenKind.SEMI, "';'")
            return AstCast(pos, target.text, class_name, source)
        source = self._expect(TokenKind.IDENT, "right-hand side").text
        if self._match(TokenKind.DOT):
            member = self._expect(TokenKind.IDENT, "member name").text
            if self._match(TokenKind.LPAREN):
                args = self._parse_args()
                self._expect(TokenKind.SEMI, "';'")
                return AstInvoke(pos, target.text, source, member, args)
            self._expect(TokenKind.SEMI, "';'")
            return AstLoad(pos, target.text, source, member)
        if self._match(TokenKind.DOUBLE_COLON):
            member = self._expect(TokenKind.IDENT, "member name").text
            if self._match(TokenKind.LPAREN):
                args = self._parse_args()
                self._expect(TokenKind.SEMI, "';'")
                return AstStaticInvoke(pos, target.text, source, member, args)
            self._expect(TokenKind.SEMI, "';'")
            return AstStaticLoad(pos, target.text, source, member)
        self._expect(TokenKind.SEMI, "';'")
        return AstCopy(pos, target.text, source)

    def _parse_dot_statement(self, base: Token) -> AstStatement:
        member = self._expect(TokenKind.IDENT, "member name").text
        if self._match(TokenKind.ASSIGN):
            source = self._expect(TokenKind.IDENT, "variable name").text
            self._expect(TokenKind.SEMI, "';'")
            return AstStore(base.position, base.text, member, source)
        self._expect(TokenKind.LPAREN, "'(' or '='")
        args = self._parse_args()
        self._expect(TokenKind.SEMI, "';'")
        return AstInvoke(base.position, None, base.text, member, args)

    def _parse_static_statement(self, class_token: Token) -> AstStatement:
        member = self._expect(TokenKind.IDENT, "member name").text
        if self._match(TokenKind.ASSIGN):
            source = self._expect(TokenKind.IDENT, "variable name").text
            self._expect(TokenKind.SEMI, "';'")
            return AstStaticStore(class_token.position, class_token.text, member, source)
        self._expect(TokenKind.LPAREN, "'(' or '='")
        args = self._parse_args()
        self._expect(TokenKind.SEMI, "';'")
        return AstStaticInvoke(class_token.position, None, class_token.text, member, args)

    def _parse_args(self) -> Tuple[str, ...]:
        args: List[str] = []
        if not self._check(TokenKind.RPAREN):
            args.append(self._expect(TokenKind.IDENT, "argument name").text)
            while self._match(TokenKind.COMMA):
                args.append(self._expect(TokenKind.IDENT, "argument name").text)
        self._expect(TokenKind.RPAREN, "')'")
        return tuple(args)


def parse_ast(source: str) -> AstProgram:
    """Parse ``source`` text into an :class:`AstProgram` (first error
    raises)."""
    return _Parser(tokenize(source)).parse_program()


def parse_with_diagnostics(source: str):
    """Parse with statement-level error recovery.

    Returns ``(ast_or_none, errors)``: statement-level errors are
    collected (parsing resumes after the next ``;``), declaration-level
    errors still abort (returning ``None`` plus everything collected so
    far, ending with the fatal error).  A lexical error is fatal too:
    ``(None, [lex_error])``.
    """
    try:
        parser = _Parser(tokenize(source), collect_errors=True)
        ast = parser.parse_program()
    except LexError as fatal:
        return None, [fatal]
    except ParseError as fatal:
        return None, [*parser.errors, fatal]
    return ast, parser.errors
