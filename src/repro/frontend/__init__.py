"""Frontend for the mini-Java surface language.

The main entry point is :func:`parse_program`, which turns source text
into a validated IR :class:`~repro.ir.program.Program`.  It reads a
well-formed source with the statement scanner
(:mod:`repro.frontend.scanner`), straight into the IR builder; any other
source goes whole through the token lexer and recursive-descent parser
(:func:`parse_ast`) and :func:`lower`, which report every error with its
position.
"""

from repro.frontend.errors import FrontendError, LexError, ParseError, SourcePosition
from repro.frontend.lexer import Token, TokenKind, tokenize
from repro.frontend.lowering import lower, parse_program
from repro.frontend.parser import parse_ast, parse_with_diagnostics

__all__ = [
    "parse_program",
    "parse_ast",
    "parse_with_diagnostics",
    "lower",
    "tokenize",
    "Token",
    "TokenKind",
    "FrontendError",
    "LexError",
    "ParseError",
    "SourcePosition",
]
