"""SQL frontend: lexer, AST and recursive-descent parser.

The dialect covers what the paper's workloads need: DDL with
partitioning and sort keys, ``INSERT ... VALUES``, and SELECT queries
with derived tables, joins (comma and ANSI), GROUP BY / HAVING /
ORDER BY / LIMIT, CASE, CAST, BETWEEN and scalar functions — plus the
paper's envisioned ``MODEL JOIN`` extension (Section 1 / 5.5).
"""

from repro.db.sql.lexer import Lexed, Token, TokenKind, lex, tokenize
from repro.db.sql.parser import parse_expression, parse_lexed, parse_statement

__all__ = [
    "Lexed",
    "Token",
    "TokenKind",
    "lex",
    "tokenize",
    "parse_lexed",
    "parse_statement",
    "parse_expression",
]
