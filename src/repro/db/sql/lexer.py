"""SQL tokenizer: one compiled master regex, and the statement's shape.

:func:`lex` splits SQL text into tokens with a single
``re.finditer`` pass (one match per token, the whitespace and comments
before it included) and, in the same pass, renders the statement's
*shape*: the token stream with every NUMBER/STRING literal replaced by
a slot typed by what it parses to (``?i`` int, ``?f`` float, ``?s``
string).  Two statements with equal shapes parse to the same tree up
to their literal values, which is what the plan cache
(:mod:`repro.db.plan.cache`) keys on.

The token classes are those of the original character loop, written
as regex classes: ``\\s`` is exactly ``str.isspace``; identifiers are
ASCII letters, digits and ``_`` plus the Kelvin sign, the one
non-ASCII character whose ``lower()`` is an ASCII letter; a number is
digits with an optional fraction and an exponent only when a digit
follows it.  The one deliberate difference is ``\\d`` (decimal digits)
where the loop used ``str.isdigit``: superscript or circled digits,
which the loop lexed as NUMBER and then crashed ``int()`` on, are now
an unexpected character.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import SqlSyntaxError


class TokenKind(enum.Enum):
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    EOF = "EOF"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    position: int
    #: literal slot of a NUMBER/STRING token (its index among the
    #: statement's literals); None for every other token
    slot: int | None = None

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.IDENT and self.text.upper() == word

    def is_operator(self, symbol: str) -> bool:
        return self.kind is TokenKind.OPERATOR and self.text == symbol


class Lexed(NamedTuple):
    """One statement's tokens, shape and literal tokens (by slot)."""

    tokens: list[Token]
    shape: str
    literals: tuple[Token, ...]


#: one match per token: the whitespace and ``--`` comments before it
#: (captured inside a lookahead, which makes the skip atomic — a
#: comment must never be re-read as two minus signs), then exactly one
#: token group, or the end of the text
_TOKEN = re.compile(
    r"(?=(?P<skip>(?:\s+|--[^\n]*\n?)*))(?P=skip)(?:"
    r"(?P<ident>[A-Za-z_\u212a][A-Za-z0-9_\u212a]*)"
    r"|(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    # a quote pair inside a string is an escaped quote, so a closing
    # quote is one not followed by another
    r"|(?P<string>'[^']*(?:''[^']*)*'(?!'))"
    r'|(?P<quoted>"[^"]*")'
    r"|(?P<operator><=|>=|<>|!=|==|[-+*/()=<>,.;])"
    r"|(?P<end>\Z))"
)
_SKIP = re.compile(r"(?:\s+|--[^\n]*\n?)*")
_GROUP = _TOKEN.groupindex
_IDENT_GROUP = _GROUP["ident"]
_NUMBER_GROUP = _GROUP["number"]
_STRING_GROUP = _GROUP["string"]
_QUOTED_GROUP = _GROUP["quoted"]
_OPERATOR_GROUP = _GROUP["operator"]

_IDENT = TokenKind.IDENT
_NUMBER = TokenKind.NUMBER
_STRING = TokenKind.STRING
_OPERATOR = TokenKind.OPERATOR
_make_token = tuple.__new__


def lex(text: str) -> Lexed:
    """Tokens, shape and literals of SQL *text*; raises on bad input."""
    tokens: list[Token] = []
    shape: list[str] = []
    literals: list[Token] = []
    position = 0
    for match in _TOKEN.finditer(text):
        if match.start() != position:
            _fail(text, position)
        position = match.end()
        group = match.lastindex
        raw = match[group]
        start = position - len(raw)
        if group == _IDENT_GROUP or group == _OPERATOR_GROUP:
            kind = _IDENT if group == _IDENT_GROUP else _OPERATOR
            tokens.append(_make_token(Token, (kind, raw, start, None)))
            shape.append(raw)
        elif group == _NUMBER_GROUP:
            token = _make_token(
                Token, (_NUMBER, raw, start, len(literals))
            )
            literals.append(token)
            tokens.append(token)
            floating = "." in raw or "e" in raw or "E" in raw
            shape.append("?f" if floating else "?i")
        elif group == _STRING_GROUP:
            value = raw[1:-1].replace("''", "'")
            token = _make_token(
                Token, (_STRING, value, start, len(literals))
            )
            literals.append(token)
            tokens.append(token)
            shape.append("?s")
        elif group == _QUOTED_GROUP:  # the shape keeps the quotes
            token = _make_token(Token, (_IDENT, raw[1:-1], start, None))
            tokens.append(token)
            shape.append(raw)
    tokens.append(Token(TokenKind.EOF, "", len(text)))
    return Lexed(tokens, " ".join(shape), tuple(literals))


def tokenize(text: str) -> list[Token]:
    """Split SQL *text* into tokens; raises on unknown characters."""
    return lex(text).tokens


def _fail(text: str, position: int) -> None:
    """Raise the syntax error for the first character after *position*
    (and the whitespace or comments there) that starts no token."""
    position = _SKIP.match(text, position).end()
    character = text[position]
    if character == "'":
        raise SqlSyntaxError("unterminated string literal", position)
    if character == '"':
        raise SqlSyntaxError("unterminated quoted identifier", position)
    raise SqlSyntaxError(f"unexpected character {character!r}", position)
