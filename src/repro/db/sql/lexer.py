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


def _floating(raw: str) -> bool:
    """Whether a NUMBER literal's slot is ``?f`` (else ``?i``)."""
    return "." in raw or "e" in raw or "E" in raw


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
            shape.append("?f" if _floating(raw) else "?i")
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


# ----------------------------------------------------------------------
# literal masks: re-lexing a text that differs only in its numbers
# ----------------------------------------------------------------------
#: a NUMBER literal where :func:`lex` starts one in a text with no quote
#: and no comment: not inside an identifier or a number, and not after a
#: ``.`` (``t.5`` lexes as ``t`` ``.5``, so its ``5`` is no literal)
_MASKED_NUMBER = re.compile(
    r"(?<![A-Za-z0-9_.])((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
)


def mask_literals(text: str) -> list[str] | None:
    """*text* split around its NUMBER literals in one regex pass: the
    text between them at even indices, the literals at odd ones.

    None for a text whose token boundaries the pass cannot vouch for: a
    quote (string literal or quoted identifier), a ``--`` comment or a
    non-ASCII character.  Two texts with equal even pieces lex to the
    same tokens but for those NUMBER literals and the positions after
    them (see :class:`MaskedLexed`).
    """
    if not text.isascii() or "'" in text or '"' in text or "--" in text:
        return None
    return _MASKED_NUMBER.split(text)


class MaskedLexed(NamedTuple):
    """A :class:`Lexed` and where its masked literals sit among its
    tokens: what :meth:`relex` needs to lex another text of its mask."""

    lexed: Lexed
    #: text of each masked literal (the odd pieces of its mask)
    numbers: list[str]
    #: token index of each masked literal
    at: tuple[int, ...]
    #: token index of each literal, by slot
    slots: tuple[int, ...]

    @classmethod
    def of(cls, lexed: Lexed, pieces: list[str]) -> "MaskedLexed | None":
        """*lexed* (of the text *pieces* split) with its masked literals
        found among its tokens; None if one is not one of them."""
        tokens = lexed.tokens
        numbers = pieces[1::2]
        at = []
        index = offset = 0
        for gap, raw in zip(pieces[0::2], numbers):
            offset += len(gap)
            while tokens[index].position < offset:
                index += 1
            token = tokens[index]
            if token.position != offset or token.text != raw:
                return None
            at.append(index)
            offset += len(raw)
        slots = tuple(
            index
            for index, token in enumerate(tokens)
            if token.slot is not None
        )
        return cls(lexed, numbers, tuple(at), slots)

    def relex(self, numbers: list[str]) -> Lexed | None:
        """:func:`lex` of the text with this mask and the masked literals
        *numbers*, without lexing it — None when a literal's slot type
        changes (``7`` to ``7.5``: the shape changes with it)."""
        lexed = self.lexed
        if numbers == self.numbers:
            return lexed  # the same literals: the same text
        tokens = lexed.tokens.copy()
        shift = start = 0
        for index, raw, old in zip(self.at, numbers, self.numbers):
            if raw == old and not shift:
                continue
            if _floating(raw) != _floating(old):
                return None
            _shift(tokens, start, index, shift)
            token = tokens[index]
            tokens[index] = _make_token(
                Token, (_NUMBER, raw, token.position + shift, token.slot)
            )
            shift += len(raw) - len(old)
            start = index + 1
        _shift(tokens, start, len(tokens), shift)
        return Lexed(
            tokens,
            lexed.shape,
            tuple(tokens[index] for index in self.slots),
        )


def _shift(tokens: list[Token], start: int, stop: int, shift: int) -> None:
    """Move the positions of ``tokens[start:stop]`` by *shift*."""
    if not shift:
        return
    for index in range(start, stop):
        kind, text, position, slot = tokens[index]
        tokens[index] = _make_token(
            Token, (kind, text, position + shift, slot)
        )


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
