"""The regex lexer against the character loop it replaced.

``reference_tokenize`` below is the engine's original per-character
tokenizer, kept verbatim as the oracle.  The master-regex
:func:`repro.db.sql.lexer.lex` must produce token for token the same
stream — kind, text and position — on every string literal in the SQL
frontend and engine test modules, and raise the same
:class:`SqlSyntaxError` (message and position) for unterminated string
literals, unterminated quoted identifiers and unexpected characters.
Hypothesis adds random text over the lexer's alphabet.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.sql.lexer import Token, TokenKind, lex
from repro.errors import SqlSyntaxError

# ----------------------------------------------------------------------
# the oracle: the original character-loop tokenizer
# ----------------------------------------------------------------------
_MULTI_CHAR_OPERATORS = ("<=", ">=", "<>", "!=", "==")
_SINGLE_CHAR_OPERATORS = set("+-*/()=<>,.;")

_IDENT_START = set("abcdefghijklmnopqrstuvwxyz_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    position = 0
    length = len(text)
    while position < length:
        character = text[position]
        if character.isspace():
            position += 1
            continue
        if character == "-" and text.startswith("--", position):
            newline = text.find("\n", position)
            position = length if newline == -1 else newline + 1
            continue
        if character.lower() in _IDENT_START:
            start = position
            while (
                position < length and text[position].lower() in _IDENT_CONT
            ):
                position += 1
            tokens.append(
                Token(TokenKind.IDENT, text[start:position], start)
            )
            continue
        if character.isdigit() or (
            character == "."
            and position + 1 < length
            and text[position + 1].isdigit()
        ):
            start = position
            position = _scan_number(text, position)
            tokens.append(
                Token(TokenKind.NUMBER, text[start:position], start)
            )
            continue
        if character == "'":
            start = position
            position += 1
            pieces: list[str] = []
            while True:
                if position >= length:
                    raise SqlSyntaxError("unterminated string literal", start)
                if text[position] == "'":
                    if position + 1 < length and text[position + 1] == "'":
                        pieces.append("'")
                        position += 2
                        continue
                    position += 1
                    break
                pieces.append(text[position])
                position += 1
            tokens.append(Token(TokenKind.STRING, "".join(pieces), start))
            continue
        if character == '"':
            start = position
            end = text.find('"', position + 1)
            if end == -1:
                raise SqlSyntaxError("unterminated quoted identifier", start)
            tokens.append(Token(TokenKind.IDENT, text[start + 1 : end], start))
            position = end + 1
            continue
        matched = False
        for operator in _MULTI_CHAR_OPERATORS:
            if text.startswith(operator, position):
                tokens.append(Token(TokenKind.OPERATOR, operator, position))
                position += len(operator)
                matched = True
                break
        if matched:
            continue
        if character in _SINGLE_CHAR_OPERATORS:
            tokens.append(Token(TokenKind.OPERATOR, character, position))
            position += 1
            continue
        raise SqlSyntaxError(f"unexpected character {character!r}", position)
    tokens.append(Token(TokenKind.EOF, "", length))
    return tokens


def _scan_number(text: str, position: int) -> int:
    length = len(text)
    while position < length and text[position].isdigit():
        position += 1
    if position < length and text[position] == ".":
        position += 1
        while position < length and text[position].isdigit():
            position += 1
    if position < length and text[position] in "eE":
        lookahead = position + 1
        if lookahead < length and text[lookahead] in "+-":
            lookahead += 1
        if lookahead < length and text[lookahead].isdigit():
            position = lookahead
            while position < length and text[position].isdigit():
                position += 1
    return position


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def outcome(tokenize, text: str):
    """Tokens as (kind, text, position), or the error a lexer raised."""
    try:
        tokens = tokenize(text)
    except SqlSyntaxError as error:
        return ("error", str(error), error.position)
    return [(token.kind, token.text, token.position) for token in tokens]


def assert_equivalent(text: str) -> None:
    assert outcome(lambda t: lex(t).tokens, text) == outcome(
        reference_tokenize, text
    ), text


def _string_constants(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
    )


_HERE = Path(__file__).resolve().parent
CORPUS = sorted(
    set(_string_constants(_HERE / "test_sql_frontend.py"))
    | set(_string_constants(_HERE / "test_engine_sql.py"))
)


def test_corpus_is_the_sql_of_both_modules():
    assert len(CORPUS) > 100
    assert any(text.startswith("SELECT") for text in CORPUS)


@pytest.mark.parametrize("index", range(0, len(CORPUS), 25))
def test_every_corpus_string_lexes_identically(index):
    for text in CORPUS[index : index + 25]:
        assert_equivalent(text)


#: ways to break a statement: an unterminated string or quoted
#: identifier, an unexpected character, each at the end, the start and
#: behind a comment
BREAKS = ("'", "'it''s", '"', '"name', "@", "!", "a ? b", "#")


@pytest.mark.parametrize("broken", BREAKS)
def test_errors_have_the_same_message_and_position(broken):
    for text in CORPUS[::7]:
        for variant in (
            f"{text} {broken}",
            f"{broken}{text}",
            f"{text} -- note\n{broken}",
            f"{text}{broken} 1",
        ):
            assert_equivalent(variant)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "-- only a comment",
        "a --c",
        "a --c\n b",
        "--'\n'abc",
        "'abc''",
        "'a'''",
        "'a'' b'",
        "'a' 'b'",
        "'a'''b'",
        "1.e5 .5.3 1e 1e+ 1E-2x 7..8",
        "a<=b>=c<>d!=e==f<g>h",
        "x--y\n-z",
        '"weird name" "" "a""b"',
        "SELECT \u212aelvin FROM t\u212a",
        "a\u00a0b c\u3000d",
        "a\x1cb",
    ],
)
def test_edge_cases(text):
    assert_equivalent(text)


_ALPHABET = st.sampled_from(
    list("abcXYZ_019 \t\n'\"-+*/()=<>!,.;eE@?")
    + ["\u212a", "\u00a0", "--", "''", "1.5", "SELECT", "\u2028"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_ALPHABET, max_size=30).map("".join))
def test_random_text_lexes_identically(text):
    assert_equivalent(text)


def test_non_decimal_digits_are_unexpected_characters():
    # The loop lexed a superscript digit as a NUMBER that int() then
    # rejected; the regex lexer names the character instead.
    with pytest.raises(SqlSyntaxError, match="unexpected character"):
        lex("SELECT a FROM t WHERE a = ²")


def test_shape_replaces_literals_with_typed_slots():
    lexed = lex("SELECT a FROM t WHERE a = 5 AND b > 1.5 AND c = 'it''s'")
    assert lexed.shape == (
        "SELECT a FROM t WHERE a = ?i AND b > ?f AND c = ?s"
    )
    assert [token.text for token in lexed.literals] == ["5", "1.5", "it's"]
    assert [token.slot for token in lexed.literals] == [0, 1, 2]
    # whitespace, comments and literal values do not change the shape
    other = lex("SELECT a  FROM t -- x\n WHERE a = 7 AND b > 2e3 AND c = ''")
    assert other.shape == lexed.shape
    # a quoted identifier keeps its quotes; an int is not a float
    assert lex('SELECT "a" FROM t').shape != lex("SELECT a FROM t").shape
    assert lex("SELECT a FROM t WHERE a = 5").shape != (
        lex("SELECT a FROM t WHERE a = 5.0").shape
    )
