"""Lexer and parser tests."""

import pytest

from repro.db.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    FunctionCall,
    Literal,
)
from repro.db.sql.ast import (
    CreateTable,
    DropTable,
    Explain,
    InsertValues,
    JoinRef,
    ModelJoinRef,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
)
from repro.db.sql.lexer import TokenKind, tokenize
from repro.db.sql.parser import parse_expression, parse_statement
from repro.errors import SqlSyntaxError


class TestLexer:
    def test_tokenizes_identifiers_and_numbers(self):
        tokens = tokenize("SELECT a1 FROM t2")
        kinds = [token.kind for token in tokens]
        assert kinds[:-1] == [TokenKind.IDENT] * 4
        assert kinds[-1] is TokenKind.EOF

    def test_scientific_numbers(self):
        tokens = tokenize("1.5e-3 2E4 .5")
        values = [token.text for token in tokens[:-1]]
        assert values == ["1.5e-3", "2E4", ".5"]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_line_comment_skipped(self):
        tokens = tokenize("a -- comment\n b")
        assert [token.text for token in tokens[:-1]] == ["a", "b"]

    def test_multi_char_operators(self):
        tokens = tokenize("a <= b <> c >= d")
        operators = [
            token.text
            for token in tokens
            if token.kind is TokenKind.OPERATOR
        ]
        assert operators == ["<=", "<>", ">="]

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("a @ b")

    def test_quoted_identifier(self):
        tokens = tokenize('"Weird Name"')
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "Weird Name"


class TestExpressionParsing:
    def test_precedence_multiplication_first(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryOp)
        assert expr.operator == "+"
        assert isinstance(expr.right, BinaryOp)
        assert expr.right.operator == "*"

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.operator == "*"

    def test_and_or_precedence(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert expr.operator == "OR"
        assert expr.right.operator == "AND"

    def test_between_desugars(self):
        expr = parse_expression("x BETWEEN 1 AND 5")
        assert expr.operator == "AND"
        assert expr.left.operator == ">="
        assert expr.right.operator == "<="

    def test_qualified_column(self):
        expr = parse_expression("t.col")
        assert expr == ColumnRef("t.col")

    def test_function_call_uppercased(self):
        expr = parse_expression("sigmoid(x)")
        assert isinstance(expr, FunctionCall)
        assert expr.name == "SIGMOID"

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert expr == FunctionCall("COUNT", ())

    def test_star_only_for_count(self):
        with pytest.raises(SqlSyntaxError):
            parse_expression("SUM(*)")

    def test_case_when(self):
        expr = parse_expression(
            "CASE WHEN x > 0 THEN 1 WHEN x < 0 THEN -1 ELSE 0 END"
        )
        assert isinstance(expr, CaseWhen)
        assert len(expr.branches) == 2
        assert expr.otherwise == Literal.of(0)

    def test_unary_minus_binds_tight(self):
        expr = parse_expression("-x * 2")
        assert expr.operator == "*"

    def test_not_equal_synonyms(self):
        assert parse_expression("a != 1") == parse_expression("a <> 1")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_expression("1 + 2 banana!")


class TestSelectParsing:
    def test_simple_select(self):
        statement = parse_statement("SELECT a, b AS bee FROM t")
        assert isinstance(statement, SelectStatement)
        assert statement.select_items[1].alias == "bee"
        assert statement.from_items == (TableRef("t"),)

    def test_star_and_qualified_star(self):
        statement = parse_statement("SELECT *, t.* FROM t")
        assert isinstance(statement.select_items[0].expression, Star)
        assert statement.select_items[1].expression.qualifier == "t"

    def test_implicit_alias(self):
        statement = parse_statement("SELECT x FROM table1 t1")
        assert statement.from_items[0].alias == "t1"

    def test_comma_join_and_where(self):
        statement = parse_statement(
            "SELECT a.x FROM a, b WHERE a.id = b.id AND a.x > 3"
        )
        assert len(statement.from_items) == 2
        assert statement.where is not None

    def test_ansi_join(self):
        statement = parse_statement(
            "SELECT * FROM a JOIN b ON a.id = b.id"
        )
        item = statement.from_items[0]
        assert isinstance(item, JoinRef)

    def test_subquery(self):
        statement = parse_statement(
            "SELECT q.x FROM (SELECT x FROM t) AS q"
        )
        item = statement.from_items[0]
        assert isinstance(item, SubqueryRef)
        assert item.alias == "q"

    def test_group_by_having_order_limit(self):
        statement = parse_statement(
            "SELECT g, SUM(x) AS s FROM t GROUP BY g HAVING SUM(x) > 1 "
            "ORDER BY g DESC LIMIT 5 OFFSET 2"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None
        assert statement.order_by[0].ascending is False
        assert (statement.limit, statement.offset) == (5, 2)

    def test_distinct(self):
        statement = parse_statement("SELECT DISTINCT a FROM t")
        assert statement.distinct

    def test_model_join(self):
        statement = parse_statement(
            "SELECT * FROM t MODEL JOIN clf USING (a, b)"
        )
        item = statement.from_items[0]
        assert isinstance(item, ModelJoinRef)
        assert item.model_name == "clf"
        assert item.input_columns == ("a", "b")

    def test_model_as_plain_alias(self):
        statement = parse_statement("SELECT * FROM t model")
        assert statement.from_items[0].alias == "model"

    @pytest.mark.parametrize(
        "join",
        ["LEFT JOIN", "RIGHT JOIN", "FULL JOIN", "LEFT OUTER JOIN",
         "right outer join", "FULL OUTER JOIN"],
    )
    def test_outer_joins_fail_typed_naming_the_word(self, join):
        # the join word once became t's alias and the join ran inner
        word = join.split()[0].upper()
        with pytest.raises(SqlSyntaxError, match=f"{word} JOIN"):
            parse_statement(f"SELECT t.id FROM t {join} u ON {word}.id = u.id")

    @pytest.mark.parametrize(
        "word", ["LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "NATURAL"]
    )
    def test_join_words_end_an_implicit_alias(self, word):
        with pytest.raises(SqlSyntaxError, match=word.lower()):
            parse_statement(f"SELECT * FROM t {word.lower()} WHERE x = 1")
        statement = parse_statement(f"SELECT * FROM t AS {word.lower()}")
        assert statement.from_items[0].alias == word.lower()


class TestOtherStatements:
    def test_create_table(self):
        statement = parse_statement(
            "CREATE TABLE t (id INT, v FLOAT) "
            "PARTITION BY (id) PARTITIONS 4 SORTED BY (id, v)"
        )
        assert isinstance(statement, CreateTable)
        assert statement.partition_key == "id"
        assert statement.num_partitions == 4
        assert statement.sort_key == ("id", "v")

    def test_create_table_if_not_exists(self):
        statement = parse_statement(
            "CREATE TABLE IF NOT EXISTS t (a INT)"
        )
        assert statement.if_not_exists

    def test_create_table_unknown_type(self):
        from repro.errors import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            parse_statement("CREATE TABLE t (a BLOB)")

    def test_drop_table(self):
        statement = parse_statement("DROP TABLE IF EXISTS t")
        assert isinstance(statement, DropTable)
        assert statement.if_exists

    def test_insert_values(self):
        statement = parse_statement(
            "INSERT INTO t VALUES (1, -2.5, 'x'), (2, 3.0, 'y')"
        )
        assert isinstance(statement, InsertValues)
        assert statement.rows == ((1, -2.5, "x"), (2, 3.0, "y"))

    def test_insert_with_column_list(self):
        statement = parse_statement("INSERT INTO t (b, a) VALUES (1, 2)")
        assert statement.column_names == ("b", "a")

    def test_insert_null_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("INSERT INTO t VALUES (NULL)")

    def test_explain(self):
        statement = parse_statement("EXPLAIN SELECT a FROM t")
        assert isinstance(statement, Explain)

    def test_unknown_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("UPDATE t SET a = 1")
