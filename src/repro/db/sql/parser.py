"""Recursive-descent SQL parser."""

from __future__ import annotations

from repro.db.expressions import (
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.db.sql.ast import (
    AlterModel,
    ColumnDefinition,
    CreateModel,
    CreateTable,
    DropTable,
    Explain,
    FromItem,
    InsertSelect,
    InsertValues,
    JoinRef,
    LayerSpec,
    ModelJoinRef,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    Statement,
    SubqueryRef,
    TableRef,
)
from repro.db.sql.lexer import Lexed, Token, TokenKind, lex
from repro.db.types import parse_type_name
from repro.errors import SqlSyntaxError

#: identifiers that terminate an implicit alias position
_STOP_WORDS = {
    "WHERE",
    "GROUP",
    "HAVING",
    "ORDER",
    "LIMIT",
    "OFFSET",
    "ON",
    "JOIN",
    "INNER",
    "AS",
    "UNION",
    "USING",
    "FROM",
    "AND",
    "OR",
    "NOT",
    "BETWEEN",
    "IN",
    # join words: `FROM t LEFT JOIN u` must not read LEFT as t's alias
    "LEFT",
    "RIGHT",
    "FULL",
    "OUTER",
    "CROSS",
    "NATURAL",
}

#: outer joins, which the engine does not run (only inner joins)
_OUTER_JOINS = {"LEFT", "RIGHT", "FULL"}

_AGGREGATE_NAMES = {"SUM", "COUNT", "MIN", "MAX", "AVG"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        position = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[position]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        token = self.advance()
        if not token.is_keyword(word):
            raise SqlSyntaxError(
                f"expected {word}, found {token.text!r}", token.position
            )

    def accept_operator(self, symbol: str) -> bool:
        if self.peek().is_operator(symbol):
            self.advance()
            return True
        return False

    def expect_operator(self, symbol: str) -> None:
        token = self.advance()
        if not token.is_operator(symbol):
            raise SqlSyntaxError(
                f"expected {symbol!r}, found {token.text!r}", token.position
            )

    def expect_identifier(self) -> str:
        token = self.advance()
        if token.kind is not TokenKind.IDENT:
            raise SqlSyntaxError(
                f"expected an identifier, found {token.text!r}",
                token.position,
            )
        return token.text

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        if self.accept_keyword("EXPLAIN"):
            return Explain(self.parse_statement())
        token = self.peek()
        if token.is_keyword("SELECT"):
            statement = self.parse_select()
        elif token.is_keyword("CREATE"):
            if self.peek(1).is_keyword("MODEL"):
                statement = self.parse_create_model()
            else:
                statement = self.parse_create_table()
        elif token.is_keyword("ALTER"):
            statement = self.parse_alter_model()
        elif token.is_keyword("DROP"):
            statement = self.parse_drop_table()
        elif token.is_keyword("INSERT"):
            statement = self.parse_insert()
        else:
            raise SqlSyntaxError(
                f"unexpected start of statement: {token.text!r}",
                token.position,
            )
        self.accept_operator(";")
        return statement

    def finish(self) -> None:
        token = self.peek()
        if token.kind is not TokenKind.EOF:
            raise SqlSyntaxError(
                f"unexpected trailing input: {token.text!r}", token.position
            )

    def _parse_table_name(self) -> str:
        """A table name, optionally schema-qualified (``system.queries``).

        The only schema the engine knows is the virtual read-only
        ``system`` schema; plain names resolve against the user
        catalog.  The dot must be parsed here (the lexer emits it as an
        operator token), so ``a.b`` becomes one qualified name.
        """
        name = self.expect_identifier()
        if self.accept_operator("."):
            name = f"{name}.{self.expect_identifier()}"
        return name

    def parse_create_table(self) -> CreateTable:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self._parse_table_name()
        self.expect_operator("(")
        columns: list[ColumnDefinition] = []
        while True:
            column_name = self.expect_identifier()
            type_name = self.expect_identifier()
            parse_type_name(type_name)  # validate early
            columns.append(ColumnDefinition(column_name, type_name))
            if not self.accept_operator(","):
                break
        self.expect_operator(")")
        partition_key = None
        num_partitions = 1
        sort_key: list[str] = []
        while True:
            if self.accept_keyword("PARTITION"):
                self.expect_keyword("BY")
                self.expect_operator("(")
                partition_key = self.expect_identifier()
                self.expect_operator(")")
                if self.accept_keyword("PARTITIONS"):
                    num_partitions = self._parse_integer()
            elif self.accept_keyword("PARTITIONS"):
                num_partitions = self._parse_integer()
            elif self.accept_keyword("SORTED"):
                self.expect_keyword("BY")
                self.expect_operator("(")
                while True:
                    sort_key.append(self.expect_identifier())
                    if not self.accept_operator(","):
                        break
                self.expect_operator(")")
            else:
                break
        return CreateTable(
            name,
            tuple(columns),
            partition_key=partition_key,
            num_partitions=num_partitions,
            sort_key=tuple(sort_key),
            if_not_exists=if_not_exists,
        )

    def parse_create_model(self) -> CreateModel:
        """``CREATE MODEL name [VERSION v] AS TRAIN|RETRAIN
        DENSE(units [act], ...) ON (SELECT ...) [WITH (k = lit, ...)]``.

        The inner SELECT's last column is the training label; every
        preceding column is a feature (docs/TRAINING.md).
        """
        self.expect_keyword("CREATE")
        self.expect_keyword("MODEL")
        name = self.expect_identifier()
        version = None
        if self.accept_keyword("VERSION"):
            version = self._parse_integer()
        self.expect_keyword("AS")
        if self.accept_keyword("RETRAIN"):
            retrain = True
        else:
            self.expect_keyword("TRAIN")
            retrain = False
        self.expect_keyword("DENSE")
        self.expect_operator("(")
        layers: list[LayerSpec] = []
        while True:
            units = self._parse_integer()
            activation = "linear"
            if self.peek().kind is TokenKind.IDENT:
                activation = self.expect_identifier().lower()
            layers.append(LayerSpec(units, activation))
            if not self.accept_operator(","):
                break
        self.expect_operator(")")
        self.expect_keyword("ON")
        self.expect_operator("(")
        query = self.parse_select()
        self.expect_operator(")")
        options: list[tuple[str, object]] = []
        if self.accept_keyword("WITH"):
            self.expect_operator("(")
            while True:
                key = self.expect_identifier().lower()
                self.expect_operator("=")
                options.append((key, self._parse_literal_value()))
                if not self.accept_operator(","):
                    break
            self.expect_operator(")")
        return CreateModel(
            name,
            tuple(layers),
            query,
            version=version,
            retrain=retrain,
            options=tuple(options),
        )

    def parse_alter_model(self) -> AlterModel:
        self.expect_keyword("ALTER")
        self.expect_keyword("MODEL")
        name = self.expect_identifier()
        self.expect_keyword("SET")
        self.expect_keyword("VERSION")
        return AlterModel(name, self._parse_integer())

    def parse_drop_table(self) -> DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return DropTable(self._parse_table_name(), if_exists=if_exists)

    def parse_insert(self) -> Statement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table_name = self._parse_table_name()
        column_names: list[str] = []
        if self.peek().is_operator("(") and not self.peek(1).is_keyword(
            "SELECT"
        ):
            self.expect_operator("(")
            while True:
                column_names.append(self.expect_identifier())
                if not self.accept_operator(","):
                    break
            self.expect_operator(")")
        if self.peek().is_keyword("SELECT"):
            query = self.parse_select()
            return InsertSelect(table_name, query, tuple(column_names))
        self.expect_keyword("VALUES")
        rows: list[tuple[object, ...]] = []
        while True:
            self.expect_operator("(")
            row: list[object] = []
            while True:
                row.append(self._parse_literal_value())
                if not self.accept_operator(","):
                    break
            self.expect_operator(")")
            rows.append(tuple(row))
            if not self.accept_operator(","):
                break
        return InsertValues(table_name, tuple(rows), tuple(column_names))

    def _parse_literal_value(self) -> object:
        negative = False
        if self.accept_operator("-"):
            negative = True
        token = self.advance()
        if token.kind is TokenKind.NUMBER:
            value = _number_value(token.text)
            return -value if negative else value
        if negative:
            raise SqlSyntaxError("expected a number after '-'", token.position)
        if token.kind is TokenKind.STRING:
            return token.text
        if token.is_keyword("TRUE"):
            return True
        if token.is_keyword("FALSE"):
            return False
        if token.is_keyword("NULL"):
            raise SqlSyntaxError(
                "NULL values are not supported by this engine",
                token.position,
            )
        raise SqlSyntaxError(
            f"expected a literal, found {token.text!r}", token.position
        )

    def _parse_integer(self) -> int:
        token = self.advance()
        if token.kind is not TokenKind.NUMBER or "." in token.text:
            raise SqlSyntaxError(
                f"expected an integer, found {token.text!r}", token.position
            )
        return int(token.text)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def parse_select(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        select_items = [self._parse_select_item()]
        while self.accept_operator(","):
            select_items.append(self._parse_select_item())
        self.expect_keyword("FROM")
        from_items = [self._parse_from_item()]
        while self.accept_operator(","):
            from_items.append(self._parse_from_item())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        group_by: list[Expression] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self.accept_operator(","):
                group_by.append(self.parse_expression())
        having = None
        if self.accept_keyword("HAVING"):
            having = self.parse_expression()
        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                expression = self.parse_expression()
                ascending = True
                if self.accept_keyword("DESC"):
                    ascending = False
                else:
                    self.accept_keyword("ASC")
                order_by.append(OrderItem(expression, ascending))
                if not self.accept_operator(","):
                    break
        limit = None
        offset = 0
        if self.accept_keyword("LIMIT"):
            limit = self._parse_integer()
            if self.accept_keyword("OFFSET"):
                offset = self._parse_integer()
        return SelectStatement(
            tuple(select_items),
            tuple(from_items),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_item(self) -> SelectItem:
        if self.peek().is_operator("*"):
            self.advance()
            return SelectItem(Star())
        if (
            self.peek().kind is TokenKind.IDENT
            and self.peek(1).is_operator(".")
            and self.peek(2).is_operator("*")
        ):
            qualifier = self.expect_identifier()
            self.advance()
            self.advance()
            return SelectItem(Star(qualifier))
        expression = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif (
            self.peek().kind is TokenKind.IDENT
            and self.peek().text.upper() not in _STOP_WORDS
        ):
            alias = self.expect_identifier()
        return SelectItem(expression, alias)

    def _parse_from_item(self) -> FromItem:
        item = self._parse_primary_from()
        while True:
            token = self.peek()
            if (
                token.kind is TokenKind.IDENT
                and token.text.upper() in _OUTER_JOINS
                and (
                    self.peek(1).is_keyword("JOIN")
                    or self.peek(1).is_keyword("OUTER")
                )
            ):
                raise SqlSyntaxError(
                    f"{token.text.upper()} JOIN is not supported: only "
                    "inner joins (JOIN, INNER JOIN, comma lists) and "
                    "MODEL JOIN",
                    token.position,
                )
            if self.accept_keyword("INNER"):
                self.expect_keyword("JOIN")
                right = self._parse_primary_from()
                self.expect_keyword("ON")
                item = JoinRef(item, right, self.parse_expression())
            elif self.peek().is_keyword("JOIN"):
                self.advance()
                right = self._parse_primary_from()
                self.expect_keyword("ON")
                item = JoinRef(item, right, self.parse_expression())
            elif self.peek().is_keyword("MODEL") and self.peek(1).is_keyword(
                "JOIN"
            ):
                self.advance()
                self.advance()
                model_name = self.expect_identifier()
                version: int | None = None
                if self.accept_keyword("VERSION"):
                    version = self._parse_integer()
                input_columns: list[str] = []
                if self.accept_keyword("USING"):
                    self.expect_operator("(")
                    while True:
                        input_columns.append(self.expect_identifier())
                        if not self.accept_operator(","):
                            break
                    self.expect_operator(")")
                variant: str | None = None
                if self.accept_keyword("VARIANT"):
                    token = self.peek()
                    if token.kind is TokenKind.STRING:
                        self.advance()
                        variant = token.text
                    else:
                        variant = self.expect_identifier()
                item = ModelJoinRef(
                    item,
                    model_name,
                    tuple(input_columns),
                    variant=variant,
                    version=version,
                )
            else:
                return item

    def _parse_primary_from(self) -> FromItem:
        if self.accept_operator("("):
            query = self.parse_select()
            self.expect_operator(")")
            self.accept_keyword("AS")
            alias = self.expect_identifier()
            return SubqueryRef(query, alias)
        name = self._parse_table_name()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif (
            self.peek().kind is TokenKind.IDENT
            and self.peek().text.upper() not in _STOP_WORDS
            and not (
                self.peek().is_keyword("MODEL")
                and self.peek(1).is_keyword("JOIN")
            )
        ):
            alias = self.expect_identifier()
        return TableRef(name, alias)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self.accept_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.text in (
            "=",
            "==",
            "<>",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
        ):
            self.advance()
            operator = {"==": "=", "!=": "<>"}.get(token.text, token.text)
            return BinaryOp(operator, left, self._parse_additive())
        if token.is_keyword("BETWEEN"):
            self.advance()
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return BinaryOp(
                "AND",
                BinaryOp(">=", left, low),
                BinaryOp("<=", left, high),
            )
        negated = False
        if token.is_keyword("NOT") and self.peek(1).is_keyword("IN"):
            self.advance()
            token = self.peek()
            negated = True
        if token.is_keyword("IN"):
            self.advance()
            self.expect_operator("(")
            candidates = [self.parse_expression()]
            while self.accept_operator(","):
                candidates.append(self.parse_expression())
            self.expect_operator(")")
            membership: Expression = BinaryOp("=", left, candidates[0])
            for candidate in candidates[1:]:
                membership = BinaryOp(
                    "OR", membership, BinaryOp("=", left, candidate)
                )
            if negated:
                return UnaryOp("NOT", membership)
            return membership
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            if self.accept_operator("+"):
                left = BinaryOp("+", left, self._parse_multiplicative())
            elif self.accept_operator("-"):
                left = BinaryOp("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            if self.accept_operator("*"):
                left = BinaryOp("*", left, self._parse_unary())
            elif self.accept_operator("/"):
                left = BinaryOp("/", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        if self.accept_operator("-"):
            return UnaryOp("-", self._parse_unary())
        if self.accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.peek()
        if token.kind is TokenKind.NUMBER or token.kind is TokenKind.STRING:
            self.advance()
            return Literal.of(literal_value(token), token.slot)
        if token.is_keyword("TRUE"):
            self.advance()
            return Literal.of(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Literal.of(False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("CAST"):
            return self._parse_cast()
        if token.kind is TokenKind.IDENT:
            return self._parse_identifier_expression()
        if self.accept_operator("("):
            expression = self.parse_expression()
            self.expect_operator(")")
            return expression
        raise SqlSyntaxError(
            f"unexpected token {token.text!r} in expression", token.position
        )

    def _parse_case(self) -> Expression:
        self.expect_keyword("CASE")
        branches: list[tuple[Expression, Expression]] = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expression()
            self.expect_keyword("THEN")
            branches.append((condition, self.parse_expression()))
        otherwise = None
        if self.accept_keyword("ELSE"):
            otherwise = self.parse_expression()
        self.expect_keyword("END")
        if not branches:
            raise SqlSyntaxError("CASE requires at least one WHEN branch")
        return CaseWhen(tuple(branches), otherwise)

    def _parse_cast(self) -> Expression:
        self.expect_keyword("CAST")
        self.expect_operator("(")
        operand = self.parse_expression()
        self.expect_keyword("AS")
        type_name = self.expect_identifier()
        self.expect_operator(")")
        return Cast(operand, parse_type_name(type_name))

    def _parse_identifier_expression(self) -> Expression:
        name = self.expect_identifier()
        if self.peek().is_operator("("):
            self.advance()
            arguments: list[Expression] = []
            if self.accept_operator("*"):
                if name.upper() != "COUNT":
                    raise SqlSyntaxError(
                        f"'*' argument is only valid for COUNT, not {name}"
                    )
                self.expect_operator(")")
                return FunctionCall("COUNT", ())
            if not self.peek().is_operator(")"):
                arguments.append(self.parse_expression())
                while self.accept_operator(","):
                    arguments.append(self.parse_expression())
            self.expect_operator(")")
            return FunctionCall(name.upper(), tuple(arguments))
        if self.accept_operator("."):
            column = self.expect_identifier()
            return ColumnRef(f"{name}.{column}")
        return ColumnRef(name)


def _number_value(text: str) -> int | float:
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def literal_value(token: Token) -> int | float | str:
    """The value a NUMBER or STRING token parses to."""
    if token.kind is TokenKind.NUMBER:
        return _number_value(token.text)
    return token.text


def parse_statement(text: str) -> Statement:
    """Parse a single SQL statement; raises on trailing input."""
    return parse_lexed(lex(text))


def parse_lexed(lexed: Lexed) -> Statement:
    """Parse the tokens of one lexed statement (see :func:`lex`)."""
    parser = _Parser(lexed.tokens)
    statement = parser.parse_statement()
    parser.finish()
    return statement


def parse_expression(text: str) -> Expression:
    """Parse a standalone scalar expression (used by tests and tools)."""
    parser = _Parser(lex(text).tokens)
    expression = parser.parse_expression()
    parser.finish()
    return expression


def is_aggregate_call(expression: Expression) -> bool:
    """Whether *expression* is a direct aggregate function call."""
    return (
        isinstance(expression, FunctionCall)
        and expression.name in _AGGREGATE_NAMES
    )
