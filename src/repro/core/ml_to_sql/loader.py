"""Loading a model into its relational table.

The framework "generates SQL code to automatically load a Python model
object into the relational table representation" (Section 4.1):
:func:`insert_statements` yields exactly those ``CREATE TABLE`` /
``INSERT`` statements.  :func:`load_model_table` is the fast path that
creates the table through the engine API and appends the columns in
one batch — both paths produce identical tables (tested).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.ml_to_sql.representation import (
    MlToSqlOptions,
    RelationalModel,
    build_relational_model,
    model_table_schema,
)
from repro.db.engine import Database
from repro.db.types import SqlType
from repro.nn.model import Sequential


def _create_table_sql(
    relational: RelationalModel, table_name: str
) -> str:
    schema = model_table_schema(relational.options)
    columns = ", ".join(
        f"{column.name} {'INTEGER' if column.sql_type is SqlType.INTEGER else 'FLOAT'}"
        for column in schema
    )
    suffix = ""
    if relational.options.sort_tables:
        suffix = " SORTED BY (node)"
    if relational.options.model_table_partitions > 1:
        suffix += (
            f" PARTITIONS {relational.options.model_table_partitions}"
        )
    return f"CREATE TABLE {table_name} ({columns}){suffix}"


def insert_statements(
    relational: RelationalModel,
    table_name: str,
    rows_per_statement: int = 256,
) -> Iterator[str]:
    """Yield the DDL + INSERT statements that load the model table."""
    yield _create_table_sql(relational, table_name)
    for start in range(0, relational.edge_count, rows_per_statement):
        rows = zip(
            *(
                column[start : start + rows_per_statement].tolist()
                for column in relational.columns.values()
            )
        )
        # tolist() yields Python ints and floats, whose repr is the
        # literal (a float's shortest round-tripping decimal).
        values = ", ".join(
            "(" + ", ".join(map(repr, row)) + ")" for row in rows
        )
        yield f"INSERT INTO {table_name} VALUES {values}"


def load_model_table(
    database: Database,
    table_name: str,
    model: Sequential | RelationalModel,
    options: MlToSqlOptions | None = None,
    use_insert_statements: bool = False,
    replace: bool = False,
) -> RelationalModel:
    """Create and fill the model table; returns the layout handle.

    ``use_insert_statements=True`` goes through the generated SQL text
    (the portable path a real deployment would use); the default bulk
    path loads through the table API and is much faster.
    """
    if isinstance(model, RelationalModel):
        relational = model
    else:
        relational = build_relational_model(model, options)
    if replace and database.catalog.has_table(table_name):
        database.execute(f"DROP TABLE {table_name}")
    if use_insert_statements:
        for statement in insert_statements(relational, table_name):
            database.execute(statement)
    else:
        database.execute(_create_table_sql(relational, table_name))
        database.table(table_name).append_columns(**relational.columns)
    relational.table_name = table_name
    return relational
