import pytest

from repro.db.schema import Column, Schema
from repro.db.types import SqlType
from repro.errors import BindError, DatabaseError


@pytest.fixture
def schema() -> Schema:
    return Schema.of(
        ("id", SqlType.INTEGER),
        ("value", SqlType.FLOAT),
        ("name", SqlType.VARCHAR),
    )


class TestSchemaBasics:
    def test_names_and_types(self, schema):
        assert schema.names == ("id", "value", "name")
        assert schema.types == (
            SqlType.INTEGER,
            SqlType.FLOAT,
            SqlType.VARCHAR,
        )

    def test_len_and_iter(self, schema):
        assert len(schema) == 3
        assert [column.name for column in schema] == ["id", "value", "name"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(DatabaseError):
            Schema.of(("a", SqlType.INTEGER), ("A", SqlType.FLOAT))


class TestLookup:
    def test_position_is_case_insensitive(self, schema):
        assert schema.position_of("ID") == 0
        assert schema.position_of("Value") == 1

    def test_missing_column_raises_bind_error(self, schema):
        with pytest.raises(BindError, match="nope"):
            schema.position_of("nope")

    def test_type_of(self, schema):
        assert schema.type_of("value") is SqlType.FLOAT

    def test_has_column(self, schema):
        assert schema.has_column("NAME")
        assert not schema.has_column("missing")


class TestDerivedSchemas:
    def test_concat(self, schema):
        other = Schema.of(("extra", SqlType.DOUBLE))
        combined = schema.concat(other)
        assert combined.names == ("id", "value", "name", "extra")

    def test_select_reorders(self, schema):
        selected = schema.select(["name", "id"])
        assert selected.names == ("name", "id")

    def test_rename_all(self, schema):
        renamed = schema.rename_all(["a", "b", "c"])
        assert renamed.names == ("a", "b", "c")
        assert renamed.types == schema.types

    def test_rename_wrong_arity(self, schema):
        with pytest.raises(DatabaseError):
            schema.rename_all(["a"])

    def test_column_renamed(self):
        column = Column("x", SqlType.FLOAT)
        assert column.renamed("y") == Column("y", SqlType.FLOAT)
