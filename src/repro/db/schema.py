"""Schema descriptors: columns and relation schemas.

A :class:`Schema` describes the shape of any relation flowing through the
engine — base tables as well as intermediate results.  Schemas are
immutable; deriving a new relation produces a new schema object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.types import SqlType
from repro.errors import BindError, DatabaseError


@dataclass(frozen=True)
class Column:
    """A named, typed column of a relation."""

    name: str
    sql_type: SqlType

    def renamed(self, name: str) -> "Column":
        return Column(name, self.sql_type)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name} {self.sql_type}"


@dataclass(frozen=True)
class Schema:
    """An ordered list of columns with unique (case-insensitive) names."""

    columns: tuple[Column, ...]
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            key = column.name.lower()
            if key in index:
                raise DatabaseError(
                    f"duplicate column name {column.name!r} in schema"
                )
            index[key] = position
        object.__setattr__(self, "_index", index)

    @classmethod
    def of(cls, *pairs: tuple[str, SqlType]) -> "Schema":
        """Convenience constructor: ``Schema.of(("id", INTEGER), ...)``."""
        return cls(tuple(Column(name, sql_type) for name, sql_type in pairs))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    @property
    def types(self) -> tuple[SqlType, ...]:
        return tuple(column.sql_type for column in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def position_of(self, name: str) -> int:
        """Ordinal of the column named *name* (case-insensitive)."""
        position = self._index.get(name.lower())
        if position is None:
            raise BindError(
                f"column {name!r} not found; available: {list(self.names)}"
            )
        return position

    def column(self, name: str) -> Column:
        return self.columns[self.position_of(name)]

    def type_of(self, name: str) -> SqlType:
        return self.column(name).sql_type

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join result: this schema followed by *other*."""
        return Schema(self.columns + other.columns)

    def select(self, names: list[str]) -> "Schema":
        """Schema containing only *names*, in the given order."""
        return Schema(tuple(self.column(name) for name in names))

    def rename_all(self, names: list[str]) -> "Schema":
        """New schema with the same types but the given column names."""
        if len(names) != len(self.columns):
            raise DatabaseError(
                f"rename expects {len(self.columns)} names, got {len(names)}"
            )
        return Schema(
            tuple(
                column.renamed(name)
                for column, name in zip(self.columns, names)
            )
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "(" + ", ".join(str(column) for column in self.columns) + ")"
