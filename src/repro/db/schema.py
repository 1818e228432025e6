"""Schema and catalog definitions for the in-memory database engine.

A :class:`Schema` is a collection of :class:`TableSchema` objects.  Each table
schema records its columns, the primary key, foreign keys, and the byte width
of a row.  Row widths matter to the reproduction because the COBRA cost model
charges network transfer time as ``rows * row_size / bandwidth``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional


class ColumnType(enum.Enum):
    """Supported column types.

    The engine stores Python values; the declared type is used for default
    byte-width accounting and for generating synthetic data.
    """

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"
    BOOL = "bool"

    @property
    def default_width(self) -> int:
        """Default storage width in bytes for a value of this type."""
        widths = {
            ColumnType.INT: 8,
            ColumnType.FLOAT: 8,
            ColumnType.STRING: 32,
            ColumnType.DATE: 8,
            ColumnType.BOOL: 1,
        }
        return widths[self]


@dataclass(frozen=True)
class Column:
    """A column in a table schema.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    ctype:
        Declared :class:`ColumnType`.
    width:
        Byte width of a value; defaults to the type's default width.  The sum
        of widths over a table's columns is the row width used by the cost
        model.
    nullable:
        Whether NULL (``None``) values are allowed.
    """

    name: str
    ctype: ColumnType = ColumnType.INT
    width: Optional[int] = None
    nullable: bool = True

    @property
    def byte_width(self) -> int:
        """Effective byte width of this column."""
        if self.width is not None:
            return self.width
        return self.ctype.default_width


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key constraint from ``column`` to ``ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str


class SchemaError(Exception):
    """Raised for invalid schema definitions or lookups."""


class TableSchema:
    """Schema of a single table: name, columns, key hint, foreign keys."""

    def __init__(
        self,
        name: str,
        columns: Iterable[Column],
        primary_key: Optional[str] = None,
        foreign_keys: Optional[Iterable[ForeignKey]] = None,
    ) -> None:
        self.name = name
        self.columns: list[Column] = list(columns)
        if not self.columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self._by_name = {c.name: c for c in self.columns}
        if len(self._by_name) != len(self.columns):
            raise SchemaError(f"table {name!r} has duplicate column names")
        if primary_key is not None and primary_key not in self._by_name:
            raise SchemaError(
                f"primary key {primary_key!r} is not a column of table {name!r}"
            )
        self.primary_key = primary_key
        self.foreign_keys: list[ForeignKey] = list(foreign_keys or [])
        for fk in self.foreign_keys:
            if fk.column not in self._by_name:
                raise SchemaError(
                    f"foreign key column {fk.column!r} is not a column of "
                    f"table {name!r}"
                )

    # -- lookups ---------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        """Names of all columns, in declaration order."""
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        """Return True if the table has a column called ``name``."""
        return name in self._by_name

    def column(self, name: str) -> Column:
        """Return the :class:`Column` called ``name``.

        Raises :class:`SchemaError` if absent.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}; "
                f"columns are {self.column_names}"
            ) from None

    @property
    def row_width(self) -> int:
        """Byte width of a full row (sum of column widths)."""
        return sum(c.byte_width for c in self.columns)

    def width_of(self, columns: Iterable[str]) -> int:
        """Byte width of a projection onto ``columns``."""
        return sum(self.column(c).byte_width for c in columns)

    def foreign_key_to(self, ref_table: str) -> Optional[ForeignKey]:
        """Return the first foreign key referencing ``ref_table``, if any."""
        for fk in self.foreign_keys:
            if fk.ref_table == ref_table:
                return fk
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TableSchema({self.name!r}, columns={self.column_names})"


@dataclass
class Schema:
    """A database schema: a named collection of table schemas."""

    tables: dict[str, TableSchema] = field(default_factory=dict)

    def add(self, table: TableSchema) -> TableSchema:
        """Register ``table`` in the schema and return it."""
        if table.name in self.tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self.tables[table.name] = table
        return table

    def table(self, name: str) -> TableSchema:
        """Look up a table schema by name."""
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(
                f"no table named {name!r}; tables are {sorted(self.tables)}"
            ) from None

    def has_table(self, name: str) -> bool:
        """Return True if a table called ``name`` exists."""
        return name in self.tables

    def table_names(self) -> list[str]:
        """Names of all tables in the schema."""
        return sorted(self.tables)
