"""Reference outputs that do not come from the engine under test.

SQL results are checked against the standard library's ``sqlite3`` loaded
with a *fresh* generation of the same seeded rows (never the engine's own
storage, which the write workload mutates).  P0's reference is a plain-Python
dict join over those rows.  Floats the statement computes (``sum``/``avg``)
compare to 1e-6 relative; stored floats round-trip through SQLite exactly.
"""

from __future__ import annotations

import math
import sqlite3
from collections import Counter
from typing import Any, Iterable, Optional, Sequence

from repro.db.database import Database
from repro.db.schema import ColumnType

FLOAT_RELATIVE_TOLERANCE = 1e-6

_SQLITE_TYPES = {
    ColumnType.INT: "INTEGER",
    ColumnType.FLOAT: "REAL",
    ColumnType.STRING: "TEXT",
}


def load_sqlite(database: Database) -> sqlite3.Connection:
    """An in-memory SQLite database holding a copy of every table."""
    connection = sqlite3.connect(":memory:")
    for name, table in database.tables.items():
        columns = table.schema.columns
        declared = ", ".join(
            f"{column.name} {_SQLITE_TYPES.get(column.ctype, '')}"
            + (" PRIMARY KEY" if column.name == table.schema.primary_key else "")
            for column in columns
        )
        connection.execute(f"create table {name} ({declared})")
        names = [column.name for column in columns]
        placeholders = ", ".join("?" for _ in names)
        connection.executemany(
            f"insert into {name} values ({placeholders})",
            (tuple(row[column] for column in names) for row in table.rows),
        )
    connection.commit()
    return connection


def sqlite_rows(
    connection: sqlite3.Connection, sql: str, params: Sequence[Any] = ()
) -> tuple[list[str], list[tuple]]:
    """Column names and value tuples of one reference query."""
    cursor = connection.execute(sql, tuple(params))
    names = [entry[0] for entry in cursor.description]
    return names, cursor.fetchall()


def project(rows: Iterable[dict], names: Sequence[str]) -> list[tuple]:
    """Engine row dicts as value tuples in the reference's column order."""
    return [tuple(row[name] for name in names) for row in rows]


def _values_match(left: Any, right: Any) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        if left is None or right is None:
            return left is right
        return math.isclose(
            left, right, rel_tol=FLOAT_RELATIVE_TOLERANCE, abs_tol=0.0
        )
    return left == right


def _tuples_match(left: tuple, right: tuple) -> bool:
    return len(left) == len(right) and all(
        _values_match(a, b) for a, b in zip(left, right)
    )


def rows_match(
    actual: list[tuple],
    expected: list[tuple],
    *,
    ordered: bool = False,
    key_width: Optional[int] = None,
) -> bool:
    """Compare two result sets.

    ``ordered`` demands the exact sequence.  ``key_width`` says the first
    that-many values of each tuple identify the row (group keys), which
    lets computed floats compare with tolerance; without it the comparison
    is an exact multiset.
    """
    if len(actual) != len(expected):
        return False
    if ordered:
        return all(_tuples_match(a, b) for a, b in zip(actual, expected))
    if key_width is None:
        return Counter(actual) == Counter(expected)
    by_key = {row[:key_width]: row for row in expected}
    if len(by_key) != len(expected):
        return False
    seen = set()
    for row in actual:
        key = row[:key_width]
        other = by_key.get(key)
        if other is None or key in seen or not _tuples_match(row, other):
            return False
        seen.add(key)
    return True


def p0_reference(database: Database) -> list[tuple]:
    """``sorted((o_id, c_birth_year))`` over orders joined to customer."""
    birth_year = {
        row["c_customer_sk"]: row["c_birth_year"]
        for row in database.table("customer").rows
    }
    return sorted(
        (row["o_id"], birth_year[row["o_customer_sk"]])
        for row in database.table("orders").rows
    )
