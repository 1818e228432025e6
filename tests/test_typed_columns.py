"""Typed / dictionary-encoded columnar storage and fused-pipeline codegen.

Covers the physical-layout inference (``encode_column`` and the storage-mode
knob), the lifecycle of the encoded views across mutation and shard
rehoming, the wide-row template cache, bit-identical results across every
{storage mode} x {codegen, kernel} x {execution tier} combination (sharded
and unsharded), the codegen observability counters, and the property that
views maintained in place through any write history equal freshly built
ones.
"""

from __future__ import annotations

import copy
import sqlite3
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.db import algebra
from repro.db.database import Database
from repro.db.expressions import ExpressionError
from repro.db.schema import Column, ColumnType
from repro.db.sharding import VECTORIZED_COUNTER_KEYS, VECTORIZED_REASON_KEYS
from repro.db.sqlgen import to_sql
from repro.db.sqlparser import parse_sql
from repro.db.table import STORAGE_MODES, Table, encode_column
from repro.db.vectorized import _FUSED_JOIN_MIN_KEYS


def make_database(**kwargs) -> Database:
    database = Database(**kwargs)
    database.create_table(
        "orders",
        [
            Column("o_id", ColumnType.INT),
            Column("o_c_id", ColumnType.INT),
            Column("o_total", ColumnType.FLOAT),
            Column("o_status", ColumnType.STRING, width=8),
        ],
        primary_key="o_id",
    )
    database.create_table(
        "customers",
        [
            Column("c_id", ColumnType.INT),
            Column("c_name", ColumnType.STRING, width=16),
        ],
        primary_key="c_id",
    )
    database.insert(
        "orders",
        [
            {
                "o_id": i,
                "o_c_id": i % 7 if i % 11 else None,
                "o_total": float(i * 3 % 17) if i % 5 else None,
                "o_status": ("OPEN", "DONE", "HOLD")[i % 3],
            }
            for i in range(240)
        ],
    )
    database.insert(
        "customers",
        [{"c_id": i, "c_name": f"customer-{i}"} for i in range(7)],
    )
    database.analyze()
    return database


#: Codegen-eligible spines ([Project|Aggregate] -> Select* -> Scan): the
#: property workload the zero-``codegen_unsupported`` gate runs over.
CODEGEN_QUERIES = [
    "select * from orders where o_total > 3.0",
    "select * from orders where o_total >= 2.0 and o_status = 'OPEN'",
    "select o_id, o_total from orders where o_c_id = 3",
    "select o_id, o_total * 2 as doubled from orders where o_total is not null",
    "select o_id from orders where o_status != 'DONE'",
    "select o_id, o_status from orders where o_c_id is null",
    "select o_c_id, sum(o_total) as total, count(*) as n, avg(o_total) as "
    "avg_total from orders where o_total > 1.0 group by o_c_id",
    "select o_status, count(*) as n from orders group by o_status",
    "select o_status, min(o_total) as lo, max(o_total) as hi from orders "
    "group by o_status",
    "select o_c_id, o_status, count(*) as n from orders group by "
    "o_c_id, o_status",
]

#: Shapes beyond the select/aggregate spines (joins; the sort under a
#: limit runs as a fused top-k), included in the equivalence sweep only.
EXTRA_QUERIES = [
    "select o.o_id, c.c_name from orders o join customers c "
    "on o.o_c_id = c.c_id where o.o_total > 8.0",
    "select * from orders where o_total > 5.0 order by o_total desc limit 7",
]


def canon(rows):
    key = lambda r: sorted((k, repr(v)) for k, v in r.items())  # noqa: E731
    return sorted(rows, key=key)


class TestEncodingInference:
    def test_int_column_gets_int64_sidecar(self):
        data = encode_column([1, 2, 3], "typed")
        assert data.encoding == "int64"
        assert data.typed == array("q", [1, 2, 3])
        assert data.nulls is None
        assert list(data) == [1, 2, 3]  # boxed values always present

    def test_null_bitmap_marks_null_rows(self):
        data = encode_column([1, None, 3, None], "typed")
        assert data.encoding == "int64"
        assert data.typed == array("q", [1, 0, 3, 0])
        assert data.nulls is not None
        null_rows = [
            i for i in range(4) if data.nulls[i >> 3] & (1 << (i & 7))
        ]
        assert null_rows == [1, 3]

    def test_float_column_gets_float64_sidecar(self):
        data = encode_column([1.5, None, 2.5], "typed")
        assert data.encoding == "float64"
        assert data.typed == array("d", [1.5, 0.0, 2.5])
        assert data.nulls is not None

    def test_strings_dictionary_encode_in_dictionary_mode(self):
        data = encode_column(["a", "b", None, "a"], "dictionary")
        assert data.encoding == "dict"
        assert list(data.codes) == [0, 1, -1, 0]
        assert data.dictionary == ["a", "b"]
        assert data.code_of == {"a": 0, "b": 1}

    def test_strings_stay_boxed_in_typed_mode(self):
        data = encode_column(["a", "b"], "typed")
        assert data.encoding == "boxed"
        assert data.typed is None

    @pytest.mark.parametrize(
        "values",
        [
            [1, 2.5],  # mixed numeric kinds
            [True, False],  # bool round-trips only boxed
            [1 << 80, 2],  # too wide for int64
            [],  # no rows, nothing to infer
            [{"k": 1}],  # arbitrary objects
        ],
    )
    def test_unsupported_shapes_fall_back_to_boxed(self, values):
        data = encode_column(values, "dictionary")
        assert data.encoding == "boxed"
        assert list(data) == values

    def test_boxed_mode_never_builds_sidecars(self):
        data = encode_column([1, 2, 3], "boxed")
        assert data.encoding == "boxed"
        assert data.typed is None


class TestStorageModes:
    def test_unknown_mode_rejected(self):
        database = make_database()
        with pytest.raises(ValueError, match="unknown storage mode"):
            database.table("orders").set_storage_mode("arrow")

    @pytest.mark.parametrize(
        "mode,expected",
        [
            ("boxed", {"o_id": "boxed", "o_status": "boxed"}),
            ("typed", {"o_id": "int64", "o_status": "boxed"}),
            ("dictionary", {"o_id": "int64", "o_status": "dict"}),
        ],
    )
    def test_mode_controls_encodings(self, mode, expected):
        table = make_database().table("orders")
        table.set_storage_mode(mode)
        table.columns()
        encodings = table.column_encodings()
        for name, encoding in expected.items():
            assert encodings[name] == encoding
        assert encodings["o_total"] == (
            "boxed" if mode == "boxed" else "float64"
        )

    def test_sharded_table_propagates_mode_to_partitions(self):
        database = make_database()
        database.shard_table("orders", "o_c_id", 3)
        sharded = database.table("orders")
        sharded.set_storage_mode("boxed")
        assert all(s.storage_mode == "boxed" for s in sharded.shards)
        sharded.set_storage_mode("dictionary")
        for shard in sharded.shards:
            assert shard.storage_mode == "dictionary"
            shard.columns()
            assert shard.column_encodings()["o_status"] == "dict"


class TestEncodedViewLifecycle:
    def test_dictionary_encoding_survives_version_bumps(self):
        table = make_database().table("orders")
        table.columns()
        assert table.column_encodings()["o_status"] == "dict"
        before = table.version
        table.insert({"o_id": 9001, "o_c_id": 1, "o_total": 2.0,
                      "o_status": "NEW"})
        assert table.version > before
        # The built view was extended, not dropped.
        assert table.column_encodings()["o_status"] == "dict"
        store = table.columns()
        assert store["o_status"].encoding == "dict"
        assert store["o_status"].dictionary[-1] == "NEW"
        assert len(store["o_status"].codes) == len(table.rows)

    def test_dictionary_encoding_survives_shard_rehoming(self):
        database = make_database()
        database.shard_table("orders", "o_c_id", 3)
        sharded = database.table("orders")
        for shard in sharded.shards:
            shard.columns()
        # Move a row to a different shard (shard-key update => rehome).
        database.execute_update_sql(
            "update orders set o_c_id = 5 where o_id = 0"
        )
        for shard in sharded.shards:
            store = shard.columns()
            assert store["o_status"].encoding == "dict"
            assert len(store["o_status"].codes) == len(shard.rows)
        moved = sharded.shards[sharded.shard_index(5)]
        assert any(row["o_id"] == 0 for row in moved.rows)

    def test_wide_rows_cached_per_alias_and_version(self):
        table = make_database().table("orders")
        first = table.wide_rows("o")
        assert table.wide_rows("o") is first  # cached
        assert table.wide_rows("x") is not first  # per alias
        assert first[0]["o.o_id"] == first[0]["o_id"]
        table.insert({"o_id": 9002, "o_c_id": 2, "o_total": 1.0,
                      "o_status": "OPEN"})
        extended = table.wide_rows("o")
        assert len(extended) == len(table.rows)
        assert extended[-1]["o.o_id"] == extended[-1]["o_id"] == 9002
        assert list(extended[-1]) == list(extended[0])


    def test_writes_that_fit_patch_and_misfits_reencode_one_column(self):
        table = make_database().table("orders")
        store = table.columns()
        status, o_id = store["o_status"], store["o_id"]
        assert o_id.nulls is None and status.nulls is None

        def write(o_id_value, **values):
            table.update_rows(lambda row: row["o_id"] == o_id_value, values)
            return table.columns()

        # A new dictionary string and an in-range int fit: same objects.
        assert write(3, o_status="FRESH") is store
        assert store["o_status"] is status and status[3] == "FRESH"
        assert status.dictionary[status.codes[3]] == "FRESH"
        assert table.column_reencodes == 0 and table.patched_updates == 1
        # The first NULL of a null-free column needs a bitmap: one column
        # is re-encoded, lazily, and the view dict is still the same.
        table.update_rows(lambda row: row["o_id"] == 4, {"o_status": None})
        assert table.column_encodings().keys() == store.keys() - {"o_status"}
        assert table.column_reencodes == 0
        assert table.columns() is store and table.column_reencodes == 1
        assert store["o_status"] is not status
        assert store["o_status"].nulls is not None and store["o_id"] is o_id
        # Later NULLs (and clearing them) patch; the bitmap stays, so the
        # layout signature compiled pipelines key on does not move.
        status = store["o_status"]
        write(5, o_status=None)
        write(4, o_status="OPEN")
        write(5, o_status="OPEN")
        assert store["o_status"] is status and not any(status.nulls)
        assert table.column_reencodes == 1
        # A type change or a 64-bit overflow boxes that column only.
        write(6, o_c_id=2**70)
        assert store["o_c_id"].encoding == "boxed"
        assert store["o_total"].encoding == "float64"
        assert table.column_reencodes == 2

    def test_dead_dictionary_entries_are_compacted(self):
        table = make_database().table("orders")
        table.columns()
        for round_ in range(3 * len(table.rows)):
            table.update_rows(
                lambda row: row["o_id"] == 0, {"o_status": f"s{round_}"}
            )
        status = table.columns()["o_status"]
        assert len(status.dictionary) <= 2 * len(table.rows) + 17
        assert table.column_reencodes >= 1
        assert status.dictionary[status.codes[0]] == status[0] == f"s{round_}"

    def test_unhashable_insert_drops_only_the_index_it_cannot_join(self):
        table = make_database().table("orders")
        by_customer = table.position_index("o_c_id")
        assert table.positions_for("o_status", "OPEN")
        table.insert({"o_id": 9003, "o_c_id": 1, "o_total": 1.0,
                      "o_status": ["unhashable"]})
        assert table.position_index("o_c_id") is by_customer
        assert by_customer[1][-1] == len(table.rows) - 1
        assert table.position_index("o_status") is None
        assert table.positions_for("o_status", "OPEN") is None

    def test_adopt_rows_bumps_the_version_once(self):
        source = make_database().table("orders")
        table = Table(source.schema)
        before = table.version
        assert table.adopt_rows(source.rows) == len(source.rows)
        assert table.version == before + 1
        assert table.rows[0] is source.rows[0]
        assert table.lookup_pk(5) == source.lookup_pk(5)
        assert table.columns()["o_id"] == source.columns()["o_id"]


class TestStorageTierEquivalence:
    """Bit-identical rows across storage modes, codegen on/off, and tiers."""

    @pytest.fixture(scope="class")
    def reference(self):
        database = make_database(execution_mode="interpreted")
        return {
            sql: database.execute_sql(sql).rows
            for sql in CODEGEN_QUERIES + EXTRA_QUERIES
        }

    @pytest.mark.parametrize("storage", STORAGE_MODES)
    @pytest.mark.parametrize("codegen", [True, False])
    @pytest.mark.parametrize("mode", ["vectorized", "compiled", "interpreted"])
    def test_unsharded_rows_identical(self, reference, storage, codegen, mode):
        database = make_database(execution_mode=mode)
        for table in database.tables.values():
            table.set_storage_mode(storage)
        vectorized = database._executor._vectorized
        if vectorized is not None:
            vectorized.codegen_enabled = codegen
        for sql in CODEGEN_QUERIES + EXTRA_QUERIES:
            assert database.execute_sql(sql).rows == reference[sql], (
                storage, codegen, mode, sql,
            )

    @pytest.mark.parametrize("storage", STORAGE_MODES)
    @pytest.mark.parametrize("codegen", [True, False])
    def test_sharded_rows_identical(self, reference, storage, codegen):
        database = make_database()
        database.shard_table("orders", "o_c_id", 3)
        database.shard_table("customers", "c_id", 3)
        for table in database.tables.values():
            table.set_storage_mode(storage)
        vectorized = database._executor._vectorized
        vectorized.codegen_enabled = codegen
        for key, executor in database._router._executors.items():
            if executor._vectorized is not None:
                executor._vectorized.codegen_enabled = codegen
        for sql in CODEGEN_QUERIES + EXTRA_QUERIES:
            got = database.execute_sql(sql).rows
            # New shard executors may have appeared; keep them in step.
            for executor in database._router._executors.values():
                if executor._vectorized is not None:
                    executor._vectorized.codegen_enabled = codegen
            assert canon(got) == canon(reference[sql]), (storage, codegen, sql)


class TestCodegenObservability:
    def test_property_workload_never_hits_codegen_unsupported(self):
        """CI gate: every eligible spine lowers; zero codegen fallbacks."""
        database = make_database()
        for sql in CODEGEN_QUERIES:
            statement = database.prepare(sql)
            statement.execute()
            assert statement.last_execution_path == "codegen", sql
        stats = database.execution_stats()["vectorized"]
        assert stats["fallback_reasons"].get("codegen_unsupported", 0) == 0
        assert stats["codegen_errors"] == 0
        assert stats["codegen_executions"] == len(CODEGEN_QUERIES)

    def test_pipeline_cache_hits_counted(self):
        database = make_database()
        statement = database.prepare("select * from orders where o_total > ?")
        statement.execute((3.0,))
        vectorized = database._executor._vectorized
        assert vectorized.pipelines_compiled == 1
        assert vectorized.codegen_cache_hits == 0
        statement.execute((5.0,))
        statement.execute((7.0,))
        assert vectorized.pipelines_compiled == 1
        assert vectorized.codegen_cache_hits == 2

    def test_storage_mode_change_recompiles_pipeline(self):
        database = make_database()
        statement = database.prepare("select * from orders where o_total > ?")
        statement.execute((3.0,))
        table = database.table("orders")
        table.set_storage_mode("boxed")
        statement.execute((3.0,))
        # Different column-layout signature => second compilation.
        assert database._executor._vectorized.pipelines_compiled == 2

    def test_kernel_path_reported_when_codegen_disabled(self):
        database = make_database()
        database._executor._vectorized.codegen_enabled = False
        statement = database.prepare("select * from orders where o_total > ?")
        statement.execute((3.0,))
        assert statement.last_tier == "vectorized"
        assert statement.last_execution_path == "kernel"

    def test_explain_analyze_reports_execution_path(self):
        database = make_database()
        result = database.explain_analyze(
            "select * from orders where o_total > 3.0"
        )
        assert "tier: vectorized" in result.render()
        assert "executed: vectorized via codegen" in result.render()
        assert result.as_dict()["execution"]["path"] == "codegen"

    def test_execution_stats_include_encodings(self):
        database = make_database()
        database.execute_sql("select * from orders where o_total > 3.0")
        stats = database.execution_stats()["vectorized"]
        assert "backend" not in stats
        assert stats["encodings"].get("dict", 0) >= 1
        assert stats["encodings"].get("int64", 0) >= 1

    def test_sharded_stats_merge_codegen_counters(self):
        database = make_database()
        database.shard_table("orders", "o_c_id", 3)
        database.execute_sql("select * from orders where o_total > 3.0")
        stats = database.execution_stats()["vectorized"]
        # One codegen execution counted per shard that ran the pipeline.
        assert stats["codegen_executions"] >= 3
        assert stats["pipelines_compiled"] >= 3


# -- maintained views == rebuilt views ----------------------------------------

_NATURAL = {
    "k": st.one_of(st.integers(-2, 6), st.none()),
    "f": st.one_of(st.sampled_from([0.5, 2.0, -1.25, 7.0]), st.none()),
    "s": st.one_of(st.sampled_from(["a", "b", "new-1", "new-2"]), st.none()),
}
#: values of every kind for any column: type changes, bools, 64-bit overflow.
_ANYTHING = st.one_of(
    st.integers(-2, 6),
    st.none(),
    st.sampled_from([0.5, 2.0]),
    st.sampled_from(["a", "zz"]),
    st.just(True),
    st.just(2**70),
)


def _simple_writes(column_values):
    """Insert / multi-row update / point update / PK move, as op tuples.

    ``column_values`` maps each of ``k`` / ``f`` / ``s`` to the strategy its
    written values are drawn from.
    """
    row = st.tuples(
        st.one_of(st.none(), st.integers(0, 30)),  # None: fresh id; n: reuse one
        column_values["k"],
        column_values["f"],
        column_values["s"],
    )
    target = st.integers(0, 30)
    return st.one_of(
        st.tuples(st.just("insert"), st.lists(row, min_size=1, max_size=3)),
        st.tuples(
            st.just("update"),
            st.integers(1, 4),
            st.integers(0, 3),
            st.fixed_dictionaries({}, optional=column_values).filter(len),
        ),
        st.sampled_from(sorted(column_values)).flatmap(
            lambda column: st.tuples(
                st.just("point"), st.just(column), column_values[column], target
            )
        ),
        st.tuples(st.just("move"), target, st.integers(0, 40)),
    )


def _histories(column_values):
    simple = _simple_writes(column_values)
    return st.lists(
        st.one_of(
            simple,
            simple,
            st.tuples(
                st.just("txn"), st.booleans(), st.lists(simple, max_size=4)
            ),
            st.just(("recover",)),
            st.just(("read",)),
            st.just(("read",)),
        ),
        min_size=1,
        max_size=12,
    )


_T_COLUMNS = [
    Column("id", ColumnType.INT),
    Column("k", ColumnType.INT),
    Column("f", ColumnType.FLOAT),
    Column("s", ColumnType.STRING, width=8),
]


def _history_database(storage: str, **kwargs) -> Database:
    database = Database(wal=True, **kwargs)
    database.create_table("t", _T_COLUMNS, primary_key="id")
    database.create_table(
        "u",
        [Column("k", ColumnType.INT), Column("label", ColumnType.STRING, width=8)],
        primary_key="k",
    )
    database.insert(
        "t",
        [
            {"id": i, "k": i % 3, "f": float(i), "s": "ab"[i % 2]}
            for i in range(6)
        ],
    )
    database.insert("u", [{"k": k, "label": f"u{k}"} for k in range(5)])
    for table in database.tables.values():
        table.set_storage_mode(storage)
    return database


def _existing_id(model, n):
    return model[n % len(model)]["id"] if model else n


def _apply_write(database: Database, model: list, op: tuple) -> str:
    """Run one simple write on ``database`` and on the plain-list model.

    Returns the counter the write must have bumped: ``"scan_updates"`` for
    a callable predicate, ``"point_updates"`` for ``where id = ?``, else
    ``"inserts"``.
    """
    kind = op[0]
    if kind == "insert":
        rows = []
        for reuse, k, f, s in op[1]:
            taken = [row["id"] for row in model + rows]
            new_id = (
                max([i for i in taken if type(i) is int], default=0) + 1
                if reuse is None
                else _existing_id(model, reuse)  # a duplicate primary key
            )
            rows.append({"id": new_id, "k": k, "f": f, "s": s})
        database.insert("t", rows)
        model.extend(dict(row) for row in rows)
        return "inserts"
    if kind == "update":
        _, modulus, remainder, values = op

        def predicate(row):
            return row["id"] % modulus == remainder % modulus

        changed = database.update_table("t", predicate, dict(values))
        matched = [row for row in model if predicate(row)]
        assert changed == len(matched)
        for row in matched:
            row.update(values)
        return "scan_updates"
    if kind == "point":
        _, column, value, target = op
    else:
        (_, target, value), column = op, "id"
    old_id = _existing_id(model, target)
    changed = database.execute_update_sql(
        f"update t set {column} = ? where id = ?", (value, old_id)
    )
    matched = [row for row in model if row["id"] == old_id]
    assert changed == len(matched)
    for row in matched:
        row[column] = value
    return "point_updates"


def _bit(nulls, position):
    return nulls is not None and bool(nulls[position >> 3] & (1 << (position & 7)))


def _assert_column_consistent(data, values, fresh):
    """Boxed values and every sidecar of ``data`` spell exactly ``values``."""
    assert list(data) == values
    assert [type(v) for v in data] == [type(v) for v in values]
    # The one layout a maintained column may keep that a rebuild would not:
    # a typed column whose values have all become NULL (a rebuild sees no
    # kind and boxes it), and a null bitmap with no bit left set.
    if any(v is not None for v in values) or data.encoding == "boxed":
        assert data.encoding == fresh.encoding
    if data.encoding == "boxed":
        assert data.typed is data.codes is data.nulls is None
        return
    if data.nulls is None:
        assert None not in values
    else:
        assert len(data.nulls) == (len(values) + 7) // 8
    for position, value in enumerate(values):
        assert _bit(data.nulls, position) == (value is None)
        if data.encoding == "dict":
            code = data.codes[position]
            assert (code == -1) if value is None else (
                data.dictionary[code] == value and data.code_of[value] == code
            )
        else:
            stored = data.typed[position]
            assert stored == (0 if value is None else value)
    if data.encoding == "dict":
        assert len(data.codes) == len(values) and data.typed is None
        assert len(data.code_of) == len(data.dictionary)
    else:
        assert len(data.typed) == len(values) and data.codes is None
        assert data.typed.typecode == ("q" if data.encoding == "int64" else "d")


def _assert_views_match_rebuild(table, model):
    """Every derived view of ``table`` equals a fresh table's over ``model``."""
    assert table.rows == model
    fresh = Table(table.schema)
    fresh.set_storage_mode(table.storage_mode)
    fresh.adopt_rows(copy.deepcopy(model))
    store, fresh_store = table.columns(), fresh.columns()
    assert list(store) == list(fresh_store)
    for name, data in store.items():
        _assert_column_consistent(
            data, [row[name] for row in model], fresh_store[name]
        )
    assert table.column_encodings() == {
        name: data.encoding for name, data in store.items()
    }
    for alias in ("t", "x"):
        wide, fresh_wide = table.wide_rows(alias), fresh.wide_rows(alias)
        assert [list(row.items()) for row in wide] == [
            list(row.items()) for row in fresh_wide
        ]
    for name in table.schema.column_names:
        assert table.distinct_count(name) == fresh.distinct_count(name)
        index = table.position_index(name)
        assert index == fresh.position_index(name)
        for value, positions in index.items():
            assert positions == sorted(positions)  # bucket order = row order
            assert positions == table.positions_for(name, value)
            assert positions == fresh.positions_for(name, value)
        assert table.positions_for(name, "no such value") == ()
    for row in model:
        assert table.lookup_pk(row["id"]) == fresh.lookup_pk(row["id"])


class TestMaintainedViews:
    """Views patched through any write history equal freshly built ones."""

    @pytest.mark.parametrize("storage", STORAGE_MODES)
    @settings(max_examples=60, deadline=None)
    @given(
        history=_histories(
            {name: st.one_of(values, _ANYTHING) for name, values in _NATURAL.items()}
        ),
        data=st.data(),
    )
    def test_patched_views_equal_rebuilt_views(self, storage, history, data):
        database = _history_database(storage)
        model = [dict(row) for row in database.table("t").rows]
        ran = {"inserts": 0, "scan_updates": 0, "point_updates": 0}
        reencodes = 0

        def write(op):
            ran[_apply_write(database, model, op)] += 1

        for op in history:
            if op[0] == "read":
                _assert_views_match_rebuild(database.table("t"), model)
            elif op[0] == "recover":
                # Crash: only the log survives; replay is positional too.
                reencodes += database.storage_stats()["column_reencodes"]
                database = Database.recover(database.wal)
                database.table("t").set_storage_mode(storage)
                ran.update(scan_updates=0, point_updates=0)
            elif op[0] == "txn":
                _, commit, writes = op
                saved = copy.deepcopy(model)
                txn = database.begin()
                for inner in writes:
                    write(inner)
                    if data.draw(st.booleans(), label="read inside txn"):
                        _assert_views_match_rebuild(database.table("t"), model)
                if commit:
                    txn.commit()
                else:
                    txn.rollback()
                    model[:] = saved
            else:
                write(op)
        _assert_views_match_rebuild(database.table("t"), model)
        # Which path ran is observable: every UPDATE was planned by exactly
        # one access path, and boxed columns always fit their encoding.
        stats = database.execution_stats()["storage"]
        assert stats["scan_updates"] == ran["scan_updates"]
        assert stats["point_updates"] == ran["point_updates"]
        assert stats["patched_updates"] == database.table("t").patched_updates
        if storage == "boxed":
            assert reencodes + stats["column_reencodes"] == 0

    QUERIES = (
        "select * from t where k > 1",
        "select id, s from t where s = 'a'",
        "select k, count(*) as n, sum(f) as total from t group by k",
        "select t.id, u.label from t join u on t.k = u.k",
    )

    @pytest.mark.parametrize("storage", STORAGE_MODES)
    @settings(max_examples=25, deadline=None)
    @given(history=_histories(_NATURAL))
    def test_queries_identical_across_tiers_and_snapshots(self, storage, history):
        modes = ("vectorized", "compiled", "interpreted")
        databases = {
            mode: _history_database(storage, execution_mode=mode, mvcc=True)
            for mode in modes
        }
        models = {mode: [dict(r) for r in databases[mode].table("t").rows] for mode in modes}

        def answers(database):
            return [database.execute_sql(sql).rows for sql in self.QUERIES]

        for op in history:
            if op[0] == "read":
                continue
            if op[0] == "recover":
                for mode in modes:
                    databases[mode] = Database.recover(
                        databases[mode].wal, execution_mode=mode, mvcc=True
                    )
                    for table in databases[mode].tables.values():
                        table.set_storage_mode(storage)
            else:
                # Reads before the write build the views the write patches;
                # the snapshot must keep answering from the pre-write state.
                before = answers(databases["interpreted"])
                snapshot = databases["vectorized"].snapshot()
                for mode in modes:
                    database, model = databases[mode], models[mode]
                    if op[0] == "txn":
                        _, commit, writes = op
                        saved = copy.deepcopy(model)
                        txn = database.begin()
                        for write in writes:
                            _apply_write(database, model, write)
                        if commit:
                            txn.commit()
                        else:
                            txn.rollback()
                            model[:] = saved
                    else:
                        _apply_write(database, model, op)
                    assert database.table("t").rows == model
                assert [snapshot.execute(sql).rows for sql in self.QUERIES] == before
                snapshot.close()
            reference = answers(databases["interpreted"])
            for mode in ("vectorized", "compiled"):
                assert answers(databases[mode]) == reference
        vectorized = databases["vectorized"].execution_stats()["vectorized"]
        assert vectorized["codegen_errors"] == 0
        assert "codegen_unsupported" not in vectorized["fallback_reasons"]


# -- fused top-k (ORDER BY ... LIMIT k) ---------------------------------------

_NAN = float("nan")
#: per-column value strategies: typed ints with duplicates, typed floats
#: with ±0.0 and a rare NaN, a mixed int/float/bool column (always boxed),
#: dictionary strings (case-distinct), bools and a nullable int column.
_TOPK_COLUMNS = {
    "a": st.integers(-2, 2),
    "f": st.sampled_from([0.0, -0.0, 1.5, -2.5, 3.0, 1.5, -1.0, _NAN]),
    "m": st.one_of(
        st.integers(-1, 1),
        st.sampled_from([0.5, -0.0, 1.0, _NAN]),
        st.booleans(),
        st.none(),
    ),
    "s": st.one_of(st.sampled_from(["x", "y", "Y", "zz"]), st.none()),
    "b": st.one_of(st.booleans(), st.none()),
    "n": st.one_of(st.integers(0, 2), st.none()),
}
_TOPK_KEYS = ("id", *_TOPK_COLUMNS)
_TOPK_PROJECTIONS = ("*", "id, a, s", "s, id", "f, m, b, n")


def _topk_database(rows, storage, mode="vectorized", shards=0):
    database = Database(execution_mode=mode)
    database.create_table(
        "t",
        [Column("id", ColumnType.INT)]
        + [Column(name, ColumnType.INT) for name in _TOPK_COLUMNS],
        primary_key="id",
    )
    database.insert("t", [{"id": i, **row} for i, row in enumerate(rows)])
    if shards:
        database.shard_table("t", "id", shards)
    database.table("t").set_storage_mode(storage)
    return database


def _has_nan(value):
    return isinstance(value, float) and value != value


class TestFusedTopK:
    """``Limit → Sort`` spines: one fused loop into ``heapq.nsmallest``."""

    @settings(max_examples=100, deadline=None)
    @example(
        rows=[dict.fromkeys(_TOPK_COLUMNS, 1)] * 4,
        storage="dictionary",
        shards=3,
        keys=[("m", False), ("f", True)],
        projection="s, id",
        k_choice="1",
        lows=(-2, 1),
        nan_at=2,
    )
    @given(
        rows=st.lists(
            st.fixed_dictionaries(_TOPK_COLUMNS), min_size=1, max_size=10
        ),
        storage=st.sampled_from(STORAGE_MODES),
        shards=st.sampled_from([0, 3]),
        keys=st.lists(
            st.tuples(st.sampled_from(_TOPK_KEYS), st.booleans()),
            min_size=1,
            max_size=3,
            unique_by=lambda key: key[0],
        ),
        projection=st.sampled_from(_TOPK_PROJECTIONS),
        k_choice=st.sampled_from(["n-1", "1", "n", "n+3", "0"]),
        lows=st.tuples(st.integers(-3, 2), st.integers(-3, 2)),
        nan_at=st.one_of(st.none(), st.integers(0, 9)),
    )
    def test_top_k_equals_full_sort_then_slice(
        self, rows, storage, shards, keys, projection, k_choice, lows, nan_at
    ):
        rows = [dict(row) for row in rows]
        if nan_at is not None:  # a NaN in a row every filter keeps
            rows[nan_at % len(rows)].update(a=2, f=_NAN, m=_NAN)
        n = len(rows)
        k = max(0, {"0": 0, "1": 1, "n-1": n - 1, "n": n, "n+3": n + 3}[k_choice])
        order = ", ".join(f"{c}{'' if asc else ' desc'}" for c, asc in keys)
        base = f"select {projection} from t where a >= ? order by {order}"
        reference = _topk_database(rows, storage, mode="interpreted")
        databases = {
            mode: _topk_database(rows, storage, mode=mode, shards=shards)
            for mode in ("vectorized", "compiled", "interpreted")
        }
        kernels = _topk_database(rows, storage, shards=shards)
        kernels._executor._vectorized.codegen_enabled = False
        databases["kernels"] = kernels
        statements = {
            name: database.prepare(f"{base} limit {k}")
            for name, database in databases.items()
        }
        fused = databases["vectorized"]
        for low in lows:  # a prepared template replayed with new values
            expected = reference.execute_sql(base, (low,)).rows[:k]
            before = fused.execution_stats()["vectorized"]
            for name, statement in statements.items():
                got = statement.execute((low,)).rows
                # Key order too: the rows must be the full sort's rows.
                assert [list(row.items()) for row in got] == [
                    list(row.items()) for row in expected
                ], name
            after = fused.execution_stats()["vectorized"]
            declines = after["topk_declines"].get("nan_key", 0) - before[
                "topk_declines"
            ].get("nan_key", 0)
            topk = after["topk_executions"] - before["topk_executions"]
            nan_key = any(
                _has_nan(row[column])
                for row in rows
                if row["a"] >= low
                for column, _ in keys
                if column != "id"
            )
            if k == 0:
                assert (topk, declines) == (0, 0)
            elif nan_key:
                assert (topk, declines) == (0, 1)
            else:
                assert (topk, declines) == (1, 0)
        assert kernels.execution_stats()["vectorized"]["topk_executions"] == 0

    def test_order_by_dropped_column_matches_sqlite(self):
        rows = [
            {"id": i, "x": (i * 7) % 5, "y": None if i % 4 == 0 else i % 3}
            for i in range(20)
        ]
        connection = sqlite3.connect(":memory:")
        connection.execute("create table t (id integer, x integer, y integer)")
        connection.executemany(
            "insert into t values (?, ?, ?)",
            [(r["id"], r["x"], r["y"]) for r in rows],
        )
        queries = (
            "select id from t order by x desc, id",
            "select id from t order by x, id desc limit 6",
            "select id, x from t where id > 3 order by y desc, id limit 5",
            "select id as ident, x from t order by y desc, x, id limit 7",
        )
        for sql in queries:
            plan = parse_sql(sql)
            assert parse_sql(to_sql(plan)) == plan, sql
            expected = [
                list(row) for row in connection.execute(sql).fetchall()
            ]
            for mode in ("vectorized", "compiled", "interpreted"):
                for shards in (0, 3):
                    database = Database(execution_mode=mode)
                    database.create_table(
                        "t",
                        [Column(c, ColumnType.INT) for c in ("id", "x", "y")],
                        primary_key="id",
                    )
                    database.insert("t", rows)
                    if shards:
                        database.shard_table("t", "id", shards)
                    got = [
                        list(row.values())
                        for row in database.execute_sql(sql).rows
                    ]
                    assert got == expected, (sql, mode, shards)

    def test_sort_below_project_only_for_dropped_keys(self):
        # A key the select list names keeps the Sort above the Project.
        plan = parse_sql("select id, x from t order by x limit 3")
        assert isinstance(plan.child, algebra.Sort)
        assert isinstance(plan.child.child, algebra.Project)
        plan = parse_sql("select id from t order by x limit 3")
        assert isinstance(plan.child, algebra.Project)
        assert isinstance(plan.child.child, algebra.Sort)
        # A renamed output would read a different value below the Project.
        plan = parse_sql("select x as id from t order by y, id")
        assert isinstance(plan, algebra.Sort)
        # Aggregate queries are left alone.
        plan = parse_sql("select k, count(*) from t group by k order by j")
        assert isinstance(plan, algebra.Sort)

    def test_counters_and_explain(self):
        database = make_database()
        sql = "select o_id, o_total from orders order by o_total desc limit 3"
        result = database.explain_analyze(sql)
        assert "executed: vectorized via codegen (top-k)" in result.render()
        assert database.execute_sql(sql).rows == make_database(
            execution_mode="interpreted"
        ).execute_sql(sql).rows
        stats = database.execution_stats()["vectorized"]
        assert stats["topk_executions"] == 2
        assert stats["topk_declines"] == {}
        # A key through an unlowerable projection output.
        with pytest.raises(ExpressionError):
            database.execute_sql(
                "select o_id, nofunc(o_id) as z from orders order by z limit 2"
            )
        # An output that raises only at run time.
        with pytest.raises(TypeError):
            database.execute_sql(
                "select o_id, o_status + 1 as z from orders "
                "order by o_id limit 2"
            )
        stats = database.execution_stats()["vectorized"]
        assert stats["topk_declines"] == {"unsupported": 1, "error": 1}
        assert stats["topk_executions"] == 2

    def test_nan_key_declines_to_the_kernels(self):
        row = {**dict.fromkeys(_TOPK_COLUMNS, 0), "f": _NAN}
        database = _topk_database([row] * 3, "dictionary")
        rows = database.execute_sql("select id from t order by f limit 2").rows
        assert rows == [{"id": 0}, {"id": 1}]
        stats = database.execution_stats()["vectorized"]
        assert stats["topk_declines"] == {"nan_key": 1}
        assert stats["topk_executions"] == 0
        assert database._executor.last_execution_path == "kernel"

    def test_order_by_without_limit_stays_on_the_kernels(self):
        database = make_database()
        statement = database.prepare(
            "select o_id from orders where o_total > ? order by o_total"
        )
        statement.execute((3.0,))
        assert statement.last_execution_path == "kernel"
        assert statement._exec_plan in database._executor._vectorized._ops

    def test_routed_top_k_counts_on_the_shard(self):
        database = make_database()
        database.shard_table("orders", "o_c_id", 3)
        sql = "select * from orders where o_c_id = 3 order by o_total desc limit 2"
        assert database.execute_sql(sql).rows == make_database(
            execution_mode="interpreted"
        ).execute_sql(sql).rows
        assert database.sharding_stats()["routed"] == 1
        assert database.execution_stats()["vectorized"]["topk_executions"] == 1


# -- fused filtered equi-join -------------------------------------------------

#: join keys: NULL, duplicates, and int/float/bool values dict lookup
#: treats as one key (1 == 1.0 == True), plus one shared NaN object.
_JOIN_KEYS = st.one_of(
    st.none(),
    st.integers(0, 2),
    st.sampled_from([1.0, 2.0, True, False, _NAN]),
)
_JOIN_LEFT = {
    "k": _JOIN_KEYS,
    "a": st.one_of(st.integers(-2, 2), st.none()),
    "v": st.one_of(st.integers(-1, 1), st.none()),
    "s": st.one_of(st.sampled_from(["x", "y"]), st.none()),
}
_JOIN_RIGHT = {
    "k": _JOIN_KEYS,
    "v": st.one_of(st.integers(-1, 1), st.none()),
    "w": st.one_of(st.integers(-1, 1), st.none()),
}
#: (WHERE clause with one parameter, the decline it causes or None).  The
#: tables share the bare names id, k and v: a bare reference reads l's
#: value, as the joined row does.
_JOIN_FILTERS = [
    ("l.a >= ?", None),
    ("a >= ?", None),  # bare, unique to l
    ("z.a >= ?", None),  # unknown qualifier: falls back to the bare name
    ("v >= ?", None),  # bare name both tables have: l's value
    ("l.a >= ? and s != 'y'", None),
    ("r.w >= ?", "build_side_filter"),
    ("l.a >= ? and r.v is null", "build_side_filter"),
]
#: Select lists: only ``*`` is a fused spine, a projection over the join
#: keeps the kernels' memoised match.
_JOIN_PROJECTIONS = [
    "*",
    "l.id, r.w, v, r.v",
    "r.id, k, s, r.k",
    "w, a as renamed",
]
#: Padding columns on l that widen the joined row from 15 keys (too narrow
#: for the fused loop) to 15 + 2 x 8 = 31.
_WIDE_PAD = 8
assert 15 < _FUSED_JOIN_MIN_KEYS <= 15 + 2 * _WIDE_PAD


def _join_database(
    left, right, storage="dictionary", mode="vectorized", shards=0, pad=0
):
    database = Database(execution_mode=mode)
    padding = [f"p{i}" for i in range(pad)]
    for name, columns in (
        ("l", [*_JOIN_LEFT, *padding]),
        ("r", list(_JOIN_RIGHT)),
    ):
        database.create_table(
            name,
            [Column(column, ColumnType.INT) for column in ("id", *columns)],
            primary_key="id",
        )
    database.insert(
        "l",
        [
            {"id": i, **row, **dict.fromkeys(padding, i)}
            for i, row in enumerate(left)
        ],
    )
    database.insert("r", [{"id": i, **row} for i, row in enumerate(right)])
    if shards:
        # Keyed on id, not on k: the join takes the router's fallback
        # onto the aggregate views.
        database.shard_table("l", "id", shards)
        database.shard_table("r", "id", shards)
    for name in ("l", "r"):
        database.table(name).set_storage_mode(storage)
    return database


def _items(rows):
    return [list(row.items()) for row in rows]


class TestFusedJoin:
    """``Select+ → Join → (Scan, Scan)`` with wide rows: one probe loop."""

    @settings(max_examples=100, deadline=None)
    @example(
        left=[
            {"k": 1, "a": 0, "v": 1, "s": "x"},
            {"k": True, "a": 1, "v": 0, "s": None},
        ],
        right=[{"k": 1.0, "v": -1, "w": 0}, {"k": 1, "v": None, "w": 1}],
        storage="typed",
        shards=3,
        wide=True,
        filter_index=3,
        projection_index=0,
        reversed_condition=True,
        lows=(-1, 0, 1),
    )
    @given(
        left=st.lists(st.fixed_dictionaries(_JOIN_LEFT), max_size=8),
        right=st.lists(st.fixed_dictionaries(_JOIN_RIGHT), max_size=6),
        storage=st.sampled_from(STORAGE_MODES),
        shards=st.sampled_from([0, 3]),
        wide=st.booleans(),
        filter_index=st.integers(0, len(_JOIN_FILTERS) - 1),
        projection_index=st.integers(0, len(_JOIN_PROJECTIONS) - 1),
        reversed_condition=st.booleans(),
        lows=st.tuples(*[st.integers(-2, 2)] * 3),
    )
    def test_fused_join_equals_kernels_and_row_tiers(
        self,
        left,
        right,
        storage,
        shards,
        wide,
        filter_index,
        projection_index,
        reversed_condition,
        lows,
    ):
        where, decline = _JOIN_FILTERS[filter_index]
        projection = _JOIN_PROJECTIONS[projection_index]
        pad = _WIDE_PAD if wide else 0
        if projection != "*":
            decline = "not a spine"
        elif not wide:
            decline = "narrow_row"
        condition = "r.k = l.k" if reversed_condition else "l.k = r.k"
        sql = f"select {projection} from l join r on {condition} where {where}"
        databases = {
            mode: _join_database(left, right, storage, mode, shards, pad)
            for mode in ("vectorized", "compiled", "interpreted")
        }
        kernels = _join_database(left, right, storage, shards=shards, pad=pad)
        kernels._executor._vectorized.codegen_enabled = False
        databases["kernels"] = kernels
        databases["reference"] = _join_database(
            left, right, storage, "interpreted", pad=pad
        )
        statements = {
            name: database.prepare(sql) for name, database in databases.items()
        }
        fused = databases["vectorized"]
        writes = [
            # An insert appends to a built index ...
            lambda db: db.insert("r", [{"id": 100, "k": 1, "v": 0, "w": 1}]),
            # ... and an UPDATE of the key drops it for a rebuild.
            lambda db: db.execute_update_sql(
                "update r set k = ? where id = ?", (2, 0)
            ),
            lambda db: None,
        ]
        for low, write in zip(lows, writes):  # prepared re-execution
            before = fused.execution_stats()["vectorized"]
            expected = statements["reference"].execute((low,)).rows
            for name, statement in statements.items():
                got = statement.execute((low,)).rows
                assert _items(got) == _items(expected), name
            if expected and projection == "*":
                assert (len(expected[0]) >= _FUSED_JOIN_MIN_KEYS) is wide
            after = fused.execution_stats()["vectorized"]
            joins = after["join_executions"] - before["join_executions"]
            declines = {
                reason: count - before["join_declines"].get(reason, 0)
                for reason, count in after["join_declines"].items()
                if count != before["join_declines"].get(reason, 0)
            }
            path = statements["vectorized"].last_execution_path
            if decline is None:
                assert (joins, declines, path) == (1, {}, "codegen (join)")
            elif decline == "not a spine":
                assert (joins, declines, path) == (0, {}, "kernel")
            else:
                assert (joins, declines, path) == (0, {decline: 1}, "kernel")
            for database in databases.values():
                write(database)
        assert kernels.execution_stats()["vectorized"]["join_executions"] == 0
        assert fused.execution_stats()["vectorized"]["codegen_errors"] == 0

    def test_orders_customer_shape_matches_sqlite(self):
        from repro.workloads import tpcds

        database = tpcds.build_orders_database(400, 40, 3)
        connection = sqlite3.connect(":memory:")
        for name, table in database.tables.items():
            columns = table.schema.column_names
            marks = ", ".join("?" * len(columns))
            connection.execute(f"create table {name} ({', '.join(columns)})")
            connection.executemany(
                f"insert into {name} values ({marks})",
                [tuple(row[c] for c in columns) for row in table.rows],
            )
        sql = (
            "select * from orders o join customer c "
            "on o.o_customer_sk = c.c_customer_sk "
            "where o.o_item_sk >= ? and o.o_item_sk < ?"
        )
        statement = database.prepare(sql)
        kernels = Database()
        kernels.tables.update(database.tables)
        kernels._executor._vectorized.codegen_enabled = False
        for low in (1, 2_000, 7_000):
            params = (low, low + 1_500)
            cursor = connection.execute(sql, params)
            names = [column[0] for column in cursor.description]
            expected = sorted(cursor.fetchall())
            rows = statement.execute(params).rows
            assert statement.last_execution_path == "codegen (join)"
            assert rows and len(rows[0]) == 2 * len(names) == 40
            assert _items(rows) == _items(kernels.execute_sql(sql, params).rows)
            got = sorted(tuple(row[name] for name in names) for row in rows)
            assert got == expected
        stats = database.execution_stats()["vectorized"]
        assert stats["join_executions"] == 3

    def test_counters_and_explain(self):
        left = [{"k": i % 3, "a": i} for i in range(9)]
        right = [{"k": i, "w": i} for i in range(3)]
        database = _join_database(left, right, pad=_WIDE_PAD)
        sql = "select * from l join r on l.k = r.k where l.a > 2"
        result = database.explain_analyze(sql)
        assert "executed: vectorized via codegen (join)" in result.render()
        before = database.execution_stats()["vectorized"]
        reference = _join_database(
            left, right, mode="interpreted", pad=_WIDE_PAD
        )
        assert _items(database.execute_sql(sql).rows) == _items(
            reference.execute_sql(sql).rows
        )
        # An unlowerable conjunct: counted like any unsupported spine.
        with pytest.raises(ExpressionError):
            database.execute_sql(
                "select * from l join r on l.k = r.k where nofunc(l.id) > 1"
            )
        stats = database.execution_stats()["vectorized"]
        assert stats["join_executions"] == before["join_executions"] + 1
        assert stats["codegen_executions"] == before["codegen_executions"] + 1
        assert stats["join_declines"] == {"unsupported": 1}
        assert stats["fallback_reasons"]["codegen_unsupported"] == 1
        # A narrow joined row keeps the kernels' memoised match.
        narrow = _join_database(left, right)
        result = narrow.explain_analyze(sql)
        assert "executed: vectorized via kernel" in result.render()
        stats = narrow.execution_stats()["vectorized"]
        assert stats["join_declines"] == {"narrow_row": 1}
        assert stats["join_executions"] == 0

    def test_conjunct_raising_on_an_unmatched_row_only_costs_a_rerun(self):
        # No r row has k = 9, so only the fused loop evaluates "text" + 1.
        left = [{"k": 1, "a": 5}, {"k": 9, "a": "text"}]
        sql = "select * from l join r on l.k = r.k where a + 1 > ?"
        database = _join_database(left, [{"k": 1}], pad=_WIDE_PAD)
        reference = _join_database(
            left, [{"k": 1}], mode="interpreted", pad=_WIDE_PAD
        )
        rows = database.execute_sql(sql, (0,)).rows
        assert rows and rows == reference.execute_sql(sql, (0,)).rows
        stats = database.execution_stats()["vectorized"]
        assert stats["join_declines"] == {"error": 1}
        assert stats["codegen_errors"] == 1
        assert database._executor.last_execution_path == "kernel"

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_unhashable_keys_raise_like_the_row_tiers(self, side):
        # An unhashable key in a row the filter drops still fails every
        # tier's join; the fused loop declines and the error surfaces.
        sql = "select * from l join r on l.k = r.k where l.a > ?"
        left = [{"k": 1, "a": 1}, {"k": 2, "a": 0}]
        databases = [
            _join_database(left, [{"k": 1}], "boxed", mode, pad=_WIDE_PAD)
            for mode in ("vectorized", "interpreted")
        ]
        fused = databases[0]
        assert fused.execute_sql(sql, (0,)).rows  # builds r's index
        for database in databases:
            database.insert(side, [{"id": 7, "k": [1]}])
            with pytest.raises(TypeError):
                database.execute_sql(sql, (0,))
        stats = fused.execution_stats()["vectorized"]
        reason = "unhashable_key" if side == "r" else "error"
        assert stats["join_declines"] == {reason: 1}
        assert stats["join_executions"] == 1

    def test_unfiltered_join_keeps_the_memoised_kernel_path(self):
        database = make_database()
        statement = database.prepare(
            "select o.o_id, c.c_name from orders o join customers c "
            "on o.o_c_id = c.c_id"
        )
        statement.execute()
        assert statement.last_execution_path == "kernel"
        assert statement._exec_plan in database._executor._vectorized._ops
        stats = database.execution_stats()["vectorized"]
        assert (stats["join_executions"], stats["join_declines"]) == (0, {})

    def test_co_partitioned_join_counts_on_every_shard(self):
        left = [{"k": i % 7, "a": i % 5} for i in range(40)]
        right = [{"k": i, "w": i % 2} for i in range(7)]
        database = _join_database(left, right, pad=_WIDE_PAD)
        database.shard_table("l", "k", 3)
        database.shard_table("r", "k", 3)
        reference = _join_database(
            left, right, mode="interpreted", pad=_WIDE_PAD
        )
        sql = "select * from l join r on l.k = r.k where l.a > ?"
        assert canon(database.execute_sql(sql, (2,)).rows) == canon(
            reference.execute_sql(sql, (2,)).rows
        )
        assert database._executor.last_execution_path == "codegen (join)"
        stats = database.execution_stats()["vectorized"]
        assert stats["join_executions"] == 3
        assert stats["join_declines"] == {}
        # A filter on the build side declines on the first shard, which
        # sends the scatter to the kernels; the shard executors' reasons
        # merge like every vectorized counter.
        sql = sql.replace("l.a > ?", "r.w != ?")
        assert canon(database.execute_sql(sql, (1,)).rows) == canon(
            reference.execute_sql(sql, (1,)).rows
        )
        stats = database.execution_stats()["vectorized"]
        assert stats["join_executions"] == 3
        assert stats["join_declines"] == {"build_side_filter": 1}
        assert set(database._executor.vectorized_stats) == {
            *VECTORIZED_COUNTER_KEYS,
            *VECTORIZED_REASON_KEYS,
        }
