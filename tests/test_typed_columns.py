"""Columnar storage (plain value lists plus layout facts) and fused codegen.

Covers the layout-fact inference (``derive_facts``), the guard that every
column handed out is exactly a ``list`` (unsharded, per shard partition and
unpacked from a process-pool payload), the lifecycle of the columnar view
across mutation and shard rehoming, the wide-row template cache,
bit-identical results across every {natural, boxed-by-data layout} x
{codegen, kernel} x {execution tier} combination (sharded and unsharded),
the codegen observability counters, and the property that views and facts
maintained in place through any write history equal freshly built ones.
"""

from __future__ import annotations

import copy
import pickle
import sqlite3

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.db import algebra
from repro.db.database import Database
from repro.db.expressions import AmbiguousColumnError, ExpressionError
from repro.db.schema import Column, ColumnType, TableSchema
from repro.db.parallel import pack_table, unpack_table
from repro.db.sqlgen import to_sql
from repro.db.sqlparser import parse_sql
from repro.db.table import Table, derive_facts
from repro.db.vectorized import (
    _FUSED_JOIN_MIN_KEYS,
    VECTORIZED_COUNTER_KEYS,
    VECTORIZED_REASON_KEYS,
)


def make_database(boxed: bool = False, **kwargs) -> Database:
    """Orders and customers; ``boxed`` puts one bool into ``o_c_id`` and one
    int into ``o_total``, so both numeric columns take the boxed layout."""
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
    orders = [
        {
            "o_id": i,
            "o_c_id": i % 7 if i % 11 else None,
            "o_total": float(i * 3 % 17) if i % 5 else None,
            "o_status": ("OPEN", "DONE", "HOLD")[i % 3],
        }
        for i in range(240)
    ]
    if boxed:
        orders[1].update(o_c_id=True, o_total=3)
    database.insert("orders", orders)
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


#: the layout facts of make_database()'s orders table.
ORDERS_FACTS = {
    "o_id": ("int", False),
    "o_c_id": ("int", True),
    "o_total": ("float", True),
    "o_status": ("boxed", False),
}


class TestLayoutFacts:
    @pytest.mark.parametrize(
        "values,facts",
        [
            ([1, 2, 3], ("int", False)),
            ([1, None, 3, None], ("int", True)),
            ([1.5, None, 2.5], ("float", True)),
            ([1 << 80, 2], ("int", False)),  # no width limit on an int
            (["a", "b"], ("boxed", False)),
            (["a", None], ("boxed", True)),
            ([1, 2.5], ("boxed", False)),  # mixed numeric kinds
            ([True, False], ("boxed", False)),  # bool is a type of its own
            ([], ("boxed", False)),  # no rows, nothing to infer
            ([None, None], ("boxed", True)),
            ([{"k": 1}], ("boxed", False)),  # arbitrary objects
        ],
    )
    def test_derive_facts(self, values, facts):
        assert derive_facts(values) == facts

    def test_table_keeps_facts_and_a_cached_signature(self):
        table = make_database().table("orders")
        assert table.column_facts() == {}  # never triggers a build
        store = table.columns()
        assert table.column_facts() == ORDERS_FACTS
        assert list(store) == list(ORDERS_FACTS)
        assert table.layout() == tuple(ORDERS_FACTS.values())
        assert table.layout() is table.layout()
        boxed = make_database(boxed=True).table("orders")
        assert boxed.layout() == (
            ("int", False),
            ("boxed", True),
            ("boxed", True),
            ("boxed", False),
        )

    @pytest.mark.parametrize(
        "values,appended,rederived",
        [
            ([1, 2], 3, False),
            ([1, None], None, False),
            (["a"], "b", False),
            (["a", 1], "b", False),  # a str cannot make a boxed column typed
            ([1, 2], None, True),  # the first NULL
            ([1, 2], 2.5, True),
            ([1, 2], True, True),  # bool boxes an int column
            ([1.5], 2, True),
            (["a"], 1, True),  # re-derived, and still boxed
            ([None, None], 7, True),  # all-NULL becomes int
            ([], 7, True),  # empty becomes int
        ],
    )
    def test_append_keeps_the_facts_of_a_fresh_build(
        self, values, appended, rederived
    ):
        table = Table(TableSchema("t", [Column("v", ColumnType.INT)]))
        table.adopt_rows({"v": value} for value in values)
        table.columns()
        table.insert({"v": appended})
        assert table.column_facts() == (
            {} if rederived else {"v": derive_facts(values)}
        )
        assert table.columns()["v"] == values + [appended]
        assert table.column_facts() == {"v": derive_facts(values + [appended])}
        assert table.column_reencodes == int(rederived)

    @pytest.mark.parametrize(
        "values,position,value,rederived",
        [
            ([1, 2], 0, 5, False),
            ([1, None, None], 1, None, False),
            ([1, 2], 0, None, True),  # the first NULL
            ([1, None], 1, 3, True),  # the last NULL goes
            ([1, 2], 1, 2.0, True),
            ([1, 2.5], 1, 3, True),  # the last float goes: int again
        ],
    )
    def test_overwrite_keeps_the_facts_of_a_fresh_build(
        self, values, position, value, rederived
    ):
        table = Table(TableSchema("t", [Column("v", ColumnType.INT)]))
        table.adopt_rows({"v": v} for v in values)
        table.columns()
        table.apply_update([(position, {"v": value})])
        expected = list(values)
        expected[position] = value
        assert table.columns()["v"] == expected
        assert table.column_facts() == {"v": derive_facts(expected)}
        assert table.column_reencodes == int(rederived)


def _assert_plain_columns(table, rows=None):
    """``table`` hands out exact lists whose values and facts equal a fresh
    table's over ``rows`` (default: its own rows)."""
    store = table.columns()
    assert all(type(column) is list for column in store.values())
    fresh = Table(table.schema)
    fresh.adopt_rows(copy.deepcopy(table.rows if rows is None else rows))
    assert store == fresh.columns()
    assert table.column_facts() == fresh.column_facts()
    assert table.layout() == fresh.layout()


class TestPlainListColumns:
    """Every column ``columns()`` hands out is exactly a ``list``: a list
    subclass misses CPython's specialized list subscript, which every
    gather in the executor pays for."""

    def test_unsharded_columns_before_and_after_writes(self):
        database = make_database()
        table = database.table("orders")
        _assert_plain_columns(table)
        database.insert("orders", [{"o_id": 900, "o_status": "NEW"}])
        database.execute_update_sql(
            "update orders set o_total = ? where o_id = ?", (True, 3)
        )
        _assert_plain_columns(table)
        assert table.column_facts()["o_total"] == ("boxed", True)

    def test_every_shard_partition(self):
        database = make_database()
        database.shard_table("orders", "o_c_id", 3)
        database.execute_sql("select * from orders where o_total > 3.0")
        database.execute_update_sql(
            "update orders set o_c_id = ? where o_id = ?", (5, 0)
        )
        for shard in database.table("orders").shards:
            _assert_plain_columns(shard)

    @pytest.mark.parametrize("boxed", [False, True])
    def test_process_pool_payload_round_trip(self, boxed):
        table = make_database(boxed=boxed).table("orders")
        payload = pickle.loads(pickle.dumps(pack_table(table)))
        unpacked = unpack_table(payload, table.version)
        assert unpacked.rows == table.rows
        assert unpacked.version == table.version
        _assert_plain_columns(unpacked, table.rows)
        assert unpacked.column_facts() == table.column_facts()


class TestColumnarViewLifecycle:
    def test_insert_extends_the_built_view(self):
        table = make_database().table("orders")
        store = table.columns()
        before = table.version
        table.insert({"o_id": 9001, "o_c_id": 1, "o_total": 2.0,
                      "o_status": "NEW"})
        assert table.version > before
        # The built view was extended, not dropped, and no fact moved.
        assert table.columns() is store
        assert store["o_status"][-1] == "NEW"
        assert len(store["o_status"]) == len(table.rows)
        assert table.column_facts() == ORDERS_FACTS
        assert table.column_reencodes == 0

    def test_columns_follow_shard_rehoming(self):
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
            assert store["o_status"] == [row["o_status"] for row in shard.rows]
            assert shard.column_facts()["o_status"] == ("boxed", False)
        moved = sharded.shards[sharded.shard_index(5)]
        assert any(row["o_id"] == 0 for row in moved.rows)



    def test_writes_that_keep_facts_patch_and_others_rederive_one_column(self):
        table = make_database().table("orders")
        store = table.columns()
        status = store["o_status"]
        layout = table.layout()

        def write(o_id_value, **values):
            table.update_rows(lambda row: row["o_id"] == o_id_value, values)
            return table.columns()

        # A same-type overwrite keeps every fact: patched, nothing derived.
        assert write(3, o_status="FRESH") is store
        assert store["o_status"] is status and status[3] == "FRESH"
        assert table.column_reencodes == 0 and table.patched_updates == 1
        assert table.layout() is layout
        # The first NULL of a null-free column queues that column; its
        # facts are re-derived, lazily, and the list is the same object.
        table.update_rows(lambda row: row["o_id"] == 4, {"o_status": None})
        assert table.column_facts().keys() == store.keys() - {"o_status"}
        assert table.column_reencodes == 0
        assert table.columns() is store and table.column_reencodes == 1
        assert store["o_status"] is status and status[4] is None
        assert table.column_facts()["o_status"] == ("boxed", True)
        assert table.layout() != layout
        # Clearing the last NULL re-derives again: a fresh build's facts.
        write(4, o_status="OPEN")
        assert table.column_facts()["o_status"] == ("boxed", False)
        assert table.layout() == layout and table.column_reencodes == 2
        # A type change re-derives that column only.
        write(6, o_c_id=True)
        assert table.column_facts() == {
            **ORDERS_FACTS, "o_c_id": ("boxed", True)
        }
        assert table.column_reencodes == 3

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


class TestLayoutTierEquivalence:
    """Bit-identical rows across layouts, codegen on/off, and tiers."""

    @pytest.fixture(scope="class")
    def reference(self):
        references = {}
        for boxed in (False, True):
            database = make_database(boxed, execution_mode="interpreted")
            references[boxed] = {
                sql: database.execute_sql(sql).rows
                for sql in CODEGEN_QUERIES + EXTRA_QUERIES
            }
        return references

    @pytest.mark.parametrize("boxed", [False, True])
    @pytest.mark.parametrize("codegen", [True, False])
    @pytest.mark.parametrize("mode", ["vectorized", "compiled", "interpreted"])
    def test_unsharded_rows_identical(self, reference, boxed, codegen, mode):
        database = make_database(boxed, execution_mode=mode)
        vectorized = database._executor._vectorized
        if vectorized is not None:
            vectorized.codegen_enabled = codegen
        for sql in CODEGEN_QUERIES + EXTRA_QUERIES:
            assert database.execute_sql(sql).rows == reference[boxed][sql], (
                boxed, codegen, mode, sql,
            )

    @pytest.mark.parametrize("boxed", [False, True])
    @pytest.mark.parametrize("codegen", [True, False])
    def test_sharded_rows_identical(self, reference, boxed, codegen):
        database = make_database(boxed)
        database.shard_table("orders", "o_c_id", 3)
        database.shard_table("customers", "c_id", 3)
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
            assert canon(got) == canon(reference[boxed][sql]), (boxed, codegen, sql)


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

    def test_only_a_fact_change_recompiles_pipeline(self):
        database = make_database()
        statement = database.prepare("select * from orders where o_total > ?")
        statement.execute((3.0,))
        sql = "update orders set o_total = ? where o_id = ?"
        database.execute_update_sql(sql, (4.0, 2))  # float over float
        statement.execute((3.0,))
        vectorized = database._executor._vectorized
        assert vectorized.pipelines_compiled == 1
        database.execute_update_sql(sql, (4, 2))  # an int boxes o_total
        statement.execute((3.0,))
        # Different layout signature => second compilation.
        assert vectorized.pipelines_compiled == 2

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
        assert stats["encodings"] == {"int": 2, "float": 1, "boxed": 1}

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


def _history_database(boxed: bool = False, **kwargs) -> Database:
    """Tables ``t`` and ``u``; ``boxed`` puts one bool into ``t.k`` and one
    int into ``t.f``, so both start in the boxed layout."""
    database = Database(wal=True, **kwargs)
    database.create_table("t", _T_COLUMNS, primary_key="id")
    database.create_table(
        "u",
        [Column("k", ColumnType.INT), Column("label", ColumnType.STRING, width=8)],
        primary_key="k",
    )
    rows = [
        {"id": i, "k": i % 3, "f": float(i), "s": "ab"[i % 2]}
        for i in range(6)
    ]
    if boxed:
        rows[1].update(k=True, f=1)
    database.insert("t", rows)
    database.insert("u", [{"k": k, "label": f"u{k}"} for k in range(5)])
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


def _assert_views_match_rebuild(table, model):
    """Every derived view of ``table`` equals a fresh table's over ``model``."""
    assert table.rows == model
    fresh = Table(table.schema)
    fresh.adopt_rows(copy.deepcopy(model))
    store, fresh_store = table.columns(), fresh.columns()
    assert list(store) == list(fresh_store)
    for name, data in store.items():
        values = [row[name] for row in model]
        assert type(data) is list and data == values
        assert [type(v) for v in data] == [type(v) for v in values]
    assert table.column_facts() == fresh.column_facts()
    assert table.layout() == fresh.layout()
    # A scan copies the stored rows: each must keep the schema's order.
    assert all(list(row) == table.schema.column_names for row in table.rows)
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

    @settings(max_examples=60, deadline=None)
    @given(
        history=_histories(
            {name: st.one_of(values, _ANYTHING) for name, values in _NATURAL.items()}
        ),
        data=st.data(),
    )
    def test_patched_views_equal_rebuilt_views(self, history, data):
        database = _history_database()
        model = [dict(row) for row in database.table("t").rows]
        ran = {"inserts": 0, "scan_updates": 0, "point_updates": 0}

        def write(op):
            ran[_apply_write(database, model, op)] += 1

        for op in history:
            if op[0] == "read":
                _assert_views_match_rebuild(database.table("t"), model)
            elif op[0] == "recover":
                # Crash: only the log survives; replay is positional too.
                database = Database.recover(database.wal)
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
        # one access path.
        stats = database.execution_stats()["storage"]
        assert stats["scan_updates"] == ran["scan_updates"]
        assert stats["point_updates"] == ran["point_updates"]
        assert stats["patched_updates"] == database.table("t").patched_updates

    QUERIES = (
        "select * from t where k > 1",
        "select id, s from t where s = 'a'",
        "select k, count(*) as n, sum(f) as total from t group by k",
        "select t.id, u.label from t join u on t.k = u.k",
    )

    @pytest.mark.parametrize("boxed", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(history=_histories(_NATURAL))
    def test_queries_identical_across_tiers_and_snapshots(self, boxed, history):
        modes = ("vectorized", "compiled", "interpreted")
        databases = {
            mode: _history_database(boxed, execution_mode=mode, mvcc=True)
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
#: strings (case-distinct), bools and a nullable int column.
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


def _topk_database(rows, mode="vectorized", shards=0):
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
    return database


def _has_nan(value):
    return isinstance(value, float) and value != value


class TestFusedTopK:
    """``Limit → Sort`` spines: one fused loop into ``heapq.nsmallest``."""

    @settings(max_examples=100, deadline=None)
    @example(
        rows=[dict.fromkeys(_TOPK_COLUMNS, 1)] * 4,
        boxed=False,
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
        boxed=st.booleans(),
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
        self, rows, boxed, shards, keys, projection, k_choice, lows, nan_at
    ):
        rows = [dict(row) for row in rows]
        if nan_at is not None:  # a NaN in a row every filter keeps
            rows[nan_at % len(rows)].update(a=2, f=_NAN, m=_NAN)
        if boxed:  # a bool in a and an int in f: both columns boxed
            rows.append({**rows[0], "a": True, "f": 1})
        n = len(rows)
        k = max(0, {"0": 0, "1": 1, "n-1": n - 1, "n": n, "n+3": n + 3}[k_choice])
        order = ", ".join(f"{c}{'' if asc else ' desc'}" for c, asc in keys)
        base = f"select {projection} from t where a >= ? order by {order}"
        reference = _topk_database(rows, mode="interpreted")
        databases = {
            mode: _topk_database(rows, mode=mode, shards=shards)
            for mode in ("vectorized", "compiled", "interpreted")
        }
        kernels = _topk_database(rows, shards=shards)
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
        database = _topk_database([row] * 3)
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
#: tables share the bare names id, k and v, which the joined row carries
#: qualified (``l.v``, ``r.v``): a bare reference to one is ambiguous and
#: fails at prepare, before any tier runs.
_JOIN_FILTERS = [
    ("l.a >= ?", None),
    ("a >= ?", None),  # bare, unique to l
    ("z.a >= ?", None),  # unknown qualifier: falls back to the bare name
    ("l.v >= ?", None),  # a shared name, qualified
    ("v >= ?", "ambiguous"),  # a shared name, bare
    ("l.a >= ? and s != 'y'", None),
    ("r.w >= ?", "build_side_filter"),
    ("l.a >= ? and r.v is null", "build_side_filter"),
]
#: Select lists: only ``*`` is a fused spine, a projection over the join
#: keeps the kernels' memoised match.
_JOIN_PROJECTIONS = [
    "*",
    "l.id, r.w, l.v, r.v",
    "r.id, l.k, s, r.k",
    "w, a as renamed",
    "w, v",  # a shared name, bare: ambiguous
]
#: Padding columns on l that widen the joined row from 9 columns (too
#: narrow for the fused loop) to 9 + 8 = 17.
_WIDE_PAD = 8
assert 9 < _FUSED_JOIN_MIN_KEYS <= 9 + _WIDE_PAD


def _join_database(
    left, right, boxed=False, mode="vectorized", shards=0, pad=0
):
    """Tables ``l`` and ``r``; ``boxed`` appends a row to each that joins
    nothing but boxes every non-key column it holds (a bool, a float)."""
    if boxed:
        left = [*left, {"k": None, "a": True, "v": 0.5, "s": None}]
        right = [*right, {"k": None, "v": True, "w": 0.5}]
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
        boxed=False,
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
        boxed=st.booleans(),
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
        boxed,
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
        ambiguous = decline == "ambiguous" or projection == "w, v"
        if projection != "*":
            decline = "not a spine"
        elif not wide:
            decline = "narrow_row"
        condition = "r.k = l.k" if reversed_condition else "l.k = r.k"
        sql = f"select {projection} from l join r on {condition} where {where}"
        databases = {
            mode: _join_database(left, right, boxed, mode, shards, pad)
            for mode in ("vectorized", "compiled", "interpreted")
        }
        kernels = _join_database(left, right, boxed, shards=shards, pad=pad)
        kernels._executor._vectorized.codegen_enabled = False
        databases["kernels"] = kernels
        databases["reference"] = _join_database(
            left, right, boxed, "interpreted", pad=pad
        )
        if ambiguous:
            # Every tier refuses it at prepare, empty tables included, and
            # nothing counts as a missing lowering or a kernel error.
            for name, database in databases.items():
                with pytest.raises(AmbiguousColumnError):
                    database.prepare(sql)
            stats = databases["vectorized"].execution_stats()["vectorized"]
            assert stats["fallback_reasons"] == {}
            assert stats["join_declines"] == {}
            assert stats["codegen_errors"] == 0
            return
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
            expected = _items(statements["reference"].execute((low,)).rows)
            for name, statement in statements.items():
                assert _items(statement.execute((low,)).rows) == expected, name
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
            # orders and customer share no column name: one bare key each,
            # customer's (the build side's) first.
            assert rows and len(rows[0]) == len(names) == 20
            assert list(rows[0]) == names[13:] + names[:13]
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
            _join_database(left, [{"k": 1}], mode=mode, pad=_WIDE_PAD)
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
        # sends the statement to the aggregate view, whose fused loop
        # declines it once more; the shard executors' reasons merge like
        # every vectorized counter.
        sql = sql.replace("l.a > ?", "r.w != ?")
        assert (
            database.execute_sql(sql, (1,)).rows
            == reference.execute_sql(sql, (1,)).rows
        )
        assert database.sharding_stats()["fallback"] == 1
        stats = database.execution_stats()["vectorized"]
        assert stats["join_executions"] == 3
        assert stats["join_declines"] == {"build_side_filter": 2}
        assert set(database._executor.vectorized_stats) == {
            *VECTORIZED_COUNTER_KEYS,
            *VECTORIZED_REASON_KEYS,
        }
