"""Typed / dictionary-encoded columnar storage and fused-pipeline codegen.

Covers the physical-layout inference (``encode_column`` and the storage-mode
knob), the lifecycle of the encoded views across mutation and shard
rehoming, the wide-row template cache, bit-identical results across every
{storage mode} x {codegen, kernel} x {execution tier} combination (sharded
and unsharded), and the codegen observability counters.
"""

from __future__ import annotations

from array import array

import pytest

from repro.db.database import Database
from repro.db.schema import Column, ColumnType
from repro.db.table import STORAGE_MODES, Table, encode_column


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

#: Shapes beyond the codegen subset (joins, sorts): kernel or row-tier
#: served, included in the equivalence sweep only.
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
        assert table.column_encodings() == {}  # stale view dropped
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
        rebuilt = table.wide_rows("o")
        assert rebuilt is not first
        assert len(rebuilt) == len(table.rows)


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
