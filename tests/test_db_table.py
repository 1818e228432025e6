"""Unit tests for row storage."""

import pytest

from repro.db.schema import Column, ColumnType, SchemaError, TableSchema
from repro.db.table import Table


@pytest.fixture()
def people() -> Table:
    schema = TableSchema(
        "people",
        [
            Column("person_id", ColumnType.INT),
            Column("name", ColumnType.STRING, width=16),
            Column("city", ColumnType.STRING, width=16),
        ],
        primary_key="person_id",
    )
    table = Table(schema)
    table.insert_many(
        [
            {"person_id": 1, "name": "ann", "city": "pune"},
            {"person_id": 2, "name": "bob", "city": "mumbai"},
            {"person_id": 3, "name": "carol", "city": "pune"},
        ]
    )
    return table


class TestInsert:
    def test_insert_fills_missing_columns_with_none(self, people):
        stored = people.insert({"person_id": 4})
        assert stored["name"] is None and stored["city"] is None

    def test_insert_rejects_unknown_columns(self, people):
        with pytest.raises(SchemaError, match="unknown columns"):
            people.insert({"person_id": 5, "height": 180})

    def test_insert_many_returns_count(self, people):
        added = people.insert_many(
            [{"person_id": 10 + i, "name": f"p{i}"} for i in range(4)]
        )
        assert added == 4
        assert len(people) == 7

    def test_len_and_iter(self, people):
        assert len(people) == 3
        assert sum(1 for _ in people) == 3


class TestLookup:
    def test_primary_key_lookup_returns_copy(self, people):
        row = people.lookup_pk(2)
        assert row["name"] == "bob"
        row["name"] = "mutated"
        assert people.lookup_pk(2)["name"] == "bob"

    def test_primary_key_miss_returns_none(self, people):
        assert people.lookup_pk(99) is None

    def test_lookup_without_pk_index_raises(self):
        schema = TableSchema("t", [Column("a")])
        with pytest.raises(SchemaError, match="no primary key"):
            Table(schema).lookup_pk(1)

    def test_scan_yields_copies(self, people):
        for row in people.scan():
            row["name"] = "x"
        assert people.lookup_pk(1)["name"] == "ann"


class TestMaintenance:
    def test_distinct_count(self, people):
        assert people.distinct_count("city") == 2
        assert people.distinct_count("person_id") == 3

    def test_distinct_count_unknown_column(self, people):
        with pytest.raises(SchemaError):
            people.distinct_count("unknown")

    def test_clear(self, people):
        people.clear()
        assert len(people) == 0
        assert people.lookup_pk(1) is None

    def test_row_width_follows_schema(self, people):
        assert people.row_width == 8 + 16 + 16

    def test_update_rows(self, people):
        changed = people.update_rows(
            lambda row: row["city"] == "pune", {"city": "pnq"}
        )
        assert changed == 2
        assert people.lookup_pk(1)["city"] == "pnq"
        assert people.lookup_pk(2)["city"] == "mumbai"

    def test_update_rows_with_callable_value(self, people):
        people.update_rows(
            lambda row: True, {"name": lambda row: row["name"].upper()}
        )
        assert people.lookup_pk(3)["name"] == "CAROL"

    def test_update_rows_unknown_column(self, people):
        with pytest.raises(SchemaError):
            people.update_rows(lambda row: True, {"missing": 1})


class TestPrimaryKeyReindexOnUpdate:
    def test_update_changing_pk_moves_index_entry(self, people):
        people.update_rows(
            lambda row: row["person_id"] == 2, {"person_id": 20}
        )
        assert people.lookup_pk(2) is None
        moved = people.lookup_pk(20)
        assert moved is not None and moved["name"] == "bob"

    def test_update_keeping_pk_leaves_index_intact(self, people):
        people.update_rows(
            lambda row: row["person_id"] == 2, {"city": "delhi"}
        )
        assert people.lookup_pk(2)["city"] == "delhi"

    def test_pk_update_does_not_drop_reclaimed_key(self, people):
        # 2 -> 20, then 3 -> 2: the key 2 now belongs to carol's row and a
        # later unrelated update must not evict it.
        people.update_rows(lambda row: row["person_id"] == 2, {"person_id": 20})
        people.update_rows(lambda row: row["person_id"] == 3, {"person_id": 2})
        assert people.lookup_pk(2)["name"] == "carol"
        assert people.lookup_pk(20)["name"] == "bob"
        assert people.lookup_pk(3) is None

    def test_duplicate_keys_answer_with_the_last_position(self, people):
        # Keys are hints, not constraints: of two holders the later row
        # answers, whichever of them was written last.
        people.update_rows(lambda row: row["person_id"] == 3, {"person_id": 2})
        assert people.lookup_pk(2)["name"] == "carol"
        people.update_rows(lambda row: row["name"] == "bob", {"person_id": 9})
        people.update_rows(lambda row: row["name"] == "bob", {"person_id": 2})
        assert people.lookup_pk(2)["name"] == "carol"
        people.insert({"person_id": 2, "name": "dave"})
        assert people.lookup_pk(2)["name"] == "dave"
        fresh = Table(people.schema)
        fresh.adopt_rows([dict(row) for row in people.rows])
        assert fresh.lookup_pk(2) == people.lookup_pk(2)

    def test_unhashable_keys_are_found_by_scan(self, people):
        people.insert({"person_id": [4], "name": "dave"})
        assert people.lookup_pk([4])["name"] == "dave"
        assert people.lookup_pk(2)["name"] == "bob"
        assert people.lookup_pk(99) is None


class TestSecondaryIndexesAndCachedStats:
    def test_position_index_groups_positions_and_skips_nulls(self, people):
        people.insert({"person_id": 4, "name": "dave", "city": None})
        index = people.position_index("city")
        assert index == {"pune": [0, 2], "mumbai": [1]}
        assert None not in index

    def test_position_index_unknown_column_is_none(self, people):
        assert people.position_index("height") is None
        assert people.positions_for("height", 1) is None

    def test_index_invalidated_on_insert(self, people):
        first = people.position_index("city")
        assert len(first["pune"]) == 2
        people.insert({"person_id": 4, "name": "dave", "city": "pune"})
        assert people.position_index("city") is first  # extended in place
        assert first["pune"] == [0, 2, 3]

    def test_index_invalidated_on_update(self, people):
        first = people.position_index("city")
        assert len(first["pune"]) == 2
        people.update_rows(lambda row: row["name"] == "bob", {"city": "pune"})
        assert people.position_index("city") is not first
        assert people.position_index("city")["pune"] == [0, 1, 2]

    def test_update_keeps_the_indexes_of_other_columns(self, people):
        first = people.position_index("city")
        people.update_rows(lambda row: row["name"] == "bob", {"name": "rob"})
        assert people.position_index("city") is first

    def test_index_invalidated_on_clear(self, people):
        people.position_index("city")
        people.clear()
        assert people.position_index("city") == {}

    def test_distinct_count_cached_and_invalidated(self, people):
        assert people.distinct_count("city") == 2
        people.insert({"person_id": 4, "name": "dave", "city": "delhi"})
        assert people.distinct_count("city") == 3

    def test_version_bumps_on_every_mutation(self, people):
        version = people.version
        people.insert({"person_id": 4, "name": "dave", "city": "pune"})
        assert people.version > version
        version = people.version
        people.update_rows(lambda row: True, {"city": "x"})
        assert people.version > version
        version = people.version
        people.clear()
        assert people.version > version


class TestUpdateStatementAtomicity:
    def test_failed_update_leaves_table_unchanged(self, people):
        index_before = people.position_index("city")
        assert len(index_before["pune"]) == 2
        version_before = people.version

        calls = []

        def flaky(row):
            calls.append(row["person_id"])
            if len(calls) > 1:
                raise RuntimeError("boom")
            return "delhi"

        with pytest.raises(RuntimeError):
            people.update_rows(lambda row: True, {"city": flaky})
        # The update is statement-atomic: the failure on the second row
        # means *no* row was rewritten, not even the first.
        assert people.version == version_before
        assert people.position_index("city") is index_before
        assert "delhi" not in index_before
        assert len(index_before["pune"]) == 2
        assert people.distinct_count("city") == 2

    def test_failed_predicate_leaves_table_unchanged(self, people):
        def flaky_predicate(row):
            if row["person_id"] == 3:
                raise TypeError("bad comparison")
            return True

        with pytest.raises(TypeError):
            people.update_rows(flaky_predicate, {"city": "delhi"})
        assert [row["city"] for row in people.rows] == [
            "pune",
            "mumbai",
            "pune",
        ]

    def test_truncate_to_removes_tail_and_pk_entries(self, people):
        people.insert({"person_id": 4, "name": "dave", "city": "goa"})
        people.insert({"person_id": 5, "name": "erin", "city": "goa"})
        removed = people.truncate_to(3)
        assert removed == 2
        assert len(people) == 3
        assert people.lookup_pk(4) is None
        assert people.lookup_pk(5) is None
        assert people.truncate_to(3) == 0
        assert people.lookup_pk(1)["name"] == "ann"


class TestColumnarView:
    def test_columns_are_aligned_value_arrays(self, people):
        store = people.columns()
        assert list(store) == ["person_id", "name", "city"]
        assert store["person_id"] == [1, 2, 3]
        assert store["name"] == ["ann", "bob", "carol"]
        assert store["city"] == ["pune", "mumbai", "pune"]

    def test_columns_cached_until_mutation(self, people):
        first = people.columns()
        assert people.columns() is first  # same object while unchanged

    def test_insert_invalidates_columnar_view(self, people):
        people.columns()
        people.insert({"person_id": 4, "name": "dave", "city": "delhi"})
        after = people.columns()
        assert after["city"] == ["pune", "mumbai", "pune", "delhi"]
        assert after["person_id"] == [1, 2, 3, 4]

    def test_update_invalidates_columnar_view(self, people):
        people.columns()
        people.update_rows(lambda row: row["city"] == "pune", {"city": "goa"})
        after = people.columns()
        assert after["city"] == ["goa", "mumbai", "goa"]
        assert after["name"] == ["ann", "bob", "carol"]

    def test_clear_invalidates_columnar_view(self, people):
        people.columns()
        people.clear()
        assert people.columns() == {"person_id": [], "name": [], "city": []}
