"""Quickstart: optimize the paper's motivating example end to end.

This example walks the full COBRA pipeline on program P0 (Figure 3a of the
paper) through the unified :class:`repro.api.Engine` facade: build an engine
over the orders workload, point the optimizer at the program source, look at
the alternatives and the cost-based choice under two network conditions, and
finally execute the generated program to confirm it computes the same result
faster.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import Engine
from repro.workloads import programs


def optimize_for(network_name: str, num_orders: int, num_customers: int) -> None:
    print(f"\n=== {network_name}: {num_orders} orders, {num_customers} customers ===")
    engine = (
        Engine.builder()
        .orders_workload(num_orders=num_orders, num_customers=num_customers)
        .network(network_name)
        .build()
    )

    result = engine.optimize(programs.P0_SOURCE)
    print(f"alternatives generated : {result.alternatives_added}")
    print(f"original estimated cost: {result.original_cost:10.3f} s")
    print(f"best estimated cost    : {result.best_cost:10.3f} s")
    print(f"chosen strategy        : {result.primary_choice()}")
    print("rewritten program:")
    print(result.rewritten_source)

    # Execute the generated program and the original, and compare.
    runtime = engine.runtime()
    namespace = {"my_func": programs.my_func}
    exec(compile(result.rewritten_source, "<rewritten>", "exec"), namespace)
    rewritten = namespace["process_orders"]

    original_run = runtime.measure(programs.p0_orm)
    rewritten_run = runtime.measure(lambda rt: sorted(rewritten(rt)))
    assert original_run.result == rewritten_run.result, "results must match"
    print(
        f"measured: original {original_run.elapsed_seconds:.3f}s "
        f"({original_run.queries} queries)  ->  rewritten "
        f"{rewritten_run.elapsed_seconds:.3f}s ({rewritten_run.queries} queries)"
    )


def snapshot_reads_demo() -> None:
    """Two connections on one MVCC server: a snapshot opened before a
    concurrent transaction commits keeps seeing the old rows."""
    print("\n=== MVCC: snapshot reads under a concurrent writer ===")
    engine = (
        Engine.builder()
        .orders_workload(num_orders=500, num_customers=50)
        .network("fast-local")
        .mvcc()
        .build()
    )
    reader, writer = engine.connect(), engine.connect()
    sql = "select * from orders where o_id = ?"

    snap = engine.database.snapshot()  # pin the current committed state
    before = snap.execute(sql, (1,)).rows[0]["o_quantity"]
    writer.run_transaction(  # retries SerializationError automatically
        lambda conn: conn.execute_update(
            "update orders set o_quantity = 999 where o_id = ?", (1,)
        )
    )
    snap_view = snap.execute(sql, (1,)).rows[0]["o_quantity"]
    live_view = reader.execute_query(sql, (1,)).rows[0]["o_quantity"]
    snap.close()

    print(f"snapshot saw o_quantity={before}, still sees {snap_view}")
    print(f"a fresh read sees the committed update: {live_view}")
    assert snap_view == before and live_view == 999
    stats = engine.metrics().views["mvcc"]()
    print(
        f"mvcc counters: versions_created={stats['versions_created']} "
        f"snapshots_taken={stats['snapshots_taken']} "
        f"write_conflicts={stats['write_conflicts']}"
    )


def explain_analyze_demo() -> None:
    """EXPLAIN ANALYZE a join over a sharded database: estimates and
    actuals side by side, with the router's classification and the tier."""
    print("\n=== EXPLAIN ANALYZE: a join over 4 hash shards ===")
    engine = (
        Engine.builder()
        .orders_workload(num_orders=400, num_customers=40)
        .network("fast-local")
        .shards(4)
        .tracing()
        .build()
    )
    sql = (
        "select o.o_id, c.c_first_name from orders o "
        "join customer c on o.o_customer_sk = c.c_customer_sk"
    )
    print(engine.database.explain(sql).render())  # plan only, no execution
    print()
    analyzed = engine.database.explain_analyze(sql)  # executes + annotates
    print(analyzed.render())
    executed = len(engine.database.execute_sql(sql).rows)
    assert analyzed.root.actual_rows == executed  # actuals are exact
    trace = engine.tracer.traces[-1]  # the run records a trace too
    operators = [s for s in trace.spans if s.name.startswith("operator:")]
    print(f"\ntraced as: {trace.kind}, {len(operators)} operator spans")


def main() -> None:
    # Few orders, many customers: the SQL join (P1) should win.
    optimize_for("slow-remote", num_orders=200, num_customers=5_000)
    # Many orders, few customers: prefetching (P2) should win.
    optimize_for("slow-remote", num_orders=5_000, num_customers=500)
    # Fast local network for comparison.
    optimize_for("fast-local", num_orders=5_000, num_customers=500)
    # Server-side concurrency: MVCC snapshot reads.
    snapshot_reads_demo()
    # Observability: EXPLAIN ANALYZE on a sharded join.
    explain_analyze_demo()


if __name__ == "__main__":
    main()
