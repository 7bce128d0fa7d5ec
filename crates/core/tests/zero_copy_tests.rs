//! The read path shares row buffers instead of copying them: a scan views the
//! catalog's rows in place, the result cache hands back the buffer it stored,
//! and the wire result is that same buffer. Plus the regression test for the
//! result-cache key collision between queries that differ only in a constant.

use rasql_core::{library, result_to_wire, RaSqlContext};
use rasql_storage::{Relation, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the heap allocations of each thread apart, so a test sees what its
/// own thread — the query's driver — allocated, whatever the workers and the
/// tests running beside it do.
struct CountingPerThread;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialized thread-local
// `Cell` without a destructor, so touching it neither allocates nor runs
// after the thread's locals are gone.
unsafe impl GlobalAlloc for CountingPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingPerThread = CountingPerThread;

fn chain(n: i64) -> Relation {
    Relation::edges(&(0..n).map(|i| (i, i + 1)).collect::<Vec<_>>())
}

/// The catalog's `edge` buffer, fetched through a full scan (which returns
/// the table's own rows, not a copy of them).
fn edge_buffer(ctx: &RaSqlContext) -> Arc<Vec<rasql_storage::Row>> {
    Arc::clone(
        ctx.query("SELECT * FROM edge")
            .unwrap()
            .relation
            .shared_rows(),
    )
}

#[test]
fn queries_read_the_catalog_rows_in_place() {
    let ctx = RaSqlContext::builder().workers(2).build();
    let rel = chain(200);
    ctx.register("edge", rel.clone()).unwrap();
    // Held by this test and by the catalog, and by nobody else.
    let buf = Arc::clone(rel.shared_rows());
    drop(rel);
    assert!(Arc::ptr_eq(&edge_buffer(&ctx), &buf));
    let idle = Arc::strong_count(&buf);

    // Scan → filter → project: one fused stage over views of the table.
    let point = ctx
        .query("SELECT Dst FROM edge WHERE Src = 7 AND Dst > 0")
        .unwrap();
    assert_eq!(point.relation.rows()[0][0], Value::Int(8));
    assert_eq!(point.stats.metrics.stages, 1, "filter and project fused");
    // A kernel query: base case and CSR build both scan `edge`.
    let reach = ctx.query(&library::reach(150)).unwrap();
    assert_eq!(reach.relation.len(), 51);

    // Every view the queries took is gone again and the table is the same
    // allocation with the same rows: nothing copied it, nothing replaced it.
    assert_eq!(Arc::strong_count(&buf), idle);
    assert!(Arc::ptr_eq(&edge_buffer(&ctx), &buf));
    assert_eq!(*buf, chain(200).into_rows());
}

#[test]
fn full_scan_result_cache_entry_and_wire_result_are_one_buffer() {
    let ctx = RaSqlContext::builder().workers(2).result_cache(8).build();
    ctx.register("edge", chain(50)).unwrap();
    let miss = ctx.query("SELECT Src, Dst FROM edge").unwrap();
    let hit = ctx.query("SELECT Src, Dst FROM edge").unwrap();
    assert!(!miss.stats.cached && hit.stats.cached);
    // The hit is the buffer the miss stored, and the wire result is it too.
    assert!(Arc::ptr_eq(
        miss.relation.shared_rows(),
        hit.relation.shared_rows()
    ));
    assert!(Arc::ptr_eq(
        &result_to_wire(&hit).rows,
        hit.relation.shared_rows()
    ));
    // A computed result is cached and served the same way.
    let miss = ctx.query("SELECT Dst FROM edge WHERE Src < 10").unwrap();
    let hit = ctx.query("SELECT Dst FROM edge WHERE Src < 10").unwrap();
    assert!(hit.stats.cached);
    assert!(Arc::ptr_eq(
        miss.relation.shared_rows(),
        hit.relation.shared_rows()
    ));
}

#[test]
fn a_snapshot_taken_before_an_insert_keeps_its_rows() {
    let ctx = RaSqlContext::builder().workers(2).build();
    ctx.register("edge", chain(5)).unwrap();
    let before = ctx.query("SELECT * FROM edge").unwrap().relation;
    ctx.query("INSERT INTO edge VALUES (100, 101)").unwrap();
    assert_eq!(before.len(), 5, "the earlier reader still sees five rows");
    assert_eq!(ctx.query("SELECT * FROM edge").unwrap().relation.len(), 6);
}

/// `library::reach(1)` and `reach(3)` differ only in the constant of their
/// base case, which the plan text used to render as `Values (1 rows)` — so
/// the second query was served the first one's cached rows.
#[test]
fn cached_queries_that_differ_only_in_a_constant_do_not_collide() {
    let edges = Relation::weighted_edges(&[
        (1, 2, 1.0),
        (2, 5, 1.0),
        (3, 4, 2.0),
        (4, 6, 1.0),
        (6, 3, 5.0),
    ]);
    let uncached = RaSqlContext::builder().workers(2).build();
    let cached = RaSqlContext::builder().workers(2).result_cache(8).build();
    for ctx in [&uncached, &cached] {
        ctx.register("edge", edges.clone()).unwrap();
    }
    for query in [library::reach, library::sssp, library::sssp_hops] {
        let from_1 = cached.query(&query(1)).unwrap();
        let from_3 = cached.query(&query(3)).unwrap();
        assert!(!from_1.stats.cached && !from_3.stats.cached);
        let (from_1, from_3) = (from_1.relation.sorted(), from_3.relation.sorted());
        assert_ne!(from_1, from_3);
        for (source, got) in [(1, from_1), (3, from_3)] {
            let want = uncached.query(&query(source)).unwrap();
            assert_eq!(got, want.relation.sorted());
        }
        // An identical query is still a hit.
        let again = cached.query(&query(3)).unwrap();
        assert!(again.stats.cached);
        assert_eq!(
            again.relation.sorted(),
            uncached.query(&query(3)).unwrap().relation.sorted()
        );
    }
}

/// Seed vertices are interned after every edge endpoint, so the CSR of an
/// edge table is the same for every source the table mentions: the second
/// source finds the first one's graph. A source no edge mentions is lent
/// the same graph and extends it privately with a vertex of its own; the
/// shared one is left alone.
#[test]
fn kernel_queries_from_different_sources_share_one_csr() {
    let edges = Relation::edges(&[(1, 2), (2, 5), (3, 4), (4, 6), (6, 3)]);
    let ctx = RaSqlContext::builder().workers(2).build();
    let interpreter = RaSqlContext::builder()
        .workers(2)
        .specialized_kernels(false)
        .build();
    for c in [&ctx, &interpreter] {
        c.register("edge", edges.clone()).unwrap();
    }
    // (source, index-store lends expected of the statement)
    for (source, hits) in [(1, 0), (3, 1), (99, 1), (4, 1), (99, 1)] {
        let got = ctx.query(&library::reach(source)).unwrap();
        assert_eq!(got.stats.metrics.cache_hits, hits, "reach({source})");
        let want = interpreter.query(&library::reach(source)).unwrap();
        assert_eq!(got.relation.sorted(), want.relation.sorted());
    }
}

/// An operator that gathers its input on the driver owns that input: the
/// projection below it built the rows, and nobody else holds them. A global
/// aggregate, `ORDER BY`, `LIMIT` and `UNION` therefore move the rows they
/// gather — the driver thread allocates nothing per input row, where a
/// second copy of the input would cost one allocation for each.
#[test]
fn driver_side_operators_move_the_rows_they_own() {
    let n: i64 = 4000;
    let ctx = RaSqlContext::builder().workers(2).build();
    ctx.register("edge", chain(n)).unwrap();
    for (sql, rows) in [
        ("SELECT count(distinct Src + Dst) FROM edge", 1),
        ("SELECT Src + 1 AS S FROM edge ORDER BY S DESC", n as usize),
        ("SELECT Src + 1 FROM edge LIMIT 5", 5),
        (
            "(SELECT Src + 1 FROM edge) UNION (SELECT Dst + 1 FROM edge)",
            n as usize + 1,
        ),
    ] {
        let before = ALLOCATIONS.with(Cell::get);
        let result = ctx.query(sql).unwrap();
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(result.relation.len(), rows, "{sql}");
        assert!(
            allocated < n as u64 / 4,
            "{sql}: {allocated} driver-side allocations over {n} input rows"
        );
    }
}
