//! Allocation budget of the generic fixpoint: a derived tuple stays a
//! borrowed slice of a scratch buffer until the state finds it new, a new
//! tuple of a numeric clique is appended to its partition's arena, and the
//! broadcast of its base relation is decoded from the payload's column lanes
//! straight into a packed table — a few vectors per worker, no row per edge.
//! The converged state leaves the fixpoint as lane batches and the final
//! plan scans, filters and aggregates them typed, so a statement allocates
//! its *answer* — one row per answer row, built once — plus a constant, and
//! nothing per derivation, per block, per state tuple or per build row. A
//! statement that returns its view (TC, APSP) pays one row per view tuple;
//! one that folds it (stratified CC, a count) does not. Counted with this
//! binary's own global allocator; one worker and one partition make the
//! counts repeat to within a few allocations between runs.

use rasql_core::{library, RaSqlContext};
use rasql_datagen::{rmat, RmatConfig};
use rasql_storage::{DataType, Relation, Row, Schema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested: an allocation's size, a reallocation's new size.
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests of this binary count one at a time.
#[expect(
    clippy::disallowed_methods,
    reason = "held across whole queries, it would have to rank below every engine lock, and no rank does"
)]
static SERIAL: Mutex<()> = Mutex::new(());

/// A one-worker, one-partition context over `edges`, on the generic
/// interpreter or with the kernels on.
fn context(kernels: bool, tracing: bool, edges: Relation) -> RaSqlContext {
    let ctx = RaSqlContext::builder()
        .workers(1)
        .partitions(1)
        .stage_latency_us(0)
        .specialized_kernels(kernels)
        .tracing(tracing)
        .build();
    ctx.register("edge", edges).unwrap();
    ctx
}

/// Result rows, heap allocations and fixpoint rounds of one statement, on
/// the generic interpreter or with the kernels on.
fn measure_on(kernels: bool, edges: Relation, sql: &str) -> (u64, u64, u64) {
    let ctx = context(kernels, false, edges);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = ctx.query(sql).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let rounds = result.stats.iterations.iter().map(|&r| u64::from(r)).sum();
    (result.relation.len() as u64, allocations, rounds)
}

/// Result rows and heap allocations of one generic-interpreter statement.
fn measure(edges: Relation, sql: &str) -> (u64, u64) {
    let (rows, allocations, _) = measure_on(false, edges, sql);
    (rows, allocations)
}

/// The first clique's kernel, tuple representation and pulled rounds, read
/// off a traced twin of a counted run (the counted runs trace nothing: a
/// trace allocates per round).
fn traced_twin(kernels: bool, edges: Relation, sql: &str) -> (String, String, usize) {
    let result = context(kernels, true, edges).query(sql).unwrap();
    let clique = &result.trace.as_ref().expect("tracing is on").cliques[0];
    let pulled = clique.iterations.iter().filter(|it| it.pull).count();
    (clique.kernel.clone(), clique.tuples.clone(), pulled)
}

/// RMAT-300, seed 7: the graph every leg but the cliques runs on.
fn rmat_300(weighted: bool) -> Relation {
    let config = RmatConfig {
        weighted,
        ..RmatConfig::default()
    };
    rmat(300, config, 7)
}

/// Serialized with the other test, so nothing else in this binary
/// allocates while it counts.
#[test]
fn a_statement_allocates_for_its_result_not_for_its_derivations() {
    let _alone = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let graph = rmat_300;

    // Measured 1.011 per row (83 232 for 82 322 rows: the rows themselves
    // and the statement's fixed cost, now with the block executor's buffers,
    // reused per branch run); packed build sides before blocks, 1.009; with a
    // row table built per broadcast, 1.096; the row-state parent of the word
    // path: 2.13.
    let (rows, allocations) = measure(graph(false), &library::transitive_closure());
    assert!(rows > 50_000, "a closure worth measuring: {rows} rows");
    assert!(
        allocations * 100 <= 103 * rows,
        "TC: {allocations} allocations for {rows} rows"
    );

    // Measured 1.028 per row (83 689 for 81 379: each round's branch run
    // and merge grow their block buffers once); packed build sides before
    // blocks, 1.017; with a row table built per broadcast, 1.104; the parent
    // of the word path, with three boxes per group and a boxed key per
    // changed group per round: 12.2.
    let (rows, allocations) = measure(graph(true), &library::apsp());
    assert!(rows > 50_000, "shortest paths worth measuring: {rows} rows");
    assert!(
        allocations * 100 <= 104 * rows,
        "APSP: {allocations} allocations for {rows} rows"
    );

    // SSSP from one source is not decomposable (its key moves along the
    // edge), so the interpreter runs it semi-naive with a map-side combine:
    // a branch run fills a partial aggregate that is shuffled, rather than
    // merging into the state in place. Measured 2 349 for 297 rows and 9
    // rounds (the kernel: 1 256, below).
    let (rows, allocations, rounds) = measure_on(false, graph(true), &library::sssp(0));
    assert!(rows >= 250, "shortest paths worth measuring: {rows} rows");
    assert!(
        allocations <= rows + 190 * rounds + 700,
        "SSSP: {allocations} allocations for {rows} rows, {rounds} rounds"
    );

    // A clique: round 1 derives every pair `n - 1` times over and finds `n`
    // of them new; from then on every derivation is a duplicate.
    let n: i64 = 60;
    let pairs = (0..n).flat_map(|a| (0..n).filter(move |b| *b != a).map(move |b| (a, b)));
    let clique = Relation::edges(&pairs.collect::<Vec<_>>());
    let derivations = (n * (n - 1) * (n - 1)) as u64;
    // The base relation is as large as the result here (3 540 edges, 3 600
    // rows), so a broadcast that built a row per edge would weigh in full:
    // measured 4 376 — 1.22 per row (4 317 before blocks); with a row table
    // per broadcast, 11 759 (2.3 per base edge); the parent of the word
    // path: 18 903.
    let (rows, allocations) = measure(clique, &library::transitive_closure());
    assert_eq!(rows, (n * n) as u64);
    assert!(
        allocations * 2 <= rows * 3 && allocations < derivations / 16,
        "clique: {allocations} allocations for {rows} rows, {derivations} derivations"
    );

    // Stratified CC: the clique's state tuples fold into one row per vertex
    // under the final `GROUP BY`, which scans the converged lane batches and
    // aggregates them typed — no row is built for a state tuple, so what is
    // left is the answer's rows and a constant. Measured 4 696 for 82 328
    // state tuples and 299 groups; the parent, which built a row per state
    // tuple for a row aggregate: 88 183 (1.07 per state tuple); before it,
    // with every row cloned into its shuffle bucket: 252 410.
    let sql = library::cc_stratified();
    let unfolded = sql
        .replace("Src, min(CmpId)", "Src, CmpId")
        .replace(" GROUP BY Src", "");
    let state = measure(graph(false), &unfolded).0;
    let (groups, allocations) = measure(graph(false), &sql);
    assert!(
        state > 10 * groups,
        "a fold worth measuring: {state} tuples, {groups} groups"
    );
    assert!(
        allocations <= groups + 6_000,
        "CC stratified: {allocations} allocations for {state} state tuples, {groups} groups"
    );

    // A kernel query is dense from its first base tuple to its result rows:
    // CC's 3 000 base tuples become typed seeds with no row built for one,
    // so what is left is the result row per vertex and a constant per round
    // (which here also carries the statement's fixed cost: parse, plan,
    // verify, CSR build). Measured: 1 148 for 299 rows and 4 rounds; the
    // parent built and hashed a row per base tuple, 4 176 — 14 per result row.
    let (rows, allocations, rounds) = measure_on(true, graph(false), &library::cc());
    assert!(rows >= 250, "components worth measuring: {rows} rows");
    assert!(
        allocations <= rows * 12 / 10 + 160 * (rounds + 2),
        "kernel CC: {allocations} allocations for {rows} rows, {rounds} rounds"
    );

    // The count above holds the kernels' pull as well as their push: three
    // of CC's four rounds gather in-edges here.
    let (kernel, _, pulled) = traced_twin(true, graph(false), &library::cc());
    assert_eq!(kernel, "csr_min_i64");
    assert!(pulled >= 1, "kernel CC pulled {pulled} rounds");

    // Kernel CC counted: the slabs leave the fixpoint as `(Int id, value)`
    // lanes and `count(distinct …)` folds them typed, so the one answer row
    // and the constant above are all. Measured 995; the parent built a row
    // per vertex and counted distinct values over them: 1 561.
    let (rows, allocations, rounds) = measure_on(true, graph(false), &library::cc_count());
    assert_eq!((rows, rounds), (1, 4));
    assert!(
        allocations <= rows + 1_200,
        "kernel CC count: {allocations} allocations for {rows} rows"
    );
}

/// A clique whose ids are strings runs on rows (`Value` cells), not packed
/// words, through the same block executor, sinks and state: it too
/// allocates per result row, not per derivation.
#[test]
fn a_row_clique_allocates_for_its_rows_not_its_derivations() {
    let _alone = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let n = 60;
    let id = |v: usize| Value::str(format!("v{v}"));
    let pairs = (0..n).flat_map(|a| (0..n).filter(move |b| *b != a).map(move |b| (a, b)));
    let rows: Vec<Row> = pairs.map(|(a, b)| Row::new(vec![id(a), id(b)])).collect();
    let schema = Schema::new(vec![("Src", DataType::Str), ("Dst", DataType::Str)]);
    let clique = || Relation::try_new(schema.clone(), rows.clone()).unwrap();
    let (kernel, tuples, _) = traced_twin(false, clique(), &library::transitive_closure());
    assert_eq!((kernel.as_str(), tuples.as_str()), ("generic", "rows"));
    // Measured 18 892 for 3 600 rows and 208 860 derivations; 5.5, 5.2 and
    // 5.1 per row at n = 40, 60 and 90: the cost follows the new rows, not
    // the derivations.
    let derivations = (n * (n - 1) * (n - 1)) as u64;
    let (rows, allocations) = measure(clique(), &library::transitive_closure());
    assert_eq!(rows, (n * n) as u64);
    assert!(
        allocations <= rows * 6 && allocations < derivations / 8,
        "string clique: {allocations} allocations for {rows} rows, {derivations} derivations"
    );
}

/// The kernels allocate for their answer and a constant per round, on every
/// seed path and edge weight: no row per base tuple, seed or edge.
#[test]
fn a_kernel_allocates_for_its_answer_not_its_seeds_or_edges() {
    let _alone = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // A filtered base case is not the build plan's source column, so its
    // seeds are folded from the base rows (`SeedFold`) rather than read off
    // the graph. Measured 1 212 for 299 rows and 4 rounds; with a row built
    // per base tuple, 4 214.
    let folded = library::cc().replace(
        "SELECT Src, Src FROM edge",
        "SELECT Src, Src FROM edge WHERE Src >= 0",
    );
    let (rows, allocations, rounds) = measure_on(true, rmat_300(false), &folded);
    assert!(rows >= 250, "components worth measuring: {rows} rows");
    assert!(
        allocations <= rows * 12 / 10 + 160 * (rounds + 2),
        "kernel CC, folded seeds: {allocations} allocations for {rows} rows, {rounds} rounds"
    );

    // The weighted kernels: measured 1 256 for SSSP (297 rows, 9 rounds)
    // and 1 463 for widest path (297 rows, 14 rounds), about 40 per round.
    for (name, sql) in [
        ("SSSP", library::sssp(0)),
        ("widest path", library::widest_path(0)),
    ] {
        let (rows, allocations, rounds) = measure_on(true, rmat_300(true), &sql);
        assert!(rows >= 250, "{name}: {rows} rows");
        assert!(
            allocations <= rows + 50 * rounds + 650,
            "kernel {name}: {allocations} allocations for {rows} rows, {rounds} rounds"
        );
    }
}

/// Of an SSSP view over weighted RMAT-`n`: the bytes requested by its first
/// `REFRESH` after `CREATE` and by a second one that inserted `delta`, the
/// allocations of that second one, and those of one key read of the
/// refreshed view.
fn refresh_and_read(n: usize, delta: &[(i64, i64, f64)]) -> ([u64; 2], u64, u64) {
    let config = RmatConfig {
        weighted: true,
        ..RmatConfig::default()
    };
    let ctx = RaSqlContext::builder()
        .workers(1)
        .partitions(1)
        .stage_latency_us(0)
        .build();
    ctx.register("edge", rmat(n, config, 7)).unwrap();
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW sp AS {}",
        library::sssp(0)
    ))
    .unwrap();
    let insert = |rows: &[(i64, i64, f64)]| {
        let values: Vec<String> = rows
            .iter()
            .map(|(s, d, c)| format!("({s}, {d}, {c:?})"))
            .collect();
        ctx.query(&format!("INSERT INTO edge VALUES {}", values.join(", ")))
            .unwrap();
    };
    // The first refresh is the first append to the build side `CREATE`
    // laid out; the second finds its index advanced once.
    let warm: Vec<(i64, i64, f64)> = delta.iter().map(|&(s, d, c)| (s, d + 1_000, c)).collect();
    insert(&warm);
    let before = BYTES.load(Ordering::Relaxed);
    ctx.query("REFRESH MATERIALIZED VIEW sp").unwrap();
    let first_bytes = BYTES.load(Ordering::Relaxed) - before;
    insert(delta);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    ctx.query("REFRESH MATERIALIZED VIEW sp").unwrap();
    let refresh = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let second_bytes = BYTES.load(Ordering::Relaxed) - bytes;
    assert_eq!(ctx.mat_view("sp").unwrap().last_refresh, "incremental");
    let (v, _, _) = delta[delta.len() / 2];
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let read = ctx
        .query(&format!("SELECT Dst, Cost FROM sp WHERE Dst = {v}"))
        .unwrap();
    let read_allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(read.relation.len(), 1);
    ([first_bytes, second_bytes], refresh, read_allocations)
}

/// A resumed refresh reads the warm tuples its delta joins by key, writes
/// the changed groups into the view's table in place, and a key read of
/// the view probes its state: the same 32 new groups cost the same at a
/// 4-times larger view, and a read costs a constant.
#[test]
fn a_refresh_allocates_for_its_delta_not_its_view() {
    let _alone = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let delta: Vec<(i64, i64, f64)> = (0..32).map(|i| (0, 1_000_000 + i, 0.5)).collect();
    let (small_bytes, small, small_read) = refresh_and_read(4_096, &delta);
    let (large_bytes, large, large_read) = refresh_and_read(16_384, &delta);
    // Measured 867 and 866; the parent, which scanned the whole view for
    // its seed driver and built one row per view tuple for the table:
    // 4 777 and 16 819.
    assert!(
        large * 100 < small * 105 && small * 100 < large * 105,
        "refresh at RMAT-4096: {small} allocations, at RMAT-16384: {large}"
    );
    // Measured 150 at both sizes, with no stage and no index; the parent's
    // scan-and-filter stage: 189.
    assert!(
        small_read.max(large_read) < 175,
        "a key read: {small_read} / {large_read} allocations"
    );
    // The first refresh after `CREATE` appends to the build side `CREATE`
    // laid out, and costs the bytes a later refresh costs. Measured, first /
    // second refresh: 1.04 / 1.12 MB at RMAT-4096 and 2.73 / 2.54 MB at
    // RMAT-16384 (both grow with the view: a resumed refresh copies the
    // resident state). With the laid-out rows grown in place instead of
    // appended to a tail of their own, the first refresh reallocated the
    // whole build side: 3.33 / 1.12 MB and 11.90 / 2.53 MB.
    for (n, [first, second]) in [(4_096, small_bytes), (16_384, large_bytes)] {
        assert!(
            first * 4 < second * 5,
            "RMAT-{n}: the first refresh requested {first} bytes, the second {second}"
        );
    }
}
