//! Crash-consistent durability: a context with a data directory must come
//! back from restart (or simulated death at any write boundary) holding
//! exactly the catalog and materialized-view state it had acknowledged —
//! bit-identical, as measured by [`RaSqlContext::state_digest`].
//!
//! The exhaustive kill-at-every-crashpoint soak lives in `rasql-bench`
//! (`reproduce crash-soak`); these tests pin the core recovery semantics:
//! clean restart, torn-tail healing, typed mid-log corruption, prefix
//! consistency around an injected crash, and temp-file hygiene.

use rasql_core::{library, EngineError, RaSqlContext};
use rasql_plan::PlanError;
use rasql_storage::{CrashSpec, Relation, StorageError};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rasql-durability-test-{tag}-p{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path) -> RaSqlContext {
    RaSqlContext::builder()
        .workers(2)
        .data_dir(dir.to_path_buf())
        .try_build()
        .expect("recovery")
}

fn edges() -> Relation {
    Relation::edges(&[(1, 2), (2, 3), (3, 4), (4, 5)])
}

#[test]
fn restart_recovers_tables_and_views_without_ddl() {
    let dir = data_dir("restart");
    let create = format!("CREATE MATERIALIZED VIEW v AS {}", library::reach(1));
    let reference = {
        let ctx = durable(&dir);
        ctx.register("edge", edges()).unwrap();
        ctx.query("INSERT INTO edge VALUES (5, 6), (6, 7)").unwrap();
        ctx.query(&create).unwrap();
        // An insert staleness-refreshes the view on read, exercising the
        // ViewPut journal path with bumped versions and new warm state.
        ctx.query("INSERT INTO edge VALUES (7, 8)").unwrap();
        ctx.query("SELECT count(*) FROM v").unwrap();
        ctx.state_digest()
    };
    // A second process: no registration, no DDL — everything from disk.
    let ctx = durable(&dir);
    assert_eq!(
        ctx.state_digest(),
        reference,
        "recovered state must be bit-identical"
    );
    assert_eq!(ctx.table_names().len(), 2, "edge and v");
    let infos = ctx.view_infos();
    assert_eq!(infos.len(), 1);
    assert_eq!(infos[0].name, "v");
    assert!(!infos[0].stale, "versions recovered exactly, so not stale");
    let mv = ctx.mat_view("v").unwrap();
    assert!(mv.eligible);
    assert_eq!(mv.version, 2, "create + one read-through refresh");
    // The recovered view still maintains incrementally: warm state and
    // dependency records survived the restart.
    ctx.query("INSERT INTO edge VALUES (8, 9)").unwrap();
    ctx.query("SELECT count(*) FROM v").unwrap();
    assert_eq!(ctx.mat_view("v").unwrap().last_refresh, "incremental");
    // Third generation sees the post-restart mutations too.
    let digest = ctx.state_digest();
    drop(ctx);
    let ctx = durable(&dir);
    assert_eq!(ctx.state_digest(), digest);
    let _ = fs::remove_dir_all(&dir);
}

/// `r` reaches 2 and everything the view `through` (columns `S`, `D`) leads
/// to.
fn reach_through(through: &str) -> String {
    format!(
        "WITH recursive r (Dst) AS (SELECT 2) UNION \
           (SELECT {through}.D FROM r, {through} WHERE r.Dst = {through}.S) \
         SELECT Dst FROM r"
    )
}

/// A materialized view is shared state and its defining script is what
/// recovery replays, so its definition resolves in the shared catalog plus
/// the views its own script creates. A session view from an earlier script is
/// a typed plan error at CREATE — it used to be accepted, and the data
/// directory then refused to reopen (`unknown table or view 'hop'`).
#[test]
fn a_materialized_view_over_an_earlier_session_view_is_refused_at_create() {
    let dir = data_dir("private-view");
    {
        let ctx = Arc::new(durable(&dir));
        ctx.register("edge", edges()).unwrap();
        let s = ctx.session();
        s.query("CREATE VIEW hop AS SELECT Src AS S, Dst AS D FROM edge")
            .unwrap();
        let err = s
            .query(&format!(
                "CREATE MATERIALIZED VIEW mv AS {}",
                reach_through("hop")
            ))
            .unwrap_err();
        match &err {
            EngineError::Plan(PlanError::Invalid(msg)) => {
                assert!(msg.contains("'hop'"), "{msg}");
                assert!(msg.contains("same script"), "{msg}");
                assert!(msg.contains("shared context"), "{msg}");
            }
            other => panic!("expected a typed plan error, got: {other}"),
        }
        assert!(ctx.mat_view("mv").is_none());
        // The session still reads its own view; only shared state may not.
        assert!(s.query("SELECT count(*) FROM hop").is_ok());
        ctx.flush_durability().unwrap();
    }
    let reopened = durable(&dir);
    assert!(reopened.view_infos().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

/// The same definition in one script restarts bit-identically, certified as
/// the shared catalog certifies it (the view self-joins `edge`: RA0301, full
/// refresh), and keeps answering right.
#[test]
fn a_materialized_view_over_a_same_script_view_restarts_exactly() {
    let dir = data_dir("script-view");
    let digest = {
        let ctx = Arc::new(durable(&dir));
        ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
            .unwrap();
        let s = ctx.session();
        s.query_script(&format!(
            "CREATE VIEW two AS SELECT a.Src AS S, b.Dst AS D FROM edge a, edge b \
             WHERE a.Dst = b.Src; CREATE MATERIALIZED VIEW mv AS {}",
            reach_through("two")
        ))
        .unwrap();
        s.query("INSERT INTO edge VALUES (3, 4)").unwrap();
        s.query("SELECT * FROM mv").unwrap();
        ctx.flush_durability().unwrap();
        ctx.state_digest()
    };
    let ctx = durable(&dir);
    assert_eq!(
        ctx.state_digest(),
        digest,
        "recovered state must be bit-identical"
    );
    let mv = ctx.mat_view("mv").unwrap();
    assert!(
        !mv.eligible,
        "a self-joining build side is not delta-seedable"
    );
    assert_eq!(mv.last_refresh, "full");
    ctx.query("INSERT INTO edge VALUES (4, 5), (5, 6)").unwrap();
    let rows = ctx.query("SELECT * FROM mv").unwrap().relation.sorted();
    let dst: Vec<i64> = rows.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(dst, [2, 4, 6]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_healed_silently() {
    let dir = data_dir("torn");
    let reference = {
        let ctx = durable(&dir);
        ctx.register("edge", edges()).unwrap();
        ctx.query("INSERT INTO edge VALUES (9, 10)").unwrap();
        ctx.state_digest()
    };
    // Simulate a crash mid-append: half a frame lands after the good tail.
    let wal = dir.join("wal.log");
    let mut bytes = fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x40, 7, 1, 2, 3]);
    fs::write(&wal, &bytes).unwrap();
    let ctx = durable(&dir);
    assert_eq!(
        ctx.state_digest(),
        reference,
        "torn tail truncates; every acked record survives"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn midlog_corruption_is_a_typed_spanned_error() {
    let dir = data_dir("corrupt");
    {
        let ctx = durable(&dir);
        ctx.register("edge", edges()).unwrap();
        ctx.query("INSERT INTO edge VALUES (9, 10)").unwrap();
    }
    // Flip a payload byte of the *first* frame: the CRC fails with valid
    // frames after it, which can never be explained by a torn write.
    let wal = dir.join("wal.log");
    let mut bytes = fs::read(&wal).unwrap();
    assert!(bytes.len() > 32, "two frames on disk");
    bytes[16] ^= 0xff;
    fs::write(&wal, &bytes).unwrap();
    let err = match RaSqlContext::builder().data_dir(dir.clone()).try_build() {
        Ok(_) => panic!("mid-log corruption must not recover silently"),
        Err(e) => e,
    };
    match err {
        EngineError::Storage(StorageError::Corrupt { offset, detail }) => {
            assert_eq!(offset, 0, "first frame starts at byte 0");
            assert!(detail.contains("crc mismatch"), "spanned detail: {detail}");
        }
        other => panic!("expected typed Corrupt error, got: {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Prefix consistency around an injected crash: recovery lands on either
/// the pre-statement state (record never became durable) or the
/// post-statement state (record durable, ack lost) — never anything else.
#[test]
fn injected_crash_recovers_prefix_consistent() {
    // Each WAL append passes three crash sites (pre, torn, post); the
    // context's first two appends are `register` and the INSERT.
    for (kill_at, insert_survives) in [(3, false), (4, false), (5, true)] {
        let dir = data_dir(&format!("crash-{kill_at}"));
        let pre = {
            let ctx = durable(&dir);
            ctx.register("edge", edges()).unwrap();
            ctx.state_digest()
        };
        let _ = fs::remove_dir_all(&dir);
        let ctx = RaSqlContext::builder()
            .workers(2)
            .data_dir(dir.clone())
            .crash_spec(Some(CrashSpec::at(kill_at)))
            .try_build()
            .expect("fresh dir recovery");
        ctx.register("edge", edges()).unwrap();
        let err = ctx
            .query("INSERT INTO edge VALUES (9, 10)")
            .expect_err("armed crashpoint must kill the statement");
        assert!(
            matches!(err, EngineError::Storage(StorageError::InjectedCrash(_))),
            "got: {err}"
        );
        assert!(ctx.crashpoint_hits() > kill_at);
        drop(ctx); // simulated death
        let recovered = durable(&dir);
        let post = {
            let reference = RaSqlContext::builder().workers(2).build();
            reference.register("edge", edges()).unwrap();
            reference.query("INSERT INTO edge VALUES (9, 10)").unwrap();
            reference.state_digest()
        };
        let got = recovered.state_digest();
        let want = if insert_survives { &post } else { &pre };
        assert_eq!(
            &got,
            want,
            "kill_at={kill_at}: expected {} state",
            if insert_survives {
                "post-insert"
            } else {
                "pre-insert"
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_mid_snapshot_leaves_no_temp_files_after_recovery() {
    let dir = data_dir("snaptmp");
    let ctx = RaSqlContext::builder()
        .workers(2)
        .data_dir(dir.clone())
        .snapshot_every(1)
        // Sites 0..=2 are the register append; 3 is snapshot-temp-pre and
        // 4 is snapshot-temp-torn, which strands a half-written temp file.
        .crash_spec(Some(CrashSpec::at(4)))
        .try_build()
        .unwrap();
    let err = ctx
        .register("edge", edges())
        .expect_err("crash in compaction");
    assert!(matches!(
        err,
        EngineError::Storage(StorageError::InjectedCrash(_))
    ));
    drop(ctx);
    assert!(
        !rasql_storage::snapshot::stray_temp_files(&dir).is_empty(),
        "the simulated death strands snapshot.tmp"
    );
    let recovered = durable(&dir);
    assert!(
        rasql_storage::snapshot::stray_temp_files(&dir).is_empty(),
        "recovery sweeps stray temp files"
    );
    // The register itself was durable before the compaction crashed.
    let reference = RaSqlContext::builder().workers(2).build();
    reference.register("edge", edges()).unwrap();
    assert_eq!(recovered.state_digest(), reference.state_digest());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn durability_status_reports_log_and_snapshot_counters() {
    let dir = data_dir("status");
    let ctx = RaSqlContext::builder()
        .data_dir(dir.clone())
        .snapshot_every(3)
        .try_build()
        .unwrap();
    assert!(
        RaSqlContext::builder()
            .build()
            .durability_status()
            .is_none(),
        "in-memory contexts report no durability"
    );
    ctx.register("edge", edges()).unwrap();
    ctx.query("INSERT INTO edge VALUES (9, 10)").unwrap();
    let s = ctx.durability_status().unwrap();
    assert_eq!(s.wal_records, 2);
    assert!(s.wal_bytes > 0);
    assert_eq!(s.snapshots, 0);
    assert_eq!(s.data_dir, dir.display().to_string());
    // The third record crosses the threshold: the log compacts to zero.
    ctx.query("INSERT INTO edge VALUES (10, 11)").unwrap();
    let s = ctx.durability_status().unwrap();
    assert_eq!(s.wal_records, 0, "compaction truncates the log");
    assert_eq!(s.snapshots, 1);
    assert!(s.last_snapshot_bytes > 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Every file in `dir`, by name, with its bytes.
fn dir_contents(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// `tests/fixtures/format1` is a data directory written by the release
/// before row batches went column-major: one table, one materialized view,
/// one published snapshot (format 1) and one logged insert (log format 1).
/// `tests/fixtures/format2` was written by the release before resident view
/// state: a table, a certified view over it, one published snapshot (format
/// 2, warm state as encoded blobs and the view's table as rows) and a logged
/// insert plus an incremental refresh (log format 2: `Replace` + `ViewPut`).
/// Opening either — or its log alone — is a typed refusal that writes
/// nothing: never a misread.
#[test]
fn a_format_one_data_dir_is_refused_and_left_untouched() {
    for format in [1u32, 2] {
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/format{format}"));
        for (tag, files, refused) in [
            ("all", &["snapshot.bin", "wal.log"][..], "snapshot"),
            ("log", &["wal.log"][..], "wal record"),
        ] {
            let dir = data_dir(&format!("format{format}-{tag}"));
            fs::create_dir_all(&dir).unwrap();
            for f in files {
                fs::copy(fixture.join(f), dir.join(f)).unwrap();
            }
            let before = dir_contents(&dir);
            let Err(err) = RaSqlContext::builder()
                .workers(2)
                .data_dir(dir.clone())
                .try_build()
            else {
                panic!("{tag}: a format-{format} data dir must be refused");
            };
            match err {
                EngineError::Storage(StorageError::UnsupportedFormat {
                    what,
                    found,
                    expected: 3,
                }) if found == format => assert_eq!(what, refused, "{tag}"),
                other => panic!("{tag}: expected UnsupportedFormat, got {other}"),
            }
            assert_eq!(
                dir_contents(&dir),
                before,
                "{tag}: recovery wrote to the dir"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// `reach(1)` is certified for delta-seeded refresh; `r` over a self-joining
/// build side is not (RA0301).
const SELF_JOIN_REACH: &str = "WITH recursive r (Dst) AS (SELECT 2) UNION \
     (SELECT two.D FROM r, (SELECT a.Src AS S, b.Dst AS D FROM edge a, edge b \
       WHERE a.Dst = b.Src) two WHERE r.Dst = two.S) SELECT Dst FROM r";

/// A refresh publishes nothing until its journal record is durable. Killed
/// at the last append it makes — a certified view's one `ViewDelta`, the
/// `ViewPut` after another view's `Replace` — the live context still holds
/// the old version and reads the view as stale, as after a killed refresh
/// (`matview_tests::mid_refresh_kill_leaves_view_consistent`); the next read
/// refreshes it.
#[test]
fn a_refresh_killed_at_its_last_append_publishes_nothing() {
    for (certified, definition, records) in [
        (true, library::reach(1), 1),
        (false, SELF_JOIN_REACH.to_string(), 2),
    ] {
        let dir = data_dir(&format!("last-append-{certified}"));
        let run = |spec: CrashSpec| {
            let _ = fs::remove_dir_all(&dir);
            let ctx = RaSqlContext::builder()
                .workers(2)
                .data_dir(dir.clone())
                .crash_spec(Some(spec))
                .try_build()
                .unwrap();
            ctx.register("edge", edges()).unwrap();
            ctx.query(&format!("CREATE MATERIALIZED VIEW v AS {definition}"))
                .unwrap();
            assert_eq!(ctx.mat_view("v").unwrap().eligible, certified);
            ctx.query("INSERT INTO edge VALUES (5, 6), (6, 7)").unwrap();
            let before = ctx.crashpoint_hits();
            let refreshed = ctx.query("REFRESH MATERIALIZED VIEW v");
            (ctx, before, refreshed)
        };
        let never = CrashSpec {
            kill_at: None,
            prob: 0.0,
            seed: 0,
        };
        let (counted, before, refreshed) = run(never);
        refreshed.unwrap();
        let after = counted.crashpoint_hits();
        drop(counted);

        let (ctx, _, refreshed) = run(CrashSpec::at(after - 3));
        match refreshed {
            Err(EngineError::Storage(StorageError::InjectedCrash(site))) => {
                assert_eq!(site, "wal-append-pre");
            }
            other => panic!("certified={certified}: expected the injected crash, got {other:?}"),
        }
        assert_eq!(
            ctx.mat_view("v").unwrap().version,
            1,
            "certified={certified}"
        );
        assert!(ctx.view_infos()[0].stale, "certified={certified}");
        let rows = ctx.query("SELECT * FROM v").unwrap().relation.sorted();
        assert_eq!(ctx.mat_view("v").unwrap().version, 2);
        let reference = RaSqlContext::builder().workers(2).build();
        reference.register("edge", edges()).unwrap();
        reference
            .query("INSERT INTO edge VALUES (5, 6), (6, 7)")
            .unwrap();
        let want = reference.query(&definition).unwrap().relation.sorted();
        assert_eq!(rows.rows(), want.rows(), "certified={certified}");
        // Three crash sites per append, no compaction at this size.
        assert_eq!(after - before, 3 * records, "certified={certified}");
        drop(ctx);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Compaction on another thread never drops a view statement's record. A
/// snapshot is collected without the log's lock and published only if no
/// record landed meanwhile, so a view statement keeps the registry locked
/// from its journal append to its registry update: a snapshot collected in
/// between holds the new entry or fails that check. The interleavings of
/// one such pair are enumerated by `scheduled_tests::
/// a_view_statement_racing_a_compacting_insert_keeps_its_record`; here OS
/// threads run it end to end — inserts into an unrelated table compact
/// after every record while the view is created, refreshed and dropped, and
/// after each statement a copy of the data directory (what a crash right
/// then would leave) reopens to the live state.
#[test]
fn compaction_racing_a_view_statement_keeps_its_record() {
    const ROUNDS: usize = 48;
    let dir = data_dir("compaction-race");
    let copy = data_dir("compaction-race-copy");
    let ctx = RaSqlContext::builder()
        .workers(2)
        .data_dir(dir.clone())
        .snapshot_every(1)
        .try_build()
        .unwrap();
    ctx.register("edge", edges()).unwrap();
    ctx.register("noise", Relation::edges(&[(0, 0)])).unwrap();
    let mut statements = vec![format!(
        "CREATE MATERIALIZED VIEW v AS {}",
        library::reach(1)
    )];
    statements.extend((0..6).map(|_| "REFRESH MATERIALIZED VIEW v".to_string()));
    statements.push("DROP MATERIALIZED VIEW v".to_string());
    for round in 0..ROUNDS {
        let statement = &statements[round % statements.len()];
        let busy = AtomicBool::new(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                while busy.load(Ordering::SeqCst) {
                    ctx.query("INSERT INTO noise VALUES (0, 0)").unwrap();
                }
            });
            ctx.query(statement)
                .unwrap_or_else(|e| panic!("{statement}: {e}"));
            busy.store(false, Ordering::SeqCst);
        });
        let _ = fs::remove_dir_all(&copy);
        fs::create_dir_all(&copy).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        let reopened = durable(&copy);
        assert_eq!(
            reopened.state_digest(),
            ctx.state_digest(),
            "round {round}: {statement}"
        );
        assert_eq!(
            reopened.mat_view("v").map(|mv| mv.version),
            ctx.mat_view("v").map(|mv| mv.version),
            "round {round}: {statement}"
        );
    }
    drop(ctx);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&copy);
}

/// A delta-seeded refresh journals what its delta changed and lends the
/// view's resident state: over a base graph four times larger, a train of
/// refreshes of the same 32-row inserts appends as many log bytes (within
/// varint widths) and rebuilds no state; reopening rebuilds it once.
#[test]
fn a_refresh_journals_and_loads_in_proportion_to_its_delta() {
    const TRAIN: usize = 8;
    const BATCH: i64 = 32;
    let per_refresh = |vertices: usize| {
        let dir = data_dir(&format!("proportional-{vertices}"));
        let open = || {
            RaSqlContext::builder()
                .workers(2)
                .data_dir(dir.clone())
                .snapshot_every(1 << 20)
                .try_build()
                .unwrap()
        };
        let ctx = open();
        let config = rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        };
        ctx.register("edge", rasql_datagen::rmat(vertices, config, 7))
            .unwrap();
        ctx.query(&format!(
            "CREATE MATERIALIZED VIEW v AS {}",
            library::sssp(0)
        ))
        .unwrap();
        let view_rows = ctx.query("SELECT count(*) FROM v").unwrap().relation.rows()[0][0]
            .as_int()
            .unwrap();
        let loads = ctx.metrics().view_state_loads;
        let mut bytes = 0;
        for t in 0..TRAIN as i64 {
            // Each batch reaches 32 new vertices from the source: the delta
            // changes 32 totals whatever the graph's size.
            let fresh = (0..BATCH).map(|i| format!("(0, {}, 1.5)", 1_000_000 + t * BATCH + i));
            let values: Vec<String> = fresh.collect();
            ctx.query(&format!("INSERT INTO edge VALUES {}", values.join(", ")))
                .unwrap();
            let before = ctx.durability_status().unwrap().wal_bytes;
            ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
            assert_eq!(ctx.mat_view("v").unwrap().last_refresh, "incremental");
            bytes += ctx.durability_status().unwrap().wal_bytes - before;
        }
        assert_eq!(
            ctx.metrics().view_state_loads,
            loads,
            "a refresh lends the resident state"
        );
        let digest = ctx.state_digest();
        drop(ctx);
        let reopened = open();
        assert_eq!(reopened.metrics().view_state_loads, 1, "one load per open");
        assert_eq!(reopened.state_digest(), digest);
        drop(reopened);
        let _ = fs::remove_dir_all(&dir);
        (view_rows, bytes / TRAIN as u64)
    };
    let (small_rows, small) = per_refresh(512);
    let (big_rows, big) = per_refresh(2048);
    assert!(
        big_rows >= 3 * small_rows,
        "the larger view must be larger: {small_rows} vs {big_rows} rows"
    );
    assert!(
        big as f64 <= 1.2 * small as f64,
        "log bytes per refresh grew with the view: {small} B over {small_rows} rows, \
         {big} B over {big_rows} rows"
    );
}

/// The library's tables at a small size: a layered DAG `edge(Src, Dst,
/// Cost)` (acyclic, so the stratified queries terminate), an assembly tree
/// `assbl`/`basic`, and `rel(Parent, Child)` over the same tree.
fn library_tables() -> Vec<(&'static str, Relation)> {
    use rasql_storage::{DataType, Row, Schema, Value};
    let (layers, width) = (6usize, 6usize);
    let mut rows = Vec::new();
    for l in 0..layers - 1 {
        for i in 0..width {
            let src = (l * width + i) as i64;
            for k in 0..3 {
                let dst = ((l + 1) * width + (i + 2 * k + l) % width) as i64;
                let cost = 1.0 + ((src * 7 + dst * 3) % 10) as f64 / 2.0;
                rows.push(Row::new(vec![
                    Value::Int(src),
                    Value::Int(dst),
                    Value::Double(cost),
                ]));
            }
        }
    }
    rows.sort();
    rows.dedup();
    let schema = Schema::new(vec![
        ("Src", DataType::Int),
        ("Dst", DataType::Int),
        ("Cost", DataType::Double),
    ]);
    let edge = Relation::try_new(schema, rows).unwrap();
    let config = rasql_datagen::TreeConfig {
        target_nodes: 60,
        ..Default::default()
    };
    let tree = rasql_datagen::tree_hierarchy(config, 23);
    let schema = Schema::new(vec![("Parent", DataType::Int), ("Child", DataType::Int)]);
    let rel = Relation::try_new(schema, tree.assbl.rows().to_vec()).unwrap();
    vec![
        ("edge", edge),
        ("assbl", tree.assbl),
        ("basic", tree.basic),
        ("rel", rel),
    ]
}

/// Every certified library view survives a restart exactly: after two
/// incremental refreshes, the reopened context reads the same rows, digests
/// to the same state — its result table derived from the recovered image —
/// and its next refresh is incremental and lands on a full recompute.
#[test]
fn every_certified_library_view_restarts_exactly() {
    let views = [
        ("bom_delivery", library::bom_delivery()),
        (
            "bom_delivery_stratified",
            library::bom_delivery_stratified(),
        ),
        ("sssp", library::sssp(1)),
        ("sssp_stratified", library::sssp_stratified(1)),
        ("cc", library::cc()),
        ("cc_count", library::cc_count()),
        ("cc_stratified", library::cc_stratified()),
        ("same_generation", library::same_generation()),
        ("reach", library::reach(1)),
        ("apsp", library::apsp()),
        ("transitive_closure", library::transitive_closure()),
        ("widest_path", library::widest_path(1)),
        ("sssp_hops", library::sssp_hops(1)),
    ];
    let tables = library_tables();
    // Six rows of every table are withheld, inserted two at a time.
    const HELD: usize = 6;
    let withheld = |table: &str, part: usize| -> Vec<String> {
        let (_, rel) = tables.iter().find(|(t, _)| *t == table).unwrap();
        let rows = &rel.rows()[rel.len() - HELD..][2 * part..2 * part + 2];
        rows.iter()
            .map(|r| {
                let vals: Vec<String> = (r.values().iter())
                    .map(|v| match v {
                        rasql_storage::Value::Double(d) => format!("{d:?}"),
                        other => other.to_string(),
                    })
                    .collect();
                format!("({})", vals.join(", "))
            })
            .collect()
    };
    for (name, sql) in views {
        let dir = data_dir(&format!("library-{name}"));
        let ctx = durable(&dir);
        for (table, rel) in &tables {
            let kept = rel.rows()[..rel.len() - HELD].to_vec();
            ctx.register(
                table,
                Relation::try_new(rel.schema().clone(), kept).unwrap(),
            )
            .unwrap();
        }
        ctx.query(&format!("CREATE MATERIALIZED VIEW v AS {sql}"))
            .unwrap();
        let deps: Vec<String> = ctx
            .mat_view("v")
            .unwrap()
            .deps
            .iter()
            .map(|d| d.table.clone())
            .collect();
        assert!(ctx.mat_view("v").unwrap().eligible, "{name}");
        let refresh = |ctx: &RaSqlContext, part: usize| {
            for table in &deps {
                let rows = withheld(table, part);
                ctx.query(&format!("INSERT INTO {table} VALUES {}", rows.join(", ")))
                    .unwrap_or_else(|e| panic!("{name}: insert into {table}: {e}"));
            }
            ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
            assert_eq!(
                ctx.mat_view("v").unwrap().last_refresh,
                "incremental",
                "{name}"
            );
        };
        refresh(&ctx, 0);
        refresh(&ctx, 1);
        let rows = ctx.query("SELECT * FROM v").unwrap().relation.sorted();
        let digest = ctx.state_digest();
        drop(ctx);

        let ctx = durable(&dir);
        let recovered = ctx.query("SELECT * FROM v").unwrap().relation.sorted();
        assert_eq!(recovered.rows(), rows.rows(), "{name}: rows after reopen");
        assert_eq!(ctx.state_digest(), digest, "{name}: digest after reopen");
        refresh(&ctx, 2);
        let got = ctx.query("SELECT * FROM v").unwrap().relation.sorted();
        let full = RaSqlContext::builder().workers(2).build();
        for (table, rel) in &tables {
            full.register(table, rel.clone()).unwrap();
        }
        let want = full.query(&sql).unwrap().relation.sorted();
        assert_eq!(got.rows(), want.rows(), "{name}: refresh after reopen");
        drop(ctx);
        let _ = fs::remove_dir_all(&dir);
    }
}
