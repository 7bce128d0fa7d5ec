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
/// Opening it — or its log alone — is a typed refusal that writes nothing.
#[test]
fn a_format_one_data_dir_is_refused_and_left_untouched() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/format1");
    for (tag, files, refused) in [
        ("all", &["snapshot.bin", "wal.log"][..], "snapshot"),
        ("log", &["wal.log"][..], "wal record"),
    ] {
        let dir = data_dir(&format!("format1-{tag}"));
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
            panic!("{tag}: a format-1 data dir must be refused");
        };
        match err {
            EngineError::Storage(StorageError::UnsupportedFormat {
                what,
                found: 1,
                expected: 2,
            }) => assert_eq!(what, refused, "{tag}"),
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
