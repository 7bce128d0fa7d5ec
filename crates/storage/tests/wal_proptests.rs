//! Property tests for the WAL frame codec and `replay`'s corruption
//! handling. Three invariants, matched to the recovery contract in
//! `storage::wal`:
//!
//! 1. **Round-trip**: any record sequence appended through [`Wal`] replays
//!    bit-identically (and the payload codec alone round-trips).
//! 2. **Truncation heals**: cutting the log at *any* byte offset replays as
//!    the longest complete-frame prefix, truncates the file there, and a
//!    second replay is clean — a torn tail never surfaces as an error.
//! 3. **Bit flips never fabricate**: flipping any single bit yields either
//!    that same prefix heal (when the damage reads as a torn tail) or a
//!    typed [`StorageError::Corrupt`] at the damaged frame's offset — never
//!    a mutated, extra, or reordered record.
//!
//! Truncation-at-every-offset and flip-every-bit are naturally exhaustive,
//! so those loops run inside each generated case rather than relying on the
//! RNG to land on interesting offsets.

use proptest::prelude::*;
use rasql_storage::crashpoint::CrashInjector;
use rasql_storage::wal::{replay, WAL_FILE};
use rasql_storage::{
    DataType, Row, Schema, StorageError, TableImage, Value, ViewDelta, ViewDep, ViewImage, Wal,
    WalRecord,
};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static SEQ: AtomicU64 = AtomicU64::new(0);

/// Fresh empty scratch directory, unique across the concurrent test threads.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rasql-wal-prop-{tag}-p{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((any::<i64>(), any::<i64>()), 0..4).prop_map(|ps| {
        ps.into_iter()
            .map(|(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
            .collect()
    })
}

fn table_image() -> impl Strategy<Value = TableImage> {
    ("[a-z]{1,6}", rows(), 0u64..1000, 0u64..8).prop_map(
        |(name, rows, version, rewrite_version)| TableImage {
            name,
            schema: Schema::new(vec![("src", DataType::Int), ("dst", DataType::Int)]),
            rows,
            version,
            rewrite_version,
        },
    )
}

fn deps() -> impl Strategy<Value = Vec<ViewDep>> {
    prop::collection::vec(("[a-z]{1,4}", 0u64..32, 0u64..4, 0u64..64), 0..3).prop_map(|deps| {
        deps.into_iter()
            .map(|(table, version, rewrite_version, len)| ViewDep {
                table,
                version,
                rewrite_version,
                len,
            })
            .collect()
    })
}

fn view_image() -> impl Strategy<Value = ViewImage> {
    (
        ("[a-z]{1,6}", "[a-z]{0,12}", 0u64..64, any::<bool>()),
        deps(),
        prop::collection::vec(rows(), 0..2),
    )
        .prop_map(|((key, sql, version, eligible), deps, warm)| ViewImage {
            key,
            sql,
            version,
            eligible,
            ineligible_reason: if eligible {
                None
            } else {
                Some("mutual recursion".into())
            },
            last_refresh: "incremental".into(),
            deps,
            warm,
        })
}

fn view_delta() -> impl Strategy<Value = ViewDelta> {
    (
        ("[a-z]{1,6}", 0u64..64, 0u64..1000),
        deps(),
        prop::collection::vec(rows(), 0..3),
    )
        .prop_map(|((key, version, table), deps, changed)| ViewDelta {
            key,
            version,
            deps,
            table,
            changed,
        })
}

fn record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        table_image().prop_map(WalRecord::Register),
        ("[a-z]{1,6}", rows(), 0u64..1000).prop_map(|(name, rows, version)| WalRecord::Insert {
            name,
            rows,
            version
        }),
        table_image().prop_map(WalRecord::Replace),
        "[a-z]{1,6}".prop_map(|name| WalRecord::Drop { name }),
        (view_image(), 0u64..1000).prop_map(|(image, table)| WalRecord::ViewPut { image, table }),
        view_delta().prop_map(WalRecord::ViewDelta),
        "[a-z]{1,6}".prop_map(|key| WalRecord::ViewDrop { key }),
    ]
}

/// Serialize `recs` as a valid log image, returning the bytes plus the frame
/// boundary offsets (`bounds[i]` = byte offset where frame `i` starts;
/// `bounds[recs.len()]` = total length).
fn log_image(recs: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut log = Vec::new();
    let mut bounds = vec![0usize];
    for r in recs {
        log.extend_from_slice(&r.frame());
        bounds.push(log.len());
    }
    (log, bounds)
}

/// Index of the frame containing byte `byte` (caller guarantees in range).
fn frame_of(bounds: &[usize], byte: usize) -> usize {
    bounds.iter().filter(|&&b| b <= byte).count() - 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wal_payload_codec_round_trips(rec in record()) {
        let payload = rec.encode();
        match WalRecord::decode(&payload) {
            Ok(back) => prop_assert_eq!(back, rec),
            Err(e) => prop_assert!(false, "decode of a fresh encode failed: {e}"),
        }
    }

    #[test]
    fn wal_append_then_replay_is_identity(recs in prop::collection::vec(record(), 0..6)) {
        let dir = scratch_dir("roundtrip");
        {
            let wal = Wal::open(&dir, CrashInjector::none()).expect("open");
            for r in &recs {
                wal.append(r).expect("append");
            }
            wal.flush().expect("flush");
        }
        let out = replay(&dir.join(WAL_FILE)).expect("replay");
        prop_assert_eq!(&out.records[..], &recs[..]);
        prop_assert_eq!(out.truncated_at, None);
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    // Each case runs an exhaustive inner loop (every offset / a sampled
    // bit per case plus the exhaustive #[test] below), so fewer cases
    // suffice — the loop, not the RNG, provides the coverage.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncation_at_any_offset_heals_to_a_frame_prefix(
        recs in prop::collection::vec(record(), 1..4),
    ) {
        let (log, bounds) = log_image(&recs);
        let dir = scratch_dir("trunc");
        let path = dir.join(WAL_FILE);
        for cut in 0..=log.len() {
            fs::write(&path, &log[..cut]).expect("write cut log");
            let out = match replay(&path) {
                Ok(out) => out,
                Err(e) => return Err(TestCaseError::Fail(format!("cut at {cut}: {e}"))),
            };
            // The longest whole-frame prefix that fits under the cut.
            let whole = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            prop_assert_eq!(&out.records[..], &recs[..whole], "cut at {}", cut);
            prop_assert_eq!(out.bytes, bounds[whole] as u64, "cut at {}", cut);
            if cut == bounds[whole] {
                prop_assert_eq!(out.truncated_at, None, "clean boundary at {}", cut);
            } else {
                prop_assert_eq!(out.truncated_at, Some(bounds[whole] as u64), "cut at {}", cut);
            }
            // The heal is durable: the file now ends at the frame boundary
            // and a second replay is clean.
            let healed = fs::metadata(&path).expect("metadata").len();
            prop_assert_eq!(healed, bounds[whole] as u64);
            let again = match replay(&path) {
                Ok(out) => out,
                Err(e) => return Err(TestCaseError::Fail(format!("re-replay at {cut}: {e}"))),
            };
            prop_assert_eq!(&again.records[..], &recs[..whole]);
            prop_assert_eq!(again.truncated_at, None, "second replay must be clean");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_single_bit_flip_never_fabricates_a_record(
        recs in prop::collection::vec(record(), 1..4),
        seed in any::<u64>(),
    ) {
        let (log, bounds) = log_image(&recs);
        let bits = log.len() * 8;
        let flip = (seed % bits as u64) as usize;
        let byte = flip / 8;
        let fi = frame_of(&bounds, byte);
        let mut corrupt = log;
        corrupt[byte] ^= 1 << (flip % 8);

        let dir = scratch_dir("flip");
        let path = dir.join(WAL_FILE);
        fs::write(&path, &corrupt).expect("write corrupt log");
        match replay(&path) {
            Ok(out) => {
                // Damage read as a torn tail: strictly the intact prefix,
                // truncated at the damaged frame — never past it.
                prop_assert_eq!(&out.records[..], &recs[..fi], "flip bit {} (frame {})", flip, fi);
                prop_assert_eq!(out.truncated_at, Some(bounds[fi] as u64));
            }
            Err(StorageError::Corrupt { offset, .. }) => {
                prop_assert_eq!(offset, bounds[fi] as u64, "flip bit {} (frame {})", flip, fi);
            }
            Err(e) => return Err(TestCaseError::Fail(format!("unexpected error kind: {e}"))),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Exhaustive companion to the sampled proptest above: flip **every** bit of
/// a small three-record log and pin the torn-tail / typed-corruption split.
#[test]
fn every_single_bit_flip_of_a_small_log_is_detected() {
    let schema = Schema::new(vec![("src", DataType::Int), ("dst", DataType::Int)]);
    let recs = vec![
        WalRecord::Register(TableImage {
            name: "edge".into(),
            schema,
            rows: vec![Row::new(vec![Value::Int(1), Value::Int(2)])],
            version: 1,
            rewrite_version: 0,
        }),
        WalRecord::Insert {
            name: "edge".into(),
            rows: vec![Row::new(vec![Value::Int(2), Value::Int(3)])],
            version: 2,
        },
        WalRecord::Drop {
            name: "edge".into(),
        },
    ];
    let (log, bounds) = log_image(&recs);
    let dir = scratch_dir("flip-all");
    let path = dir.join(WAL_FILE);
    let (mut healed, mut typed) = (0u32, 0u32);
    for flip in 0..log.len() * 8 {
        let byte = flip / 8;
        let fi = frame_of(&bounds, byte);
        let mut corrupt = log.clone();
        corrupt[byte] ^= 1 << (flip % 8);
        fs::write(&path, &corrupt).expect("write corrupt log");
        match replay(&path) {
            Ok(out) => {
                assert_eq!(&out.records[..], &recs[..fi], "flip bit {flip}");
                assert_eq!(out.truncated_at, Some(bounds[fi] as u64), "flip bit {flip}");
                healed += 1;
            }
            Err(StorageError::Corrupt { offset, .. }) => {
                assert_eq!(offset, bounds[fi] as u64, "flip bit {flip}");
                typed += 1;
            }
            Err(e) => panic!("flip bit {flip}: unexpected error kind: {e}"),
        }
    }
    // Both failure modes must actually occur: mid-log flips report typed
    // corruption, last-frame / length-inflating flips heal as torn tails.
    assert!(typed > 0, "no flip reported typed corruption");
    assert!(healed > 0, "no flip healed as a torn tail");
    let _ = fs::remove_dir_all(&dir);
}
