//! Round-boundary checkpointing for the fixpoint's mutable state.
//!
//! The paper's SetRDD (§6.1) mutates the all-relation in place, which forfeits
//! Spark's lineage-based recovery: a lost partition cannot be recomputed from
//! its parents because the parents were destroyed by the mutation. The
//! replacement recovery story is *round-boundary checkpointing*: between
//! fixpoint rounds every partition's state is consistent (no task is mid-merge
//! at a barrier), so serializing [`SetState`]/[`AggState`] there yields a
//! snapshot the fixpoint can restore and replay forward from — semi-naive
//! evaluation is deterministic given the state and delta at a round.
//!
//! The encodings are **canonical**: each is made of row batches of the
//! shared codec ([`rasql_storage::codec`]) whose rows are sorted before
//! writing, so encode → decode → encode is byte-identical even though the
//! underlying hash maps iterate in arbitrary order. A [`SetState`] is one
//! batch of `round | tuple` rows; an [`AggState`] is a batch of its group
//! keys, a batch of `round | created | totals | previous totals` in the
//! same order, and a batch of its distinct contributors.

use crate::state::{AggGroup, AggState, SetState};
use crate::tuples::{cells_of, values_of, Cell};
pub use bytes::Bytes;
use rasql_storage::codec::{self, expect_end, get_rows, put_rows};
use rasql_storage::sync::{LockRank, RankedMutex};
use rasql_storage::{FxHashMap, Row, StorageError, Value};
use std::path::PathBuf;
use std::sync::Arc;

// --------------------------------------------------------------------
// Encodings
// --------------------------------------------------------------------

fn corrupt(what: &str) -> StorageError {
    StorageError::Codec(format!("corrupt checkpoint: {what}"))
}

/// A round stamp written as an `Int` column.
fn stamp(v: &Value) -> Result<u32, StorageError> {
    v.as_int()
        .and_then(|i| u32::try_from(i).ok())
        .ok_or_else(|| corrupt("round stamp out of range"))
}

/// Encode a plain row list (pending delta / contribution buckets). Canonical:
/// rows are written in sorted order.
pub fn encode_rows(rows: &[Row]) -> Bytes {
    let mut sorted: Vec<&Row> = rows.iter().collect();
    sorted.sort_unstable();
    Bytes::from(codec::encode_rows(&sorted))
}

/// Inverse of [`encode_rows`].
pub fn decode_rows(bytes: impl AsRef<[u8]>) -> Result<Vec<Row>, StorageError> {
    Ok(codec::decode_rows(bytes.as_ref())?)
}

/// The cells of decoded values; a value outside its column's kind is a
/// corrupt payload (the encoder wrote the column's own cells).
fn decoded_cells<C: Cell>(kinds: &[C::Kind], values: &[Value]) -> Result<Vec<C>, StorageError> {
    let mut cells = Vec::with_capacity(values.len());
    cells_of(kinds, values, &mut cells)
        .map_err(|_| corrupt("checkpointed value outside its column's type"))?;
    Ok(cells)
}

/// Encode a [`SetState`] including per-tuple round watermarks. Canonical:
/// `round | tuple` rows in sorted order, whatever the cell type.
pub fn encode_set_state<C: Cell>(state: &SetState<C>) -> Bytes {
    let kinds = state.tuples().kinds();
    let mut rows: Vec<Vec<Value>> = state
        .iter_with_rounds()
        .map(|(t, round)| {
            let mut row = vec![Value::Int(round.into())];
            row.extend(values_of(kinds, t));
            row
        })
        .collect();
    rows.sort_unstable();
    Bytes::from(codec::encode_rows(&rows))
}

/// Inverse of [`encode_set_state`], into `state` — an empty state created
/// with the kinds of the encoded one.
pub fn decode_set_state<C: Cell>(
    bytes: impl AsRef<[u8]>,
    mut state: SetState<C>,
) -> Result<SetState<C>, StorageError> {
    let kinds = Arc::clone(state.tuples().kinds());
    for row in codec::decode_rows(bytes.as_ref())? {
        let [round, tuple @ ..] = row.values() else {
            return Err(corrupt("set state row without a round"));
        };
        state.insert_slice(&decoded_cells::<C>(&kinds, tuple)?, stamp(round)?);
    }
    Ok(state)
}

/// Encode an [`AggState`]: every group's totals, previous totals and round
/// watermarks, plus the distinct-contributor set. Canonical: groups and
/// contributors are written in key-sorted order.
pub fn encode_agg_state<C: Cell>(state: &AggState<C>) -> Bytes {
    let [key_kinds, agg_kinds, tuple_kinds] = state.kinds();
    let vals = values_of::<C>;
    let mut groups: Vec<_> = state.iter().map(|g| (vals(key_kinds, g.key), g)).collect();
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let totals: Vec<Vec<Value>> = groups
        .iter()
        .map(|(_, g)| {
            let mut row = vec![Value::Int(g.round.into()), Value::Int(g.created.into())];
            row.extend(vals(agg_kinds, g.values));
            row.extend(vals(agg_kinds, g.prev));
            row
        })
        .collect();
    let keys: Vec<Vec<Value>> = groups.into_iter().map(|(key, _)| key).collect();
    let mut contributors: Vec<Vec<Value>> =
        state.contributors().map(|t| vals(tuple_kinds, t)).collect();
    contributors.sort_unstable();
    let mut buf = Vec::new();
    put_rows(&mut buf, &keys);
    put_rows(&mut buf, &totals);
    put_rows(&mut buf, &contributors);
    Bytes::from(buf)
}

/// Inverse of [`encode_agg_state`], into `state` — an empty state created
/// with the kinds of the encoded one.
pub fn decode_agg_state<C: Cell>(
    bytes: impl AsRef<[u8]>,
    mut state: AggState<C>,
) -> Result<AggState<C>, StorageError> {
    let [key_kinds, agg_kinds, tuple_kinds] = state.kinds().map(Arc::clone);
    let mut input = bytes.as_ref();
    let keys = get_rows(&mut input)?;
    let totals = get_rows(&mut input)?;
    let contributors = get_rows(&mut input)?;
    expect_end(input)?;
    if keys.len() != totals.len() {
        return Err(corrupt("group keys and totals differ in number"));
    }
    for (key, totals) in keys.iter().zip(&totals) {
        let [round, created, both @ ..] = totals.values() else {
            return Err(corrupt("group totals without round stamps"));
        };
        if both.len() % 2 != 0 {
            return Err(corrupt("group totals of odd width"));
        }
        let (values, prev) = both.split_at(both.len() / 2);
        state.insert_group(&AggGroup {
            key: &decoded_cells::<C>(&key_kinds, key.values())?,
            values: &decoded_cells::<C>(&agg_kinds, values)?,
            prev: &decoded_cells::<C>(&agg_kinds, prev)?,
            round: stamp(round)?,
            created: stamp(created)?,
        });
    }
    for tuple in &contributors {
        state.insert_contributor(&decoded_cells::<C>(&tuple_kinds, tuple.values())?);
    }
    Ok(state)
}

// --------------------------------------------------------------------
// Store
// --------------------------------------------------------------------

/// Where checkpoint payloads live: in driver memory (a stand-in for a
/// replicated store) or on disk under a directory (one file per key).
enum StoreBackend {
    Memory(RankedMutex<FxHashMap<String, Bytes>>),
    Disk(PathBuf),
}

/// A keyed blob store for checkpoint payloads.
///
/// Keys are free-form strings (the fixpoint uses `"r{round}/v{view}/p{part}"`);
/// the disk backend maps them to sanitized file names. `put` overwrites.
pub struct CheckpointStore {
    backend: StoreBackend,
}

impl CheckpointStore {
    /// An in-memory store.
    pub fn memory() -> Self {
        CheckpointStore {
            backend: StoreBackend::Memory(RankedMutex::new(
                LockRank::CheckpointStore,
                FxHashMap::default(),
            )),
        }
    }

    /// An on-disk store rooted at `dir` (created if absent).
    ///
    /// The store owns the directory: dropping the store removes `dir` and
    /// every checkpoint file in it, on any exit path — checkpoints are
    /// intra-query recovery state, worthless once the query ends.
    pub fn disk(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            backend: StoreBackend::Disk(dir),
        })
    }

    fn file_for(dir: &std::path::Path, key: &str) -> PathBuf {
        let name: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        dir.join(format!("{name}.ckpt"))
    }

    /// Store a payload; returns its size in bytes.
    pub fn put(&self, key: &str, data: Bytes) -> Result<usize, StorageError> {
        let len = data.len();
        match &self.backend {
            StoreBackend::Memory(map) => {
                map.lock().insert(key.to_string(), data);
            }
            StoreBackend::Disk(dir) => {
                std::fs::write(Self::file_for(dir, key), &data)?;
            }
        }
        Ok(len)
    }

    /// Fetch a payload, `None` if the key was never stored.
    pub fn get(&self, key: &str) -> Result<Option<Bytes>, StorageError> {
        match &self.backend {
            StoreBackend::Memory(map) => Ok(map.lock().get(key).cloned()),
            StoreBackend::Disk(dir) => {
                let path = Self::file_for(dir, key);
                if !path.exists() {
                    return Ok(None);
                }
                Ok(Some(Bytes::from(std::fs::read(path)?)))
            }
        }
    }
}

impl Drop for CheckpointStore {
    fn drop(&mut self) {
        if let StoreBackend::Disk(dir) = &self.backend {
            // Best-effort: cleanup must not panic during unwind.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MonotoneOp;
    use rasql_storage::row::int_row;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn vals(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn rows_round_trip_canonically() {
        let rows = vec![
            int_row(&[3, 1]),
            Row::new(vec![Value::from("x"), Value::Null]),
            int_row(&[1, 2]),
        ];
        let enc = encode_rows(&rows);
        let back = decode_rows(enc.clone()).unwrap();
        assert_eq!(back.len(), 3);
        // Canonical: re-encoding the decoded rows is byte-identical.
        assert_eq!(encode_rows(&back), enc);
    }

    #[test]
    fn set_state_round_trip_preserves_watermarks() {
        let mut s = SetState::new();
        s.insert(int_row(&[1, 2]), 1);
        s.insert(int_row(&[2, 3]), 2);
        s.insert(int_row(&[9, 9]), 5);
        let enc = encode_set_state(&s);
        let back = decode_set_state(enc.clone(), SetState::new()).unwrap();
        assert_eq!(back.len(), 3);
        assert!(back.contained_before(&vals(&[1, 2]), 2));
        assert!(!back.contained_before(&vals(&[2, 3]), 2));
        assert_eq!(encode_set_state(&back), enc);
    }

    #[test]
    fn agg_state_round_trip_preserves_entries_and_contributors() {
        let mut a = AggState::new();
        let ops = [MonotoneOp::Min, MonotoneOp::Sum];
        a.merge(&vals(&[1]), &vals(&[5, 10]), &ops, 1, None);
        a.merge(&vals(&[1]), &vals(&[3, 2]), &ops, 2, None);
        a.merge(
            &vals(&[2]),
            &vals(&[7, 1]),
            &[MonotoneOp::Min, MonotoneOp::Sum],
            2,
            Some(&vals(&[2, 99])),
        );
        let enc = encode_agg_state(&a);
        let back = decode_agg_state(enc.clone(), AggState::new()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(&vals(&[1])).unwrap(), &vals(&[3, 12])[..]);
        // Old-snapshot semantics survive (prev totals + rounds).
        assert_eq!(
            back.get_before(&vals(&[1]), 2).unwrap(),
            &vals(&[5, 10])[..]
        );
        // The contributor dedup set survives: same tuple is still ignored.
        let mut back2 = back;
        assert!(!back2.merge(
            &vals(&[2]),
            &vals(&[7, 1]),
            &[MonotoneOp::Min, MonotoneOp::Sum],
            3,
            Some(&vals(&[2, 99])),
        ));
        let again = decode_agg_state(enc.clone(), AggState::new()).unwrap();
        assert_eq!(encode_agg_state(&again), enc);
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut s = SetState::new();
        s.insert(int_row(&[1]), 1);
        let enc = encode_set_state(&s);
        assert!(decode_set_state(enc.slice(0..enc.len() - 1), SetState::new()).is_err());
        let agg = encode_agg_state(&AggState::<Value>::new());
        assert!(decode_agg_state(agg.slice(0..agg.len() - 1), AggState::new()).is_err());
    }

    #[test]
    fn memory_store_put_get() {
        let store = CheckpointStore::memory();
        assert!(store.get("r1/v0/p0").unwrap().is_none());
        store.put("r1/v0/p0", Bytes::from_static(b"abc")).unwrap();
        assert_eq!(store.get("r1/v0/p0").unwrap().unwrap().as_ref(), b"abc");
        // Overwrite wins.
        store.put("r1/v0/p0", Bytes::from_static(b"xy")).unwrap();
        assert_eq!(store.get("r1/v0/p0").unwrap().unwrap().as_ref(), b"xy");
    }

    #[test]
    fn disk_store_put_get() {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rasql-ckpt-test-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = CheckpointStore::disk(&dir).unwrap();
        store
            .put("r2/v1/p3", Bytes::from_static(b"payload"))
            .unwrap();
        assert_eq!(store.get("r2/v1/p3").unwrap().unwrap().as_ref(), b"payload");
        assert!(store.get("r2/v1/p4").unwrap().is_none());
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists(), "Drop must remove the checkpoint dir");
    }
}
