//! Property-based tests for the byte codec and the framed wire protocol:
//! arbitrary row batches and frames round-trip bit-exactly, and every
//! malformed input — truncated frames, garbage prefixes, unknown tags,
//! trailing bytes — is rejected with a typed error instead of a panic, a
//! hang, or a misparse.

use proptest::prelude::*;
use rasql_api::codec::{decode_rows, encode_rows};
use rasql_api::wire::{
    read_request, read_response, send_request, send_response, FrameBuf, Request, Response,
    FRAME_MAGIC,
};
use rasql_api::{ApiError, DataType, ErrorCode, QueryStats, Row, Schema, ServerStatus, Value};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only: the engine never produces NaN, and NaN breaks
        // the PartialEq the round-trip assertion relies on.
        (-1e15f64..1e15).prop_map(Value::Double),
        "[a-z0-9 ]{0,12}".prop_map(Value::str),
    ]
}

fn row_strategy() -> impl Strategy<Value = Row> {
    prop::collection::vec(value_strategy(), 0..5).prop_map(Row::new)
}

fn datatype_strategy() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int),
        Just(DataType::Double),
        Just(DataType::Str),
        Just(DataType::Bool),
        Just(DataType::Any),
    ]
}

fn schema_strategy() -> impl Strategy<Value = Schema> {
    prop::collection::vec(("[a-z]{1,8}", datatype_strategy()), 0..5).prop_map(Schema::new)
}

fn u16_strategy() -> impl Strategy<Value = u16> {
    (0u32..65_536).prop_map(|v| v as u16)
}

fn stats_strategy() -> impl Strategy<Value = QueryStats> {
    prop::collection::vec(any::<u64>(), 10..11).prop_map(|v| QueryStats {
        query_id: v[0],
        elapsed_us: v[1],
        iterations: v[2],
        stages: v[3],
        tasks: v[4],
        shuffle_rows: v[5],
        shuffle_bytes: v[6],
        peak_memory: v[7],
        spilled_bytes: v[8],
        spill_files: v[9],
    })
}

fn error_strategy() -> impl Strategy<Value = ApiError> {
    let codes = ErrorCode::all();
    ((0..codes.len()), "[ -~]{0,40}").prop_map(move |(i, message)| ApiError::new(codes[i], message))
}

fn status_strategy() -> impl Strategy<Value = ServerStatus> {
    (
        (
            prop::collection::vec(any::<u64>(), 0..6),
            prop::collection::vec("[a-z]{1,8}", 0..6),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        "[ -~]{0,60}",
    )
        .prop_map(
            |((active_queries, tables), (running, waiting, sessions), index_store)| ServerStatus {
                active_queries,
                running,
                waiting,
                sessions,
                tables,
                index_store,
            },
        )
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        u16_strategy().prop_map(|version| Request::Hello { version }),
        "[ -~]{0,60}".prop_map(|sql| Request::Query { sql }),
        ("[a-z]{1,8}", "[ -~]{0,60}").prop_map(|(name, sql)| Request::Prepare { name, sql }),
        "[a-z]{1,8}".prop_map(|name| Request::Execute { name }),
        (
            "[a-z]{1,8}",
            schema_strategy(),
            prop::collection::vec(row_strategy(), 0..6)
        )
            .prop_map(|(name, schema, rows)| Request::Register { name, schema, rows }),
        any::<u64>().prop_map(|query_id| Request::Kill { query_id }),
        Just(Request::Metrics),
        Just(Request::Status),
        Just(Request::Shutdown),
        Just(Request::Goodbye),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        (u16_strategy(), "[ -~]{0,24}")
            .prop_map(|(version, server)| Response::Hello { version, server }),
        schema_strategy().prop_map(|schema| Response::ResultHeader { schema }),
        prop::collection::vec(row_strategy(), 0..8).prop_map(|rows| Response::RowBatch { rows }),
        stats_strategy().prop_map(|stats| Response::StatementDone { stats }),
        Just(Response::QueryDone),
        error_strategy().prop_map(|error| Response::Error { error }),
        any::<u64>().prop_map(|rows| Response::Registered { rows }),
        any::<u64>().prop_map(|statements| Response::Prepared { statements }),
        any::<bool>().prop_map(|found| Response::Killed { found }),
        "[ -~]{0,80}".prop_map(|text| Response::MetricsText { text }),
        status_strategy().prop_map(|status| Response::Status { status }),
        Just(Response::Goodbye),
    ]
}

fn byte_strategy() -> impl Strategy<Value = u8> {
    (0u32..256).prop_map(|v| v as u8)
}

/// Integers at and next to the ends of the range, where a delta between
/// neighbours does not fit an `i64`.
fn int_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        Just(i64::MIN),
        Just(i64::MIN + 1),
        Just(i64::MAX - 1),
        Just(i64::MAX),
        -3i64..3,
    ]
}

/// Doubles by bit pattern: NaN payloads, signed zeros, infinities.
fn double_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(-0.0),
        Just(0.0),
        Just(f64::NAN),
        Just(f64::NEG_INFINITY),
        -1e3f64..1e3,
    ]
}

/// A batch over a random mix of columns — packed `Int`, packed `Double`,
/// `Int` with NULLs, strings, mixed values — of width 0 to 4; when `ragged`,
/// each row keeps only a prefix of them.
fn batch_strategy() -> impl Strategy<Value = Vec<Row>> {
    let cell = (
        (int_strategy(), double_strategy()),
        ("[a-z]{0,6}", value_strategy()),
        0usize..8,
    );
    let row = (0usize..5, prop::collection::vec(cell, 4..5));
    (
        prop::collection::vec(0usize..5, 0..5),
        prop::collection::vec(row, 0..16),
        any::<bool>(),
    )
        .prop_map(|(kinds, rows, ragged)| {
            rows.into_iter()
                .map(|(len, cells)| {
                    let width = if ragged {
                        len % (kinds.len() + 1)
                    } else {
                        kinds.len()
                    };
                    let values =
                        kinds[..width]
                            .iter()
                            .zip(cells)
                            .map(|(&kind, ((i, d), (s, v), null))| match kind {
                                0 => Value::Int(i),
                                1 => Value::Double(d),
                                2 if null == 0 => Value::Null,
                                2 => Value::Int(i),
                                3 => Value::str(s),
                                _ => v,
                            });
                    Row::new(values.collect())
                })
                .collect()
        })
}

/// Each value by variant and bits: `-0.0` is not `0.0`, and NaN is itself.
fn bits(rows: &[Row]) -> Vec<Vec<String>> {
    let bits = |v: &Value| match v {
        Value::Double(d) => format!("Double({:#x})", d.to_bits()),
        other => format!("{other:?}"),
    };
    rows.iter()
        .map(|r| r.values().iter().map(bits).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One row batch decodes to the same values bit for bit; no strict
    /// prefix of it decodes, and neither does it with a byte appended.
    #[test]
    fn row_batches_round_trip_and_decode_strictly(
        rows in batch_strategy(),
        extra in byte_strategy(),
    ) {
        let bytes = encode_rows(&rows);
        match decode_rows(&bytes) {
            Ok(back) => prop_assert_eq!(bits(&back), bits(&rows)),
            Err(e) => prop_assert!(false, "decode of a fresh encode failed: {e}"),
        }
        for cut in 0..bytes.len() {
            prop_assert!(decode_rows(&bytes[..cut]).is_err(), "prefix of {} bytes decoded", cut);
        }
        let mut long = bytes;
        long.push(extra);
        prop_assert!(decode_rows(&long).is_err());
    }

    #[test]
    fn requests_round_trip_through_a_frame(req in request_strategy()) {
        let mut wire = Vec::new();
        send_request(&mut wire, &req).unwrap();
        let mut cursor = wire.as_slice();
        prop_assert_eq!(read_request(&mut cursor).unwrap(), req);
        prop_assert!(cursor.is_empty(), "frame reader left bytes behind");
    }

    #[test]
    fn responses_round_trip_through_a_frame(resp in response_strategy()) {
        let mut wire = Vec::new();
        send_response(&mut wire, &resp).unwrap();
        let mut cursor = wire.as_slice();
        prop_assert_eq!(read_response(&mut cursor).unwrap(), resp);
        prop_assert!(cursor.is_empty(), "frame reader left bytes behind");
    }

    /// `Row: Borrow<[Value]>` is sound: a row and the slice of its values hash
    /// and compare alike, so a set of rows answers for a borrowed tuple.
    #[test]
    fn a_row_hashes_and_compares_like_its_slice(a in row_strategy(), b in row_strategy()) {
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        prop_assert_eq!(hasher.hash_one(&a), hasher.hash_one(a.values()));
        prop_assert_eq!(a == b, a.values() == b.values());
        prop_assert_eq!(a.cmp(&b), a.values().cmp(b.values()));
        prop_assert_eq!(&Row::from_slice(a.values()), &a);
        let set: std::collections::HashSet<Row> = [a.clone()].into_iter().collect();
        prop_assert!(set.contains(a.values()));
        prop_assert_eq!(set.contains(b.values()), a == b);
    }

    /// A batch encoded from borrowed rows — any chunk of a larger buffer — is
    /// the frame the owned `RowBatch` message makes, byte for byte, and it
    /// decodes strictly: back to the same rows, no prefix of it accepted, no
    /// trailing byte tolerated.
    #[test]
    fn borrowed_row_batches_equal_owned_ones(
        rows in prop::collection::vec(row_strategy(), 0..24),
        from in 0.0f64..1.0,
        frac in 0.0f64..1.0,
        extra in byte_strategy(),
    ) {
        let chunk = &rows[(from * rows.len() as f64) as usize..];
        let owned = Response::RowBatch { rows: chunk.to_vec() };
        let payload = owned.encode();

        let (mut borrowed_frame, mut owned_frame) = (Vec::new(), Vec::new());
        let mut frames = FrameBuf::default();
        prop_assert_eq!(frames.push_row_batch(chunk).unwrap(), chunk.len());
        frames.write_to(&mut borrowed_frame).unwrap();
        send_response(&mut owned_frame, &owned).unwrap();
        prop_assert_eq!(&borrowed_frame, &owned_frame);
        let mut cursor = borrowed_frame.as_slice();
        prop_assert_eq!(read_response(&mut cursor).unwrap(), owned);
        prop_assert!(cursor.is_empty(), "frame reader left bytes behind");

        let cut = (frac * (payload.len() as f64)) as usize;
        prop_assert_eq!(Response::decode(&payload[..cut]).unwrap_err().code, ErrorCode::Protocol);
        let mut long = payload;
        long.push(extra);
        prop_assert_eq!(Response::decode(&long).unwrap_err().code, ErrorCode::Protocol);
    }

    /// Cutting a frame anywhere — mid-magic, mid-length, mid-payload — must
    /// produce a typed error, never a successful misparse.
    #[test]
    fn truncated_frames_are_rejected(req in request_strategy(), frac in 0.0f64..1.0) {
        let mut wire = Vec::new();
        send_request(&mut wire, &req).unwrap();
        let cut = (frac * (wire.len() as f64)) as usize; // always < full length
        let mut cursor = &wire[..cut];
        let err = read_request(&mut cursor).unwrap_err();
        prop_assert!(
            matches!(err.code, ErrorCode::ConnectionClosed | ErrorCode::Protocol),
            "unexpected error class for truncation at {}: {}", cut, err
        );
    }

    /// Every proper prefix of a payload fails strict decoding: no field
    /// sequence parses short AND consumes the buffer exactly.
    #[test]
    fn truncated_payloads_are_rejected(req in request_strategy(), frac in 0.0f64..1.0) {
        let payload = req.encode();
        let cut = (frac * (payload.len() as f64)) as usize;
        let err = Request::decode(&payload[..cut]).unwrap_err();
        prop_assert_eq!(err.code, ErrorCode::Protocol);
    }

    #[test]
    fn trailing_bytes_are_rejected(resp in response_strategy(), extra in byte_strategy()) {
        let mut payload = resp.encode();
        payload.push(extra);
        let err = Response::decode(&payload).unwrap_err();
        prop_assert_eq!(err.code, ErrorCode::Protocol);
    }

    /// A stream that does not start with the frame magic is refused on the
    /// first read — before any "length" is trusted.
    #[test]
    fn garbage_prefixes_are_rejected(bytes in prop::collection::vec(byte_strategy(), 2..64)) {
        prop_assume!([bytes[0], bytes[1]] != FRAME_MAGIC);
        let mut cursor = bytes.as_slice();
        let err = read_request(&mut cursor).unwrap_err();
        prop_assert_eq!(err.code, ErrorCode::Protocol);
    }

    #[test]
    fn unknown_tags_are_rejected(
        tag in (32u32..256).prop_map(|v| v as u8),
        tail in prop::collection::vec(byte_strategy(), 0..16),
    ) {
        let mut payload = vec![tag];
        payload.extend_from_slice(&tail);
        prop_assert_eq!(Request::decode(&payload).unwrap_err().code, ErrorCode::Protocol);
        prop_assert_eq!(Response::decode(&payload).unwrap_err().code, ErrorCode::Protocol);
    }
}
