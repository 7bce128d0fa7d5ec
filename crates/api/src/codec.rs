//! The one byte codec: every byte format of the engine — wire payloads, WAL
//! records, snapshots, view images, checkpoints, spill files and broadcast
//! payloads — is built from the pieces here. Each caller keeps only its own
//! framing (the `RQ` frame, the WAL's `len | payload | crc`, the snapshot's
//! `magic | version | body | crc`, a checkpoint's sort order).
//!
//! ## Primitives
//!
//! Unsigned integers are LEB128 varints; signed ones are zigzagged first.
//! Strings and byte strings are a varint length and the bytes. A tagged
//! value is one tag byte (`0` NULL, `1` bool, `2` int, `3` double, `4`
//! string) and its payload: a bool byte, a zigzag varint, the 8 little-endian
//! bytes of the double's bits, or a string.
//!
//! ## Row batches
//!
//! ```text
//! batch  := varint rows | varint width | body
//! body   := width × column                          (width ≥ 1)
//!         | rows × (varint arity | arity × value)   (width = 0: ragged)
//! column := 0 | rows × tagged value
//!         | 1 | rows × varint zigzag(Δ)              every cell an Int
//!         | 2 | rows × u64 LE bits                   every cell a Double
//! ```
//!
//! A batch whose rows share an arity of at least one is column-major. A
//! column whose cells all sit on one [`Lane`] is packed: `Int` cells as the
//! zigzag of the *wrapping* difference from the previous row's cell (the
//! first from 0), `Double` cells as raw bits, so `-0.0` and NaN payloads
//! survive. Any other column is tagged values. Rows of differing arity — or
//! of arity zero, which a column layout could not count — are written
//! row-major, each row its arity and its tagged values.
//!
//! ## Decoding
//!
//! Decoders read from `&mut &[u8]` and advance it, copying nothing but the
//! values they build. Every count is checked against the bytes that remain
//! before anything is allocated (every counted item takes at least one
//! byte), so a corrupt count is a [`CodecError`], never an allocation.

use crate::row::Row;
use crate::schema::{DataType, Field, Schema};
use crate::value::{Lane, Value};
use std::fmt;

/// Malformed input: truncated, overlong, an unknown tag, or a count larger
/// than the bytes left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for CodecError {}

/// Append an unsigned LEB128 varint.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Read an unsigned LEB128 varint; one that does not fit 64 bits is an error.
#[inline]
pub fn get_varint(input: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = get_u8(input)?;
        if shift == 63 && byte > 1 {
            return Err(CodecError("varint overflows 64 bits"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// ZigZag-map a signed integer so small magnitudes stay small varints.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Read one byte.
#[inline]
pub fn get_u8(input: &mut &[u8]) -> Result<u8, CodecError> {
    let (&byte, rest) = input.split_first().ok_or(CodecError("truncated input"))?;
    *input = rest;
    Ok(byte)
}

/// Read 8 little-endian bytes.
#[inline]
fn get_word(input: &mut &[u8]) -> Result<u64, CodecError> {
    let (word, rest) = input
        .split_first_chunk::<8>()
        .ok_or(CodecError("truncated 8-byte word"))?;
    *input = rest;
    Ok(u64::from_le_bytes(*word))
}

/// Append a bool as one byte.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Read a bool byte; anything but 0 or 1 is an error.
pub fn get_bool(input: &mut &[u8]) -> Result<bool, CodecError> {
    match get_u8(input)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError("bad bool byte")),
    }
}

/// Read a count of items that each take at least one byte; a count larger
/// than the bytes left is an error.
pub fn get_count(input: &mut &[u8]) -> Result<usize, CodecError> {
    usize::try_from(get_varint(input)?)
        .ok()
        .filter(|&n| n <= input.len())
        .ok_or(CodecError("count exceeds the bytes left"))
}

/// Append a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Read a length-prefixed byte string, borrowed from the input.
pub fn get_bytes<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    let len = get_count(input)?;
    let (bytes, rest) = input.split_at(len);
    *input = rest;
    Ok(bytes)
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Read a length-prefixed UTF-8 string, borrowed from the input.
pub fn get_str<'a>(input: &mut &'a [u8]) -> Result<&'a str, CodecError> {
    std::str::from_utf8(get_bytes(input)?).map_err(|_| CodecError("invalid UTF-8 string"))
}

/// Read a length-prefixed UTF-8 string into an owned `String`.
pub fn get_string(input: &mut &[u8]) -> Result<String, CodecError> {
    get_str(input).map(str::to_owned)
}

/// Fail unless the input is used up: trailing bytes mean a writer encoded
/// something this reader does not understand.
pub fn expect_end(input: &[u8]) -> Result<(), CodecError> {
    if input.is_empty() {
        Ok(())
    } else {
        Err(CodecError("trailing bytes"))
    }
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            put_bool(buf, *b);
        }
        Value::Int(i) => {
            buf.push(2);
            put_varint(buf, zigzag(*i));
        }
        Value::Double(d) => {
            buf.push(3);
            buf.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
    }
}

fn get_value(input: &mut &[u8]) -> Result<Value, CodecError> {
    Ok(match get_u8(input)? {
        0 => Value::Null,
        1 => Value::Bool(get_bool(input)?),
        2 => Value::Int(unzigzag(get_varint(input)?)),
        3 => Value::Double(f64::from_bits(get_word(input)?)),
        4 => Value::from(get_str(input)?),
        _ => return Err(CodecError("unknown value tag")),
    })
}

/// Append a schema: its arity, then each field's name and type tag.
pub fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_varint(buf, schema.arity() as u64);
    for f in schema.fields() {
        put_str(buf, &f.name);
        buf.push(match f.data_type {
            DataType::Int => 0,
            DataType::Double => 1,
            DataType::Str => 2,
            DataType::Bool => 3,
            DataType::Any => 4,
        });
    }
}

/// Read a schema written by [`put_schema`].
pub fn get_schema(input: &mut &[u8]) -> Result<Schema, CodecError> {
    let n = get_count(input)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_string(input)?;
        let data_type = match get_u8(input)? {
            0 => DataType::Int,
            1 => DataType::Double,
            2 => DataType::Str,
            3 => DataType::Bool,
            4 => DataType::Any,
            _ => return Err(CodecError("unknown type tag")),
        };
        fields.push(Field::new(name, data_type));
    }
    Ok(Schema::from_fields(fields))
}

/// Column kind byte of a tagged-value column.
const TAGGED: u8 = 0;

fn lane_tag(lane: Lane) -> u8 {
    match lane {
        Lane::Int => 1,
        Lane::Double => 2,
    }
}

/// Append one packed cell: an `Int` as the zigzag of its wrapping delta
/// from `prev`, a `Double` as its bits.
#[inline]
fn put_cell(buf: &mut Vec<u8>, lane: Lane, word: u64, prev: &mut u64) {
    match lane {
        Lane::Int => {
            put_varint(buf, zigzag(word.wrapping_sub(*prev) as i64));
            *prev = word;
        }
        Lane::Double => buf.extend_from_slice(&word.to_le_bytes()),
    }
}

/// Inverse of [`put_cell`].
#[inline]
fn get_cell(input: &mut &[u8], lane: Lane, prev: &mut u64) -> Result<u64, CodecError> {
    match lane {
        Lane::Int => {
            *prev = prev.wrapping_add(unzigzag(get_varint(input)?) as u64);
            Ok(*prev)
        }
        Lane::Double => get_word(input),
    }
}

/// Append a row batch (see the module docs for the layout). Rows are
/// written in the order given.
pub fn put_rows<R: AsRef<[Value]>>(buf: &mut Vec<u8>, rows: &[R]) {
    put_varint(buf, rows.len() as u64);
    let width = rows.first().map_or(0, |r| r.as_ref().len());
    if width == 0 || rows.iter().any(|r| r.as_ref().len() != width) {
        buf.push(0);
        for row in rows {
            let row = row.as_ref();
            put_varint(buf, row.len() as u64);
            for v in row {
                put_value(buf, v);
            }
        }
        return;
    }
    put_varint(buf, width as u64);
    for c in 0..width {
        let column = || rows.iter().map(|r| &r.as_ref()[c]);
        let lane = match column().next() {
            Some(Value::Int(_)) => Some(Lane::Int),
            Some(Value::Double(_)) => Some(Lane::Double),
            _ => None,
        };
        if let Some(lane) = lane {
            // Pack optimistically; a cell off the lane rewinds the column
            // and writes it tagged instead.
            let start = buf.len();
            buf.push(lane_tag(lane));
            let mut prev = 0;
            let packed = column().all(|v| {
                lane.encode(v)
                    .map(|word| put_cell(buf, lane, word, &mut prev))
                    .is_ok()
            });
            if packed {
                continue;
            }
            buf.truncate(start);
        }
        buf.push(TAGGED);
        for v in column() {
            put_value(buf, v);
        }
    }
}

/// Read a row batch written by [`put_rows`], in its order.
pub fn get_rows(input: &mut &[u8]) -> Result<Vec<Row>, CodecError> {
    let n = get_count(input)?;
    let width = get_count(input)?;
    if width == 0 {
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let arity = get_count(input)?;
            let mut values = Vec::with_capacity(arity);
            for _ in 0..arity {
                values.push(get_value(input)?);
            }
            rows.push(Row::new(values));
        }
        return Ok(rows);
    }
    // Read the columns as `decode_lanes` does, then build each row once,
    // in row order, collected from an exact-size iterator (one allocation,
    // each cell written in place).
    let mut columns = get_columns(input, n, width)?;
    let rows = (0..n).map(|r| {
        let values = columns.iter_mut().map(|column| match column {
            LaneColumn::Words(lane, words) => lane.decode(words[r]),
            LaneColumn::Values(tagged) => std::mem::replace(&mut tagged[r], Value::Null),
        });
        Row::new(values.collect())
    });
    Ok(rows.collect())
}

/// The `width` columns of a column-major batch of `rows` rows.
fn get_columns(
    input: &mut &[u8],
    rows: usize,
    width: usize,
) -> Result<Vec<LaneColumn>, CodecError> {
    if rows.saturating_mul(width) > input.len() {
        return Err(CodecError("batch exceeds the bytes left"));
    }
    let mut columns = Vec::with_capacity(width);
    for _ in 0..width {
        let lane = match get_u8(input)? {
            TAGGED => None,
            1 => Some(Lane::Int),
            2 => Some(Lane::Double),
            _ => return Err(CodecError("unknown column kind")),
        };
        // `rows` fits the bytes left, so the columns' capacity is bounded.
        columns.push(match lane {
            Some(lane) => {
                let (mut words, mut prev) = (Vec::with_capacity(rows), 0);
                for _ in 0..rows {
                    words.push(get_cell(input, lane, &mut prev)?);
                }
                LaneColumn::Words(lane, words)
            }
            None => {
                let mut values = Vec::with_capacity(rows);
                for _ in 0..rows {
                    values.push(get_value(input)?);
                }
                LaneColumn::Values(values)
            }
        });
    }
    Ok(columns)
}

/// One column of a batch read by [`decode_lanes`].
#[derive(Debug, Clone, PartialEq)]
pub enum LaneColumn {
    /// A packed column: every cell of this lane, as its word.
    Words(Lane, Vec<u64>),
    /// A tagged column: its values.
    Values(Vec<Value>),
}

/// A row batch read column by column, no row built.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LaneBatch {
    /// Rows in the batch.
    pub rows: usize,
    /// Its columns, each `rows` cells long.
    pub columns: Vec<LaneColumn>,
}

/// Read a payload of one batch written by [`encode_rows`] as columns: a
/// packed column stays words, a tagged one becomes values. A batch of rows
/// of differing arity has no columns and is an error.
pub fn decode_lanes(mut input: &[u8]) -> Result<LaneBatch, CodecError> {
    let input = &mut input;
    let rows = get_count(input)?;
    let width = get_count(input)?;
    if width == 0 {
        for _ in 0..rows {
            if get_count(input)? != 0 {
                return Err(CodecError("a ragged batch has no columns"));
            }
        }
        expect_end(input)?;
        return Ok(LaneBatch {
            rows,
            columns: Vec::new(),
        });
    }
    let columns = get_columns(input, rows, width)?;
    expect_end(input)?;
    Ok(LaneBatch { rows, columns })
}

/// One row batch as a standalone payload.
#[must_use]
pub fn encode_rows<R: AsRef<[Value]>>(rows: &[R]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_rows(&mut buf, rows);
    buf
}

/// Inverse of [`encode_rows`]: the payload must hold exactly one batch.
pub fn decode_rows(mut input: &[u8]) -> Result<Vec<Row>, CodecError> {
    let rows = get_rows(&mut input)?;
    expect_end(input)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;

    #[test]
    fn varints_round_trip_and_reject_overflow() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut input = buf.as_slice();
            assert_eq!(get_varint(&mut input), Ok(v));
            assert!(input.is_empty());
        }
        let mut eleven: &[u8] = &[0xff; 11];
        assert!(get_varint(&mut eleven).is_err());
        let mut wide: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert!(get_varint(&mut wide).is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn int_and_double_columns_pack_without_tags() {
        let rows = vec![
            Row::new(vec![Value::Int(5), Value::Double(0.5)]),
            Row::new(vec![Value::Int(7), Value::Double(-0.0)]),
        ];
        let bytes = encode_rows(&rows);
        let mut want = vec![2, 2, 1, 10, 4, 2];
        want.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        want.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        assert_eq!(bytes, want);
        let back = decode_rows(&bytes).unwrap();
        assert_eq!(back, rows);
        assert!(back[1][1].as_f64().unwrap().is_sign_negative());
    }

    #[test]
    fn wide_int_deltas_wrap() {
        let rows = vec![int_row(&[i64::MIN, 0]), int_row(&[i64::MAX, 1])];
        assert_eq!(decode_rows(&encode_rows(&rows)).unwrap(), rows);
    }

    #[test]
    fn mixed_ragged_and_zero_arity_batches_round_trip() {
        let mixed = vec![
            Row::new(vec![Value::Int(1), Value::from("a")]),
            Row::new(vec![Value::Null, Value::Bool(true)]),
        ];
        let ragged = vec![int_row(&[1, 2]), int_row(&[3])];
        let units = vec![Row::unit(), Row::unit()];
        for rows in [mixed, ragged, units, Vec::new()] {
            assert_eq!(decode_rows(&encode_rows(&rows)).unwrap(), rows);
        }
    }

    #[test]
    fn packed_and_tagged_columns_round_trip_value_for_value() {
        // Packed `Int` and `Double` columns beside tagged ones: strings, a
        // NULL, a `Double` under a first `Int` and a NULL after packed cells
        // (the column rewinds and is written tagged).
        let rows = vec![
            Row::new(vec![
                Value::Int(-7),
                Value::Double(2.5),
                Value::from("a"),
                Value::Int(1),
                Value::Double(0.5),
            ]),
            Row::new(vec![
                Value::Int(i64::MAX),
                Value::Double(-0.0),
                Value::Null,
                Value::Double(1.0),
                Value::Null,
            ]),
            Row::new(vec![
                Value::Int(0),
                Value::Double(f64::INFINITY),
                Value::from("bc"),
                Value::Int(-1),
                Value::Double(3.0),
            ]),
        ];
        let bytes = encode_rows(&rows);
        let kinds: Vec<bool> = (decode_lanes(&bytes).unwrap().columns.iter())
            .map(|c| matches!(c, LaneColumn::Words(..)))
            .collect();
        assert_eq!(kinds, [true, true, false, false, false]);
        let back = decode_rows(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{rows:?}"));
        // Width 0: rows of differing arity, the empty row among them.
        let ragged = vec![
            int_row(&[1, 2]),
            Row::unit(),
            Row::new(vec![Value::from("x"), Value::Double(0.25), Value::Null]),
        ];
        let bytes = encode_rows(&ragged);
        assert_eq!(bytes[1], 0, "a ragged batch has width 0");
        let back = decode_rows(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{ragged:?}"));
    }

    #[test]
    fn lanes_decode_the_cells_rows_decode() {
        let rows = vec![
            Row::new(vec![Value::Int(-3), Value::Double(-0.0), Value::from("a")]),
            Row::new(vec![
                Value::Int(i64::MAX),
                Value::Double(f64::NAN),
                Value::Null,
            ]),
        ];
        let bytes = encode_rows(&rows);
        let batch = decode_lanes(&bytes).unwrap();
        assert_eq!(batch.rows, 2);
        assert!(matches!(batch.columns[0], LaneColumn::Words(Lane::Int, _)));
        assert!(matches!(batch.columns[2], LaneColumn::Values(_)));
        for (r, row) in decode_rows(&bytes).unwrap().iter().enumerate() {
            for (c, column) in batch.columns.iter().enumerate() {
                let cell = match column {
                    LaneColumn::Words(lane, words) => lane.decode(words[r]),
                    LaneColumn::Values(values) => values[r].clone(),
                };
                assert_eq!(cell, row[c]);
            }
        }
        assert_eq!(
            decode_lanes(&encode_rows::<Row>(&[])).unwrap(),
            LaneBatch::default()
        );
        let ragged = encode_rows(&[int_row(&[1, 2]), int_row(&[3])]);
        assert!(decode_lanes(&ragged).is_err());
        assert!(decode_lanes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn corrupt_counts_are_errors_not_allocations() {
        let mut huge = Vec::new();
        put_varint(&mut huge, 1 << 62);
        huge.extend_from_slice(&[1, 1, 0, 0, 0, 0, 0, 0, 0]);
        let refused = |what| Err(CodecError(what));
        assert_eq!(decode_rows(&huge), refused("count exceeds the bytes left"));
        // Three rows of three columns: each count fits the bytes left, their
        // product does not.
        let batch = decode_rows(&[3, 3, 1, 0, 0]);
        assert_eq!(batch, refused("batch exceeds the bytes left"));
    }
}
