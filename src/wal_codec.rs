//! Binary codec for replicating `Vec<TxRequest>` batches through the
//! durable WAL ([`prognosticator_consensus::WalStore`]).
//!
//! Hand-rolled (the workspace vendors no serde): a tagged, length-prefixed
//! little-endian encoding of [`Value`] trees plus `(program, inputs)`
//! request headers. The encoding is canonical — one byte sequence per
//! value — so WAL bytes can be compared across replicas and the CRC-framed
//! recovery path never depends on platform layout.

use prognosticator_consensus::{Codec, WalError};
use prognosticator_core::{LogRecord, ProgId, TxRequest};
use prognosticator_txir::Value;
use std::sync::Arc;

/// Value-tree tags (one byte each).
const TAG_UNIT: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_RECORD: u8 = 4;
const TAG_LIST: u8 = 5;

/// Encodes/decodes a whole batch (`Vec<TxRequest>`) as one WAL payload.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxBatchCodec;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Unit => out.push(TAG_UNIT),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Record(fields) => {
            out.push(TAG_RECORD);
            put_u32(out, fields.len() as u32);
            for f in fields.iter() {
                encode_value(f, out);
            }
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            put_u32(out, items.len() as u32);
            for item in items.iter() {
                encode_value(item, out);
            }
        }
    }
}

/// Cursor over an encoded payload with checked reads (a short or
/// malformed buffer yields [`WalError::Corrupt`], never a panic — torn
/// frames end up here when the CRC happens to collide).
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WalError::Corrupt("batch payload truncated".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WalError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Caps element counts read from length prefixes so a corrupt frame
/// cannot trigger a huge up-front allocation.
fn checked_len(n: u32, remaining: usize, min_elem_bytes: usize) -> Result<usize, WalError> {
    let n = n as usize;
    if n.saturating_mul(min_elem_bytes) > remaining {
        return Err(WalError::Corrupt(format!(
            "length prefix {n} exceeds remaining payload ({remaining} bytes)"
        )));
    }
    Ok(n)
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value, WalError> {
    match r.u8()? {
        TAG_UNIT => Ok(Value::Unit),
        TAG_BOOL => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            b => Err(WalError::Corrupt(format!("invalid bool byte {b}"))),
        },
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_STR => {
            let len = r.u32()?;
            let n = checked_len(len, r.buf.len() - r.pos, 1)?;
            let bytes = r.take(n)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| WalError::Corrupt(format!("invalid utf-8 in Str: {e}")))?;
            Ok(Value::Str(Arc::from(s)))
        }
        TAG_RECORD => {
            let len = r.u32()?;
            let n = checked_len(len, r.buf.len() - r.pos, 1)?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(decode_value(r)?);
            }
            Ok(Value::Record(Arc::new(fields)))
        }
        TAG_LIST => {
            let len = r.u32()?;
            let n = checked_len(len, r.buf.len() - r.pos, 1)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(r)?);
            }
            Ok(Value::List(Arc::new(items)))
        }
        tag => Err(WalError::Corrupt(format!("unknown value tag {tag}"))),
    }
}

impl Codec<Vec<TxRequest>> for TxBatchCodec {
    fn encode(&self, batch: &Vec<TxRequest>, out: &mut Vec<u8>) {
        put_u32(out, batch.len() as u32);
        for req in batch {
            put_u64(out, req.program.0 as u64);
            put_u32(out, req.inputs.len() as u32);
            for input in &req.inputs {
                encode_value(input, out);
            }
        }
    }

    fn decode(&self, bytes: &[u8]) -> Result<Vec<TxRequest>, WalError> {
        let mut r = Reader::new(bytes);
        let len = r.u32()?;
        // Each request is at least program (8) + input count (4) bytes.
        let n = checked_len(len, bytes.len().saturating_sub(4), 12)?;
        let mut batch = Vec::with_capacity(n);
        for _ in 0..n {
            let program = ProgId(r.u64()? as usize);
            let input_len = r.u32()?;
            let inputs_n = checked_len(input_len, r.buf.len() - r.pos, 1)?;
            let mut inputs = Vec::with_capacity(inputs_n);
            for _ in 0..inputs_n {
                inputs.push(decode_value(&mut r)?);
            }
            batch.push(TxRequest { program, inputs });
        }
        if !r.done() {
            return Err(WalError::Corrupt(format!(
                "{} trailing bytes after batch payload",
                bytes.len() - r.pos
            )));
        }
        Ok(batch)
    }
}

/// Record tag of a batch in the [`LogRecordCodec`] framing. Tag `1` was
/// the retired specialization-swap record; it, like any other tag,
/// decodes as [`WalError::Corrupt`].
const REC_BATCH: u8 = 0;

/// Encodes/decodes a [`LogRecord`] as one WAL payload: the `REC_BATCH`
/// tag followed by the exact [`TxBatchCodec`] byte sequence, so both
/// codecs agree on the canonical batch encoding.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogRecordCodec;

impl Codec<LogRecord> for LogRecordCodec {
    fn encode(&self, record: &LogRecord, out: &mut Vec<u8>) {
        let LogRecord::Batch(batch) = record;
        out.push(REC_BATCH);
        TxBatchCodec.encode(batch, out);
    }

    fn decode(&self, bytes: &[u8]) -> Result<LogRecord, WalError> {
        match bytes.split_first() {
            Some((&REC_BATCH, body)) => Ok(LogRecord::Batch(TxBatchCodec.decode(body)?)),
            Some((tag, _)) => Err(WalError::Corrupt(format!("unknown record tag {tag}"))),
            None => Err(WalError::Corrupt("empty record payload".into())),
        }
    }
}

/// The pipeline's cluster shares one allocation per batch across every
/// node's log, store and committed view; on disk it is the same bytes.
impl Codec<Arc<LogRecord>> for LogRecordCodec {
    fn encode(&self, record: &Arc<LogRecord>, out: &mut Vec<u8>) {
        Codec::<LogRecord>::encode(self, record, out);
    }

    fn decode(&self, bytes: &[u8]) -> Result<Arc<LogRecord>, WalError> {
        Codec::<LogRecord>::decode(self, bytes).map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(batch: Vec<TxRequest>) {
        let codec = TxBatchCodec;
        let mut buf = Vec::new();
        codec.encode(&batch, &mut buf);
        let back = codec.decode(&buf).expect("decode");
        assert_eq!(back, batch);
    }

    #[test]
    fn roundtrips_all_value_shapes() {
        roundtrip(vec![]);
        roundtrip(vec![
            TxRequest::new(ProgId(0), vec![]),
            TxRequest::new(ProgId(3), vec![Value::Int(-7), Value::Bool(true), Value::Unit]),
            TxRequest::new(
                ProgId(usize::MAX >> 1),
                vec![
                    Value::str("héllo wal"),
                    Value::Record(Arc::new(vec![Value::Int(1), Value::str("x")])),
                    Value::List(Arc::new(vec![Value::List(Arc::new(vec![Value::Unit]))])),
                ],
            ),
        ]);
    }

    #[test]
    fn encoding_is_canonical() {
        let batch = vec![TxRequest::new(ProgId(5), vec![Value::Int(42), Value::str("k")])];
        let codec = TxBatchCodec;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        codec.encode(&batch, &mut a);
        codec.encode(&batch.clone(), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_and_garbage_payloads_are_corrupt_not_panics() {
        let codec = TxBatchCodec;
        let mut buf = Vec::new();
        codec.encode(
            &vec![TxRequest::new(ProgId(1), vec![Value::str("abcdef"), Value::Int(9)])],
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert!(
                matches!(codec.decode(&buf[..cut]), Err(WalError::Corrupt(_))),
                "prefix of {cut} bytes must decode as Corrupt"
            );
        }
        // Oversized length prefix must not allocate or panic.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(codec.decode(&huge), Err(WalError::Corrupt(_))));
        // Unknown tag.
        let bad_tag = {
            let mut v = Vec::new();
            put_u32(&mut v, 1);
            put_u64(&mut v, 0);
            put_u32(&mut v, 1);
            v.push(99);
            v
        };
        assert!(matches!(codec.decode(&bad_tag), Err(WalError::Corrupt(_))));
    }

    fn record_roundtrip(record: LogRecord) -> Vec<u8> {
        let codec = LogRecordCodec;
        let mut buf = Vec::new();
        codec.encode(&record, &mut buf);
        assert_eq!(Codec::<LogRecord>::decode(&codec, &buf).expect("decodes"), record);
        buf
    }

    #[test]
    fn batch_records_roundtrip() {
        record_roundtrip(LogRecord::Batch(vec![]));
        record_roundtrip(LogRecord::Batch(vec![
            TxRequest::new(ProgId(3), vec![Value::Int(-7), Value::str("wal")]),
        ]));
    }

    #[test]
    fn shared_record_bytes_equal_plain_record_bytes() {
        let record = LogRecord::Batch(vec![TxRequest::new(ProgId(2), vec![Value::str("arc")])]);
        let plain = record_roundtrip(record.clone());
        let shared = Arc::new(record);
        let mut bytes = Vec::new();
        LogRecordCodec.encode(&shared, &mut bytes);
        assert_eq!(bytes, plain);
        let back: Arc<LogRecord> = LogRecordCodec.decode(&bytes).expect("decodes");
        assert_eq!(back, shared);
    }

    #[test]
    fn batch_record_framing_is_tx_batch_codec_plus_tag() {
        // The batch body must be the exact TxBatchCodec bytes, so both
        // codecs agree on the canonical batch encoding.
        let batch = vec![TxRequest::new(ProgId(5), vec![Value::Int(42)])];
        let mut plain = Vec::new();
        TxBatchCodec.encode(&batch, &mut plain);
        let framed = record_roundtrip(LogRecord::Batch(batch));
        assert_eq!(framed[0], REC_BATCH);
        assert_eq!(&framed[1..], &plain[..]);
    }

    #[test]
    fn retired_record_tag_is_corrupt_not_truncated() {
        use prognosticator_consensus::raft::Record;
        use prognosticator_consensus::{LogStore, WalStore};
        use std::path::PathBuf;

        /// Writes every record under tag `1`, the way the retired
        /// specialization-swap kind was framed (an empty version-1 set).
        struct RetiredTag;
        impl Codec<LogRecord> for RetiredTag {
            fn encode(&self, _: &LogRecord, out: &mut Vec<u8>) {
                out.push(1);
                put_u64(out, 1);
                put_u32(out, 0);
            }
            fn decode(&self, bytes: &[u8]) -> Result<LogRecord, WalError> {
                Codec::<LogRecord>::decode(&LogRecordCodec, bytes)
            }
        }

        for bytes in [&[][..], &[1], &[7, 0, 0, 0, 0]] {
            let decoded: Result<LogRecord, _> = LogRecordCodec.decode(bytes);
            assert!(matches!(decoded, Err(WalError::Corrupt(_))));
        }
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/tmp/wal-codec")
            .join(format!("retired-tag-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let batch = LogRecord::Batch(vec![TxRequest::new(ProgId(1), vec![Value::Int(7)])]);
        let record = |id| Record { term: 1, id, payload: Some(batch.clone()) };
        WalStore::<LogRecord, _>::open(&dir, LogRecordCodec).expect("opens").append(&record(1));
        WalStore::open(&dir, RetiredTag).expect("reopens").append(&record(2));
        // The tag-1 frame is CRC-valid, so it is not a torn tail to drop:
        // opening must fail loudly instead of yielding a one-record log.
        match WalStore::<LogRecord, _>::open(&dir, LogRecordCodec) {
            Err(WalError::Corrupt(why)) => assert_eq!(why, "unknown record tag 1"),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(wal) => panic!("opened past a retired tag with {} records", wal.records().len()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
