//! The networked backend's wire protocol: length-prefixed frames encoded
//! with [`dbtf_wire`], one strictly serial request/reply conversation per
//! worker connection.
//!
//! Layout on the socket: `[frame_len: u32 LE][frame bytes]`, where the
//! frame bytes are a [`dbtf_wire::EncodedFrame`] of one [`Frame`] variant.
//! All protocol scaffolding (tags, ids, counts, embedded blobs) lives on
//! the frame's *meta* channel; the Lemma-metered payload bytes are the
//! *data* sections of the embedded partition/broadcast/result frames,
//! which call sites count separately (`net.wire_bytes_sent/received`)
//! from the scaffolding (`net.wire_overhead_bytes`).
//!
//! Requests carry a per-worker monotonically increasing `req` id. Workers
//! cache their last reply by id, so a driver resend after a connection
//! drop or timeout is answered from cache instead of re-executing —
//! exactly-once execution over an at-least-once transport.

use std::io::{BufWriter, Read, Write};
use std::sync::Arc;

use dbtf_wire::{EncodedFrame, WireError, WireReader, WireResult, WireWriter};

/// Upper bound on one frame's size — far above anything the engine ships,
/// so a corrupt length prefix fails fast instead of allocating wildly.
const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Per-task cost record inside a [`BatchReply`] (the wire form of the
/// executor's `TaskStat`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StatEntry {
    pub(crate) idx: u64,
    pub(crate) ops: u64,
    pub(crate) retries: u32,
    /// `(kernel name, ops)` pairs, present only when capture was on.
    pub(crate) kernels: Vec<(String, u64)>,
}

/// One worker's reply to a `Run` or `Gather` request: the wire form of the
/// executor's `BatchResult`, with task results as encoded frames.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct BatchReply {
    pub(crate) worker: u64,
    /// `(global partition index, encoded result frame)`, sorted by index.
    pub(crate) results: Vec<(u64, Vec<u8>)>,
    /// `(global partition index, panic message)`, sorted by index.
    pub(crate) panics: Vec<(u64, String)>,
    pub(crate) stats: Vec<StatEntry>,
    pub(crate) total_ops: u64,
    pub(crate) max_task_ops: u64,
    pub(crate) result_bytes: u64,
}

/// A protocol frame. Driver→worker requests, worker→driver replies, plus
/// the `Hello`/`HelloAck` handshake a (re)connecting worker opens with.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame {
    /// Worker opens (or re-opens) its driver connection.
    Hello { worker: u64, incarnation: u64 },
    /// Driver accepts the connection.
    HelloAck,
    /// Install encoded partitions of a dataset (decode via `codec`).
    Store {
        req: u64,
        dataset: u64,
        codec: String,
        /// `(global partition index, encoded partition frame)`, shared so
        /// every (re)send of the request ships the one encoded copy.
        parts: Arc<[(u64, Vec<u8>)]>,
    },
    /// Install a broadcast value under a wire id.
    BroadcastValue { req: u64, id: u64, frame: Vec<u8> },
    /// Run the named registry task over every local partition of a dataset.
    Run {
        req: u64,
        dataset: u64,
        /// Submission-order superstep index (drives fault decisions).
        step: u64,
        name: String,
        /// Encoded task-parameter frame.
        params: Vec<u8>,
        /// Fault-plan fields the worker needs for deterministic decisions.
        seed: u64,
        failure_rate: f64,
        max_attempts: u32,
        drop_rate: f64,
        delay_rate: f64,
        delay_ms: u64,
        /// Number of times this request has been delivered before (resends
        /// after drops/timeouts increment it), so injected connection
        /// drops cannot strand a request forever.
        delivery: u64,
        capture: bool,
    },
    /// Encode and return every local partition of a dataset.
    Gather {
        req: u64,
        dataset: u64,
        step: u64,
        codec: String,
        capture: bool,
    },
    /// Evict a dataset from worker memory (no reply).
    DropDataset { dataset: u64 },
    /// Liveness probe.
    Ping { req: u64 },
    /// Clean worker termination (no reply).
    Shutdown,
    /// Thread-hosted-worker analogue of `SIGKILL`: exit immediately,
    /// dropping all state, without replying (no reply, by design).
    Die,
    /// Generic acknowledgement of `Store`/`BroadcastValue`.
    Ack { req: u64 },
    /// Reply to `Ping`.
    Pong { req: u64 },
    /// Reply to `Run`/`Gather`.
    Batch { req: u64, reply: BatchReply },
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_STORE: u8 = 3;
const TAG_BROADCAST: u8 = 4;
const TAG_RUN: u8 = 5;
const TAG_GATHER: u8 = 6;
const TAG_DROP_DATASET: u8 = 7;
const TAG_PING: u8 = 8;
const TAG_SHUTDOWN: u8 = 9;
const TAG_DIE: u8 = 10;
const TAG_ACK: u8 = 11;
const TAG_PONG: u8 = 12;
const TAG_BATCH: u8 = 13;

fn put_blob(w: &mut WireWriter, bytes: &[u8]) {
    w.meta_u64(bytes.len() as u64);
    w.meta_bytes(bytes);
}

fn get_blob(r: &mut WireReader<'_>) -> WireResult<Vec<u8>> {
    let len =
        usize::try_from(r.meta_u64()?).map_err(|_| WireError("blob length overflow".into()))?;
    Ok(r.meta_bytes(len)?.to_vec())
}

fn put_string(w: &mut WireWriter, s: &str) {
    put_blob(w, s.as_bytes());
}

fn get_string(r: &mut WireReader<'_>) -> WireResult<String> {
    String::from_utf8(get_blob(r)?).map_err(|_| WireError("invalid utf-8 string".into()))
}

fn put_indexed_blobs(w: &mut WireWriter, items: &[(u64, Vec<u8>)]) {
    w.meta_u64(items.len() as u64);
    for (idx, bytes) in items {
        w.meta_u64(*idx);
        put_blob(w, bytes);
    }
}

fn get_indexed_blobs(r: &mut WireReader<'_>) -> WireResult<Vec<(u64, Vec<u8>)>> {
    let n = r.meta_u64()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let idx = r.meta_u64()?;
        out.push((idx, get_blob(r)?));
    }
    Ok(out)
}

fn put_reply(w: &mut WireWriter, reply: &BatchReply) {
    w.meta_u64(reply.worker);
    put_indexed_blobs(w, &reply.results);
    w.meta_u64(reply.panics.len() as u64);
    for (idx, msg) in &reply.panics {
        w.meta_u64(*idx);
        put_string(w, msg);
    }
    w.meta_u64(reply.stats.len() as u64);
    for stat in &reply.stats {
        w.meta_u64(stat.idx);
        w.meta_u64(stat.ops);
        w.meta_u64(stat.retries as u64);
        w.meta_u64(stat.kernels.len() as u64);
        for (name, ops) in &stat.kernels {
            put_string(w, name);
            w.meta_u64(*ops);
        }
    }
    w.meta_u64(reply.total_ops);
    w.meta_u64(reply.max_task_ops);
    w.meta_u64(reply.result_bytes);
}

fn get_reply(r: &mut WireReader<'_>) -> WireResult<BatchReply> {
    let worker = r.meta_u64()?;
    let results = get_indexed_blobs(r)?;
    let npanics = r.meta_u64()? as usize;
    let mut panics = Vec::with_capacity(npanics.min(1 << 20));
    for _ in 0..npanics {
        let idx = r.meta_u64()?;
        panics.push((idx, get_string(r)?));
    }
    let nstats = r.meta_u64()? as usize;
    let mut stats = Vec::with_capacity(nstats.min(1 << 20));
    for _ in 0..nstats {
        let idx = r.meta_u64()?;
        let ops = r.meta_u64()?;
        let retries = r.meta_u64()? as u32;
        let nkernels = r.meta_u64()? as usize;
        let mut kernels = Vec::with_capacity(nkernels.min(1 << 20));
        for _ in 0..nkernels {
            let name = get_string(r)?;
            kernels.push((name, r.meta_u64()?));
        }
        stats.push(StatEntry {
            idx,
            ops,
            retries,
            kernels,
        });
    }
    Ok(BatchReply {
        worker,
        results,
        panics,
        stats,
        total_ops: r.meta_u64()?,
        max_task_ops: r.meta_u64()?,
        result_bytes: r.meta_u64()?,
    })
}

impl Frame {
    pub(crate) fn encode(&self) -> EncodedFrame {
        let mut w = WireWriter::new();
        match self {
            Frame::Hello {
                worker,
                incarnation,
            } => {
                w.meta_u8(TAG_HELLO);
                w.meta_u64(*worker);
                w.meta_u64(*incarnation);
            }
            Frame::HelloAck => w.meta_u8(TAG_HELLO_ACK),
            Frame::Store {
                req,
                dataset,
                codec,
                parts,
            } => {
                w.meta_u8(TAG_STORE);
                w.meta_u64(*req);
                w.meta_u64(*dataset);
                put_string(&mut w, codec);
                put_indexed_blobs(&mut w, parts);
            }
            Frame::BroadcastValue { req, id, frame } => {
                w.meta_u8(TAG_BROADCAST);
                w.meta_u64(*req);
                w.meta_u64(*id);
                put_blob(&mut w, frame);
            }
            Frame::Run {
                req,
                dataset,
                step,
                name,
                params,
                seed,
                failure_rate,
                max_attempts,
                drop_rate,
                delay_rate,
                delay_ms,
                delivery,
                capture,
            } => {
                w.meta_u8(TAG_RUN);
                w.meta_u64(*req);
                w.meta_u64(*dataset);
                w.meta_u64(*step);
                put_string(&mut w, name);
                put_blob(&mut w, params);
                w.meta_u64(*seed);
                w.meta_u64(failure_rate.to_bits());
                w.meta_u64(*max_attempts as u64);
                w.meta_u64(drop_rate.to_bits());
                w.meta_u64(delay_rate.to_bits());
                w.meta_u64(*delay_ms);
                w.meta_u64(*delivery);
                w.meta_u8(u8::from(*capture));
            }
            Frame::Gather {
                req,
                dataset,
                step,
                codec,
                capture,
            } => {
                w.meta_u8(TAG_GATHER);
                w.meta_u64(*req);
                w.meta_u64(*dataset);
                w.meta_u64(*step);
                put_string(&mut w, codec);
                w.meta_u8(u8::from(*capture));
            }
            Frame::DropDataset { dataset } => {
                w.meta_u8(TAG_DROP_DATASET);
                w.meta_u64(*dataset);
            }
            Frame::Ping { req } => {
                w.meta_u8(TAG_PING);
                w.meta_u64(*req);
            }
            Frame::Shutdown => w.meta_u8(TAG_SHUTDOWN),
            Frame::Die => w.meta_u8(TAG_DIE),
            Frame::Ack { req } => {
                w.meta_u8(TAG_ACK);
                w.meta_u64(*req);
            }
            Frame::Pong { req } => {
                w.meta_u8(TAG_PONG);
                w.meta_u64(*req);
            }
            Frame::Batch { req, reply } => {
                w.meta_u8(TAG_BATCH);
                w.meta_u64(*req);
                put_reply(&mut w, reply);
            }
        }
        w.finish()
    }

    pub(crate) fn decode(bytes: &[u8]) -> WireResult<Frame> {
        let mut r = WireReader::new(bytes)?;
        let frame = match r.meta_u8()? {
            TAG_HELLO => Frame::Hello {
                worker: r.meta_u64()?,
                incarnation: r.meta_u64()?,
            },
            TAG_HELLO_ACK => Frame::HelloAck,
            TAG_STORE => Frame::Store {
                req: r.meta_u64()?,
                dataset: r.meta_u64()?,
                codec: get_string(&mut r)?,
                parts: get_indexed_blobs(&mut r)?.into(),
            },
            TAG_BROADCAST => Frame::BroadcastValue {
                req: r.meta_u64()?,
                id: r.meta_u64()?,
                frame: get_blob(&mut r)?,
            },
            TAG_RUN => Frame::Run {
                req: r.meta_u64()?,
                dataset: r.meta_u64()?,
                step: r.meta_u64()?,
                name: get_string(&mut r)?,
                params: get_blob(&mut r)?,
                seed: r.meta_u64()?,
                failure_rate: f64::from_bits(r.meta_u64()?),
                max_attempts: r.meta_u64()? as u32,
                drop_rate: f64::from_bits(r.meta_u64()?),
                delay_rate: f64::from_bits(r.meta_u64()?),
                delay_ms: r.meta_u64()?,
                delivery: r.meta_u64()?,
                capture: r.meta_u8()? != 0,
            },
            TAG_GATHER => Frame::Gather {
                req: r.meta_u64()?,
                dataset: r.meta_u64()?,
                step: r.meta_u64()?,
                codec: get_string(&mut r)?,
                capture: r.meta_u8()? != 0,
            },
            TAG_DROP_DATASET => Frame::DropDataset {
                dataset: r.meta_u64()?,
            },
            TAG_PING => Frame::Ping { req: r.meta_u64()? },
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_DIE => Frame::Die,
            TAG_ACK => Frame::Ack { req: r.meta_u64()? },
            TAG_PONG => Frame::Pong { req: r.meta_u64()? },
            TAG_BATCH => Frame::Batch {
                req: r.meta_u64()?,
                reply: get_reply(&mut r)?,
            },
            tag => return Err(WireError(format!("unknown frame tag {tag}"))),
        };
        Ok(frame)
    }
}

fn wire_to_io(e: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.0)
}

/// Writes one length-prefixed frame; returns total bytes put on the wire
/// (prefix included), for the overhead meters.
pub(crate) fn write_frame<S: Write>(stream: &mut S, frame: &Frame) -> std::io::Result<u64> {
    if let Frame::Store {
        req,
        dataset,
        codec,
        parts,
    } = frame
    {
        return write_store_frame(stream, *req, *dataset, codec, parts);
    }
    let encoded = frame.encode();
    let len = u32::try_from(encoded.bytes.len()).map_err(|_| frame_too_large())?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(&encoded.bytes)?;
    stream.flush()?;
    Ok(4 + encoded.bytes.len() as u64)
}

fn frame_too_large() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large")
}

/// Buffer of [`write_store_frame`]: gathers the small header and per-part
/// fields into few writes; partition blobs past its size go straight
/// through.
const STORE_WRITE_BUF: usize = 64 << 10;

/// Streams a `Store` frame — length prefix, header, then every partition
/// blob in place — byte-identical to [`Frame::encode`] behind its length
/// prefix, without materializing the encoded frame. A `Store` frame is
/// all meta channel: `[len][meta_len][tag, req, dataset, codec, count,
/// (idx, blob len, blob)…]`.
fn write_store_frame<S: Write>(
    stream: &mut S,
    req: u64,
    dataset: u64,
    codec: &str,
    parts: &[(u64, Vec<u8>)],
) -> std::io::Result<u64> {
    // Tag, req, dataset, codec length and bytes, part count; then per
    // part its index, blob length and blob.
    let header = 1 + 8 + 8 + 8 + codec.len() + 8;
    let meta_len = header + parts.iter().map(|(_, blob)| 16 + blob.len()).sum::<usize>();
    let meta_len32 = u32::try_from(meta_len).map_err(|_| frame_too_large())?;
    let len = meta_len32.checked_add(4).ok_or_else(frame_too_large)?;
    let mut w = BufWriter::with_capacity(STORE_WRITE_BUF, &mut *stream);
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&meta_len32.to_le_bytes())?;
    w.write_all(&[TAG_STORE])?;
    w.write_all(&req.to_le_bytes())?;
    w.write_all(&dataset.to_le_bytes())?;
    w.write_all(&(codec.len() as u64).to_le_bytes())?;
    w.write_all(codec.as_bytes())?;
    w.write_all(&(parts.len() as u64).to_le_bytes())?;
    for (idx, blob) in parts {
        w.write_all(&idx.to_le_bytes())?;
        w.write_all(&(blob.len() as u64).to_le_bytes())?;
        w.write_all(blob)?;
    }
    w.flush()?;
    Ok(4 + len as u64)
}

/// Reads one length-prefixed frame; returns the frame and total bytes read.
pub(crate) fn read_frame<S: Read>(stream: &mut S) -> std::io::Result<(Frame, u64)> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds protocol maximum"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    let frame = Frame::decode(&buf).map_err(wire_to_io)?;
    Ok((frame, 4 + len as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let encoded = frame.encode();
        assert_eq!(Frame::decode(&encoded.bytes).unwrap(), frame);
        // And through a byte stream.
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &frame).unwrap();
        assert_eq!(written as usize, buf.len());
        let mut cursor = std::io::Cursor::new(buf);
        let (back, read) = read_frame(&mut cursor).unwrap();
        assert_eq!(read, written);
        assert_eq!(back, frame);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello {
            worker: 3,
            incarnation: 2,
        });
        roundtrip(Frame::HelloAck);
        roundtrip(Frame::Store {
            req: 9,
            dataset: 1,
            codec: "tensor.bitmatrix".into(),
            parts: vec![(0, vec![1, 2, 3]), (4, vec![])].into(),
        });
        roundtrip(Frame::BroadcastValue {
            req: 10,
            id: 7,
            frame: vec![9, 8, 7],
        });
        roundtrip(Frame::Run {
            req: 11,
            dataset: 1,
            step: 5,
            name: "cp.sweep".into(),
            params: vec![1, 1, 2, 3],
            seed: 42,
            failure_rate: 0.25,
            max_attempts: 5,
            drop_rate: 0.1,
            delay_rate: 0.0,
            delay_ms: 20,
            delivery: 1,
            capture: true,
        });
        roundtrip(Frame::Gather {
            req: 12,
            dataset: 2,
            step: 6,
            codec: "u64".into(),
            capture: false,
        });
        roundtrip(Frame::DropDataset { dataset: 2 });
        roundtrip(Frame::Ping { req: 13 });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Die);
        roundtrip(Frame::Ack { req: 9 });
        roundtrip(Frame::Pong { req: 13 });
        roundtrip(Frame::Batch {
            req: 11,
            reply: BatchReply {
                worker: 1,
                results: vec![(0, vec![1]), (2, vec![2, 3])],
                panics: vec![(4, "boom".into())],
                stats: vec![StatEntry {
                    idx: 0,
                    ops: 100,
                    retries: 2,
                    kernels: vec![("kernel.sweep".into(), 60)],
                }],
                total_ops: 100,
                max_task_ops: 100,
                result_bytes: 3,
            },
        });
    }

    /// The streamed `Store` bytes are exactly the encoded frame behind its
    /// length prefix — for no parts, zero-length blobs, an empty codec
    /// name, and blobs larger than the stream buffer.
    #[test]
    fn streamed_store_frames_equal_their_encoding() {
        let big: Vec<u8> = (0..STORE_WRITE_BUF as u32 + 77).map(|i| i as u8).collect();
        let store = |req: u64, codec: &str, parts: Vec<(u64, Vec<u8>)>| Frame::Store {
            req,
            dataset: 3,
            codec: codec.into(),
            parts: parts.into(),
        };
        let frames = [
            store(40, "dbtf.partition_slot", vec![]),
            store(41, "", vec![(0, vec![])]),
            store(42, "u64", vec![(3, vec![]), (7, vec![5; 9]), (11, vec![])]),
            store(
                43,
                "dbtf.partition_slot",
                vec![(1, big.clone()), (2, vec![]), (5, big)],
            ),
        ];
        for (i, frame) in frames.into_iter().enumerate() {
            let encoded = frame.encode().bytes;
            let mut want = (encoded.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(&encoded);
            let mut streamed = Vec::new();
            let written = write_frame(&mut streamed, &frame).unwrap();
            assert_eq!(streamed, want, "case {i}");
            assert_eq!(written, want.len() as u64, "case {i}");
            let (back, read) = read_frame(&mut std::io::Cursor::new(streamed)).unwrap();
            assert_eq!((back, read), (frame, written), "case {i}");
        }
    }

    #[test]
    fn corrupt_length_prefix_fails_fast() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut w = WireWriter::new();
        w.meta_u8(200);
        let encoded = w.finish();
        assert!(Frame::decode(&encoded.bytes).is_err());
    }
}
