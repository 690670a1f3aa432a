//! Binary wire codec for the networked execution backend.
//!
//! # The payload/meta channel split
//!
//! The engine's communication meters implement the paper's Lemma 6/7 byte
//! formulas: a distributed partition costs exactly
//! [`ModePartition::byte_size`]-style bytes, a broadcast factor matrix
//! costs `⌈rows·cols/8⌉` bytes, a column decision costs `⌈I/8⌉ + 8`. For
//! the networked backend those counters stop being simulated — they are
//! measured off real sockets — and the acceptance bar is *exact equality*
//! between measured wire bytes and the closed-form Lemma meters.
//!
//! A naive serialization format cannot deliver that: it interleaves
//! structural framing (lengths, counts, type tags) with the payload, so
//! the measured byte count would drift from the formulas by a
//! format-dependent overhead. This codec therefore writes every value
//! into **two channels**:
//!
//! - the **data** channel holds exactly the bytes the cost model charges
//!   for (bit-packed matrix payloads, nonzero coordinates, scalar
//!   results), laid out so that `data.len()` equals the metered formula
//!   for that value;
//! - the **meta** channel holds everything else (element counts,
//!   dimensions, option tags) and is accounted separately as protocol
//!   overhead.
//!
//! A [`WireWriter::finish`] produces one self-describing frame
//! `[meta_len: u32][meta][data]` plus the `data_len` used by the
//! transport's `net.wire_bytes_*` counters. Decoding reverses the split
//! with a [`WireReader`].
//!
//! # Traits
//!
//! [`Wire`] is the encode/decode pair. [`WireNamed`] additionally gives a
//! type a stable wire name; partition element types need one so that a
//! worker process — which receives partitions as opaque frames — can look
//! up the right decoder in its task registry.
//!
//! [`ModePartition::byte_size`]: https://docs.rs/dbtf

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;

/// Decode-side error: the frame was truncated or structurally malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Shorthand used throughout the codec.
pub type WireResult<T> = Result<T, WireError>;

fn truncated(what: &str) -> WireError {
    WireError(format!("truncated frame while reading {what}"))
}

/// One encoded value: the full self-describing frame plus how many of its
/// bytes are metered payload (the data channel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// `[meta_len: u32 LE][meta][data]`.
    pub bytes: Vec<u8>,
    /// Length of the data channel — the portion the Lemma 6/7 wire-byte
    /// counters charge for.
    pub data_len: u64,
}

/// Dual-channel encoder. Payload bytes go through the `data_*` methods,
/// structural bytes through the `meta_*` methods.
#[derive(Debug, Default)]
pub struct WireWriter {
    meta: Vec<u8>,
    data: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Reserves room for at least `meta` more meta-channel bytes and
    /// `data` more data-channel bytes, so a value that knows its encoded
    /// size writes each channel into one allocation.
    pub fn reserve(&mut self, meta: usize, data: usize) {
        self.meta.reserve(meta);
        self.data.reserve(data);
    }

    /// Appends raw bytes to the meta channel.
    pub fn meta_bytes(&mut self, bytes: &[u8]) {
        self.meta.extend_from_slice(bytes);
    }

    /// Appends a little-endian `u64` to the meta channel.
    pub fn meta_u64(&mut self, v: u64) {
        self.meta.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a single byte to the meta channel.
    pub fn meta_u8(&mut self, v: u8) {
        self.meta.push(v);
    }

    /// Appends raw payload bytes to the data channel.
    pub fn data(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Appends a little-endian `u64` to the data channel.
    pub fn data_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32` to the data channel.
    pub fn data_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `len` zero bytes to the data channel and returns them, so a
    /// value with fixed-size records writes them in place rather than
    /// field by field.
    pub fn data_tail(&mut self, len: usize) -> &mut [u8] {
        let start = self.data.len();
        self.data.resize(start + len, 0);
        &mut self.data[start..]
    }

    /// Bytes written to the data channel so far.
    pub fn data_len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Seals the writer into a self-describing frame.
    pub fn finish(self) -> EncodedFrame {
        let data_len = self.data.len() as u64;
        let mut bytes = Vec::with_capacity(4 + self.meta.len() + self.data.len());
        bytes.extend_from_slice(
            &u32::try_from(self.meta.len())
                .expect("meta > 4 GiB")
                .to_le_bytes(),
        );
        bytes.extend_from_slice(&self.meta);
        bytes.extend_from_slice(&self.data);
        EncodedFrame { bytes, data_len }
    }
}

/// Length of a frame's data channel, without decoding the frame — what
/// the networked backend's measured wire-byte meters charge for a frame
/// received off a socket.
pub fn frame_data_len(frame: &[u8]) -> WireResult<u64> {
    if frame.len() < 4 {
        return Err(truncated("frame header"));
    }
    let meta_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    if frame.len() < 4 + meta_len {
        return Err(truncated("meta channel"));
    }
    Ok((frame.len() - 4 - meta_len) as u64)
}

/// Dual-channel decoder over a frame produced by [`WireWriter::finish`].
#[derive(Debug)]
pub struct WireReader<'a> {
    meta: &'a [u8],
    data: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Splits `frame` back into its meta and data channels.
    pub fn new(frame: &'a [u8]) -> WireResult<Self> {
        if frame.len() < 4 {
            return Err(truncated("frame header"));
        }
        let meta_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        if frame.len() < 4 + meta_len {
            return Err(truncated("meta channel"));
        }
        Ok(WireReader {
            meta: &frame[4..4 + meta_len],
            data: &frame[4 + meta_len..],
        })
    }

    /// Reads `n` raw bytes off the meta channel.
    pub fn meta_bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.meta.len() < n {
            return Err(truncated("meta bytes"));
        }
        let (head, rest) = self.meta.split_at(n);
        self.meta = rest;
        Ok(head)
    }

    /// Reads a little-endian `u64` off the meta channel.
    pub fn meta_u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.meta_bytes(8)?.try_into().unwrap()))
    }

    /// Reads one byte off the meta channel.
    pub fn meta_u8(&mut self) -> WireResult<u8> {
        Ok(self.meta_bytes(1)?[0])
    }

    /// Reads `n` raw payload bytes off the data channel.
    pub fn data_bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.data.len() < n {
            return Err(truncated("data bytes"));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    /// Reads a little-endian `u64` off the data channel.
    pub fn data_u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.data_bytes(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32` off the data channel.
    pub fn data_u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.data_bytes(4)?.try_into().unwrap()))
    }

    /// True when both channels are fully consumed.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty() && self.data.is_empty()
    }
}

/// A value with a binary wire representation.
///
/// Implementations must keep the data channel equal to the engine's
/// metered byte size for the value (see the crate docs); structural
/// information goes on the meta channel.
pub trait Wire: Sized {
    /// Writes `self` into the encoder.
    fn encode(&self, w: &mut WireWriter);
    /// Reads a value back; must round-trip [`Wire::encode`] exactly.
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self>;

    /// Convenience: encodes `self` into a standalone frame.
    fn to_frame(&self) -> EncodedFrame {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Convenience: decodes a value from a standalone frame.
    fn from_frame(frame: &[u8]) -> WireResult<Self> {
        let mut r = WireReader::new(frame)?;
        Self::decode(&mut r)
    }
}

/// A [`Wire`] type with a stable name, used by worker processes to look
/// up the decoder for opaque partition frames in their task registry.
pub trait WireNamed: Wire + Send + 'static {
    /// Globally unique, version-stable wire name (e.g. `"dbtf.slot"`).
    const WIRE_NAME: &'static str;
}

// --- scalar impls ------------------------------------------------------
//
// Scalars ride the data channel: the cost model's formulas charge for
// them directly (a collected `u64` result is metered as 8 bytes, a
// `(u64, u64)` error pair as 16, ...).

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.data_u64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.data_u64()
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.data_u32(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.data_u32()
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut WireWriter) {
        w.data_u64(*self as u64);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        usize::try_from(r.data_u64()?).map_err(|_| WireError("usize overflow".into()))
    }
}

impl Wire for i64 {
    fn encode(&self, w: &mut WireWriter) {
        w.data_u64(*self as u64);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(r.data_u64()? as i64)
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.data_u64(self.to_bits());
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(f64::from_bits(r.data_u64()?))
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.meta_u8(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.meta_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError(format!("invalid bool byte {b}"))),
        }
    }
}

impl Wire for () {
    fn encode(&self, _w: &mut WireWriter) {}
    fn decode(_r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.meta_u64(self.len() as u64);
        w.meta_bytes(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = r.meta_u64()? as usize;
        let bytes = r.meta_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| WireError(format!("invalid utf-8: {e}")))
    }
}

// --- compound impls ----------------------------------------------------

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.meta_u8(0),
            Some(v) => {
                w.meta_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.meta_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(WireError(format!("invalid option tag {b}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.meta_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = r.meta_u64()? as usize;
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

macro_rules! tuple_wire {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, w: &mut WireWriter) {
                $(self.$idx.encode(w);)+
            }
            fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

tuple_wire!(A: 0);
tuple_wire!(A: 0, B: 1);
tuple_wire!(A: 0, B: 1, C: 2);
tuple_wire!(A: 0, B: 1, C: 2, D: 3);
tuple_wire!(A: 0, B: 1, C: 2, D: 3, E: 4);

macro_rules! named_scalar {
    ($ty:ty, $name:literal) => {
        impl WireNamed for $ty {
            const WIRE_NAME: &'static str = $name;
        }
    };
}

named_scalar!(u64, "u64");
named_scalar!(u32, "u32");
named_scalar!(usize, "usize");
named_scalar!(i64, "i64");
named_scalar!(f64, "f64");
named_scalar!(String, "string");
named_scalar!((u64, u64), "u64x2");

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) -> EncodedFrame {
        let frame = value.to_frame();
        let back = T::from_frame(&frame.bytes).expect("decode");
        assert_eq!(back, value);
        frame
    }

    #[test]
    fn frame_data_len_reads_without_decoding() {
        let frame = vec![(1u64, 2u64), (3, 4)].to_frame();
        assert_eq!(frame_data_len(&frame.bytes).unwrap(), frame.data_len);
        assert!(frame_data_len(&[0, 0]).is_err());
        assert!(frame_data_len(&[9, 0, 0, 0, 1]).is_err());
    }

    #[test]
    fn scalars_roundtrip_with_exact_data_lengths() {
        assert_eq!(roundtrip(0xdead_beef_u64 << 17).data_len, 8);
        assert_eq!(roundtrip(12345_usize).data_len, 8);
        assert_eq!(roundtrip(-7_i64).data_len, 8);
        assert_eq!(roundtrip(std::f64::consts::PI).data_len, 8);
        assert_eq!(roundtrip(42_u32).data_len, 4);
        // Structural values carry no metered payload.
        assert_eq!(roundtrip(true).data_len, 0);
        assert_eq!(roundtrip(()).data_len, 0);
        assert_eq!(roundtrip(String::from("hello")).data_len, 0);
    }

    #[test]
    fn error_pair_vec_meters_sixteen_bytes_per_element() {
        // The column-sweep score result: metered `errs.len() * 16`.
        let errs: Vec<(u64, u64)> = vec![(1, 2), (3, 4), (5, 6)];
        let frame = roundtrip(errs);
        assert_eq!(frame.data_len, 3 * 16);
    }

    #[test]
    fn options_and_tuples_roundtrip() {
        assert_eq!(roundtrip(Option::<u64>::None).data_len, 0);
        assert_eq!(roundtrip(Some(9_u64)).data_len, 8);
        assert_eq!(roundtrip((7_u64, Some(3_u64), false)).data_len, 16);
        roundtrip(vec![vec![1_u64, 2], vec![], vec![3]]);
    }

    #[test]
    fn nested_frames_keep_channel_separation() {
        let mut w = WireWriter::new();
        (5_u64, vec![1_u64, 2, 3]).encode(&mut w);
        let frame = w.finish();
        // 8 (scalar) + 3 * 8 (elements); the vec length lives in meta.
        assert_eq!(frame.data_len, 32);
        let mut r = WireReader::new(&frame.bytes).unwrap();
        let back = <(u64, Vec<u64>)>::decode(&mut r).unwrap();
        assert_eq!(back, (5, vec![1, 2, 3]));
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let frame = (1_u64, 2_u64).to_frame();
        for cut in 0..frame.bytes.len() {
            let err = <(u64, u64)>::from_frame(&frame.bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
        assert!(u64::from_frame(&[]).is_err());
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let mut w = WireWriter::new();
        w.meta_u8(7);
        let frame = w.finish();
        assert!(bool::from_frame(&frame.bytes).is_err());
        assert!(Option::<u64>::from_frame(&frame.bytes).is_err());
    }
}
