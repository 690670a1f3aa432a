//! Plain-text tensor I/O.
//!
//! The on-disk format matches the datasets published with the paper: one
//! `i j k` triple per line (whitespace-separated, 0-based), `#`-prefixed
//! comment lines ignored. A header comment `# dims I J K` pins the shape;
//! without it the shape is inferred as `max+1` per mode.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;

use crate::{BoolTensor, TensorBuilder};

/// Errors produced when parsing the text tensor format.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed; carries the 1-based line number and text.
    Malformed(usize, String),
    /// An entry exceeded the declared `# dims` header.
    OutOfRange(usize, String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Malformed(line, text) => {
                write!(f, "malformed entry on line {line}: {text:?}")
            }
            ParseError::OutOfRange(line, text) => {
                write!(f, "entry out of declared range on line {line}: {text:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Reads a tensor from the text format.
///
/// A `# dims` line may come after entries, so every entry is checked
/// against the final shape, as [`TensorStream`] checks it: the first entry
/// outside it is a [`ParseError::OutOfRange`] with its line number.
pub fn read_tensor<R: Read>(reader: R) -> Result<BoolTensor, ParseError> {
    let mut shape = TextShape::default();
    let mut entries: Vec<[u32; 3]> = Vec::new();
    // Entry `n` is on line `n + 1 + skipped` (lines before it without an
    // entry); runs of one `skipped` are kept as `(first entry, skipped)`,
    // as a line number per entry would cost as much memory as the entry.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    scan_text(reader, |parsed, line_no, _| {
        if let TextLine::Entry(e) = parsed {
            let skipped = line_no - 1 - entries.len();
            if runs.last().is_none_or(|&(_, s)| s != skipped) {
                runs.push((entries.len(), skipped));
            }
            entries.push(e);
        }
        shape.note(parsed);
        Ok(())
    })?;
    let dims = shape.dims();
    if let Some(n) = entries.iter().position(|&e| outside(e, dims)) {
        let skipped = runs[runs.partition_point(|&(first, _)| first <= n) - 1].1;
        let [i, j, k] = entries[n];
        return Err(ParseError::OutOfRange(
            n + 1 + skipped,
            format!("{i} {j} {k}"),
        ));
    }
    let mut builder = TensorBuilder::with_capacity(dims, entries.len());
    for [i, j, k] in entries {
        builder.insert(i, j, k);
    }
    Ok(builder.build())
}

/// Writes a tensor in the text format (with a `# dims` header).
pub fn write_tensor<W: Write>(tensor: &BoolTensor, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let [i, j, k] = tensor.dims();
    writeln!(w, "# dims {i} {j} {k}")?;
    for [a, b, c] in tensor.iter() {
        writeln!(w, "{a} {b} {c}")?;
    }
    w.flush()
}

/// Magic bytes of the binary tensor format.
const BINARY_MAGIC: &[u8; 8] = b"DBTFBIN1";

/// Serializes a tensor into the compact binary format: an 8-byte magic,
/// three `u64` mode sizes, a `u64` count, then plain little-endian `u32`
/// coordinate triples in sorted order.
///
/// Roughly 12 bytes per non-zero versus ~12–20 for the text format, and
/// no parsing on load — the practical choice for the multi-hundred-MB
/// tensors of the paper's Table III.
pub fn write_tensor_binary_buf(tensor: &BoolTensor) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 32 + tensor.nnz() * 12);
    buf.extend_from_slice(BINARY_MAGIC);
    for d in tensor.dims() {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    buf.extend_from_slice(&(tensor.nnz() as u64).to_le_bytes());
    for entry in tensor.iter() {
        for c in entry {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    buf
}

/// Reads the 40-byte head of a `len`-byte `DBTFBIN1` file: the magic,
/// three `u64` mode sizes (each within `u32`, as the coordinates are) and
/// the `u64` entry count. The body must hold exactly the count's 12-byte
/// records, checked before anything is allocated for them: a smaller count
/// would drop the records past it, and an interrupted streaming write
/// leaves its placeholder count of 0.
fn read_binary_head(reader: &mut impl Read, len: u64) -> Result<([usize; 3], usize), ParseError> {
    let mut head = [0u8; 8 + 32];
    if len < head.len() as u64
        || reader.read_exact(&mut head).is_err()
        || &head[..8] != BINARY_MAGIC
    {
        let msg = "missing DBTFBIN1 magic or header".to_string();
        return Err(ParseError::Malformed(0, msg));
    }
    let word = |i: usize| u64::from_le_bytes(head[8 * i..][..8].try_into().expect("8 bytes"));
    let mut dims = [0usize; 3];
    for (d, size) in dims.iter_mut().zip((1..4).map(word)) {
        if size > u64::from(u32::MAX) {
            let msg = format!("mode size {size} exceeds u32 range");
            return Err(ParseError::Malformed(0, msg));
        }
        *d = size as usize;
    }
    let (count, body_len) = (word(4), len - head.len() as u64);
    let count = count
        .checked_mul(12)
        .filter(|&bytes| bytes == body_len)
        .and_then(|_| usize::try_from(count).ok())
        .ok_or_else(|| {
            let msg = format!("entry count {count} disagrees with a {body_len}-byte entry section");
            ParseError::Malformed(0, msg)
        })?;
    Ok((dims, count))
}

/// Decodes one 12-byte `DBTFBIN1` record.
fn decode_record(rec: &[u8]) -> [u32; 3] {
    let coord = |i: usize| u32::from_le_bytes(rec[i..i + 4].try_into().expect("4-byte slice"));
    [coord(0), coord(4), coord(8)]
}

/// Parses the binary format produced by [`write_tensor_binary_buf`].
pub fn read_tensor_binary_buf(data: &[u8]) -> Result<BoolTensor, ParseError> {
    read_binary(data, data.len() as u64)
}

/// Writes a tensor to a file in the binary format.
pub fn write_tensor_binary_file<P: AsRef<Path>>(tensor: &BoolTensor, path: P) -> io::Result<()> {
    std::fs::write(path, write_tensor_binary_buf(tensor))
}

/// Reads a tensor from a binary-format file.
pub fn read_tensor_binary_file<P: AsRef<Path>>(path: P) -> Result<BoolTensor, ParseError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    read_binary(file, len)
}

/// Records per read of [`read_binary`]'s fixed buffer.
const RECORDS_PER_READ: usize = 8192;

/// Reads a `DBTFBIN1` tensor of `len` bytes in one pass: the records
/// stream through a fixed buffer straight into the entry vector, each
/// range-checked as it arrives. Records that arrive strictly increasing,
/// as every writer here emits them, skip the sort and deduplication.
fn read_binary(mut reader: impl Read, len: u64) -> Result<BoolTensor, ParseError> {
    let (dims, count) = read_binary_head(&mut reader, len)?;
    let mut entries: Vec<[u32; 3]> = Vec::with_capacity(count);
    let mut sorted = true;
    let mut buf = vec![0u8; 12 * RECORDS_PER_READ.min(count)];
    let mut left = count;
    while left > 0 {
        let chunk = &mut buf[..12 * left.min(RECORDS_PER_READ)];
        reader.read_exact(chunk)?;
        for rec in chunk.chunks_exact(12) {
            let e = decode_record(rec);
            if outside(e, dims) {
                let [i, j, k] = e;
                return Err(ParseError::OutOfRange(0, format!("({i}, {j}, {k})")));
            }
            sorted &= entries.last().is_none_or(|&last| last < e);
            entries.push(e);
        }
        left -= chunk.len() / 12;
    }
    Ok(if sorted {
        BoolTensor::from_sorted_entries(dims, entries)
    } else {
        BoolTensor::from_entries(dims, entries)
    })
}

/// Reads a tensor file in either format, told apart by its first bytes:
/// the `DBTFBIN1` magic is the binary format, anything else is text.
pub fn read_tensor_file<P: AsRef<Path>>(path: P) -> Result<BoolTensor, ParseError> {
    let mut file = std::fs::File::open(path)?;
    if starts_binary(&mut file)? {
        let len = file.metadata()?.len();
        read_binary(file, len)
    } else {
        read_tensor(file)
    }
}

/// Whether `file` starts with the `DBTFBIN1` magic; leaves it rewound.
fn starts_binary(file: &mut std::fs::File) -> io::Result<bool> {
    let mut head = Vec::with_capacity(8);
    (&*file).take(8).read_to_end(&mut head)?;
    file.rewind()?;
    Ok(head == BINARY_MAGIC)
}

/// A bounded-memory streaming reader over the entries of a tensor file.
///
/// Detects the binary (`DBTFBIN1`) versus text format from the magic bytes.
/// Binary files stream in one pass (shape and count come from the header);
/// text files pay one cheap pre-scan pass to resolve the shape (`# dims`
/// header, or `max+1` inference) and count, then stream entries on the
/// second pass. Nothing is ever materialized: peak memory is one line
/// buffer, regardless of tensor size.
pub struct TensorStream {
    dims: [usize; 3],
    nnz: u64,
    inner: StreamInner,
}

enum StreamInner {
    Text {
        reader: BufReader<std::fs::File>,
        line_no: usize,
        buf: String,
    },
    Binary {
        reader: BufReader<std::fs::File>,
        remaining: u64,
    },
}

impl TensorStream {
    /// Opens `path` for streaming, resolving shape and entry count up front.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<TensorStream, ParseError> {
        let path = path.as_ref();
        let mut file = std::fs::File::open(path)?;
        if starts_binary(&mut file)? {
            let len = file.metadata()?.len();
            let mut reader = BufReader::new(file);
            let (dims, nnz) = read_binary_head(&mut reader, len)?;
            let nnz = nnz as u64;
            return Ok(TensorStream {
                dims,
                nnz,
                inner: StreamInner::Binary {
                    reader,
                    remaining: nnz,
                },
            });
        }
        // Text: pre-scan for declared dims / max coordinates and the count.
        let mut shape = TextShape::default();
        scan_text(file, |parsed, _, _| {
            shape.note(parsed);
            Ok(())
        })?;
        Ok(TensorStream {
            dims: shape.dims(),
            nnz: shape.entries,
            inner: StreamInner::Text {
                reader: BufReader::new(std::fs::File::open(path)?),
                line_no: 0,
                buf: String::new(),
            },
        })
    }

    /// The tensor shape (declared or inferred).
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Number of entry records in the file (duplicates counted).
    pub fn nnz(&self) -> u64 {
        self.nnz
    }
}

impl Iterator for TensorStream {
    type Item = Result<[u32; 3], ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            StreamInner::Binary { reader, remaining } => {
                if *remaining == 0 {
                    return None;
                }
                let mut rec = [0u8; 12];
                if let Err(e) = reader.read_exact(&mut rec) {
                    *remaining = 0;
                    return Some(Err(ParseError::Io(e)));
                }
                *remaining -= 1;
                let e = decode_record(&rec);
                if outside(e, self.dims) {
                    *remaining = 0;
                    return Some(Err(ParseError::OutOfRange(0, format!("{e:?}"))));
                }
                Some(Ok(e))
            }
            StreamInner::Text {
                reader,
                line_no,
                buf,
            } => loop {
                buf.clear();
                match reader.read_line(buf) {
                    Err(e) => return Some(Err(ParseError::Io(e))),
                    Ok(0) => return None,
                    Ok(_) => {}
                }
                *line_no += 1;
                let line = buf.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                match parse_entry_line(line, *line_no) {
                    Err(e) => return Some(Err(e)),
                    Ok(e) => {
                        if outside(e, self.dims) {
                            return Some(Err(ParseError::OutOfRange(*line_no, line.to_string())));
                        }
                        return Some(Ok(e));
                    }
                }
            },
        }
    }
}

/// One meaningful line of the text format.
#[derive(Clone, Copy)]
enum TextLine {
    Dims([usize; 3]),
    Entry([u32; 3]),
}

/// The shape bookkeeping both text readers share: the `# dims` header, if
/// any, plus the per-mode maximum coordinate and the entry-record count.
#[derive(Default)]
struct TextShape {
    declared: Option<[usize; 3]>,
    max: [u32; 3],
    entries: u64,
}

impl TextShape {
    fn note(&mut self, parsed: TextLine) {
        match parsed {
            TextLine::Dims(d) => self.declared = Some(d),
            TextLine::Entry(e) => {
                self.entries += 1;
                for (max, coord) in self.max.iter_mut().zip(e) {
                    *max = (*max).max(coord);
                }
            }
        }
    }

    /// The declared shape, else `max + 1` per mode (empty without entries).
    fn dims(&self) -> [usize; 3] {
        match self.declared {
            Some(dims) => dims,
            None if self.entries == 0 => [0, 0, 0],
            None => self.max.map(|m| m as usize + 1),
        }
    }
}

/// Whether coordinate `e` falls outside shape `dims`.
fn outside(e: [u32; 3], dims: [usize; 3]) -> bool {
    (0..3).any(|m| e[m] as usize >= dims[m])
}

/// Parses the mode sizes after a `# dims` header. A mode size above
/// `u32::MAX` cannot be addressed by the `u32` coordinates, so it is a
/// parse error here instead of a panic in [`TensorBuilder`] — the same
/// rule [`parse_binary_header`] applies to the binary format.
fn parse_dims_header(sizes: &str, line_no: usize, line: &str) -> Result<[usize; 3], ParseError> {
    let malformed = |text: String| ParseError::Malformed(line_no, text);
    let mut parts = sizes.split_whitespace();
    let mut dims = [0usize; 3];
    for d in &mut dims {
        let size: u64 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| malformed(line.to_string()))?;
        if size > u64::from(u32::MAX) {
            return Err(malformed(format!(
                "{line} (mode size {size} exceeds u32 range)"
            )));
        }
        *d = size as usize;
    }
    if parts.next().is_some() {
        return Err(malformed(line.to_string()));
    }
    Ok(dims)
}

fn parse_entry_line(line: &str, line_no: usize) -> Result<[u32; 3], ParseError> {
    let mut parts = line.split_whitespace();
    let mut triple = [0u32; 3];
    for t in &mut triple {
        *t = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| ParseError::Malformed(line_no, line.to_string()))?;
    }
    if parts.next().is_some() {
        return Err(ParseError::Malformed(line_no, line.to_string()));
    }
    Ok(triple)
}

/// Reads the text format line by line, handing every `# dims` header and
/// entry to `sink` with its 1-based line number and trimmed text. Blank
/// lines and other `#` comments are skipped.
fn scan_text<R, F>(reader: R, mut sink: F) -> Result<(), ParseError>
where
    R: Read,
    F: FnMut(TextLine, usize, &str) -> Result<(), ParseError>,
{
    let mut reader = BufReader::new(reader);
    let mut buf = String::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            return Ok(());
        }
        line_no += 1;
        let line = buf.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = match line.strip_prefix('#') {
            Some(rest) => match rest.trim().strip_prefix("dims") {
                Some(sizes) => TextLine::Dims(parse_dims_header(sizes, line_no, line)?),
                None => continue,
            },
            None => TextLine::Entry(parse_entry_line(line, line_no)?),
        };
        sink(parsed, line_no, line)?;
    }
}

/// Incrementally writes a tensor file entry by entry — text or binary —
/// without ever holding the tensor in memory.
///
/// Entries must arrive in strictly increasing lexicographic order (the
/// order [`BoolTensor::iter`] and the datagen samplers produce), so the
/// resulting file is byte-identical to saving the materialized tensor. The
/// binary header's count field is patched in on [`StreamingTensorWriter::finish`].
pub struct StreamingTensorWriter {
    file: BufWriter<std::fs::File>,
    binary: bool,
    dims: [usize; 3],
    count: u64,
    last: Option<[u32; 3]>,
}

impl StreamingTensorWriter {
    /// Creates `path` and writes the format header for shape `dims`.
    pub fn create<P: AsRef<Path>>(
        path: P,
        dims: [usize; 3],
        binary: bool,
    ) -> io::Result<StreamingTensorWriter> {
        let mut file = BufWriter::new(std::fs::File::create(path)?);
        if binary {
            file.write_all(BINARY_MAGIC)?;
            for d in dims {
                file.write_all(&(d as u64).to_le_bytes())?;
            }
            // Count placeholder, patched by finish().
            file.write_all(&0u64.to_le_bytes())?;
        } else {
            writeln!(file, "# dims {} {} {}", dims[0], dims[1], dims[2])?;
        }
        Ok(StreamingTensorWriter {
            file,
            binary,
            dims,
            count: 0,
            last: None,
        })
    }

    /// Appends one entry; entries must be strictly increasing and in range.
    pub fn push(&mut self, e: [u32; 3]) -> io::Result<()> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        if (0..3).any(|m| e[m] as usize >= self.dims[m]) {
            return Err(bad(format!("entry {e:?} out of range for {:?}", self.dims)));
        }
        if let Some(last) = self.last {
            if e <= last {
                return Err(bad(format!("entry {e:?} not after {last:?}")));
            }
        }
        if self.binary {
            for c in e {
                self.file.write_all(&c.to_le_bytes())?;
            }
        } else {
            writeln!(self.file, "{} {} {}", e[0], e[1], e[2])?;
        }
        self.last = Some(e);
        self.count += 1;
        Ok(())
    }

    /// Flushes and (for binary files) patches the entry count. Returns the
    /// number of entries written.
    pub fn finish(self) -> io::Result<u64> {
        let mut file = self.file.into_inner().map_err(|e| e.into_error())?;
        if self.binary {
            file.seek(io::SeekFrom::Start(32))?;
            file.write_all(&self.count.to_le_bytes())?;
        }
        file.flush()?;
        Ok(self.count)
    }
}

/// Writes a tensor to a file path.
pub fn write_tensor_file<P: AsRef<Path>>(tensor: &BoolTensor, path: P) -> io::Result<()> {
    write_tensor(tensor, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = BoolTensor::from_entries([3, 4, 5], vec![[0, 0, 0], [2, 3, 4], [1, 1, 1]]);
        let mut buf = Vec::new();
        write_tensor(&t, &mut buf).unwrap();
        let back = read_tensor(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn inferred_dims_without_header() {
        let text = "0 0 0\n2 3 4\n";
        let t = read_tensor(text.as_bytes()).unwrap();
        assert_eq!(t.dims(), [3, 4, 5]);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\n0 1 2\n# another\n";
        let t = read_tensor(text.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 1);
        assert!(t.contains(0, 1, 2));
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "0 0 0\nnot a triple\n";
        match read_tensor(text.as_bytes()) {
            Err(ParseError::Malformed(2, _)) => {}
            other => panic!("expected Malformed(2, _), got {other:?}"),
        }
    }

    #[test]
    fn too_many_fields_rejected() {
        let text = "0 0 0 0\n";
        assert!(matches!(
            read_tensor(text.as_bytes()),
            Err(ParseError::Malformed(1, _))
        ));
    }

    #[test]
    fn out_of_range_with_header() {
        let path = stream_tmp("oor_header.tsv");
        // Every entry is checked against the final shape, wherever the
        // `# dims` line is, by both readers and at the same line.
        for (text, line) in [
            ("# dims 2 2 2\n0 0 2\n", 2),
            ("5 5 5\n# dims 2 2 2\n0 0 0\n", 1),
            ("# dims 5 5 5\n4 4 4\n# dims 2 2 2\n0 0 0\n", 2),
            ("# c\n\n0 0 0\n# c\n1 1 1\n\n1 1 3\n# dims 2 2 2\n", 7),
        ] {
            std::fs::write(&path, text).unwrap();
            let stream_error = TensorStream::open(&path).unwrap().find_map(Result::err);
            for err in [read_tensor(text.as_bytes()).err(), stream_error] {
                let at = matches!(err, Some(ParseError::OutOfRange(at, _)) if at == line);
                assert!(at, "{text:?}: {err:?}");
            }
        }
        // An entry outside an earlier `# dims` but inside the final one
        // is in range.
        let t = read_tensor("# dims 2 2 2\n4 4 4\n# dims 5 5 5\n".as_bytes()).unwrap();
        assert_eq!((t.dims(), t.nnz()), ([5, 5, 5], 1));
    }

    #[test]
    fn empty_input() {
        let t = read_tensor("".as_bytes()).unwrap();
        assert_eq!(t.dims(), [0, 0, 0]);
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn duplicate_entries_dedup() {
        let text = "1 1 1\n1 1 1\n";
        let t = read_tensor(text.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn binary_roundtrip() {
        let t = BoolTensor::from_entries([100, 50, 30], vec![[0, 0, 0], [99, 49, 29], [5, 5, 5]]);
        let buf = write_tensor_binary_buf(&t);
        assert_eq!(&buf[..8], b"DBTFBIN1");
        assert_eq!(buf.len(), 8 + 32 + 3 * 12);
        let back = read_tensor_binary_buf(&buf).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        assert!(read_tensor_binary_buf(b"NOTMAGIC").is_err());
        assert!(read_tensor_binary_buf(b"").is_err());
    }

    #[test]
    fn binary_rejects_truncation_and_out_of_range() {
        let t = BoolTensor::from_entries([4, 4, 4], vec![[1, 2, 3], [0, 0, 0]]);
        let buf = write_tensor_binary_buf(&t);
        assert!(matches!(
            read_tensor_binary_buf(&buf[..buf.len() - 4]),
            Err(ParseError::Malformed(_, _))
        ));
        // Corrupt an entry coordinate beyond the dims.
        let mut bad = buf.to_vec();
        let entry_start = 8 + 32;
        bad[entry_start..entry_start + 4].copy_from_slice(&200u32.to_le_bytes());
        assert!(matches!(
            read_tensor_binary_buf(&bad),
            Err(ParseError::OutOfRange(_, _))
        ));
    }

    /// A `DBTFBIN1` header naming `dims` and `count`, with no entries.
    fn binary_header(dims: [u64; 3], count: u64) -> Vec<u8> {
        let mut buf = BINARY_MAGIC.to_vec();
        for word in dims.into_iter().chain([count]) {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf
    }

    #[test]
    fn binary_rejects_mode_size_beyond_u32() {
        let buf = binary_header([u64::from(u32::MAX) + 1, 2, 2], 0);
        assert!(matches!(
            read_tensor_binary_buf(&buf),
            Err(ParseError::Malformed(_, _))
        ));
        let path = stream_tmp("huge_dims.dbtf");
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            TensorStream::open(&path),
            Err(ParseError::Malformed(_, _))
        ));
    }

    #[test]
    fn text_dims_header_is_checked_by_both_readers() {
        let path = stream_tmp("bad_header.tsv");
        for header in [
            "# dims 5000000000 2 2",
            "# dims 2 2",
            "# dims 2 2 2 2",
            "# dims two 2 2",
            "# dims -1 2 2",
        ] {
            let text = format!("{header}\n0 0 0\n");
            assert!(
                matches!(
                    read_tensor(text.as_bytes()),
                    Err(ParseError::Malformed(1, _))
                ),
                "{header}"
            );
            std::fs::write(&path, &text).unwrap();
            assert!(
                matches!(TensorStream::open(&path), Err(ParseError::Malformed(1, _))),
                "{header}"
            );
        }
        // A mode size beyond u32 says so.
        let err = read_tensor("# dims 5000000000 2 2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds u32 range"), "{err}");
        // The largest addressable mode size still parses.
        let edge = format!("# dims {} 1 1\n0 0 0\n", u32::MAX);
        assert_eq!(
            read_tensor(edge.as_bytes()).unwrap().dims(),
            [u32::MAX as usize, 1, 1]
        );
    }

    #[test]
    fn binary_rejects_entry_count_that_overflows_the_length() {
        let buf = binary_header([4, 4, 4], 1 << 62);
        assert!(matches!(
            read_tensor_binary_buf(&buf),
            Err(ParseError::Malformed(_, _))
        ));
    }

    /// A `DBTFBIN1` file holding `records` as they are, in file order.
    fn binary_records(dims: [u64; 3], records: &[[u32; 3]]) -> Vec<u8> {
        let mut buf = binary_header(dims, records.len() as u64);
        for c in records.iter().flatten() {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        buf
    }

    #[test]
    fn binary_file_roundtrip() {
        let t = BoolTensor::from_entries([8, 8, 8], vec![[1, 1, 1], [7, 0, 3]]);
        let path = stream_tmp("t.dbtf");
        write_tensor_binary_file(&t, &path).unwrap();
        assert_eq!(read_tensor_binary_file(&path).unwrap(), t);
        // Unsorted and duplicate records load like `from_entries`.
        let records = [[7, 0, 3], [1, 1, 1], [7, 0, 3], [0, 5, 2], [1, 1, 1]];
        let buf = binary_records([8, 8, 8], &records);
        let want = BoolTensor::from_entries([8, 8, 8], records.to_vec());
        assert_eq!(read_tensor_binary_buf(&buf).unwrap(), want);
        std::fs::write(&path, &buf).unwrap();
        assert_eq!(read_tensor_binary_file(&path).unwrap(), want);
        let _ = std::fs::remove_file(&path);
    }

    /// The body must hold exactly the header's count of records: a smaller
    /// count, a zero count over a body (an interrupted streaming write) and
    /// a trailing byte are typed errors from every binary reader.
    #[test]
    fn binary_count_must_match_the_body() {
        let records: Vec<[u32; 3]> = (0..6).map(|i| [i, i % 3, 5 - i]).collect();
        let good = binary_records([6, 3, 6], &records);
        let with_count = |count: u64| {
            let mut buf = good.clone();
            buf[32..40].copy_from_slice(&count.to_le_bytes());
            buf
        };
        let mut trailing = good.clone();
        trailing.push(0);
        let path = stream_tmp("count.dbtf");
        let malformed = |r: Result<(), ParseError>| matches!(r, Err(ParseError::Malformed(0, _)));
        for (what, buf) in [
            ("halved count", with_count(3)),
            ("zero count", with_count(0)),
            ("trailing byte", trailing),
        ] {
            assert!(malformed(read_tensor_binary_buf(&buf).map(drop)), "{what}");
            std::fs::write(&path, &buf).unwrap();
            assert!(
                malformed(read_tensor_binary_file(&path).map(drop)),
                "{what}"
            );
            assert!(malformed(TensorStream::open(&path).map(drop)), "{what}");
        }
        let err = read_tensor_binary_buf(&with_count(3)).unwrap_err();
        assert!(err.to_string().contains("entry count 3"), "{err}");
        std::fs::write(&path, &good).unwrap();
        assert_eq!(TensorStream::open(&path).unwrap().count(), 6);
        assert_eq!(read_tensor_binary_file(&path).unwrap().nnz(), 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_tensor_binary() {
        let t = BoolTensor::empty([3, 3, 3]);
        let back = read_tensor_binary_buf(&write_tensor_binary_buf(&t)).unwrap();
        assert_eq!(back, t);
    }

    fn stream_tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dbtf_io_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn tensor_stream_matches_full_read_text_and_binary() {
        let t = BoolTensor::from_entries(
            [6, 5, 4],
            vec![[0, 0, 0], [5, 4, 3], [2, 2, 2], [0, 4, 1], [3, 0, 2]],
        );
        let text = stream_tmp("s.tsv");
        let bin = stream_tmp("s.dbtf");
        write_tensor_file(&t, &text).unwrap();
        write_tensor_binary_file(&t, &bin).unwrap();
        for path in [&text, &bin] {
            let s = TensorStream::open(path).unwrap();
            assert_eq!(s.dims(), t.dims());
            assert_eq!(s.nnz(), t.nnz() as u64);
            let entries: Vec<[u32; 3]> = s.map(Result::unwrap).collect();
            assert_eq!(entries, t.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn tensor_stream_infers_dims_without_header() {
        let path = stream_tmp("noheader.tsv");
        std::fs::write(&path, "0 0 0\n2 3 4\n2 3 4\n").unwrap();
        let s = TensorStream::open(&path).unwrap();
        assert_eq!(s.dims(), [3, 4, 5]);
        assert_eq!(s.nnz(), 3); // duplicates counted at the record level
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn tensor_stream_propagates_parse_errors() {
        let path = stream_tmp("bad.tsv");
        std::fs::write(&path, "# dims 2 2 2\n0 0 0\nnot a triple\n").unwrap();
        // The pre-scan already trips over the malformed line.
        assert!(matches!(
            TensorStream::open(&path),
            Err(ParseError::Malformed(3, _))
        ));
    }

    #[test]
    fn streaming_writer_is_byte_identical_to_bulk_save() {
        let t = BoolTensor::from_entries(
            [7, 3, 9],
            vec![[0, 1, 8], [6, 2, 0], [3, 0, 4], [0, 0, 0], [6, 2, 8]],
        );
        for binary in [false, true] {
            let bulk = stream_tmp(if binary { "bulk.dbtf" } else { "bulk.tsv" });
            let streamed = stream_tmp(if binary { "str.dbtf" } else { "str.tsv" });
            if binary {
                write_tensor_binary_file(&t, &bulk).unwrap();
            } else {
                write_tensor_file(&t, &bulk).unwrap();
            }
            let mut w = StreamingTensorWriter::create(&streamed, t.dims(), binary).unwrap();
            for e in t.iter() {
                w.push(e).unwrap();
            }
            assert_eq!(w.finish().unwrap(), t.nnz() as u64);
            assert_eq!(
                std::fs::read(&bulk).unwrap(),
                std::fs::read(&streamed).unwrap(),
                "binary={binary}"
            );
        }
    }

    #[test]
    fn streaming_writer_rejects_disorder_and_range() {
        let path = stream_tmp("reject.dbtf");
        let mut w = StreamingTensorWriter::create(&path, [2, 2, 2], true).unwrap();
        w.push([1, 0, 0]).unwrap();
        assert!(w.push([1, 0, 0]).is_err()); // duplicate
        assert!(w.push([0, 1, 1]).is_err()); // backwards
        assert!(w.push([1, 2, 0]).is_err()); // out of range
        w.push([1, 1, 1]).unwrap();
        assert_eq!(w.finish().unwrap(), 2);
    }
}
