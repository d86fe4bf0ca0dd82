//! A tiny binary codec: length-prefixed, little-endian primitives.
//!
//! The persistence layer (the database snapshot, the graph headers, the
//! write-ahead delta log) serializes every structure through these helpers
//! so the on-disk format
//! has exactly one set of conventions:
//!
//! * all integers are **little-endian** and fixed-width;
//! * variable-length data (strings, lists, nested sections) is
//!   **length-prefixed** with a `u64` count;
//! * decoding is bounds-checked everywhere and reports a typed
//!   [`CodecError`] with the byte offset of the failure — corrupt or
//!   truncated input can never panic or over-read.
//!
//! Encoders write through a [`Sink`]: a `Vec<u8>` in memory, or a
//! [`FileSink`] that streams a file to disk and keeps its checksum as it
//! goes.

use crate::fxhash::FxHasher;
use std::fmt;
use std::fs::File;
use std::hash::Hasher;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A decoding failure: what went wrong and where in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a read of `want` bytes at offset `at`.
    UnexpectedEof {
        /// Byte offset of the attempted read.
        at: usize,
        /// Bytes the read needed.
        want: usize,
    },
    /// The bytes at offset `at` are structurally invalid (bad tag, bad
    /// magic, non-UTF-8 string, implausible length, …).
    Invalid {
        /// Byte offset of the failure.
        at: usize,
        /// Human-readable description.
        what: String,
    },
}

impl CodecError {
    /// Shorthand for an [`CodecError::Invalid`] at `at`.
    pub fn invalid(at: usize, what: impl Into<String>) -> Self {
        CodecError::Invalid {
            at,
            what: what.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { at, want } => {
                write!(
                    f,
                    "unexpected end of input at byte {at} (needed {want} more)"
                )
            }
            CodecError::Invalid { at, what } => write!(f, "invalid data at byte {at}: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Where an encoder writes: every `put_*` function appends through one.
///
/// A `Vec<u8>` is a sink (the in-memory encodings: log records, tests); a
/// [`FileSink`] streams to a file, so a snapshot file never exists as one
/// buffer in memory.
pub trait Sink {
    /// Append `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Append a `u8`.
#[inline]
pub fn put_u8(out: &mut impl Sink, v: u8) {
    out.put(&[v]);
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut impl Sink, v: u32) {
    out.put(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut impl Sink, v: u64) {
    out.put(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
#[inline]
pub fn put_i64(out: &mut impl Sink, v: i64) {
    out.put(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern (little-endian).
#[inline]
pub fn put_f64(out: &mut impl Sink, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `usize` as a `u64` (the format is 64-bit regardless of host).
#[inline]
pub fn put_len(out: &mut impl Sink, v: usize) {
    put_u64(out, v as u64);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut impl Sink, s: &str) {
    put_len(out, s.len());
    out.put(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Integrity checksum
// ---------------------------------------------------------------------------

/// The fxhash64 of `bytes`: the checksum of every log record and the
/// trailer of every sealed snapshot file.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::default();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] computed over content that arrives in pieces: equal to
/// `checksum` of the concatenation, however it is split.
///
/// `FxHasher::write` folds whole 8-byte words and then pads a short tail,
/// so only 8-byte-aligned blocks may reach the hasher before the end; the
/// remainder of each piece is carried into the next.
#[derive(Debug, Clone, Default)]
pub struct Checksum {
    hasher: FxHasher,
    carry: [u8; 8],
    pending: usize,
}

impl Checksum {
    /// Feed the next piece of the content.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.pending > 0 {
            let take = (8 - self.pending).min(bytes.len());
            self.carry[self.pending..self.pending + take].copy_from_slice(&bytes[..take]);
            self.pending += take;
            bytes = &bytes[take..];
            if self.pending < 8 {
                return;
            }
            self.hasher.write(&self.carry);
            self.pending = 0;
        }
        let whole = bytes.len() & !7;
        self.hasher.write(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.carry[..rest.len()].copy_from_slice(rest);
        self.pending = rest.len();
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.hasher.clone();
        h.write(&self.carry[..self.pending]);
        h.finish()
    }
}

/// Block size of a [`FileSink`]'s write buffer.
const FILE_BLOCK: usize = 64 << 10;

/// A [`Sink`] that streams into a new file through a 64 KiB
/// [`BufWriter`], keeping the [`Checksum`] of the bytes as blocks reach
/// the file.
///
/// Writes cannot fail mid-encode: the first I/O error is kept, later
/// puts are dropped, and [`FileSink::checksum`] or [`FileSink::finish`]
/// return it.
#[derive(Debug)]
pub struct FileSink {
    out: BufWriter<Tally>,
    err: Option<io::Error>,
}

/// The file under a [`FileSink`]'s buffer: what reaches it is
/// checksummed in the order it is written.
#[derive(Debug)]
struct Tally {
    file: File,
    sum: Checksum,
}

impl Write for Tally {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.sum.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl FileSink {
    /// Create (or truncate) the file at `path` and write from its start.
    pub fn create(path: &Path) -> io::Result<Self> {
        let tally = Tally {
            file: File::create(path)?,
            sum: Checksum::default(),
        };
        Ok(Self {
            out: BufWriter::with_capacity(FILE_BLOCK, tally),
            err: None,
        })
    }

    /// The [`checksum`] of every byte put so far.
    pub fn checksum(&mut self) -> io::Result<u64> {
        self.flush()?;
        Ok(self.out.get_ref().sum.finish())
    }

    /// Flush everything put and, when `sync` is set, fsync the file.
    pub fn finish(mut self, sync: bool) -> io::Result<()> {
        self.flush()?;
        if sync {
            self.out.get_ref().file.sync_all()?;
        }
        Ok(())
    }

    /// Push the buffer to the file, or return the first error any write
    /// met.
    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

impl Sink for FileSink {
    fn put(&mut self, bytes: &[u8]) {
        if self.err.is_none() {
            if let Err(e) = self.out.write_all(bytes) {
                self.err = Some(e);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over an input byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                at: self.pos,
                want: n - self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length (`u64`) and convert it to `usize`, rejecting lengths
    /// that could not possibly fit in the remaining input (each encoded
    /// element needs at least one byte), so corrupt lengths fail fast
    /// instead of triggering huge allocations.
    pub fn len(&mut self) -> Result<usize, CodecError> {
        let at = self.pos;
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| CodecError::invalid(at, "length overflows"))?;
        if v > self.remaining() {
            return Err(CodecError::invalid(
                at,
                format!("length {v} exceeds remaining input {}", self.remaining()),
            ));
        }
        Ok(v)
    }

    /// Read a length that counts multi-byte elements of at least
    /// `min_elem_bytes` each (tighter plausibility bound than [`Reader::len`]).
    pub fn len_of(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let v = self.len()?;
        if min_elem_bytes > 1 && v > self.remaining() / min_elem_bytes {
            return Err(CodecError::invalid(
                at,
                format!("element count {v} exceeds remaining input"),
            ));
        }
        Ok(v)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.len()?;
        let at = self.pos;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::invalid(at, "non-UTF-8 string"))
    }

    /// Consume and verify a fixed magic prefix.
    pub fn expect_magic(&mut self, magic: &[u8]) -> Result<(), CodecError> {
        let at = self.pos;
        let got = self.take(magic.len())?;
        if got != magic {
            return Err(CodecError::invalid(
                at,
                format!("bad magic {got:02x?}, expected {magic:02x?}"),
            ));
        }
        Ok(())
    }

    /// Error if any input remains (trailing garbage detection).
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::invalid(
                self.pos,
                format!("{} trailing bytes", self.remaining()),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_f64(&mut buf, 1.5);
        put_str(&mut buf, "héllo");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 1.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn eof_reports_offset() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8().unwrap(), 1);
        let err = r.u32().unwrap_err();
        assert!(
            matches!(err, CodecError::UnexpectedEof { at: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn implausible_length_rejected() {
        let mut buf = Vec::new();
        put_len(&mut buf, 1 << 40);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.len(), Err(CodecError::Invalid { .. })));
        // len_of with a element width bound
        let mut buf = Vec::new();
        put_len(&mut buf, 10);
        buf.extend_from_slice(&[0u8; 16]);
        let mut r = Reader::new(&buf);
        assert!(r.len_of(4).is_err());
    }

    #[test]
    fn magic_and_trailing() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MAGI");
        put_u8(&mut buf, 1);
        let mut r = Reader::new(&buf);
        assert!(r.expect_magic(b"MAGI").is_ok());
        assert!(r.expect_end().is_err());
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.expect_end().is_ok());
        let mut r2 = Reader::new(&buf);
        assert!(r2.expect_magic(b"NOPE").is_err());
    }

    /// The streamed checksum equals the one-shot checksum of the whole
    /// content however the content is cut: empty pieces, pieces shorter
    /// than a word, and pieces longer than a file block, in seeded random
    /// order.
    #[test]
    fn streamed_checksum_matches_the_whole_under_random_splits() {
        use crate::SplitMix64;
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let len = rng.next_below(3 * FILE_BLOCK as u64) as usize;
            let content: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut sum = Checksum::default();
            let mut at = 0;
            while at < len {
                let piece = match rng.next_below(4) {
                    0 => 0,
                    1 => 1 + rng.next_below(7) as usize,
                    2 => rng.next_below(64) as usize,
                    _ => FILE_BLOCK - 3 + rng.next_below(FILE_BLOCK as u64) as usize,
                };
                let end = (at + piece).min(len);
                sum.update(&content[at..end]);
                at = end;
                if rng.next_below(8) == 0 {
                    assert_eq!(
                        sum.finish(),
                        checksum(&content[..at]),
                        "seed {seed} at {at}"
                    );
                }
            }
            sum.update(&[]);
            assert_eq!(sum.finish(), checksum(&content), "seed {seed}");
            let mut whole = FxHasher::default();
            whole.write(&content);
            assert_eq!(checksum(&content), whole.finish(), "seed {seed}");
        }
    }

    /// A file streamed through a [`FileSink`] holds exactly what a `Vec`
    /// sink holds, and its checksum is the content's at every point.
    #[test]
    fn file_sink_writes_what_a_vec_sink_holds() {
        let path = std::env::temp_dir().join(format!("codec-sink-{}", std::process::id()));
        let mut vec = Vec::new();
        let mut file = FileSink::create(&path).unwrap();
        put_u64(&mut vec, 0);
        put_u64(&mut file, 0);
        for i in 0..40_000u32 {
            put_u8(&mut vec, i as u8);
            put_u8(&mut file, i as u8);
            put_str(&mut vec, "héllo");
            put_str(&mut file, "héllo");
        }
        let big = vec![7u8; 3 * FILE_BLOCK];
        vec.put(&big);
        file.put(&big);
        assert_eq!(file.checksum().unwrap(), checksum(&vec));
        put_u32(&mut vec, 9);
        put_u32(&mut file, 9);
        assert_eq!(file.checksum().unwrap(), checksum(&vec));
        file.finish(false).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = Vec::new();
        put_len(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.str(), Err(CodecError::Invalid { .. })));
    }
}
