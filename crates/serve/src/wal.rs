//! Write-ahead-log files and atomic snapshot writes.
//!
//! A [`Wal`] is an append-only file of checksummed, length-prefixed
//! records:
//!
//! ```text
//! record:  u32 payload_len | u64 fxhash64(payload) | payload
//! ```
//!
//! Opening a WAL reads every intact record and **truncates a torn tail**
//! (the last frame, cut short by a crash mid-append or failing its
//! checksum) so subsequent appends continue from the last durable record —
//! the standard redo-log recovery discipline. Only the last frame can be
//! torn: a frame that fails its checksum with more bytes after it is
//! corruption of acknowledged history, and [`Wal::open`] reports it as
//! [`io::ErrorKind::InvalidData`] without touching the file.
//!
//! Snapshots are replaced atomically: [`write_sealed_file`] streams to a
//! `.tmp` sibling, syncs, then renames over the target, so a reader never
//! observes a half-written snapshot and a crash mid-compaction leaves
//! either the old or the new file, never a hybrid.

use graphgen_common::codec::{self, checksum, FileSink};
use graphgen_common::metrics::Histogram;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Frame overhead per record (length + checksum).
const HEADER: usize = 4 + 8;

/// An append-only record log. See the module docs for the framing.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
    records: u64,
    /// When set, every synced append records its `sync_all` duration here
    /// (nanoseconds) — the fsync cost is the durability tax the service
    /// reports per WAL, distinct from the encode+write cost around it.
    fsync_hist: Option<Histogram>,
}

impl Wal {
    /// Open (or create) the log at `path`, returning the intact records in
    /// append order. A torn or corrupt **last** frame is truncated away;
    /// everything before it is kept. A corrupt frame that ends before the
    /// end of the file is an [`io::ErrorKind::InvalidData`] error and the
    /// file is left as found: truncating there would destroy the intact,
    /// acknowledged records behind it.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Wal, Vec<Vec<u8>>)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let mut records = Vec::new();
        let mut good = 0usize;
        let mut pos = 0usize;
        while raw.len() - pos >= HEADER {
            let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
            let sum = u64::from_le_bytes(raw[pos + 4..pos + 12].try_into().unwrap());
            let start = pos + HEADER;
            if raw.len() - start < len {
                break; // torn tail: length says more than the file holds
            }
            let payload = &raw[start..start + len];
            if checksum(payload) != sum {
                if start + len < raw.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "record {} (bytes {pos}..{}) fails its checksum and is \
                             not the last frame: mid-log corruption",
                            records.len(),
                            start + len
                        ),
                    ));
                }
                break; // corrupt tail record
            }
            records.push(payload.to_vec());
            pos = start + len;
            good = pos;
        }
        if good < raw.len() {
            file.set_len(good as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Wal {
                file,
                path,
                bytes: good as u64,
                records: records.len() as u64,
                fsync_hist: None,
            },
            records,
        ))
    }

    /// Attach a histogram that receives the duration (ns) of every fsync
    /// performed by [`append`](Wal::append).
    pub fn set_fsync_histogram(&mut self, hist: Histogram) {
        self.fsync_hist = Some(hist);
    }

    /// Append one record. With `sync`, the write is fsynced before
    /// returning (durable once this call returns). Payloads of 4 GiB or
    /// more are rejected loudly (the frame length is a `u32`; a wrapped
    /// length would silently corrupt the log instead).
    pub fn append(&mut self, payload: &[u8], sync: bool) -> io::Result<()> {
        if u32::try_from(payload.len()).is_err() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "WAL record of {} bytes exceeds the u32 frame limit",
                    payload.len()
                ),
            ));
        }
        let mut frame = Vec::with_capacity(HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let write = (|| -> io::Result<()> {
            self.file.write_all(&frame)?;
            self.file.flush()?;
            if sync {
                let t0 = Instant::now();
                self.file.sync_all()?;
                if let Some(h) = &self.fsync_hist {
                    h.record_since(t0);
                }
            }
            Ok(())
        })();
        if let Err(e) = write {
            // Roll the file back to the last good offset: a partial frame
            // left in place would make the recovery scan treat every later
            // (successful, acknowledged) append as part of the torn tail.
            let _ = self.file.set_len(self.bytes);
            let _ = self.file.seek(SeekFrom::Start(self.bytes));
            return Err(e);
        }
        self.bytes += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Truncate the log to empty (after its content was folded into a
    /// fresh snapshot).
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.bytes = 0;
        self.records = 0;
        Ok(())
    }

    /// Current log size in bytes (framing included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of records in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Append an fxhash64 integrity trailer over `bytes` — the seal every
/// snapshot file carries so recovery detects corruption (WAL records carry
/// per-record checksums; snapshot files carry this whole-file one).
/// [`write_sealed_file`] writes the same trailer without holding the file.
pub fn seal(bytes: &mut Vec<u8>) {
    let sum = checksum(bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
}

/// Verify and strip the trailer written by [`seal`]. `None` when the input
/// is too short or the checksum mismatches (corrupt file).
pub fn unseal(bytes: &[u8]) -> Option<&[u8]> {
    let n = bytes.len().checked_sub(8)?;
    let (content, trailer) = bytes.split_at(n);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    (checksum(content) == stored).then_some(content)
}

/// Write a sealed file at `path` atomically: `fill` streams the content
/// into a [`FileSink`] on a `.tmp` sibling, the [`seal`] trailer follows
/// (the sink's checksum of everything it holds, back-patches included),
/// then the file is synced and renamed over the target and the rename
/// synced. The file equals `seal` of the same content written to a `Vec`.
/// Leftover `.tmp` files from a crash are inert (recovery ignores them);
/// one left by a failed `fill` is removed.
pub fn write_sealed_file<E: From<io::Error>>(
    path: &Path,
    sync: bool,
    fill: impl FnOnce(&mut FileSink) -> Result<(), E>,
) -> Result<(), E> {
    let tmp = path.with_extension("tmp");
    let mut out = FileSink::create(&tmp)?;
    if let Err(e) = fill(&mut out) {
        drop(out);
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    let sum = out.checksum()?;
    codec::put_u64(&mut out, sum);
    out.finish(sync)?;
    std::fs::rename(&tmp, path)?;
    if sync {
        // Make the rename itself durable where the platform allows.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    #[test]
    fn append_and_reopen() {
        let dir = TempDir::new("wal-reopen");
        let path = dir.path().join("t.wal");
        let (mut wal, records) = Wal::open(&path).unwrap();
        assert!(records.is_empty());
        wal.append(b"one", true).unwrap();
        wal.append(b"two", false).unwrap();
        assert_eq!(wal.records(), 2);
        drop(wal);
        let (wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(wal.records(), 2);
        assert!(wal.bytes() > 0);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("t.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"intact", true).unwrap();
        let good = wal.bytes();
        wal.append(b"torn-away", true).unwrap();
        drop(wal);
        // Cut the second record short, simulating a crash mid-append.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 3]).unwrap();
        let (wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"intact".to_vec()]);
        assert_eq!(wal.bytes(), good);
        // The file itself was truncated back to the durable prefix.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
    }

    #[test]
    fn corrupt_tail_checksum_is_dropped() {
        let dir = TempDir::new("wal-corrupt");
        let path = dir.path().join("t.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"keep", true).unwrap();
        wal.append(b"flip", true).unwrap();
        drop(wal);
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0xFF; // corrupt the last payload byte
        std::fs::write(&path, &raw).unwrap();
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"keep".to_vec()]);
    }

    /// A flipped byte in record 2 of 5 is not a torn tail: truncating there
    /// would roll back the intact, acknowledged records 3–5.
    #[test]
    fn mid_log_corruption_is_an_error_and_leaves_the_file_alone() {
        let dir = TempDir::new("wal-midflip");
        let path = dir.path().join("t.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"one", true).unwrap();
        let second = wal.bytes() as usize + HEADER; // first payload byte of record 2
        for payload in [b"two", b"3rd", b"4th", b"5th"] {
            wal.append(payload, true).unwrap();
        }
        drop(wal);
        let mut raw = std::fs::read(&path).unwrap();
        raw[second] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), raw, "file was modified");
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = TempDir::new("wal-reset");
        let path = dir.path().join("t.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"gone", true).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.bytes(), 0);
        wal.append(b"fresh", true).unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn seal_and_unseal() {
        let mut bytes = b"snapshot content".to_vec();
        seal(&mut bytes);
        assert_eq!(unseal(&bytes), Some(b"snapshot content".as_slice()));
        // Any single-byte flip is detected.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert_eq!(unseal(&bad), None, "flip at {i} undetected");
        }
        assert_eq!(unseal(b"short"), None);
    }

    #[test]
    fn atomic_write_replaces() {
        let dir = TempDir::new("wal-atomic");
        let path = dir.path().join("s.snap");
        let put = |content: &'static [u8]| {
            move |out: &mut FileSink| -> io::Result<()> {
                codec::Sink::put(out, content);
                Ok(())
            }
        };
        write_sealed_file(&path, true, put(b"v1")).unwrap();
        write_sealed_file(&path, true, put(b"v2")).unwrap();
        let mut sealed = b"v2".to_vec();
        seal(&mut sealed);
        assert_eq!(std::fs::read(&path).unwrap(), sealed);
        assert!(!path.with_extension("tmp").exists());
        // A failing fill leaves the target and no `.tmp` behind.
        let failed = write_sealed_file(&path, true, |out: &mut FileSink| {
            codec::Sink::put(out, b"v3");
            Err(io::Error::other("encode failed"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), sealed);
        assert!(!path.with_extension("tmp").exists());
    }
}
