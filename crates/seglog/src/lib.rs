//! A CRC-guarded append-only segment log over opaque payloads.
//!
//! Extracted from `aqua-serve`'s plan store so any subsystem that needs
//! durable append-only records — the plan store, the replay service's
//! run-descriptor log — shares one crash-safety story:
//!
//! * **Append-only segments** — records are only ever appended to the
//!   active segment (`seg-NNNNNN.log`); when it passes
//!   [`LogConfig::segment_bytes`] a new segment is rotated in. No
//!   record is ever rewritten in place, so a crash can only damage the
//!   tail of the newest segment.
//! * **CRC-guarded records** — every record is framed as
//!   `[payload_len u32][payload][crc32 u32]` with the CRC taken over
//!   the length prefix and payload. A record that fails its CRC (or
//!   whose declared length runs past the file) is *torn*: recovery
//!   stops scanning that segment at the record's start.
//! * **Torn-tail truncation** — on [`SegmentLog::open`] the tail of the
//!   last segment is physically truncated back to the last intact
//!   record, so a half-written record can never shadow later appends.
//! * **Era fencing** — each segment leads with a header embedding the
//!   caller's [`LogConfig::version`] string. A segment written under
//!   another era is skipped wholesale on recovery and reclaimed by
//!   compaction.
//! * **Compaction** — [`SegmentLog::compact`] rewrites a caller-chosen
//!   live set into fresh segments and deletes every old file
//!   (reclaiming stale-era segments and torn tails). What "live" means
//!   — deduplication, key indexing — is the caller's policy; the log
//!   only stores bytes.
//!
//! The log is deliberately **not** internally synchronized: callers
//! wrap it in a `Mutex` when they share it (appends on their cold
//! paths dwarf the lock).
//!
//! # Examples
//!
//! ```
//! use aqua_seglog::{LogConfig, SegmentLog};
//!
//! let dir = std::env::temp_dir().join(format!("seglog-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = LogConfig::at(&dir, "doc/v1");
//! {
//!     let (mut log, records, _report) = SegmentLog::open(config.clone())?;
//!     assert!(records.is_empty());
//!     log.append(b"hello")?;
//!     log.append(b"world")?;
//! }
//! let (_log, records, report) = SegmentLog::open(config)?;
//! assert_eq!(report.records, 2);
//! assert_eq!(&records[0].payload[..], b"hello");
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Per-segment header magic; the full header is
/// `aqlog1 <version>\n` behind a little-endian u32 length prefix.
const SEGMENT_MAGIC: &str = "aqlog1";

/// Sanity bound on any single payload (64 MiB). A declared length
/// beyond this is treated as corruption, not an allocation request.
pub const MAX_PAYLOAD_BYTES: u32 = 64 << 20;

/// Bytes of framing around each payload: `payload_len u32` + `crc u32`.
pub const FRAME_BYTES: u64 = 8;

/// Log tuning knobs.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Rotate the active segment once it grows past this many bytes.
    pub segment_bytes: u64,
    /// `fsync` after every append. Off by default: most callers treat
    /// the log as a warm cache where a torn tail only costs recompute.
    pub fsync: bool,
    /// Era string embedded in every segment header. Segments written
    /// under a different version are skipped wholesale on recovery.
    pub version: String,
}

impl LogConfig {
    /// Defaults (4 MiB segments, no fsync) rooted at `dir` under `version`.
    pub fn at(dir: impl Into<PathBuf>, version: impl Into<String>) -> LogConfig {
        LogConfig {
            dir: dir.into(),
            segment_bytes: 4 << 20,
            fsync: false,
            version: version.into(),
        }
    }
}

/// Where a record's bytes live on disk (exposed so callers can build
/// indexes, and so recovery tests can truncate/corrupt exact offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    /// Segment id the record lives in.
    pub segment: u64,
    /// Byte offset of the record (its length prefix) within the segment.
    pub offset: u64,
    /// Total framed record length in bytes (length + payload + CRC).
    pub len: u64,
}

/// One recovered record: its payload plus where it lives.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The record's payload bytes, exactly as appended.
    pub payload: Vec<u8>,
    /// The record's on-disk location.
    pub span: RecordSpan,
}

/// What recovery found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records rehydrated.
    pub records: usize,
    /// Segments scanned (current-era, readable).
    pub segments: usize,
    /// Segments skipped because their header carried another era
    /// version (or no valid header at all).
    pub stale_segments: usize,
    /// Bytes dropped from the last segment's torn tail.
    pub truncated_bytes: u64,
    /// Torn or corrupt records abandoned mid-segment (each one ends
    /// its segment's scan).
    pub torn_records: usize,
}

struct ActiveSegment {
    id: u64,
    writer: BufWriter<File>,
    len: u64,
}

/// The append-only segment log. Not internally synchronized.
pub struct SegmentLog {
    config: LogConfig,
    /// Ids of every segment currently on disk (sorted ascending).
    segments: Vec<u64>,
    active: ActiveSegment,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:06}.log"))
}

fn segment_header(version: &str) -> Vec<u8> {
    let text = format!("{SEGMENT_MAGIC} {version}\n");
    let mut out = Vec::with_capacity(4 + text.len());
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    out
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the classic zlib
/// polynomial, dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// [`crc32`] of the concatenation of `parts`, without concatenating
/// them: the register runs on from one part into the next.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0, |c, part| crc32_update(c, part))
}

/// Folds `bytes` into the (pre-inverted) CRC register `c`.
/// Slicing-by-8: eight 256-entry tables fold eight input bytes per step
/// into the register, giving the same values as the one-table
/// byte-at-a-time loop at several times its speed (a plan-store record
/// runs to half a megabyte).
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        // t[k][i]: the register after byte i is followed by k zero bytes.
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Writes one framed record, `[payload_len u32][payload][crc32 u32]`
/// with the CRC over everything before it, for the payload made of
/// `parts` in order. The parts go to the writer as they are, with no
/// copy into a record buffer. Returns the framed length.
fn write_record(w: &mut impl Write, parts: &[&[u8]]) -> io::Result<u64> {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    let prefix = (len as u32).to_le_bytes();
    w.write_all(&prefix)?;
    let mut c = crc32_update(!0, &prefix);
    for part in parts {
        w.write_all(part)?;
        c = crc32_update(c, part);
    }
    w.write_all(&(!c).to_le_bytes())?;
    Ok(FRAME_BYTES + len as u64)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

/// One segment's scan result.
struct SegmentScan {
    records: Vec<Recovered>,
    /// Offset of the first torn byte (== file len when the whole
    /// segment is intact).
    intact_len: u64,
    /// Whether the scan ended on a torn/corrupt record.
    torn: bool,
    /// Whether the header was missing or from another era.
    stale: bool,
}

fn scan_segment(path: &Path, id: u64, version: &str) -> io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let header = segment_header(version);
    if bytes.len() < header.len() || bytes[..header.len()] != header[..] {
        return Ok(SegmentScan {
            records: Vec::new(),
            intact_len: 0,
            torn: false,
            stale: true,
        });
    }
    let mut records = Vec::new();
    let mut pos = header.len();
    let mut torn = false;
    while pos < bytes.len() {
        let start = pos;
        if bytes.len() - pos < FRAME_BYTES as usize {
            torn = true;
            break;
        }
        let payload_len = read_u32(&bytes, pos) as usize;
        if payload_len as u64 > MAX_PAYLOAD_BYTES as u64 {
            torn = true;
            break;
        }
        let total = FRAME_BYTES as usize + payload_len;
        if bytes.len() - pos < total {
            torn = true;
            break;
        }
        let body = &bytes[pos..pos + total - 4];
        let declared_crc = read_u32(&bytes, pos + total - 4);
        if crc32(body) != declared_crc {
            torn = true;
            break;
        }
        let payload = bytes[pos + 4..pos + 4 + payload_len].to_vec();
        pos += total;
        records.push(Recovered {
            payload,
            span: RecordSpan {
                segment: id,
                offset: start as u64,
                len: total as u64,
            },
        });
    }
    Ok(SegmentScan {
        records,
        intact_len: pos as u64,
        torn,
        stale: false,
    })
}

fn list_segment_ids(dir: &Path) -> io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

fn open_for_append(path: &Path) -> io::Result<(BufWriter<File>, u64)> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let len = file.seek(SeekFrom::End(0))?;
    Ok((BufWriter::new(file), len))
}

impl SegmentLog {
    /// Opens (or creates) the log, recovering every intact record.
    ///
    /// Recovery scans segments in id order, stops each segment's scan
    /// at the first torn or corrupt record, truncates the *last*
    /// segment back to its intact prefix, and skips segments written
    /// under another era version. Returns the log, the recovered
    /// records in append order, and a report of what was repaired.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or reading/repairing the
    /// segment files.
    pub fn open(config: LogConfig) -> io::Result<(SegmentLog, Vec<Recovered>, RecoveryReport)> {
        fs::create_dir_all(&config.dir)?;
        let ids = list_segment_ids(&config.dir)?;
        let mut report = RecoveryReport::default();
        let mut records: Vec<Recovered> = Vec::new();
        let mut live_segments: Vec<u64> = Vec::new();
        // Can the last segment be reused as the active one? (Current
        // era, intact after any truncation, still under the size cap.)
        let mut reuse_last: Option<(u64, u64)> = None;
        for (i, &id) in ids.iter().enumerate() {
            let path = segment_path(&config.dir, id);
            let scan = scan_segment(&path, id, &config.version)?;
            let last = i + 1 == ids.len();
            if scan.stale {
                report.stale_segments += 1;
                live_segments.push(id); // kept on disk until compaction
                continue;
            }
            report.segments += 1;
            if scan.torn {
                report.torn_records += 1;
                if last {
                    // Torn tail of the newest segment: physically
                    // truncate so future appends start on a clean edge.
                    let file = OpenOptions::new().write(true).open(&path)?;
                    let full = file.metadata()?.len();
                    report.truncated_bytes += full - scan.intact_len;
                    file.set_len(scan.intact_len)?;
                    file.sync_all()?;
                }
            }
            if last && scan.intact_len < config.segment_bytes {
                reuse_last = Some((id, scan.intact_len));
            }
            records.extend(scan.records);
            live_segments.push(id);
        }
        report.records = records.len();

        let active = match reuse_last {
            Some((id, len)) => {
                let (writer, file_len) = open_for_append(&segment_path(&config.dir, id))?;
                debug_assert_eq!(file_len, len, "truncation left the intact prefix");
                ActiveSegment { id, writer, len }
            }
            None => {
                let id = ids.last().map_or(0, |last| last + 1);
                let header = segment_header(&config.version);
                let (mut writer, _) = open_for_append(&segment_path(&config.dir, id))?;
                writer.write_all(&header)?;
                writer.flush()?;
                live_segments.push(id);
                ActiveSegment {
                    id,
                    writer,
                    len: header.len() as u64,
                }
            }
        };
        let log = SegmentLog {
            config,
            segments: live_segments,
            active,
        };
        Ok((log, records, report))
    }

    /// Appends one payload, returning where its framed record landed.
    /// Rotates the active segment afterwards if it passed the size cap.
    ///
    /// # Errors
    ///
    /// I/O errors writing, flushing, or rotating the active segment.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<RecordSpan> {
        self.append_parts(&[payload])
    }

    /// [`SegmentLog::append`] for a payload given as the concatenation
    /// of `parts`, framed straight from the parts (no joined copy).
    ///
    /// # Errors
    ///
    /// I/O errors writing, flushing, or rotating the active segment.
    pub fn append_parts(&mut self, parts: &[&[u8]]) -> io::Result<RecordSpan> {
        let offset = self.active.len;
        let len = write_record(&mut self.active.writer, parts)?;
        self.active.writer.flush()?;
        if self.config.fsync {
            self.active.writer.get_ref().sync_data()?;
        }
        self.active.len += len;
        let span = RecordSpan {
            segment: self.active.id,
            offset,
            len,
        };
        if self.active.len >= self.config.segment_bytes {
            self.rotate()?;
        }
        Ok(span)
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.active.writer.flush()?;
        if self.config.fsync {
            self.active.writer.get_ref().sync_data()?;
        }
        let next_id = self.active.id + 1;
        let path = segment_path(&self.config.dir, next_id);
        let header = segment_header(&self.config.version);
        let (mut writer, _) = open_for_append(&path)?;
        writer.write_all(&header)?;
        writer.flush()?;
        self.segments.push(next_id);
        self.active = ActiveSegment {
            id: next_id,
            writer,
            len: header.len() as u64,
        };
        Ok(())
    }

    /// Reads one record's payload back from disk (CRC re-checked).
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` if the bytes at the span no longer
    /// frame a CRC-intact record.
    pub fn read(&self, span: RecordSpan) -> io::Result<Vec<u8>> {
        let mut file = File::open(segment_path(&self.config.dir, span.segment))?;
        file.seek(SeekFrom::Start(span.offset))?;
        let mut bytes = vec![0u8; span.len as usize];
        file.read_exact(&mut bytes)?;
        if span.len < FRAME_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "span too short"));
        }
        let body = &bytes[..bytes.len() - 4];
        let declared = read_u32(&bytes, bytes.len() - 4);
        if crc32(body) != declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "record CRC mismatch on read-back",
            ));
        }
        let payload_len = read_u32(&bytes, 0) as usize;
        if payload_len + FRAME_BYTES as usize != bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "record length mismatch on read-back",
            ));
        }
        Ok(bytes[4..4 + payload_len].to_vec())
    }

    /// Rewrites the given live payloads into fresh segments and deletes
    /// every old file (reclaiming stale-era segments and torn tails).
    /// Returns the new spans in payload order.
    ///
    /// # Errors
    ///
    /// I/O errors rewriting or deleting segment files.
    pub fn compact(&mut self, live: &[Vec<u8>]) -> io::Result<Vec<RecordSpan>> {
        self.active.writer.flush()?;
        let old_segments = std::mem::take(&mut self.segments);
        let header = segment_header(&self.config.version);
        let mut new_id = self.active.id + 1;
        let (mut writer, _) = open_for_append(&segment_path(&self.config.dir, new_id))?;
        writer.write_all(&header)?;
        let mut len = header.len() as u64;
        let mut new_segments = vec![new_id];
        let mut spans = Vec::with_capacity(live.len());
        for payload in live {
            if len >= self.config.segment_bytes {
                writer.flush()?;
                if self.config.fsync {
                    writer.get_ref().sync_data()?;
                }
                new_id += 1;
                let (w, _) = open_for_append(&segment_path(&self.config.dir, new_id))?;
                writer = w;
                writer.write_all(&header)?;
                len = header.len() as u64;
                new_segments.push(new_id);
            }
            let framed = write_record(&mut writer, &[payload])?;
            spans.push(RecordSpan {
                segment: new_id,
                offset: len,
                len: framed,
            });
            len += framed;
        }
        writer.flush()?;
        if self.config.fsync {
            writer.get_ref().sync_data()?;
        }
        for id in old_segments {
            let _ = fs::remove_file(segment_path(&self.config.dir, id));
        }
        self.segments = new_segments;
        self.active = ActiveSegment {
            id: new_id,
            writer,
            len,
        };
        Ok(spans)
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aqua-seglog-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Classic zlib test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-table, byte-at-a-time CRC-32 the sliced kernel replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut c = !0u32;
        for &b in bytes {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_over_parts_equals_crc32_of_the_concatenation() {
        let mut rng = aqua_rational::rng::XorShift64Star::new(0xC3C3_0521);
        let buf: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        for _ in 0..200 {
            // Random cut points, empty parts included.
            let mut cuts: Vec<usize> = (0..rng.index(6))
                .map(|_| rng.index(buf.len() + 1))
                .collect();
            cuts.push(0);
            cuts.push(buf.len());
            cuts.sort_unstable();
            let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &buf[w[0]..w[1]]).collect();
            assert_eq!(crc32_parts(&parts), crc32(&buf), "cuts {cuts:?}");
        }
        assert_eq!(crc32_parts(&[]), crc32(b""));
        assert_eq!(crc32_parts(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_oracle() {
        let mut rng = aqua_rational::rng::XorShift64Star::new(0xC3C3_2024);
        let mut buf = vec![0u8; 1 << 20];
        for b in buf.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        // Every length up to eight words, at every offset within a word.
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        assert_eq!(crc32(&buf[3..]), crc32_bytewise(&buf[3..]));
    }

    #[test]
    fn roundtrip_preserves_payloads_and_order() {
        let dir = tmp_dir("roundtrip");
        let cfg = LogConfig::at(&dir, "t/v1");
        {
            let (mut log, records, report) = SegmentLog::open(cfg.clone()).unwrap();
            assert!(records.is_empty());
            assert_eq!(report, RecoveryReport::default());
            log.append(b"one").unwrap();
            log.append(b"").unwrap(); // empty payloads are legal
            log.append(b"three").unwrap();
        }
        let (log, records, report) = SegmentLog::open(cfg).unwrap();
        assert_eq!(report.records, 3);
        assert_eq!(report.truncated_bytes, 0);
        let payloads: Vec<&[u8]> = records.iter().map(|r| &r.payload[..]).collect();
        assert_eq!(payloads, vec![&b"one"[..], &b""[..], &b"three"[..]]);
        // Read-back by span matches too.
        assert_eq!(log.read(records[2].span).unwrap(), b"three");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parts_frame_the_same_bytes_as_the_joined_payload() {
        let (joined, split) = (tmp_dir("joined"), tmp_dir("split"));
        let spans = [&joined, &split].map(|dir| {
            let (mut log, _, _) = SegmentLog::open(LogConfig::at(dir, "t/v1")).unwrap();
            if dir == &joined {
                log.append(b"key:plan-bytes").unwrap()
            } else {
                log.append_parts(&[b"key", b":", b"", b"plan-bytes"])
                    .unwrap()
            }
        });
        assert_eq!(spans[0], spans[1]);
        let bytes = [&joined, &split].map(|dir| fs::read(segment_path(dir, 0)).unwrap());
        assert_eq!(bytes[0], bytes[1]);
        let _ = fs::remove_dir_all(&joined);
        let _ = fs::remove_dir_all(&split);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmp_dir("torn");
        let cfg = LogConfig::at(&dir, "t/v1");
        let span = {
            let (mut log, _, _) = SegmentLog::open(cfg.clone()).unwrap();
            log.append(b"keep-me").unwrap();
            log.append(b"tear-me").unwrap()
        };
        let path = segment_path(&dir, span.segment);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(span.offset + span.len / 2).unwrap();
        drop(file);
        let (_log, records, report) = SegmentLog::open(cfg.clone()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"keep-me");
        assert_eq!(report.torn_records, 1);
        assert!(report.truncated_bytes > 0);
        // The truncation is physical: a third open sees a clean log.
        let (_, records, report) = SegmentLog::open(cfg).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(report.torn_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_compaction_preserve_live_records() {
        let dir = tmp_dir("compact");
        let mut cfg = LogConfig::at(&dir, "t/v1");
        cfg.segment_bytes = 64; // force rotation nearly every append
        let (mut log, _, _) = SegmentLog::open(cfg.clone()).unwrap();
        let payloads: Vec<Vec<u8>> = (0..20u8)
            .map(|k| format!("payload-{k}").into_bytes())
            .collect();
        for p in &payloads {
            log.append(p).unwrap();
        }
        assert!(log.segment_count() > 3, "rotation must have happened");
        // Keep only the even payloads live.
        let live: Vec<Vec<u8>> = payloads.iter().step_by(2).cloned().collect();
        let spans = log.compact(&live).unwrap();
        assert_eq!(spans.len(), 10);
        for (span, payload) in spans.iter().zip(&live) {
            assert_eq!(&log.read(*span).unwrap(), payload);
        }
        // Appends keep working after compaction...
        log.append(b"after").unwrap();
        drop(log);
        // ...and a reopen sees the live set plus the new append.
        let (_, records, _) = SegmentLog::open(cfg).unwrap();
        assert_eq!(records.len(), 11);
        assert_eq!(records[10].payload, b"after");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_era_segments_are_skipped() {
        let dir = tmp_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        // A segment from "another era": valid-looking but wrong header.
        fs::write(
            dir.join("seg-000000.log"),
            b"\x10\x00\x00\x00aqlog1 old/v0!!\n",
        )
        .unwrap();
        let (log, records, report) = SegmentLog::open(LogConfig::at(&dir, "t/v2")).unwrap();
        assert!(records.is_empty());
        assert_eq!(report.stale_segments, 1);
        // Compaction reclaims the stale file.
        let mut log = log;
        log.compact(&[]).unwrap();
        let ids = list_segment_ids(&dir).unwrap();
        assert_eq!(ids.len(), 1, "stale segment deleted, one fresh segment");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_stops_the_scan_without_serving_bad_bytes() {
        let dir = tmp_dir("corrupt");
        let cfg = LogConfig::at(&dir, "t/v1");
        let (spans, payloads) = {
            let (mut log, _, _) = SegmentLog::open(cfg.clone()).unwrap();
            let payloads: Vec<Vec<u8>> = (0..8u8).map(|k| vec![k; 16 + k as usize]).collect();
            let spans: Vec<RecordSpan> = payloads.iter().map(|p| log.append(p).unwrap()).collect();
            (spans, payloads)
        };
        // Flip a byte in record 5's payload.
        let path = segment_path(&dir, spans[5].segment);
        let mut bytes = fs::read(&path).unwrap();
        bytes[(spans[5].offset + 6) as usize] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (_, records, report) = SegmentLog::open(cfg).unwrap();
        assert_eq!(records.len(), 5, "scan stops at the corrupt record");
        assert_eq!(report.torn_records, 1);
        for (r, p) in records.iter().zip(&payloads) {
            assert_eq!(&r.payload, p, "survivors are byte-identical");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
