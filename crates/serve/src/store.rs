//! The disk-backed content-addressed plan store.
//!
//! Warm state should survive a process restart: a fleet worker that
//! crashes and comes back must serve the same byte-identical plans it
//! served before without recompiling its whole working set. The store
//! is a content-addressed index over an [`aqua_seglog::SegmentLog`] —
//! the CRC-guarded append-only segment log (torn-tail truncation, era
//! fencing, rotation, compaction) lives there and is shared with the
//! replay service's descriptor log; this module adds plan semantics:
//!
//! * **Record payloads** frame `(key, canonical encoding, plan bytes)`
//!   as `[enc_len u32][key 16B][enc][plan]`; the log wraps each payload
//!   in its own length prefix and CRC-32.
//! * **Version fencing** — segments embed `crate::canon::KEY_VERSION`,
//!   so a segment written under another key-encoding era is skipped
//!   wholesale on recovery (its keys would not match any current
//!   request) and reclaimed by compaction.
//! * **Content-addressed dedup** — the store never holds two records
//!   for one key: [`PlanStore::append`] is a no-op for a key already
//!   indexed (plans are deterministic, so the bytes are identical by
//!   construction). Dead bytes therefore come only from torn tails and
//!   stale-era segments, and [`PlanStore::compact`] rewrites the live
//!   records into fresh segments and deletes the rest.
//!
//! The store is deliberately **not** a cache: it has no eviction and no
//! recency. The serving tier rehydrates its in-memory LRU from the
//! records returned by [`PlanStore::open`] and keeps the store as the
//! durable superset.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

pub use aqua_seglog::{crc32, RecordSpan, RecoveryReport};
use aqua_seglog::{LogConfig, SegmentLog};

use crate::canon::KEY_VERSION;

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Rotate the active segment once it grows past this many bytes.
    pub segment_bytes: u64,
    /// Auto-compact once the directory holds more than this many
    /// segments *and* compaction can reclaim something: stale-era
    /// segments, torn, undecodable or duplicate records found at open,
    /// or over twice the segments the live records need (`0` disables
    /// auto-compaction). Appends alone never trigger it: deduplicated
    /// appends leave no dead bytes, so rewriting the live set would
    /// only copy it.
    pub compact_segments: usize,
    /// `fsync` after every append. Off by default: the store is a warm
    /// cache, not a system of record, and a torn tail only costs a
    /// recompile.
    pub fsync: bool,
}

impl StoreConfig {
    /// Defaults (4 MiB segments, auto-compact past 8 segments, no
    /// fsync) rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            segment_bytes: 4 << 20,
            compact_segments: 8,
            fsync: false,
        }
    }

    fn log_config(&self) -> LogConfig {
        LogConfig {
            dir: self.dir.clone(),
            segment_bytes: self.segment_bytes,
            fsync: self.fsync,
            version: KEY_VERSION.to_string(),
        }
    }
}

/// One durable plan record, as rehydrated by [`PlanStore::open`].
#[derive(Debug, Clone)]
pub struct Record {
    /// Content-addressed cache key (FNV-1a-128 of the canonical
    /// encoding; see [`crate::canon`]).
    pub key: u128,
    /// The exact canonical encoding the key was hashed from (the cache
    /// uses it to reject 128-bit collisions).
    pub encoding: Arc<[u8]>,
    /// The rendered plan document, byte-identical to the cold compile
    /// that produced it.
    pub plan: Arc<str>,
}

/// The append-only content-addressed plan store. Not internally
/// synchronized: the service wraps it in a `Mutex` (appends happen only
/// on the cold path, where a compile dwarfs the lock).
pub struct PlanStore {
    config: StoreConfig,
    log: SegmentLog,
    index: HashMap<u128, RecordSpan>,
    /// Framed bytes of the indexed records.
    live_bytes: u64,
    /// Whether the segments hold bytes outside the live records (found
    /// at open; cleared by [`PlanStore::compact`]).
    dead_data: bool,
}

/// Reads one payload, `[enc_len u32][key 16B][enc][plan]` (the log
/// adds the length prefix and CRC framing; [`PlanStore::append`] writes
/// the four parts).
fn decode_payload(payload: &[u8]) -> Option<Record> {
    if payload.len() < 20 {
        return None;
    }
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&payload[..4]);
    let enc_len = u32::from_le_bytes(len_bytes) as usize;
    if payload.len() < 20 + enc_len {
        return None;
    }
    let mut key_bytes = [0u8; 16];
    key_bytes.copy_from_slice(&payload[4..20]);
    let key = u128::from_le_bytes(key_bytes);
    let encoding: Arc<[u8]> = Arc::from(&payload[20..20 + enc_len]);
    // A plan that is not UTF-8 cannot be a rendered document; treat it
    // as corruption even though the CRC matched.
    let plan_str = std::str::from_utf8(&payload[20 + enc_len..]).ok()?;
    Some(Record {
        key,
        encoding,
        plan: Arc::from(plan_str),
    })
}

impl PlanStore {
    /// Opens (or creates) the store, recovering every intact record.
    ///
    /// Recovery scans segments in id order, stops each segment's scan
    /// at the first torn or corrupt record, truncates the *last*
    /// segment back to its intact prefix, and skips segments written
    /// under another `KEY_VERSION`. Returns the store, the recovered
    /// records (in append order, one per key), and a report of what
    /// was repaired.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or reading/repairing the
    /// segment files.
    pub fn open(config: StoreConfig) -> io::Result<(PlanStore, Vec<Record>, RecoveryReport)> {
        let (log, recovered, mut report) = SegmentLog::open(config.log_config())?;
        let mut records: Vec<Record> = Vec::new();
        let mut index: HashMap<u128, RecordSpan> = HashMap::new();
        let mut dead_data = report.stale_segments > 0 || report.torn_records > 0;
        for item in recovered {
            let Some(record) = decode_payload(&item.payload) else {
                // CRC-valid but semantically undecodable: drop it, but
                // surface it in the report like any other bad record.
                report.torn_records += 1;
                continue;
            };
            // Duplicate keys (pre-compaction overlaps) keep the first
            // copy for rehydration; bytes are identical by construction.
            if index.insert(record.key, item.span).is_none() {
                records.push(record);
            } else {
                dead_data = true;
            }
        }
        report.records = records.len();
        let live_bytes = index.values().map(|span| span.len).sum();
        let store = PlanStore {
            config,
            log,
            index,
            live_bytes,
            dead_data,
        };
        Ok((store, records, report))
    }

    /// Appends `(key, encoding, plan)` unless `key` is already stored.
    /// Returns whether a record was written.
    ///
    /// # Errors
    ///
    /// I/O errors writing, flushing, or rotating the active segment.
    pub fn append(&mut self, key: u128, encoding: &[u8], plan: &str) -> io::Result<bool> {
        if self.index.contains_key(&key) {
            return Ok(false);
        }
        let span = self.log.append_parts(&[
            &(encoding.len() as u32).to_le_bytes(),
            &key.to_le_bytes(),
            encoding,
            plan.as_bytes(),
        ])?;
        self.index.insert(key, span);
        self.live_bytes += span.len;
        if self.config.compact_segments > 0
            && self.log.segment_count() > self.config.compact_segments
            && self.compaction_reclaims()
        {
            self.compact()?;
        }
        Ok(true)
    }

    /// Whether [`PlanStore::compact`] would free anything: dead bytes
    /// on disk, or far more segments than the live records fill (after
    /// `segment_bytes` grew between runs). The factor of two keeps a
    /// freshly compacted store from qualifying again as it grows.
    fn compaction_reclaims(&self) -> bool {
        let needed = self.live_bytes / self.config.segment_bytes.max(1) + 1;
        self.dead_data || self.log.segment_count() as u64 > 2 * needed
    }

    /// Rewrites every live record into fresh segments and deletes the
    /// old files (reclaiming stale-era segments and torn tails).
    /// Returns the number of live records carried over.
    ///
    /// # Errors
    ///
    /// I/O errors re-reading, rewriting, or deleting segment files.
    pub fn compact(&mut self) -> io::Result<usize> {
        let mut keys: Vec<u128> = self.index.keys().copied().collect();
        keys.sort_unstable(); // deterministic rewrite order
        let mut live: Vec<Vec<u8>> = Vec::with_capacity(keys.len());
        for &key in &keys {
            live.push(self.log.read(self.index[&key])?);
        }
        let spans = self.log.compact(&live)?;
        self.live_bytes = spans.iter().map(|span| span.len).sum();
        self.dead_data = false;
        self.index = keys.iter().copied().zip(spans).collect();
        Ok(keys.len())
    }

    /// Whether `key` has a durable record.
    pub fn contains(&self, key: u128) -> bool {
        self.index.contains_key(&key)
    }

    /// Where `key`'s record lives on disk, if stored.
    pub fn locate(&self, key: u128) -> Option<RecordSpan> {
        self.index.get(&key).copied()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.log.segment_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};
    use std::path::Path;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aqua-store-unit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn segment_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("seg-{id:06}.log"))
    }

    #[test]
    fn roundtrip_and_rehydrate() {
        let dir = tmp_dir("roundtrip");
        let cfg = StoreConfig::at(&dir);
        {
            let (mut store, records, report) = PlanStore::open(cfg.clone()).unwrap();
            assert!(records.is_empty());
            assert_eq!(report, RecoveryReport::default());
            assert!(store.append(1, b"enc-1", "{\"plan\":1}").unwrap());
            assert!(store.append(2, b"enc-2", "{\"plan\":2}").unwrap());
            // Dedup: same key again is a no-op.
            assert!(!store.append(1, b"enc-1", "{\"plan\":1}").unwrap());
            assert!(store.contains(1) && store.contains(2));
        }
        let (store, records, report) = PlanStore::open(cfg).unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].key, 1);
        assert_eq!(&*records[0].plan, "{\"plan\":1}");
        assert_eq!(&*records[1].encoding, b"enc-2");
        assert!(store.contains(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmp_dir("torn");
        let cfg = StoreConfig::at(&dir);
        let span = {
            let (mut store, _, _) = PlanStore::open(cfg.clone()).unwrap();
            store.append(10, b"e10", "{\"p\":10}").unwrap();
            store.append(11, b"e11", "{\"p\":11}").unwrap();
            store.locate(11).unwrap()
        };
        // Chop the second record in half: a torn tail.
        let path = segment_path(&dir, span.segment);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(span.offset + span.len / 2).unwrap();
        drop(file);
        let (store, records, report) = PlanStore::open(cfg.clone()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, 10);
        assert_eq!(report.torn_records, 1);
        assert!(report.truncated_bytes > 0);
        assert!(!store.contains(11));
        drop(store);
        // The truncation is physical: a third open sees a clean log.
        let (_, records, report) = PlanStore::open(cfg).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(report.torn_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_compaction_preserve_records() {
        let dir = tmp_dir("compact");
        let mut cfg = StoreConfig::at(&dir);
        cfg.segment_bytes = 128; // force rotation nearly every append
        cfg.compact_segments = 0; // manual compaction only
        let (mut store, _, _) = PlanStore::open(cfg.clone()).unwrap();
        for k in 0..20u128 {
            store
                .append(k, format!("enc-{k}").as_bytes(), &format!("{{\"p\":{k}}}"))
                .unwrap();
        }
        assert!(store.segment_count() > 3, "rotation must have happened");
        let carried = store.compact().unwrap();
        assert_eq!(carried, 20);
        assert!(store.segment_count() < 21);
        // Appends keep working after compaction...
        store.append(99, b"enc-99", "{\"p\":99}").unwrap();
        drop(store);
        // ...and a reopen sees all 21 records byte-identically.
        let (_, records, _) = PlanStore::open(cfg).unwrap();
        assert_eq!(records.len(), 21);
        for r in &records {
            let expect = format!("{{\"p\":{}}}", r.key);
            assert_eq!(&*r.plan, expect.as_str());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Past the segment threshold, appends of new keys leave nothing to
    /// reclaim, so auto-compaction must not rewrite the live set on
    /// every append: each record moves a bounded number of times.
    #[test]
    fn auto_compaction_does_not_rewrite_on_every_append() {
        let dir = tmp_dir("no-thrash");
        let mut cfg = StoreConfig::at(&dir);
        cfg.segment_bytes = 128;
        cfg.compact_segments = 4;
        let (mut store, _, _) = PlanStore::open(cfg).unwrap();
        let mut spans: Vec<RecordSpan> = Vec::new();
        let mut moves = Vec::new();
        for k in 0..400u128 {
            store
                .append(k, format!("enc-{k}").as_bytes(), &format!("{{\"p\":{k}}}"))
                .unwrap();
            spans.push(store.locate(k).unwrap());
            moves.push(0usize);
            for (j, span) in spans.iter_mut().enumerate() {
                let now = store.locate(j as u128).unwrap();
                if now != *span {
                    moves[j] += 1;
                    *span = now;
                }
            }
        }
        assert!(store.segment_count() > 100, "rotation must have happened");
        let worst = moves.iter().copied().max().unwrap();
        assert!(worst <= 1, "a record was rewritten {worst} times");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Dead data found at open (here a stale-era segment) still makes
    /// the store compact once it passes the threshold, and only once.
    #[test]
    fn auto_compaction_reclaims_stale_segments_once() {
        let dir = tmp_dir("reclaim");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("seg-000000.log");
        fs::write(&stale, b"\x10\x00\x00\x00aqlog1 old/v0!!\n").unwrap();
        let mut cfg = StoreConfig::at(&dir);
        cfg.segment_bytes = 128;
        cfg.compact_segments = 4;
        let (mut store, _, report) = PlanStore::open(cfg.clone()).unwrap();
        assert_eq!(report.stale_segments, 1);
        let mut first_moved = 0;
        let first = |store: &PlanStore| store.locate(0);
        store.append(0, b"enc-0", "{\"p\":0}").unwrap();
        let mut at = first(&store);
        for k in 1..200u128 {
            store
                .append(k, format!("enc-{k}").as_bytes(), &format!("{{\"p\":{k}}}"))
                .unwrap();
            if first(&store) != at {
                first_moved += 1;
                at = first(&store);
            }
        }
        assert!(!stale.exists(), "the stale segment was reclaimed");
        assert_eq!(first_moved, 1, "compacted exactly once");
        drop(store);
        let (_, records, report) = PlanStore::open(cfg).unwrap();
        assert_eq!(records.len(), 200);
        assert_eq!(report.stale_segments, 0);
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
        let (store, records, report) = PlanStore::open(StoreConfig::at(&dir)).unwrap();
        assert!(records.is_empty());
        assert_eq!(report.stale_segments, 1);
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_extraction_segments_read_as_stale() {
        // Segments written before the seglog extraction led with
        // `aqseg1` magic; they must be fenced off, not misparsed.
        let dir = tmp_dir("old-magic");
        fs::create_dir_all(&dir).unwrap();
        let text = format!("aqseg1 {KEY_VERSION}\n");
        let mut bytes = (text.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        fs::write(dir.join("seg-000000.log"), &bytes).unwrap();
        let (_store, records, report) = PlanStore::open(StoreConfig::at(&dir)).unwrap();
        assert!(records.is_empty());
        assert_eq!(report.stale_segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
