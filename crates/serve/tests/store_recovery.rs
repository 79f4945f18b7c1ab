//! Crash-recovery property tests for the persistent plan store.
//!
//! The store's contract: rehydration after a crash recovers **every
//! record that was durably written**, rejects torn tails instead of
//! serving partial bytes, and a rehydrated service never serves a plan
//! whose bytes differ from a cold compile. These tests attack that
//! contract with randomized truncation and corruption (seeded
//! `XorShift64Star`, so failures reproduce).

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::path::PathBuf;
use std::sync::Arc;

use aqua_dag::Dag;
use aqua_obs::Obs;
use aqua_rational::rng::XorShift64Star;
use aqua_serve::store::{PlanStore, RecordSpan, StoreConfig};
use aqua_serve::{Service, ServiceConfig};
use aqua_volume::Machine;

fn test_dir(name: &str, trial: usize) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("store_recovery")
        .join(format!("{name}-{}-{trial}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean test dir");
    }
    dir
}

struct Appended {
    key: u128,
    encoding: Vec<u8>,
    plan: String,
    span: RecordSpan,
}

/// Appends `n` random records and returns them with their spans (all in
/// one segment — the default segment size is far larger than the data).
fn fill_store(dir: &PathBuf, rng: &mut XorShift64Star, n: usize) -> Vec<Appended> {
    let (mut store, existing, _) = PlanStore::open(StoreConfig::at(dir)).expect("open");
    assert!(existing.is_empty());
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let key = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128 | i as u128;
        let encoding: Vec<u8> = (0..rng.range_u64(1, 64))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let plan: String = (0..rng.range_u64(8, 256))
            .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
            .collect();
        let fresh = store.append(key, &encoding, &plan).expect("append");
        assert!(fresh, "keys are unique, every append must be fresh");
        let span = store.locate(key).expect("just-appended key has a span");
        out.push(Appended {
            key,
            encoding,
            plan,
            span,
        });
    }
    assert_eq!(store.segment_count(), 1, "test assumes a single segment");
    out
}

fn only_segment(dir: &PathBuf) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().map(|e| e == "log").unwrap_or(false))
        .collect();
    segs.sort();
    assert_eq!(segs.len(), 1, "test assumes a single segment: {segs:?}");
    segs.pop().expect("one segment")
}

/// Truncating the segment at any byte boundary must recover exactly the
/// records that end at or before the cut — nothing partial, nothing
/// reordered, every survivor byte-identical.
#[test]
fn truncation_recovers_exactly_the_intact_prefix() {
    let mut rng = XorShift64Star::new(0xD15C_0DE5);
    for trial in 0..12 {
        let dir = test_dir("truncate", trial);
        let appended = fill_store(&dir, &mut rng, 24);
        let seg = only_segment(&dir);
        let full_len = std::fs::metadata(&seg).expect("metadata").len();
        let first_offset = appended[0].span.offset;
        // Cut somewhere in the record region (at or past the first
        // record's start, at most the full file).
        let cut = rng.range_u64(first_offset, full_len);
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("open segment")
            .set_len(cut)
            .expect("truncate");

        let (_store, recovered, report) = PlanStore::open(StoreConfig::at(&dir)).expect("recover");
        let expected: Vec<&Appended> = appended
            .iter()
            .filter(|a| a.span.offset + a.span.len <= cut)
            .collect();
        assert_eq!(
            recovered.len(),
            expected.len(),
            "trial {trial}: cut at {cut} of {full_len}"
        );
        let by_key: HashMap<u128, _> = recovered.iter().map(|r| (r.key, r)).collect();
        for a in &expected {
            let r = by_key.get(&a.key).expect("intact record recovered");
            assert_eq!(&r.encoding[..], &a.encoding[..], "encoding bytes differ");
            assert_eq!(&*r.plan, a.plan, "plan bytes differ");
        }
        // A mid-record cut is a torn tail: recovery truncates it away.
        if expected.len() < appended.len()
            && cut
                > expected
                    .iter()
                    .map(|a| a.span.offset + a.span.len)
                    .max()
                    .unwrap_or(first_offset)
        {
            assert!(report.truncated_bytes > 0, "torn tail must be truncated");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Flipping one byte inside a record must never surface wrong bytes:
/// recovery stops at the corruption, and everything before it survives
/// byte-identically.
#[test]
fn corruption_never_serves_divergent_bytes() {
    let mut rng = XorShift64Star::new(0xBAD_C0FFE);
    for trial in 0..12 {
        let dir = test_dir("corrupt", trial);
        let appended = fill_store(&dir, &mut rng, 24);
        let seg = only_segment(&dir);
        let mut bytes = std::fs::read(&seg).expect("read segment");
        let first_offset = appended[0].span.offset as usize;
        let victim = rng.range_u64(first_offset as u64, bytes.len() as u64 - 1) as usize;
        bytes[victim] ^= 0x40;
        std::fs::write(&seg, &bytes).expect("write corrupted");

        let (_store, recovered, _report) = PlanStore::open(StoreConfig::at(&dir)).expect("recover");
        let by_key: HashMap<u128, &Appended> = appended.iter().map(|a| (a.key, a)).collect();
        // Every recovered record must match what was appended — a
        // corrupted record may be *dropped* but never *altered*.
        for r in &recovered {
            let a = by_key.get(&r.key).expect("recovered key was appended");
            assert_eq!(&r.encoding[..], &a.encoding[..], "encoding bytes differ");
            assert_eq!(&*r.plan, a.plan, "plan bytes differ");
        }
        // Records strictly before the corrupted byte must all survive
        // (the scan stops at the first bad record, not before it).
        let intact_before = appended
            .iter()
            .filter(|a| (a.span.offset + a.span.len) as usize <= victim)
            .count();
        assert!(
            recovered.len() >= intact_before,
            "trial {trial}: lost records before the corruption at {victim}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Compaction after deduplicated re-appends keeps every live record.
#[test]
fn compaction_preserves_every_live_record() {
    let mut rng = XorShift64Star::new(0xC0_FFEE);
    let dir = test_dir("compact", 0);
    let appended = fill_store(&dir, &mut rng, 32);
    {
        let (mut store, recovered, _) = PlanStore::open(StoreConfig::at(&dir)).expect("open");
        assert_eq!(recovered.len(), appended.len());
        assert_eq!(store.compact().expect("compact"), appended.len());
        assert!(appended.iter().all(|a| store.contains(a.key)));
    }
    let (_store, recovered, _) = PlanStore::open(StoreConfig::at(&dir)).expect("reopen");
    assert_eq!(recovered.len(), appended.len());
    let by_key: HashMap<u128, _> = recovered.iter().map(|r| (r.key, r)).collect();
    for a in &appended {
        let r = by_key.get(&a.key).expect("record survives compaction");
        assert_eq!(&*r.plan, a.plan);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Assay `i` (mirrors the stress test): distinct ratios → distinct key.
fn assay(i: usize) -> Dag {
    let mut d = Dag::new();
    let a = d.add_input("A");
    let b = d.add_input("B");
    let m = d
        .add_mix("m", &[(a, 1), (b, i as u64 + 2)], 10)
        .expect("valid mix");
    d.add_process("s", "sense.OD", m);
    d
}

/// End-to-end restart: a service backed by the store is killed
/// (dropped) and reopened; the rehydrated cache must serve every plan
/// byte-identical to the cold compile **without recompiling anything**.
#[test]
fn restarted_service_serves_identical_bytes_without_recompiling() {
    const ASSAYS: usize = 12;
    let dir = test_dir("restart", 0);
    let machine = Machine::paper_default();
    let weights = HashMap::new();

    let cold: Vec<(u128, Arc<str>)> = {
        let svc = Service::new(ServiceConfig {
            store: Some(StoreConfig::at(&dir)),
            ..ServiceConfig::default()
        });
        (0..ASSAYS)
            .map(|i| {
                let served = svc
                    .submit_dag(&assay(i), &weights, &machine, None)
                    .expect("cold compile");
                (served.key, served.plan)
            })
            .collect()
        // svc dropped here: the "kill".
    };

    let (obs, sink) = Obs::recording();
    let svc = Service::try_new(ServiceConfig {
        store: Some(StoreConfig::at(&dir)),
        obs,
        ..ServiceConfig::default()
    })
    .expect("reopen store");
    for (i, (key, plan)) in cold.iter().enumerate() {
        let served = svc
            .submit_dag(&assay(i), &weights, &machine, None)
            .expect("warm-after-restart");
        assert_eq!(served.key, *key);
        assert_eq!(served.plan, *plan, "restart broke byte-identity");
        // Key-addressed lookups hit the rehydrated cache too.
        assert_eq!(svc.submit_key(*key).expect("by key").plan, *plan);
    }
    let snap = sink.snapshot();
    assert_eq!(
        snap.counter("serve.plan.compiles"),
        0,
        "rehydrated hits must not recompile"
    );
    assert_eq!(snap.counter("serve.store.rehydrated"), ASSAYS as u64);
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}
