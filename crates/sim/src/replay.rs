//! Fleet-scale deterministic replay.
//!
//! The executor's strongest invariant is per-seed determinism: a
//! `(compiled plan, seed, fault rate, exec knobs)` tuple produces a
//! bit-identical run every time, on any thread. This module turns that
//! invariant into infrastructure:
//!
//! * [`RunDescriptor`] — a compact, versioned binary encoding of one
//!   run: assay key, fault seed, fault rate, and the [`ExecConfig`]
//!   knobs that affect chemistry. A descriptor plus a [`PlanSet`] fully
//!   determines the run.
//! * [`DescriptorLog`] — an append-only, CRC-guarded descriptor log on
//!   [`aqua_seglog::SegmentLog`] (the same torn-tail-truncating,
//!   era-fenced segment machinery behind `aqua-serve`'s plan store). A
//!   crash mid-append can lose the torn tail but can never yield a
//!   divergent or partial descriptor — recovery replays exactly the
//!   intact prefix.
//! * [`replay`] — the fleet engine: replays a descriptor list on the
//!   shared claim-counter pool (`aqua_volume::batch`), folds each run
//!   into a per-index summary with its [`run_digest`], and sums the
//!   summaries in index order into a [`FleetReport`], identical at any
//!   thread count.
//!
//! Replays skip compilation entirely — the [`PlanSet`] holds compiled
//! plans keyed by assay name — which is what makes million-run soaks
//! dozens of times cheaper than the recorded originals. Per-run
//! counters and histograms stream through the [`ExecConfig::obs`]
//! handle; pair it with [`aqua_obs::fleet::FleetSink`] for a live,
//! mergeable roll-up.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use aqua_compiler::CompileOutput;
use aqua_seglog::{LogConfig, RecordSpan, RecoveryReport, SegmentLog};
use aqua_volume::Machine;

use crate::exec::{ExecConfig, ExecError, ExecReport, Executor};
use crate::fault::{FaultPlan, RecoveryCounters};

/// Era string for descriptor-log segments. Bump when the descriptor
/// encoding changes incompatibly: old segments then read as stale and
/// are fenced off instead of misparsed.
pub const DESCRIPTOR_LOG_VERSION: &str = "aqua-replay/v1";

/// Current [`RunDescriptor`] binary encoding version.
const DESCRIPTOR_ENCODING: u8 = 1;

/// A compact, fully deterministic description of one execution.
///
/// Together with a [`PlanSet`] (assay name → compiled plan), a
/// descriptor pins down a run bit-for-bit: the fault PRNG stream is
/// seeded from `seed`, and every [`ExecConfig`] knob that affects
/// chemistry is carried as an exact integer (no floats in the
/// encoding, so the on-disk bytes are canonical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDescriptor {
    /// Assay key into the [`PlanSet`] (e.g. `"figure2"`).
    pub assay: String,
    /// Fault-injection PRNG seed.
    pub seed: u64,
    /// Uniform fault rate in parts-per-million (0 = fault-free); maps
    /// to [`FaultPlan::uniform`]'s `rate`.
    pub fault_rate_ppm: u32,
    /// Walk the Fig. 6 recovery ladder at run time.
    pub recover: bool,
    /// Tier-1 budget: [`ExecConfig::max_redispense`].
    pub max_redispense: u32,
    /// [`ExecConfig::deficit_tolerance_lc`].
    pub deficit_tolerance_lc: u64,
    /// [`ExecConfig::unknown_separation_yield`] in per-mille (500 =
    /// the 0.5 default).
    pub yield_permille: u32,
}

impl RunDescriptor {
    /// A fault-free descriptor for `assay` with default exec knobs.
    pub fn new(assay: impl Into<String>, seed: u64) -> RunDescriptor {
        RunDescriptor {
            assay: assay.into(),
            seed,
            fault_rate_ppm: 0,
            recover: false,
            max_redispense: 2,
            deficit_tolerance_lc: 1,
            yield_permille: 500,
        }
    }

    /// A faulted descriptor: uniform fault rate (ppm) with the
    /// recovery ladder enabled.
    pub fn faulted(assay: impl Into<String>, seed: u64, fault_rate_ppm: u32) -> RunDescriptor {
        RunDescriptor {
            fault_rate_ppm,
            recover: true,
            ..RunDescriptor::new(assay, seed)
        }
    }

    /// The uniform fault rate as a fraction.
    pub fn fault_rate(&self) -> f64 {
        f64::from(self.fault_rate_ppm) / 1_000_000.0
    }

    /// Materializes the [`ExecConfig`] this descriptor pins down,
    /// threading `obs` through for per-run instrumentation.
    pub fn exec_config(&self, obs: aqua_obs::Obs) -> ExecConfig {
        ExecConfig {
            unknown_separation_yield: f64::from(self.yield_permille) / 1000.0,
            deficit_tolerance_lc: self.deficit_tolerance_lc,
            record_trace: false,
            faults: if self.fault_rate_ppm == 0 {
                FaultPlan::none()
            } else {
                FaultPlan::uniform(self.seed, self.fault_rate())
            },
            recover: self.recover,
            max_redispense: self.max_redispense,
            obs,
        }
    }

    /// The canonical binary encoding (versioned, little-endian,
    /// integers only — byte-stable across platforms).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(34 + self.assay.len());
        out.push(DESCRIPTOR_ENCODING);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.fault_rate_ppm.to_le_bytes());
        out.push(u8::from(self.recover));
        out.extend_from_slice(&self.max_redispense.to_le_bytes());
        out.extend_from_slice(&self.deficit_tolerance_lc.to_le_bytes());
        out.extend_from_slice(&self.yield_permille.to_le_bytes());
        out.extend_from_slice(&(self.assay.len() as u32).to_le_bytes());
        out.extend_from_slice(self.assay.as_bytes());
        out
    }

    /// Decodes a canonical encoding; `None` on any structural problem
    /// (short buffer, unknown version, trailing bytes, non-UTF-8 key).
    pub fn decode(bytes: &[u8]) -> Option<RunDescriptor> {
        fn u32_at(b: &[u8], at: usize) -> u32 {
            let mut w = [0u8; 4];
            w.copy_from_slice(&b[at..at + 4]);
            u32::from_le_bytes(w)
        }
        fn u64_at(b: &[u8], at: usize) -> u64 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[at..at + 8]);
            u64::from_le_bytes(w)
        }
        if bytes.len() < 34 || bytes[0] != DESCRIPTOR_ENCODING {
            return None;
        }
        let seed = u64_at(bytes, 1);
        let fault_rate_ppm = u32_at(bytes, 9);
        let recover = match bytes[13] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let max_redispense = u32_at(bytes, 14);
        let deficit_tolerance_lc = u64_at(bytes, 18);
        let yield_permille = u32_at(bytes, 26);
        let assay_len = u32_at(bytes, 30) as usize;
        if bytes.len() != 34 + assay_len {
            return None;
        }
        let assay = std::str::from_utf8(&bytes[34..]).ok()?.to_string();
        Some(RunDescriptor {
            assay,
            seed,
            fault_rate_ppm,
            recover,
            max_redispense,
            deficit_tolerance_lc,
            yield_permille,
        })
    }
}

/// The append-only descriptor log: [`RunDescriptor`]s over the shared
/// CRC-guarded segment-log machinery. Torn tails are truncated on
/// open; a recovered descriptor is always byte-identical to what was
/// appended — never partial, never divergent.
pub struct DescriptorLog {
    log: SegmentLog,
}

impl DescriptorLog {
    /// The log configuration (default segment size, era =
    /// [`DESCRIPTOR_LOG_VERSION`]) rooted at `dir`.
    pub fn config(dir: impl AsRef<Path>) -> LogConfig {
        LogConfig::at(dir.as_ref(), DESCRIPTOR_LOG_VERSION)
    }

    /// Opens (or creates) the log, recovering every intact descriptor
    /// in append order. CRC-valid payloads that fail to decode are
    /// counted as torn and dropped — recovery never yields a
    /// descriptor that differs from one that was appended.
    ///
    /// # Errors
    ///
    /// I/O errors opening or repairing the segment files.
    pub fn open(
        config: LogConfig,
    ) -> io::Result<(DescriptorLog, Vec<RunDescriptor>, RecoveryReport)> {
        let (log, recovered, mut report) = SegmentLog::open(config)?;
        let mut descriptors = Vec::with_capacity(recovered.len());
        for item in recovered {
            match RunDescriptor::decode(&item.payload) {
                Some(d) => descriptors.push(d),
                None => report.torn_records += 1,
            }
        }
        report.records = descriptors.len();
        Ok((DescriptorLog { log }, descriptors, report))
    }

    /// Appends one descriptor, returning where its record landed.
    ///
    /// # Errors
    ///
    /// I/O errors writing the active segment.
    pub fn append(&mut self, descriptor: &RunDescriptor) -> io::Result<RecordSpan> {
        self.log.append(&descriptor.encode())
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.log.segment_count()
    }
}

/// Compiled plans keyed by assay name — what descriptors resolve
/// against. Replays never compile: a descriptor whose key is missing
/// here is a [`ReplayError::UnknownAssay`].
#[derive(Default)]
pub struct PlanSet {
    plans: HashMap<String, (Machine, CompileOutput)>,
}

impl PlanSet {
    /// An empty plan set.
    pub fn new() -> PlanSet {
        PlanSet::default()
    }

    /// Registers `out` (compiled for `machine`) under `name`,
    /// replacing any previous entry.
    pub fn insert(&mut self, name: impl Into<String>, machine: Machine, out: CompileOutput) {
        self.plans.insert(name.into(), (machine, out));
    }

    /// Looks up a plan by assay name.
    pub fn get(&self, name: &str) -> Option<(&Machine, &CompileOutput)> {
        self.plans.get(name).map(|(m, o)| (m, o))
    }

    /// Number of registered plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether no plans are registered.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// Folds `v`'s little-endian bytes into an FNV-1a 64 digest.
pub(crate) fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a digest over a run's observable chemistry: sense volumes and
/// compositions, collected/flushed/input totals, violations, fault and
/// recovery counters, and the conservation delta. Two runs of the same
/// descriptor digest identically; any divergence in what the paper
/// calls the run's "wet outcome" changes the digest.
pub fn run_digest(report: &ExecReport) -> u64 {
    let mut h = FNV_BASIS;
    fnv1a(&mut h, report.wet_instructions);
    fnv1a(&mut h, report.wet_seconds);
    fnv1a(&mut h, report.input_pl);
    fnv1a(&mut h, report.flushed_pl);
    fnv1a(&mut h, report.sense_results.len() as u64);
    for s in &report.sense_results {
        fnv1a(&mut h, s.volume_pl);
        let mut fluids: Vec<(&str, f64)> = (s.composition.iter())
            .map(|&(fluid, pl)| (report.final_state.fluid_name(fluid), pl))
            .collect();
        fluids.sort_unstable_by_key(|&(name, _)| name);
        for (name, pl) in fluids {
            for b in name.as_bytes() {
                fnv1a(&mut h, u64::from(*b));
            }
            fnv1a(&mut h, pl.to_bits());
        }
    }
    let mut ports: Vec<u32> = report.collected_pl.keys().copied().collect();
    ports.sort_unstable();
    for p in ports {
        fnv1a(&mut h, u64::from(p));
        fnv1a(&mut h, report.collected_pl[&p]);
    }
    fnv1a(&mut h, report.violations.len() as u64);
    fnv1a(&mut h, report.faults.metering);
    fnv1a(&mut h, report.faults.transient);
    fnv1a(&mut h, report.faults.stuck);
    fnv1a(&mut h, report.faults.sensor);
    fnv1a(&mut h, report.recovery.redispense);
    fnv1a(&mut h, report.recovery.regenerate);
    fnv1a(&mut h, report.recovery.regen_steps);
    fnv1a(&mut h, report.recovery.replan);
    fnv1a(&mut h, report.recovery.overflow_trims);
    fnv1a(&mut h, report.recovery.failures);
    fnv1a(&mut h, report.recovery.extra_volume_pl);
    fnv1a(&mut h, report.conservation_delta_pl() as u64);
    h
}

/// Mixes run `index`'s digest into the fleet's aggregate, the wrapping
/// sum of these.
fn indexed_digest(index: usize, digest: u64) -> u64 {
    let mut h = FNV_BASIS;
    fnv1a(&mut h, index as u64);
    fnv1a(&mut h, digest);
    h
}

/// Replay failure.
#[derive(Debug, Clone)]
pub enum ReplayError {
    /// A descriptor names an assay the [`PlanSet`] does not hold.
    UnknownAssay {
        /// Descriptor index in the replayed list.
        index: usize,
        /// The missing assay key.
        assay: String,
    },
    /// A run failed structurally.
    Exec {
        /// Descriptor index in the replayed list.
        index: usize,
        /// The underlying executor error.
        error: ExecError,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::UnknownAssay { index, assay } => {
                write!(
                    f,
                    "descriptor {index}: no plan registered for assay {assay:?}"
                )
            }
            ReplayError::Exec { index, error } => {
                write!(f, "descriptor {index}: {error}")
            }
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::UnknownAssay { .. } => None,
            ReplayError::Exec { error, .. } => Some(error),
        }
    }
}

/// Fleet replay options.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Worker threads (0 = 1). Thread count affects wall time only,
    /// never the report.
    pub threads: usize,
    /// Observability handle cloned into every run's [`ExecConfig`] —
    /// per-run counters and histograms stream through it. Pair with a
    /// [`aqua_obs::fleet::FleetSink`] for a mergeable roll-up.
    pub obs: aqua_obs::Obs,
    /// Keep every per-run digest in [`FleetReport::digests`] (off for
    /// million-run soaks; on for differential tests).
    pub keep_digests: bool,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            threads: 1,
            obs: aqua_obs::Obs::off(),
            keep_digests: false,
        }
    }
}

/// Per-fleet recovery-tier mix (sums of [`ExecReport::recovery`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryMix {
    /// Tier-1 top-up dispenses.
    pub redispense: u64,
    /// Tier-2 backward-slice regenerations.
    pub regenerate: u64,
    /// Tier-3 whole-DAG re-solves.
    pub replan: u64,
    /// Overflow trims.
    pub overflow_trims: u64,
}

/// The rolled-up outcome of one fleet replay.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Runs executed.
    pub runs: u64,
    /// Order-invariant fleet digest: wrapping sum of the index-mixed
    /// per-run digests. Identical at any thread count.
    pub aggregate_digest: u64,
    /// Runs whose conservation identity failed to close
    /// (`conservation_delta_pl() != 0`).
    pub conservation_violations: u64,
    /// Summed unrecovered shortfalls ([`ExecReport::recovery`]
    /// `failures`) across the fleet.
    pub unrecovered_faults: u64,
    /// Residual constraint violations left in reports (post-recovery).
    pub residual_violations: u64,
    /// Faults injected across the fleet.
    pub faults_injected: u64,
    /// Recovery-tier mix across the fleet.
    pub recovery: RecoveryMix,
    /// Summed wet seconds across the fleet.
    pub wet_seconds: u64,
    /// Per-run digests in descriptor order (only when
    /// [`ReplayOptions::keep_digests`]).
    pub digests: Vec<u64>,
}

/// What one replayed run adds to its fleet's report.
struct RunSummary {
    digest: u64,
    conservation_violation: bool,
    residual_violations: u64,
    faults_injected: u64,
    recovery: RecoveryCounters,
    wet_seconds: u64,
}

impl RunSummary {
    fn of(report: &ExecReport) -> RunSummary {
        RunSummary {
            digest: run_digest(report),
            conservation_violation: report.conservation_delta_pl() != 0,
            residual_violations: report.violations.len() as u64,
            faults_injected: report.faults.total(),
            recovery: report.recovery,
            wet_seconds: report.wet_seconds,
        }
    }
}

/// Executes one descriptor against the plan set, returning the report
/// and its [`run_digest`].
///
/// # Errors
///
/// [`ReplayError::UnknownAssay`] for an unregistered assay key,
/// [`ReplayError::Exec`] for structural execution failures.
pub fn run_one(
    plans: &PlanSet,
    descriptor: &RunDescriptor,
    obs: aqua_obs::Obs,
) -> Result<(ExecReport, u64), ReplayError> {
    let (machine, out) = plans
        .get(&descriptor.assay)
        .ok_or_else(|| ReplayError::UnknownAssay {
            index: 0,
            assay: descriptor.assay.clone(),
        })?;
    let report = Executor::new(machine, descriptor.exec_config(obs))
        .run(out)
        .map_err(|error| ReplayError::Exec { index: 0, error })?;
    let digest = run_digest(&report);
    Ok((report, digest))
}

/// Replays every descriptor on the shared claim-counter pool and rolls
/// the fleet up. Results are bit-identical at any thread count: each
/// run folds into its own per-index summary, and the summaries are
/// summed in index order.
///
/// # Errors
///
/// The lowest-index descriptor failure (unknown assay or structural
/// executor error) — deterministic regardless of which worker hit it.
pub fn replay(
    plans: &PlanSet,
    descriptors: &[RunDescriptor],
    options: &ReplayOptions,
) -> Result<FleetReport, ReplayError> {
    // Resolve every assay key up front so workers never touch the map
    // and unknown keys fail fast and deterministically.
    let mut resolved: Vec<(&Machine, &CompileOutput)> = Vec::with_capacity(descriptors.len());
    for (index, d) in descriptors.iter().enumerate() {
        match plans.get(&d.assay) {
            Some(pair) => resolved.push(pair),
            None => {
                return Err(ReplayError::UnknownAssay {
                    index,
                    assay: d.assay.clone(),
                })
            }
        }
    }
    let obs = &options.obs;
    let runs = aqua_volume::batch::run_parallel_threads(resolved.len(), options.threads, |i| {
        let (machine, out) = resolved[i];
        let t0 = std::time::Instant::now();
        let report = Executor::new(machine, descriptors[i].exec_config(obs.clone())).run(out)?;
        let run = RunSummary::of(&report);
        if obs.enabled() {
            obs.add("replay.runs", 1);
            obs.record("replay.run_ns", t0.elapsed().as_nanos() as u64);
            if run.conservation_violation {
                obs.add("replay.conservation_violations", 1);
            }
            if run.recovery.failures > 0 {
                obs.add("replay.unrecovered", run.recovery.failures);
            }
        }
        Ok::<_, ExecError>(run)
    });

    let mut fleet = FleetReport::default();
    for (index, run) in runs.into_iter().enumerate() {
        let run = run.map_err(|error| ReplayError::Exec { index, error })?;
        fleet.runs += 1;
        fleet.aggregate_digest =
            (fleet.aggregate_digest).wrapping_add(indexed_digest(index, run.digest));
        fleet.conservation_violations += u64::from(run.conservation_violation);
        fleet.unrecovered_faults += run.recovery.failures;
        fleet.residual_violations += run.residual_violations;
        fleet.faults_injected += run.faults_injected;
        fleet.recovery.redispense += run.recovery.redispense;
        fleet.recovery.regenerate += run.recovery.regenerate;
        fleet.recovery.replan += run.recovery.replan;
        fleet.recovery.overflow_trims += run.recovery.overflow_trims;
        fleet.wet_seconds += run.wet_seconds;
        if options.keep_digests {
            fleet.digests.push(run.digest);
        }
    }
    Ok(fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_compiler::{compile, CompileOptions};

    fn plan_set() -> PlanSet {
        let machine = Machine::paper_default();
        let out = compile(
            "
ASSAY t START
fluid A, B;
MIX A AND B IN RATIOS 1 : 4 FOR 10;
SENSE OPTICAL it INTO R;
END",
            &machine,
            &CompileOptions::default(),
        )
        .unwrap();
        let mut plans = PlanSet::new();
        plans.insert("t", machine, out);
        plans
    }

    #[test]
    fn descriptor_encoding_roundtrips() {
        let d = RunDescriptor {
            assay: "glucose".into(),
            seed: 0xDEAD_BEEF_0BAD_F00D,
            fault_rate_ppm: 2_500,
            recover: true,
            max_redispense: 3,
            deficit_tolerance_lc: 2,
            yield_permille: 450,
        };
        let bytes = d.encode();
        assert_eq!(RunDescriptor::decode(&bytes).as_ref(), Some(&d));
        // Structural damage is rejected, not misparsed.
        assert!(RunDescriptor::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(RunDescriptor::decode(&[]).is_none());
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(RunDescriptor::decode(&wrong_version).is_none());
    }

    #[test]
    fn descriptor_log_roundtrips() {
        let dir = std::env::temp_dir().join(format!("replay-log-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wrote = vec![
            RunDescriptor::new("t", 1),
            RunDescriptor::faulted("t", 2, 1_000),
        ];
        {
            let (mut log, existing, _) = DescriptorLog::open(DescriptorLog::config(&dir)).unwrap();
            assert!(existing.is_empty());
            for d in &wrote {
                log.append(d).unwrap();
            }
        }
        let (_log, recovered, report) = DescriptorLog::open(DescriptorLog::config(&dir)).unwrap();
        assert_eq!(recovered, wrote);
        assert_eq!(report.records, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_is_deterministic_and_matches_run_one() {
        let plans = plan_set();
        let descriptors: Vec<RunDescriptor> = (0..6)
            .map(|i| RunDescriptor::faulted("t", 1000 + i, 5_000))
            .collect();
        let opts = ReplayOptions {
            keep_digests: true,
            ..ReplayOptions::default()
        };
        let fleet = replay(&plans, &descriptors, &opts).unwrap();
        assert_eq!(fleet.runs, 6);
        assert_eq!(fleet.digests.len(), 6);
        for (d, &digest) in descriptors.iter().zip(&fleet.digests) {
            let (_, one) = run_one(&plans, d, aqua_obs::Obs::off()).unwrap();
            assert_eq!(one, digest, "replay must equal a standalone run");
        }
        // And a second replay is bit-identical.
        let again = replay(&plans, &descriptors, &opts).unwrap();
        assert_eq!(again.aggregate_digest, fleet.aggregate_digest);
        assert_eq!(again.digests, fleet.digests);
    }

    #[test]
    fn unknown_assay_fails_deterministically() {
        let plans = plan_set();
        let descriptors = vec![RunDescriptor::new("t", 1), RunDescriptor::new("missing", 2)];
        match replay(&plans, &descriptors, &ReplayOptions::default()) {
            Err(ReplayError::UnknownAssay { index, assay }) => {
                assert_eq!(index, 1);
                assert_eq!(assay, "missing");
            }
            other => panic!("expected UnknownAssay, got {other:?}"),
        }
    }
}
