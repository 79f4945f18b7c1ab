#!/usr/bin/env bash
# Pre-merge gate. Run from the repo root: scripts/ci.sh
#
# Mirrors what reviewers expect to be green before a PR lands:
#   1. formatting            (cargo fmt --check)
#   2. lints, deny warnings  (cargo clippy --workspace --all-targets)
#   3. tier-1 build + tests  (cargo build --release && cargo test -q)
#      + the repository benchmark's build (perfbench, --locked: fails
#        when a public item it uses goes away or an inter-crate
#        dependency list drifts from perfbench/Cargo.lock)
#      + the benchmark's correctness checks: one 1-second run of each
#        workload (cold, serve, exec) must end on "correct":true — the
#        status table, warm = cold, delta-chained session plans = cold
#        compiles, exec conservation, and equal batch digests at 1 and
#        2 threads
#      + every crate's unit and integration tests (cargo test
#        --workspace: the hierarchy, Vnorm, feascheck and pool unit
#        tests, and aqua-serve's golden_protocol, cache_differential,
#        session_protocol and invalidation byte-identity suites),
#        timeout-guarded like the stress step: a hang is a deadlock
#   4. rustdoc, deny warnings (cargo doc --no-deps)
#   5. property suites       (cargo test --features proptests)
#   6. LP smoke test         (bench_lp --quick: the sparse simplex
#      agrees with the dense tableau oracle on every assay)
#      + obs smoke: --obs must produce a non-empty Chrome trace that
#        dropped no span events
#   7. fault-recovery smoke  (fault_sweep --quick: 100% recovery at rate 0)
#   8. serve stress suite    (8 threads x 200 requests, deadlock-guarded
#      by `timeout`: a hang is a bug, not a slow test)
#      + front-door regression tests (deadline overflow, accept-loop
#        resilience, bounded request lines) and the store crash-recovery
#        property suite (randomized truncation/corruption + the
#        restart-rehydration smoke)
#   9. serve bench smoke     (bench_serve --quick: warm >= 10x cold,
#      warm plans byte-identical to cold, restart rehydration
#      byte-identical with zero recompiles, and warm-after-restart p50
#      within 10x of in-memory warm — all enforced by the binary itself;
#      plus the field contract the perf trajectory reads)
#  10. scheduler differential suite (scheduled executor bit-identical
#      to sequential on paper assays + seeded synthetics, fault-free
#      and faulted)
#  11. exec bench smoke      (bench_exec --quick: makespan-floor gate —
#      scheduled <= sequential on enzyme10 and the batch — plus
#      thread-invariant batch digests and full fault recovery; the
#      run is retried once since it shares the host with whatever
#      else CI is doing; its --obs trace must hold sim.run spans and
#      drop none)
#  12. replay suites          (replay_differential: recorded digests
#      reproduce at 1/2/8 threads, fault-free and faulted;
#      replay_log_recovery: a damaged descriptor log never replays a
#      divergent or partial run; obs fleet-merge property tests and the
#      obs.snapshot wire byte-identity tests)
#  13. replay bench smoke     (bench_replay --quick: descriptor-log
#      soak with hard gates — run floor met, zero conservation
#      violations, zero unrecovered faults, zero cross-thread digest
#      mismatches, obs.snapshot byte-identical over the wire — all
#      enforced by the binary and re-checked by the greps)
#  14. incremental differential suite (incr_differential: session.edit
#      deltas chained over random edit scripts stay byte-identical to
#      cold compiles at every step, on paper + synthetic assays, and
#      concurrent sessions are thread-count-invariant)
#  15. incr bench smoke        (bench_incr --quick: single-ratio
#      enzyme10 edits >= 10x faster than cold front-door compiles and
#      zero incremental-vs-cold byte divergences — both enforced by the
#      binary and re-checked by the greps)
#
# The smoke runs write their JSON to target/ so they never clobber the
# committed BENCH_lp.json / BENCH_fault.json / BENCH_serve.json /
# BENCH_exec.json / BENCH_replay.json / BENCH_incr.json (regenerate
# those with a full `cargo run --release -p aqua-bench --bin bench_lp`
# / `fault_sweep` / `bench_serve` / `bench_exec` / `bench_replay` /
# `bench_incr`).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> repository benchmark builds against today's crates (--locked)"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> repository benchmark correctness checks (1 s per workload)"
# A failed check prints to stderr, sets "correct":false on the run's
# last line and exits nonzero; timings at 1 s mean nothing, only the
# checks count.
for workload in cold serve exec; do
  result=$(timeout 300 cargo run --release --offline --locked --quiet \
    --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  case "$result" in
    *'"correct":true'*) ;;
    *)
      echo "error: the $workload workload failed its correctness checks: $result" >&2
      exit 1
      ;;
  esac
done

echo "==> workspace tests: cargo test -q --release --workspace (timeout-guarded)"
timeout 900 cargo test -q --release --workspace

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> property suites: cargo test -q --features proptests"
cargo test -q --release --features proptests --test fault_properties
# The pinned proptest regression corpus (tests/regression_corpus.rs
# mirrors tests/proptest_volume.proptest-regressions) replays every
# historical counterexample deterministically.
cargo test -q --release --features proptests --test regression_corpus

echo "==> bench_lp --quick (sparse/dense agreement + obs smoke test)"
# The binary exits nonzero when the sparse simplex and the dense oracle
# disagree on any assay's status or objective.
timeout 600 cargo run --release -p aqua-bench --bin bench_lp -- --quick \
  --out target/BENCH_lp.quick.json --obs target/obs_trace.quick.json
# The trace must exist, be non-trivial, and carry trace events: an empty
# or malformed trace means the obs wiring regressed silently. It must
# also hold every span: a trace reporting obs.spans_dropped outgrew the
# sink's span ring.
test -s target/obs_trace.quick.json
grep -q '"traceEvents"' target/obs_trace.quick.json
grep -q '"lp.solve"' target/obs_trace.quick.json
if grep -q '"obs.spans_dropped"' target/obs_trace.quick.json; then
  echo "error: the bench_lp --obs trace dropped span events" >&2
  exit 1
fi

echo "==> fault_sweep --quick (recovery ladder smoke test)"
cargo run --release -p aqua-bench --bin fault_sweep -- --quick --out target/BENCH_fault.quick.json

echo "==> serve stress suite (timeout-guarded: a hang is a deadlock)"
timeout 300 cargo test -q --release -p aqua-serve --test stress -- --test-threads=1

echo "==> serve front-door regressions (deadline overflow, accept loop, line caps)"
timeout 300 cargo test -q --release -p aqua-serve --test front_door

echo "==> serve store crash-recovery property suite + restart-rehydration smoke"
timeout 300 cargo test -q --release -p aqua-serve --test store_recovery

echo "==> bench_serve --quick (cold vs warm smoke test)"
cargo run --release -p aqua-bench --bin bench_serve -- --quick \
  --out target/BENCH_serve.quick.json
# The binary already exits nonzero when warm plans diverge from cold or
# the speedup floor is missed; the greps guard the JSON contract that
# downstream tooling (EXPERIMENTS.md tables) reads.
test -s target/BENCH_serve.quick.json
for field in '"schema": "bench_serve/v2"' '"warm_over_cold"' '"cold_rps"' \
             '"warm_src_rps"' '"warm_key_rps"' '"warm_equals_cold": true' \
             '"enzyme10_cold_p50_ns"' '"enzyme10_cold_p99_ns"' \
             '"traffic_p50_ns"' '"traffic_p99_ns"' '"traffic_p999_ns"' \
             '"traffic_shed_rate"' '"restart_equals_cold": true' \
             '"restart_no_recompiles": true' '"restart_over_warm"'; do
  if ! grep -q "$field" target/BENCH_serve.quick.json; then
    echo "error: BENCH_serve.quick.json is missing $field" >&2
    exit 1
  fi
done

echo "==> scheduler differential suite (scheduled == sequential, faulted too)"
timeout 600 cargo test -q --release -p aqua-sim --test sched_differential

echo "==> bench_exec --quick (makespan floor + thread-invariant digests)"
# The binary exits nonzero when a scheduled makespan exceeds its
# sequential baseline, batch digests differ across 1/2/8 threads, or a
# faulted instance is left unrecovered. The makespan floor is
# deterministic (simulated seconds), but the run itself shares the host
# with the rest of CI, so it gets one retry before failing the build.
# Its --obs trace must hold the executors' `sim.run` spans and no
# obs.spans_dropped, as bench_lp's does.
run_bench_exec() {
  timeout 600 cargo run --release -p aqua-bench --bin bench_exec -- --quick \
    --out target/BENCH_exec.quick.json --obs target/obs_exec.quick.json
}
if ! run_bench_exec; then
  echo "warn: bench_exec smoke failed; retrying once" >&2
  run_bench_exec
fi
grep -q '"sim.run"' target/obs_exec.quick.json || {
  echo "error: the bench_exec --obs trace holds no sim.run span" >&2
  exit 1
}
if grep -q '"obs.spans_dropped"' target/obs_exec.quick.json; then
  echo "error: the bench_exec --obs trace dropped span events" >&2
  exit 1
fi
grep -q '"makespan_floor_ok": true' target/BENCH_exec.quick.json || {
  echo "error: a scheduled makespan exceeded its sequential baseline" >&2
  exit 1
}
grep -q '"threads_agree": true' target/BENCH_exec.quick.json
grep -q '"fault_recovered": true' target/BENCH_exec.quick.json
grep -q '"host_cpus"' target/BENCH_exec.quick.json

echo "==> replay differential suite (recorded digests at 1/2/8 threads)"
timeout 600 cargo test -q --release -p aqua-sim --test replay_differential

echo "==> replay descriptor-log crash-recovery suite"
timeout 600 cargo test -q --release -p aqua-sim --test replay_log_recovery

echo "==> obs fleet-merge properties + obs.snapshot wire byte-identity"
timeout 300 cargo test -q --release -p aqua-obs --test fleet_merge
timeout 300 cargo test -q --release -p aqua-serve --test obs_endpoints

echo "==> bench_replay --quick (descriptor-log soak smoke test)"
# The binary exits nonzero on any conservation violation, unrecovered
# fault, cross-thread digest mismatch, wire divergence, or a missed run
# floor; the greps re-check the JSON contract the perf trajectory and
# EXPERIMENTS.md read.
timeout 600 cargo run --release -p aqua-bench --bin bench_replay -- --quick \
  --out target/BENCH_replay.quick.json
test -s target/BENCH_replay.quick.json
for field in '"schema": "bench_replay/v1"' '"runs_floor_ok": true' \
             '"conservation_violations": 0' '"unrecovered_faults": 0' \
             '"digest_mismatches": 0' '"log_intact": true' \
             '"obs_wire_equal": true' '"replay_over_record"' \
             '"p999_instr_ns"' '"soak_rps"' '"host_cpus"'; do
  if ! grep -q "$field" target/BENCH_replay.quick.json; then
    echo "error: BENCH_replay.quick.json is missing $field" >&2
    exit 1
  fi
done

echo "==> incremental differential suite (session deltas == cold compiles)"
timeout 600 cargo test -q --release --features proptests --test incr_differential

echo "==> bench_incr --quick (session.edit vs cold front-door smoke test)"
# The binary exits nonzero when any incremental plan diverges from the
# cold compile of the edited DAG or the enzyme10 single-ratio-edit
# speedup floor (10x) is missed; the greps re-check the JSON contract.
timeout 600 cargo run --release -p aqua-bench --bin bench_incr -- --quick \
  --out target/BENCH_incr.quick.json
test -s target/BENCH_incr.quick.json
for field in '"schema": "bench_incr/v1"' '"incr_over_cold"' \
             '"divergences": 0' '"enzyme10_cold_p50_ns"' \
             '"enzyme10_ratio_incr_p50_ns"' '"enzyme10_machine_incr_p50_ns"' \
             '"host_cpus"'; do
  if ! grep -q "$field" target/BENCH_incr.quick.json; then
    echo "error: BENCH_incr.quick.json is missing $field" >&2
    exit 1
  fi
done

echo "==> ci.sh: all green"
