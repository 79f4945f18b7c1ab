#!/usr/bin/env bash
# Pre-merge gate. Run from the repo root: scripts/ci.sh
#
# Mirrors what reviewers expect to be green before a PR lands:
#   1. formatting            (cargo fmt --check)
#   2. lints, deny warnings  (cargo clippy --workspace --all-targets)
#   3. tier-1 build + tests  (cargo build --release && cargo test -q,
#      which includes tests/bench_statuses.rs: every compile-path row
#      of the committed BENCH.json states the status a fresh compile
#      returns)
#   4. the repository benchmark's build (perfbench, --locked: fails when
#      a public item it uses goes away or an inter-crate dependency list
#      drifts from perfbench/Cargo.lock)
#   5. the benchmark's correctness checks: one 1-second run of each
#      workload (cold, serve, exec) must end on "correct":true — the
#      status table, warm = cold, delta-chained session plans = cold
#      compiles, exec conservation, and equal batch digests at 1 and 2
#      threads
#   6. every crate's unit and integration tests (cargo test --release
#      --workspace), timeout-guarded: a hang is a deadlock, not a slow
#      test. This runs, among the rest, aqua-serve's golden_protocol,
#      cache_differential, session_protocol, invalidation, stress,
#      front_door, store_recovery and obs_endpoints suites, aqua-sim's
#      sched_differential, replay_differential and replay_log_recovery,
#      and aqua-obs's fleet_merge
#   7. rustdoc, deny warnings (cargo doc --no-deps)
#   8. property suites, which compile to nothing without
#      --features proptests (fault_properties, the pinned
#      regression_corpus, and incr_differential: session.edit deltas
#      chained over random edit scripts stay byte-identical to cold
#      compiles)
#   9. bench --quick: every gate of the one bench binary (LP oracle
#      agreement, fault recovery, warm = cold and warm >= 10x cold,
#      restart rehydration, session edits = cold and >= 10x, makespan
#      floors and thread-invariant digests, the replay soak's floors);
#      the binary exits nonzero when a gate fails. Its --obs trace must
#      hold lp.solve and sim.run spans and no obs.spans_dropped.
#
# The bench run writes to target/ so it never clobbers the committed
# BENCH.json (regenerate that with a full
# `cargo run --release -p aqua-bench --bin bench`).

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
timeout 600 cargo test -q --release --features proptests --test incr_differential

echo "==> bench --quick (every gate; exits nonzero when one fails)"
timeout 900 cargo run --release -p aqua-bench --bin bench -- --quick \
  --out target/BENCH.quick.json --obs target/obs_trace.quick.json
# The trace must hold the LP solves' and the executors' spans: a trace
# without them means the obs wiring regressed silently. A trace holding
# obs.spans_dropped outgrew the sink's span ring.
for span in '"lp.solve"' '"sim.run"'; do
  grep -q "$span" target/obs_trace.quick.json || {
    echo "error: the bench --obs trace holds no $span span" >&2
    exit 1
  }
done
if grep -q '"obs.spans_dropped"' target/obs_trace.quick.json; then
  echo "error: the bench --obs trace dropped span events" >&2
  exit 1
fi

echo "==> ci.sh: all green"
