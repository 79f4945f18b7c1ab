#!/usr/bin/env bash
# Pre-merge gate. Run from the repo root: scripts/ci.sh
#
# Mirrors what reviewers expect to be green before a PR lands:
#   0. the line counts (scripts/loc.sh): non-test and test lines per
#      package, printed, not gated
#   1. formatting            (cargo fmt --check)
#   2. lints, deny warnings  (cargo clippy --workspace --all-targets)
#   3. tier-1 build + tests  (cargo build --release && cargo test -q,
#      which includes tests/bench_statuses.rs: every compile-path row
#      of the committed BENCH.json states the status a fresh compile
#      returns; tests/fault_properties.rs: the paper's volume
#      invariants and the executor's conservation on seeded random
#      DAGs; and tests/incr_differential.rs: session.edit deltas
#      chained over random edit scripts stay byte-identical to cold
#      compiles). The tests run timeout-guarded, as step 7 does:
#      incr_differential's concurrent sessions (1, 2 and 8 threads)
#      and tests/cli.rs's `aquac serve` runs wait on compiler threads,
#      so a lost wake-up must fail CI, not hang it
#   4. every example runs to completion (quickstart and
#      glucose_pipeline name sense readings through the run's fluid
#      table), and so does every paper-figure binary of aqua-bench
#      (fig2_example, fig12_glucose, fig13_glycomics, fig14_enzyme,
#      table2, lp_constrained, machine_sensitivity, rounding_ablation,
#      rounding_error, biostream_comparison), so a panic in one fails
#      CI; ilp_vs_lp is left out, as its Enzyme* row spends its whole
#      30-s budget
#   5. the repository benchmark's build (perfbench, --locked: fails when
#      a public item it uses goes away or an inter-crate dependency list
#      drifts from perfbench/Cargo.lock)
#   6. the benchmark's correctness checks: one run of each workload
#      (cold, serve, exec) must end on "correct":true — the status
#      table, warm = cold, delta-chained session plans = cold compiles,
#      exec conservation, and equal batch digests at 1 and 2 threads —
#      plus one traced cold run, whose staged rerun (parse, lower,
#      canonicalize, then submit_canon through the service's compiler
#      threads) must repeat every plan of the untraced run, one traced
#      serve run, whose staged rerun sends every source read through
#      the full canonicalize + submit_canon and checks it against the
#      warm plan, and whose exact block must equal that of the untraced
#      run, which reads through handle_line's key-first path (so the
#      two source paths are compared on every CI run), and one traced
#      exec run, whose staged rerun (InstrDag::build, plan_jobs,
#      run_job, splice one by one) must repeat run_batch's exact block.
#      Runs last 1 second, serve's 3: at seed 1, 61 of its 96 edits
#      revisit a state (8 of 32 at 1 second), so its delta-chained
#      checks cover edits that reuse a cached plan
#   7. every crate's unit and integration tests (cargo test --release
#      --workspace), timeout-guarded: a hang is a deadlock, not a slow
#      test. This runs, among the rest, aqua-serve's golden_protocol,
#      cache_differential, session_protocol, invalidation, stress,
#      front_door, store_recovery and obs_endpoints suites, aqua-sim's
#      sched_differential, replay_differential and replay_log_recovery,
#      and aqua-obs's fleet_merge
#   8. rustdoc, deny warnings (cargo doc --no-deps)
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

echo "==> line counts, code and tests (scripts/loc.sh)"
scripts/loc.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (timeout-guarded)"
timeout 900 cargo test -q

echo "==> examples run"
for example in quickstart glucose_pipeline enzyme_rescue runtime_partitions trace_debug; do
  cargo run --release --quiet --example "$example" >/dev/null
done

echo "==> paper-figure binaries run"
for bin in fig2_example fig12_glucose fig13_glycomics fig14_enzyme table2 lp_constrained \
  machine_sensitivity rounding_ablation rounding_error biostream_comparison; do
  cargo run --release --quiet -p aqua-bench --bin "$bin" >/dev/null
done

echo "==> repository benchmark builds against today's crates (--locked)"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> repository benchmark correctness checks (1 s per workload, serve 3 s)"
# A failed check prints to stderr, sets "correct":false on the run's
# last line and exits nonzero; timings this short mean nothing, only
# the checks count. Each run is workload:trace:seconds.
for run in cold:0:1 cold:1:1 serve:0:3 serve:1:3 exec:0:1 exec:1:1; do
  IFS=: read -r workload trace seconds <<<"$run"
  result=$(timeout 300 cargo run --release --offline --locked --quiet \
    --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds "$seconds" --trace "$trace" | tail -n 1)
  case "$result" in
    *'"correct":true'*) ;;
    *)
      echo "error: the $workload workload (trace $trace) failed its correctness checks: $result" >&2
      exit 1
      ;;
  esac
done

echo "==> workspace tests: cargo test -q --release --workspace (timeout-guarded)"
timeout 900 cargo test -q --release --workspace

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

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
