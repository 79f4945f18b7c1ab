//! Parallel batch solving on a from-scratch work-stealing thread pool.
//!
//! The volume-management pipeline produces many *independent* LPs — one
//! per assay in a suite, one per partition of a DAG with unknown
//! volumes, one per branch-and-bound subtree. This module fans such
//! batches out across OS threads with plain `std::thread::scope` (no
//! external runtime):
//!
//! * each worker owns a deque of task indices, seeded round-robin;
//! * a worker pops its own deque LIFO (cache-warm) and, when empty,
//!   steals FIFO from the other workers (oldest task first, the classic
//!   work-stealing discipline);
//! * results land in per-task slots, so the output order always matches
//!   the input order regardless of which thread ran what.
//!
//! Determinism: every task computes a pure function of its input model,
//! so scheduling order affects wall time only, never results.
//!
//! # Examples
//!
//! ```
//! use aqua_lp::{batch, Model, Sense};
//!
//! let models: Vec<Model> = (1..=4)
//!     .map(|k| {
//!         let mut m = Model::new(Sense::Maximize);
//!         let x = m.add_var("x", 0.0, k as f64);
//!         m.set_objective([(x, 1.0)]);
//!         m
//!     })
//!     .collect();
//! let outs = batch::solve_all(&models);
//! let objs: Vec<f64> = outs
//!     .iter()
//!     .map(|o| o.status.solution().unwrap().objective)
//!     .collect();
//! assert_eq!(objs, vec![1.0, 2.0, 3.0, 4.0]);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::ilp::{solve_ilp, IlpConfig, IlpOutcome};
use crate::model::Model;
use crate::simplex::{solve_with, SimplexConfig, SolveOutput};

/// Runs `f(0..n)` across the available cores and returns the results in
/// index order. The building block under [`solve_all`]; exposed so
/// other crates can parallelize their own independent per-item work
/// (e.g. per-partition volume normalization) on the same pool
/// discipline.
pub fn run_parallel<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    run_parallel_threads(n, threads, f)
}

/// [`run_parallel`] with an explicit worker-thread count (clamped to
/// `[1, n]`). Results are in input order and identical for every
/// `threads` value — the determinism tests pin exactly this: the pool
/// writes each result into its own per-index slot, so scheduling can
/// only change wall time, never placement.
pub fn run_parallel_threads<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_parallel_threads_counted(n, threads, f).0
}

/// Scheduling statistics from one pool run. Observability only: steal
/// counts depend on OS scheduling and vary run to run, but the results
/// they accompany never do.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Worker threads actually spawned (after clamping to `[1, n]`).
    pub workers: usize,
    /// Tasks a worker took from another worker's deque rather than its
    /// own. Zero on the sequential (`threads <= 1`) path.
    pub steals: u64,
}

/// [`run_parallel_threads`] that also reports pool scheduling
/// statistics. The parallel branch-and-bound rounds in
/// [`solve_ilp`] use this to expose
/// `ilp.par.steals` without perturbing results.
pub fn run_parallel_threads_counted<T, F>(n: usize, threads: usize, f: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return (Vec::new(), PoolStats::default());
    }
    let threads = threads.clamp(1, n);
    if threads <= 1 {
        let out = (0..n).map(f).collect();
        return (
            out,
            PoolStats {
                workers: 1,
                steals: 0,
            },
        );
    }

    // Per-worker deques, seeded round-robin.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((0..n).filter(|i| i % threads == w).collect()))
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for w in 0..threads {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            let steals = &steals;
            scope.spawn(move || loop {
                // Own deque first (LIFO), then steal (FIFO) round-robin
                // starting from the next worker. The own pop is a
                // statement of its own so its guard drops before any
                // other deque is locked: two workers stealing from each
                // other while holding their own locks would deadlock.
                let own = lock(&queues[w]).pop_back();
                let task = own.or_else(|| {
                    (1..threads)
                        .map(|k| (w + k) % threads)
                        .find_map(|v| lock(&queues[v]).pop_front())
                        .inspect(|_| {
                            steals.fetch_add(1, Ordering::Relaxed);
                        })
                });
                match task {
                    Some(i) => {
                        let out = f(i);
                        *lock(&slots[i]) = Some(out);
                    }
                    // No new tasks are ever produced, so globally-empty
                    // deques mean this worker is done.
                    None => break,
                }
            });
        }
    });

    let out = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every task index was queued exactly once")
        })
        .collect();
    (
        out,
        PoolStats {
            workers: threads,
            steals: steals.into_inner(),
        },
    )
}

/// Poison-proof lock: a panicking worker must not turn every later
/// `lock()` into a second panic — the scope already propagates the
/// original one, and the queued indices/results remain valid data.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Solves every model with the default configuration, in parallel.
/// Results are in input order, identical to a sequential
/// [`crate::solve`] per model.
pub fn solve_all(models: &[Model]) -> Vec<SolveOutput> {
    solve_all_with(models, &SimplexConfig::default())
}

/// Solves every model with an explicit configuration, in parallel.
pub fn solve_all_with(models: &[Model], config: &SimplexConfig) -> Vec<SolveOutput> {
    run_parallel(models.len(), |i| solve_with(&models[i], config))
}

/// Solves every model as an ILP, in parallel. Each branch-and-bound
/// search runs sequentially within its task (warm starts flow parent to
/// child inside one search, which is inherently serial); parallelism is
/// across models.
pub fn solve_ilp_all(models: &[Model], config: &IlpConfig) -> Vec<IlpOutcome> {
    run_parallel(models.len(), |i| solve_ilp(&models[i], config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::simplex::Status;

    #[test]
    fn empty_batch() {
        assert!(solve_all(&[]).is_empty());
    }

    #[test]
    fn results_keep_input_order() {
        // Many models with distinct optima; order must be preserved even
        // when tasks outnumber threads.
        let models: Vec<Model> = (0..64)
            .map(|k| {
                let mut m = Model::new(Sense::Maximize);
                let x = m.add_var("x", 0.0, f64::INFINITY);
                let y = m.add_var("y", 0.0, 1.0);
                m.set_objective([(x, 1.0)]);
                m.add_le("cap", [(x, 2.0), (y, 1.0)], k as f64);
                m
            })
            .collect();
        let outs = solve_all(&models);
        assert_eq!(outs.len(), 64);
        for (k, out) in outs.iter().enumerate() {
            let s = out.status.solution().unwrap();
            assert!(
                (s.objective - k as f64 / 2.0).abs() < 1e-6,
                "model {k}: {}",
                s.objective
            );
        }
    }

    #[test]
    fn batch_matches_sequential() {
        let models: Vec<Model> = (0..8)
            .map(|k| {
                let mut m = Model::new(Sense::Minimize);
                let x = m.add_var("x", 0.0, 10.0);
                let y = m.add_var("y", 0.0, 10.0);
                m.set_objective([(x, 1.0), (y, 2.0)]);
                m.add_ge("floor", [(x, 1.0), (y, 1.0)], 3.0 + k as f64 / 2.0);
                m
            })
            .collect();
        let par = solve_all(&models);
        for (m, out) in models.iter().zip(&par) {
            let seq = crate::simplex::solve_with(m, &SimplexConfig::default());
            let (a, b) = match (&out.status, &seq.status) {
                (Status::Optimal(a), Status::Optimal(b)) => (a, b),
                other => panic!("status mismatch: {other:?}"),
            };
            assert!((a.objective - b.objective).abs() < 1e-9);
        }
    }

    #[test]
    fn run_parallel_arbitrary_work() {
        let squares = run_parallel(100, |i| i * i);
        assert_eq!(squares.len(), 100);
        assert_eq!(squares[7], 49);
        assert_eq!(squares[99], 9801);
    }

    /// Determinism across thread counts: the same batch solved with 1,
    /// 2, and 8 workers must return bit-identical solutions in input
    /// order. Guards the per-index result slots against any future
    /// "optimization" that would let work stealing permute results.
    #[test]
    fn batch_is_bit_identical_across_thread_counts() {
        let models: Vec<Model> = (0..24)
            .map(|k| {
                let mut m = Model::new(Sense::Maximize);
                let x = m.add_var("x", 0.0, f64::INFINITY);
                let y = m.add_var("y", 0.0, 4.0 + (k % 3) as f64);
                m.set_objective([(x, 3.0), (y, 1.0)]);
                m.add_le("cap", [(x, 2.0), (y, 1.0)], 7.0 + k as f64);
                m.add_ge("floor", [(x, 1.0), (y, 1.0)], 1.0 + (k % 5) as f64 / 2.0);
                m
            })
            .collect();
        let config = SimplexConfig::default();
        let runs: Vec<Vec<SolveOutput>> = [1usize, 2, 8]
            .iter()
            .map(|&t| run_parallel_threads(models.len(), t, |i| solve_with(&models[i], &config)))
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.len(), runs[0].len());
            for (a, b) in runs[0].iter().zip(run) {
                let (sa, sb) = match (&a.status, &b.status) {
                    (Status::Optimal(sa), Status::Optimal(sb)) => (sa, sb),
                    other => panic!("status mismatch across thread counts: {other:?}"),
                };
                // Bit-identical, not approximately equal: the solver is
                // a pure function of its input, so the fan-out must not
                // perturb a single ULP.
                assert_eq!(sa.objective.to_bits(), sb.objective.to_bits());
                assert_eq!(sa.values.len(), sb.values.len());
                for (va, vb) in sa.values.iter().zip(&sb.values) {
                    assert_eq!(va.to_bits(), vb.to_bits());
                }
                assert_eq!(a.stats.iterations, b.stats.iterations);
            }
        }
    }

    /// Two workers that run dry at once both steal. Each must drop the
    /// lock on its own deque before locking another's, or they wait on
    /// each other forever. Many short rounds at 2 and 8 threads make
    /// that overlap near-certain; the watchdog turns a hang into a
    /// failure instead of a stalled test run.
    #[test]
    fn concurrent_steals_never_deadlock() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for threads in [2usize, 8] {
                for round in 0..2_000usize {
                    let out = run_parallel_threads(16, threads, |i| i + round);
                    assert_eq!(out[15], 15 + round);
                }
            }
            let _ = done.send(());
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("work-stealing pool deadlocked (or panicked)");
    }

    #[test]
    fn ilp_batch() {
        let models: Vec<Model> = (0..4)
            .map(|k| {
                let mut m = Model::new(Sense::Maximize);
                let x = m.add_int_var("x", 0.0, f64::INFINITY);
                m.set_objective([(x, 1.0)]);
                m.add_le("c", [(x, 2.0)], 5.0 + k as f64);
                m
            })
            .collect();
        let outs = solve_ilp_all(&models, &IlpConfig::default());
        let expect = [2.0, 3.0, 3.0, 4.0]; // floor((5+k)/2)
        for (k, out) in outs.iter().enumerate() {
            match &out.status {
                crate::ilp::IlpStatus::Optimal(s) => {
                    assert!((s.objective - expect[k]).abs() < 1e-6)
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
