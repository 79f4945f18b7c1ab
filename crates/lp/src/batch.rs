//! An index-ordered parallel map over independent tasks.
//!
//! The volume-management pipeline produces batches of *independent*
//! work — one compile per queued plan request, one Vnorm table per
//! partition of a DAG with unknown volumes. This module fans such a
//! batch out across OS threads with plain `std::thread::scope` (no
//! external runtime). `aqua_sim::batch_exec` runs its instances on it
//! and `aqua_sim::replay` its runs (both through `aqua_volume::batch`):
//!
//! * one shared atomic counter hands out task indices; each worker
//!   claims the next index until the counter passes the end;
//! * each result lands in its own per-index slot, so the output order
//!   always matches the input order regardless of which thread ran what.
//!
//! Determinism: every task computes a pure function of its index, so
//! scheduling order affects wall time only, never results.
//!
//! # Examples
//!
//! ```
//! use aqua_lp::{batch, solve, Model, Sense};
//!
//! let models: Vec<Model> = (1..=4)
//!     .map(|k| {
//!         let mut m = Model::new(Sense::Maximize);
//!         let x = m.add_var("x", 0.0, k as f64);
//!         m.set_objective([(x, 1.0)]);
//!         m
//!     })
//!     .collect();
//! let outs = batch::run_parallel(models.len(), |i| solve(&models[i]));
//! let objs: Vec<f64> = outs
//!     .iter()
//!     .map(|o| o.status.solution().unwrap().objective)
//!     .collect();
//! assert_eq!(objs, vec![1.0, 2.0, 3.0, 4.0]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Runs `f(0..n)` across the available cores and returns the results in
/// index order.
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
/// `[1, n]`). The caller's thread is one of the workers, so `threads`
/// workers spawn `threads - 1` OS threads and one worker spawns none.
/// Results are in input order and identical for every `threads` value
/// — the determinism tests pin exactly this: each result goes into its
/// own per-index slot, so scheduling can only change wall time, never
/// placement.
///
/// # Panics
///
/// If `f` panics, the panic reaches the caller once every worker has
/// stopped.
pub fn run_parallel_threads<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let out = f(i);
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    };
    // A panic on the caller's thread unwinds out of the scope only
    // after the spawned workers have drained the counter and stopped.
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every task index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{solve_ilp, IlpConfig, IlpStatus};
    use crate::model::{Model, Sense};
    use crate::simplex::{solve, solve_with, SimplexConfig, SolveOutput, Status};
    use std::time::Duration;

    /// Runs `body` on its own thread and fails if it does not finish
    /// within `secs`: a hang becomes a test failure instead of a stalled
    /// run.
    fn within(secs: u64, what: &str, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(secs))
            .unwrap_or_else(|_| panic!("{what} hung (or panicked)"));
    }

    #[test]
    fn empty_batch() {
        assert!(run_parallel(0, |i| i).is_empty());
        assert!(run_parallel_threads(0, 8, |i| i).is_empty());
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
        let outs = run_parallel_threads(models.len(), 4, |i| solve(&models[i]));
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
        let par = run_parallel(models.len(), |i| solve(&models[i]));
        for (m, out) in models.iter().zip(&par) {
            let seq = solve_with(m, &SimplexConfig::default());
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
    /// "optimization" that would let scheduling permute results.
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

    /// Many short batches at 2 and 8 threads, so workers often find the
    /// counter exhausted at the same moment; the watchdog turns a hang
    /// into a failure instead of a stalled test run.
    #[test]
    fn concurrent_claims_never_hang() {
        within(60, "claim-counter pool", || {
            for threads in [2usize, 8] {
                for round in 0..2_000usize {
                    let out = run_parallel_threads(16, threads, |i| i + round);
                    assert_eq!(out[15], 15 + round);
                }
            }
        });
    }

    /// A panicking task reaches the caller as a panic, and only after
    /// every worker has stopped. With more than one worker, task 0 waits
    /// until task 5 has panicked, so it is provably still running when
    /// the panic happens; the caller must not see the panic before it
    /// (and every other unclaimed task) has finished.
    #[test]
    fn task_panic_reaches_caller_after_workers_stop() {
        use std::sync::atomic::AtomicBool;
        within(60, "panicking batch", || {
            for threads in [1usize, 2, 8] {
                let panicked = AtomicBool::new(false);
                let finished = AtomicUsize::new(0);
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_parallel_threads(32, threads, |i| {
                        if i == 5 {
                            panicked.store(true, Ordering::SeqCst);
                            panic!("task 5 fails");
                        }
                        if i == 0 && threads > 1 {
                            while !panicked.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    })
                }));
                assert!(caught.is_err(), "{threads} threads: panic was swallowed");
                // Inline, the panic stops the loop at task 5; with
                // workers, the survivors drain every other task first.
                let expect = if threads == 1 { 5 } else { 31 };
                assert_eq!(finished.load(Ordering::SeqCst), expect, "{threads} threads");
            }
        });
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
        let outs = run_parallel_threads(models.len(), 2, |i| {
            solve_ilp(&models[i], &IlpConfig::default())
        });
        let expect = [2.0, 3.0, 3.0, 4.0]; // floor((5+k)/2)
        for (k, out) in outs.iter().enumerate() {
            match &out.status {
                IlpStatus::Optimal(s) => assert!((s.objective - expect[k]).abs() < 1e-6),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
