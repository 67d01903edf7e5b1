//! The one job-level fan-out: experiment grids (`paraleon-bench`'s `exp`
//! harness), the hunter's evaluation batches and the fleet's tick all
//! go through it.
//!
//! Every (configuration, seed) cell of a sweep, every hunt candidate and
//! every fleet tenant's interval is an independent, deterministic
//! simulation. This module fans a job list across scoped worker threads
//! (`std::thread::scope` — no external runtime) that pull jobs off one
//! shared cursor, and returns results **in job order**, regardless of
//! which worker finished first. Because each job is a pure function of
//! its inputs and the output vector is index-addressed, a parallel run
//! produces *byte identical* results (and therefore identical
//! `results/*.json`) to a serial one — the scheduler can only change
//! wall-clock time, never content. `exp all --check` relies on this: it
//! compares the committed bytes at whatever thread count the box has.
//!
//! The invariant auditor's registry is thread-local like the jobs'
//! other state, so each worker starts from the caller's audit
//! disposition and hands its tallies back when it finishes: a gate that
//! reads `paraleon_audit::violation_count()` after a sweep sees every
//! job's violations, whatever the worker count. A panicking job's own
//! payload is re-raised on the caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count a request for `requested` threads actually gets:
/// clamped to the machine's available parallelism. Spawning more workers
/// than cores cannot make an embarrassingly parallel sweep faster — it
/// only adds scheduler churn — and a caller that prints the requested
/// count reports "8 threads" for a run two workers did. Callers that
/// print or record a thread count should clamp through this first.
pub fn effective_threads(requested: usize) -> usize {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    requested.clamp(1, avail)
}

/// Run every job on at most `threads` workers, clamped through
/// [`effective_threads`], and return the results in job order.
pub fn run<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    run_on(effective_threads(threads), jobs)
}

/// Run every job on exactly `workers` workers (one per job when there
/// are fewer jobs) and return the results in job order.
///
/// With one worker or one job the jobs run serially on the calling
/// thread — the reference execution. Otherwise the scoped workers pull
/// jobs off a shared atomic cursor in list order (dynamic load
/// balancing: simulation cells can differ in cost by an order of
/// magnitude, so a caller that knows the costs lists the longest first)
/// and write each result into its job's slot; audit violations recorded
/// on a worker are folded into the caller's registry in worker order
/// once it has finished, and the first panicking worker's payload is
/// re-raised. The count is not clamped to the machine: the caller asked
/// for it, and thread-count invariance can be tested on one core.
pub fn run_on<T, F>(workers: usize, jobs: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    if workers <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let n = jobs.len();
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let audit_on = paraleon_audit::enabled();
    let audit_panic = paraleon_audit::panic_on_violation();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..workers.min(n))
            .map(|_| {
                s.spawn(|| {
                    paraleon_audit::set_enabled(audit_on);
                    paraleon_audit::set_panic_on_violation(audit_panic);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = jobs[i]
                            .lock()
                            .expect("job mutex poisoned")
                            .take()
                            .expect("job taken twice");
                        *slots[i].lock().expect("slot mutex poisoned") = Some(job());
                    }
                    paraleon_audit::drain()
                })
            })
            .collect();
        for w in workers {
            let (count, reports) = w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            paraleon_audit::absorb(count, reports);
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot mutex poisoned")
                .expect("job produced no result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    type Job<'a> = Box<dyn FnOnce() -> ThreadId + Send + 'a>;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<_> = (0..64u64)
            .map(|i| {
                move || {
                    // Stagger completion so later jobs often finish first.
                    std::thread::sleep(std::time::Duration::from_micros(64 - i));
                    i * i
                }
            })
            .collect();
        let got = run_on(8, jobs);
        let want: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = |threads| {
            let jobs: Vec<_> = (0..40u64)
                .map(|i| move || i.wrapping_mul(0xDEAD_BEEF))
                .collect();
            run_on(threads, jobs)
        };
        assert_eq!(mk(1), mk(4));
    }

    /// Distinct worker threads a run of `jobs` jobs was spread over; every
    /// job holds its worker at `gate` until `gate`'s count are held.
    fn workers_seen(
        jobs: usize,
        gate: usize,
        run: impl FnOnce(Vec<Job<'_>>) -> Vec<ThreadId>,
    ) -> usize {
        let gate = std::sync::Barrier::new(gate);
        let list: Vec<Job<'_>> = (0..jobs)
            .map(|_| -> Job<'_> {
                Box::new(|| {
                    gate.wait();
                    std::thread::current().id()
                })
            })
            .collect();
        run(list).into_iter().collect::<HashSet<_>>().len()
    }

    /// Fleet thread-count invariance is only tested if `threads: N` means
    /// N workers on a one-core CI box too: all `n` jobs meet at a barrier
    /// that opens only once `n` workers each hold one.
    #[test]
    fn run_on_spawns_the_count_it_is_given() {
        let n = effective_threads(usize::MAX) + 2;
        assert_eq!(workers_seen(n, n, |jobs| run_on(n, jobs)), n);
        // Fewer jobs than workers: one worker per job.
        assert_eq!(workers_seen(2, 2, |jobs| run_on(n, jobs)), 2);
    }

    #[test]
    fn run_clamps_to_the_machine() {
        let avail = effective_threads(usize::MAX);
        // Each job waits for `avail` workers: more would still finish,
        // fewer would hang, and the count proves no more were spawned.
        let seen = workers_seen(4 * avail, avail, |jobs| run(usize::MAX, jobs));
        assert_eq!(seen, avail);
    }

    #[test]
    fn a_panicking_job_re_raises_its_own_payload() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job 1 failed its own way")),
            Box::new(|| 3),
        ];
        let run = std::panic::AssertUnwindSafe(|| run_on(2, jobs));
        let payload = std::panic::catch_unwind(run).expect_err("job 1 panics");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"job 1 failed its own way")
        );
    }

    /// The audit registry is thread-local: without the fold a gate that
    /// reads `violation_count()` after the sweep is blind to its workers.
    #[cfg(feature = "audit")]
    #[test]
    fn worker_violations_fold_into_the_caller() {
        paraleon_audit::set_panic_on_violation(false);
        paraleon_audit::reset();
        let gate = std::sync::Barrier::new(2);
        let jobs: Vec<_> = [true, false]
            .into_iter()
            .map(|violate| {
                let gate = &gate;
                move || {
                    // Both workers hold a job before either proceeds, so
                    // the violation is reported off the calling thread.
                    gate.wait();
                    if violate {
                        paraleon_audit::report(paraleon_audit::AuditViolation::CrossShardResidue {
                            shard: 0,
                            pending: 1,
                        });
                    }
                }
            })
            .collect();
        run_on(2, jobs);
        assert_eq!(paraleon_audit::violation_count(), 1);
        assert_eq!(paraleon_audit::violations().len(), 1);
        paraleon_audit::reset();
    }

    #[test]
    fn effective_threads_clamps_to_machine() {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(effective_threads(0), 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(usize::MAX), avail);
        assert!(effective_threads(avail + 7) <= avail);
    }

    #[test]
    fn zero_and_single_job_edge_cases() {
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(run(4, empty).is_empty());
        assert_eq!(run(4, vec![|| 7u32]), vec![7]);
    }
}
