//! The sharded engine's epoch barrier and worker fan-out.
//!
//! The parties are the engine's *workers* — the threads it was asked for
//! — not its shards, of which each worker runs several per epoch
//! (`crate::par`). [`EpochBarrier`] is a central-counter,
//! generation-stamped (sense-reversing) barrier. Compared with
//! `std::sync::Barrier` it adds the two things the engine needs:
//!
//! * **Spin, then block.** An epoch is a few hundred microseconds of
//!   work per worker, and a futex sleep/wake round trip costs about as
//!   much on a virtualised host, so sleeping at every barrier doubles the
//!   run. When every party can own a core (`parties ≤
//!   available_parallelism()`), a waiter therefore polls the generation
//!   for up to [`SPIN_BUDGET`] before parking on the condvar; when the
//!   parties oversubscribe the machine a spinning waiter would only keep
//!   the straggler off the core, so waiters park at once. Nothing else
//!   selects the path.
//! * **Breakable.** A worker that unwinds (an audit violation panics at
//!   its detection site in debug builds) marks the barrier broken through
//!   [`run_workers`]' drop guard; every current and future waiter gets
//!   [`BarrierBroken`] instead of parking forever, and the fan-out
//!   re-raises the original panic.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a waiter polls before parking, on the spinning path. Chosen
/// well above the worker imbalance of a busy epoch (so a balanced run
/// never sleeps) and well below a scheduler timeslice (so a waiter that
/// lost its core to an unrelated process gives up quickly).
const SPIN_BUDGET: Duration = Duration::from_micros(500);

/// Polls between two looks at the clock.
const SPINS_PER_CLOCK_READ: u32 = 64;

/// A party panicked; the barrier will never release again.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct BarrierBroken;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reusable barrier for a fixed number of parties; see the module docs.
pub(crate) struct EpochBarrier {
    parties: usize,
    spin: bool,
    /// Parties that have arrived at the current generation.
    arrived: AtomicUsize,
    /// Completed generations. The last arriver's `Release` bump pairs
    /// with every waiter's `Acquire` load, and its `AcqRel` increment of
    /// `arrived` with every earlier arriver's, so all writes made before
    /// any party's `wait` are visible to every party after it.
    generation: AtomicUsize,
    broken: AtomicBool,
    /// Parks blocked waiters. Guards no data: `generation` and `broken`
    /// are only *written* under it so a parked waiter cannot miss the
    /// wake-up between its check and its `Condvar::wait`.
    lock: Mutex<()>,
    parked: Condvar,
}

impl EpochBarrier {
    /// A barrier for `parties` threads that spins before blocking iff
    /// the machine can run all of them at once.
    pub(crate) fn new(parties: usize) -> Self {
        Self::with_spin(parties, parties <= cores())
    }

    pub(crate) fn with_spin(parties: usize, spin: bool) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        Self {
            parties,
            spin,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            broken: AtomicBool::new(false),
            lock: Mutex::new(()),
            parked: Condvar::new(),
        }
    }

    /// The mutex guards `()`, which a panicking holder cannot leave
    /// half-updated, so poisoning carries no information here.
    fn guard(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a party has panicked.
    pub(crate) fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }

    /// Mark the barrier broken and release every waiter.
    fn break_all(&self) {
        let _g = self.guard();
        self.broken.store(true, Ordering::Release);
        self.parked.notify_all();
    }

    /// Block until all parties have called `wait` for this generation,
    /// or until the barrier breaks.
    pub(crate) fn wait(&self) -> Result<(), BarrierBroken> {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset the count for the next generation
            // (ordered before the release below), then open the gate.
            self.arrived.store(0, Ordering::Relaxed);
            let _g = self.guard();
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            self.parked.notify_all();
            return self.check();
        }
        let released = || self.generation.load(Ordering::Acquire) != gen || self.is_broken();
        if self.spin {
            let t0 = Instant::now();
            loop {
                for _ in 0..SPINS_PER_CLOCK_READ {
                    if released() {
                        return self.check();
                    }
                    std::hint::spin_loop();
                }
                if t0.elapsed() >= SPIN_BUDGET {
                    break;
                }
            }
        }
        let mut g = self.guard();
        while !released() {
            g = self.parked.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        self.check()
    }

    fn check(&self) -> Result<(), BarrierBroken> {
        if self.is_broken() {
            Err(BarrierBroken)
        } else {
            Ok(())
        }
    }
}

/// Breaks the barrier if the worker holding it unwinds.
struct BreakOnPanic<'a>(&'a EpochBarrier);

impl Drop for BreakOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.break_all();
        }
    }
}

/// Run `body(w)` for every worker `w` in `0..workers`, each on its own
/// scoped thread, and join them all. If a body panics, the barrier is
/// broken so its peers (which must return on [`BarrierBroken`]) cannot
/// hang, and the first panic in worker order is re-raised on the caller
/// with its original payload.
pub(crate) fn run_workers(
    workers: usize,
    barrier: &EpochBarrier,
    body: impl Fn(usize) -> Result<(), BarrierBroken> + Sync,
) {
    let body = &body;
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let _guard = BreakOnPanic(barrier);
                    // `Err` only ever means a peer panicked, and that
                    // panic is what the caller gets to see.
                    let _ = body(w);
                })
            })
            .collect();
        // Join every handle (a panicked thread left unjoined would make
        // the scope itself panic, with a payload that names nothing).
        handles.into_iter().fold(None, |first, h| {
            let panic = h.join().err();
            first.or(panic)
        })
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No thread may enter generation g+1 before all have arrived at g:
    /// every party stamps its slot with `g + 1`, waits, and must then
    /// find every slot at `g + 1` — or, for a peer that already ran
    /// ahead into the next generation, `g + 2`; it can get no further
    /// without this party. A slot still at `g` is a peer that had not
    /// arrived when this party was let through.
    fn lockstep(parties: usize, spin: bool, generations: usize) {
        let barrier = EpochBarrier::with_spin(parties, spin);
        let slots: Vec<AtomicUsize> = (0..parties).map(|_| AtomicUsize::new(0)).collect();
        run_workers(parties, &barrier, |me| {
            for g in 0..generations {
                slots[me].store(g + 1, Ordering::Relaxed);
                barrier.wait()?;
                for (other, slot) in slots.iter().enumerate() {
                    let seen = slot.load(Ordering::Relaxed);
                    assert!(
                        seen == g + 1 || (seen == g + 2 && other != me),
                        "party {me} passed generation {g} while party {other} was at {seen}"
                    );
                }
            }
            Ok(())
        });
        assert_eq!(barrier.generation.load(Ordering::Relaxed), generations);
    }

    #[test]
    fn blocking_path_keeps_lockstep() {
        for parties in [2, 4, 8] {
            lockstep(parties, false, 10_000);
        }
    }

    #[test]
    fn spinning_path_keeps_lockstep() {
        // Spinning with more parties than cores is the configuration
        // `new` exists to avoid (each generation then costs a spin budget
        // per straggler), so only the pair is run unconditionally.
        for parties in [2, 4, 8] {
            if parties <= cores().max(2) {
                lockstep(parties, true, 10_000);
            }
        }
    }

    #[test]
    fn path_is_chosen_from_parties_and_cores_only() {
        assert!(EpochBarrier::new(1).spin);
        assert!(EpochBarrier::new(cores()).spin);
        assert!(!EpochBarrier::new(cores() + 1).spin);
    }

    /// Without the broken flag workers 0 and 2 park at the barrier
    /// forever and the scope never joins.
    fn one_worker_panics(spin: bool) {
        let barrier = EpochBarrier::with_spin(3, spin);
        run_workers(3, &barrier, |me| {
            for epoch in 0..100 {
                if me == 1 && epoch == 7 {
                    panic!("worker 1 blew up");
                }
                barrier.wait()?;
            }
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "worker 1 blew up")]
    fn panicking_worker_releases_blocked_peers() {
        one_worker_panics(false);
    }

    #[test]
    #[should_panic(expected = "worker 1 blew up")]
    fn panicking_worker_releases_spinning_peers() {
        one_worker_panics(true);
    }

    #[test]
    fn broken_barrier_stays_broken() {
        let barrier = EpochBarrier::with_spin(2, false);
        barrier.break_all();
        assert!(barrier.is_broken());
        assert_eq!(barrier.wait(), Err(BarrierBroken));
    }
}
