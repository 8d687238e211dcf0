//! The reference-run provider: where the sweep engine gets the reference
//! full execution of unit `u`.
//!
//! Reference runs use fresh measurement stores and touch no sweep state,
//! so they are the one part of a sweep that can leave the calling thread.
//! This module holds the crate's only branch on the worker count:
//!
//! * `workers <= 1` — the reference runs inline on the calling thread,
//!   directly before the unit's chain runs; no thread is spawned.
//! * `workers > 1` — scoped worker threads prefetch the references of every
//!   pending unit in order, and the engine collects unit `u`'s outcome when
//!   it commits that unit, so the chain's offline and selective runs of
//!   unit `u` overlap the reference runs of units `>= u`.
//!
//! Either way the engine sees the same outcome for the same unit: a
//! reference run is a pure function of its unit (noise and fault streams
//! are keyed by run identity), and the `Fault`/`Retry` events its attempts
//! logged travel with it to be spliced in at the unit that owns them.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use critter_obs::{Event, RankTrace};
use parking_lot::{Condvar, Mutex};

use crate::records::RunRecord;

/// One simulated run's record plus, when observed, its per-rank traces.
pub(crate) type ObservedRun = (RunRecord, Option<Vec<RankTrace>>);

/// The outcome of one unit's reference run under the fault-retry protocol.
pub(crate) struct RefOutcome {
    /// The completed run, or `None` once the retry budget was spent.
    pub run: Option<ObservedRun>,
    /// The `Fault`/`Retry` events the attempts logged, in attempt order.
    pub events: Vec<Event>,
}

/// A hand-over slot: the worker's outcome (or the panic that killed the
/// run), and the signal that it arrived.
type Slot = (Mutex<Option<std::thread::Result<RefOutcome>>>, Condvar);

/// Shared state of the prefetching workers.
struct Prefetch {
    units: Range<usize>,
    slots: Vec<Slot>,
    /// The next unit to dispatch.
    next: AtomicUsize,
    /// Units below this will never be collected, so workers skip them:
    /// raised past a quarantined configuration's remaining repetitions, and
    /// to `usize::MAX` when the engine leaves.
    floor: AtomicUsize,
}

impl Prefetch {
    /// Worker loop: claim the next pending unit, run its reference, hand
    /// the outcome over. A panicking run is caught and handed over too, so
    /// a slot whose unit was dispatched is always filled.
    fn work(&self, compute: &(dyn Fn(usize) -> RefOutcome + Sync)) {
        loop {
            let u = self.next.fetch_add(1, Ordering::SeqCst);
            if u >= self.units.end {
                break;
            }
            if u < self.floor.load(Ordering::SeqCst) {
                continue;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| compute(u)));
            let (slot, arrived) = &self.slots[u - self.units.start];
            *slot.lock() = Some(outcome);
            arrived.notify_one();
        }
    }

    /// Block until unit `u`'s outcome arrives; a run that panicked on its
    /// worker re-raises here, on the thread that owns the unit.
    fn collect(&self, u: usize) -> RefOutcome {
        let (slot, arrived) = &self.slots[u - self.units.start];
        let mut guard = slot.lock();
        let outcome = loop {
            match guard.take() {
                Some(outcome) => break outcome,
                None => arrived.wait(&mut guard),
            }
        };
        outcome.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

/// Stops dispatch however the engine leaves — return, error or unwind — so
/// the scope joins only the runs already in flight.
struct StopDispatch<'a>(&'a Prefetch);

impl Drop for StopDispatch<'_> {
    fn drop(&mut self) {
        self.0.floor.store(usize::MAX, Ordering::SeqCst);
    }
}

/// The engine's handle on the provider.
pub(crate) struct References<'a> {
    compute: &'a (dyn Fn(usize) -> RefOutcome + Sync),
    prefetch: Option<&'a Prefetch>,
}

impl References<'_> {
    /// Run unit `u`: its reference execution and its `chain` (the runs that
    /// thread the tuning stores). Inline, the reference runs first and a
    /// spent retry budget skips the chain (`None`); prefetching, the chain
    /// runs while the workers compute, then the reference is collected.
    pub fn unit<C>(&self, u: usize, chain: impl FnOnce() -> C) -> (RefOutcome, Option<C>) {
        match self.prefetch {
            None => {
                let reference = (self.compute)(u);
                let chain = reference.run.is_some().then(chain);
                (reference, chain)
            }
            Some(prefetch) => {
                let chain = chain();
                (prefetch.collect(u), Some(chain))
            }
        }
    }

    /// The engine will not collect any unit below `u` (a quarantine
    /// abandoned them): stop dispatching their references.
    pub fn skip_to(&self, u: usize) {
        if let Some(prefetch) = self.prefetch {
            prefetch.floor.fetch_max(u, Ordering::SeqCst);
        }
    }
}

/// Run `engine` with a provider for the pending `units`, where `compute(u)`
/// is unit `u`'s reference run. In-flight workers are joined before this
/// returns or unwinds.
pub(crate) fn provide<R>(
    workers: usize,
    units: Range<usize>,
    compute: impl Fn(usize) -> RefOutcome + Sync,
    engine: impl FnOnce(&References<'_>) -> R,
) -> R {
    let pending = units.len();
    if workers <= 1 || pending == 0 {
        return engine(&References { compute: &compute, prefetch: None });
    }
    let prefetch = Prefetch {
        slots: units.clone().map(|_| Default::default()).collect(),
        next: AtomicUsize::new(units.start),
        floor: AtomicUsize::new(units.start),
        units,
    };
    // More workers than half the references only contend with the chain.
    let n_workers = workers.min(pending).min(1 + pending / 2);
    std::thread::scope(|s| {
        for _ in 0..n_workers {
            s.spawn(|| prefetch.work(&compute));
        }
        let _stop = StopDispatch(&prefetch);
        engine(&References { compute: &compute, prefetch: Some(&prefetch) })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reference whose `elapsed` names its unit; unit 2 spends its retry
    /// budget and unit 5 panics.
    fn compute(u: usize) -> RefOutcome {
        assert!(u != 5, "reference {u} died");
        let run = (u != 2).then(|| (RunRecord { elapsed: u as f64, ..Default::default() }, None));
        RefOutcome { run, events: Vec::new() }
    }

    #[test]
    fn both_providers_hand_over_the_same_outcomes_in_unit_order() {
        for workers in [1, 4] {
            let seen = provide(workers, 1..5, compute, |refs| {
                (1..5)
                    .map(|u| {
                        let (reference, chain) = refs.unit(u, || u * 10);
                        (reference.run.map(|(rec, _)| rec.elapsed), chain)
                    })
                    .collect::<Vec<_>>()
            });
            // Inline, a failed reference skips its chain; prefetching, the
            // chain already ran and the engine discards it.
            let failed_chain = if workers == 1 { None } else { Some(20) };
            assert_eq!(
                seen,
                vec![
                    (Some(1.0), Some(10)),
                    (None, failed_chain),
                    (Some(3.0), Some(30)),
                    (Some(4.0), Some(40))
                ],
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn a_reference_that_dies_on_a_worker_re_raises_at_its_unit_without_hanging() {
        for workers in [1, 4] {
            let reached = AtomicUsize::new(0);
            let died = catch_unwind(AssertUnwindSafe(|| {
                provide(workers, 3..8, compute, |refs| {
                    for u in 3..8 {
                        reached.store(u, Ordering::SeqCst);
                        refs.unit(u, || ());
                    }
                })
            }));
            let payload = died.expect_err("unit 5's panic must surface");
            let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("reference 5 died"), "workers = {workers}: got {msg:?}");
            assert_eq!(reached.load(Ordering::SeqCst), 5, "workers = {workers}");
        }
    }

    #[test]
    fn skipped_and_abandoned_units_do_not_block_the_engine() {
        // Unit 5 would panic, but the engine skips past it (quarantine) and
        // leaves before collecting 7: neither may hang or surface.
        let last = provide(4, 3..8, compute, |refs| {
            refs.skip_to(6);
            refs.unit(6, || ()).0.run.map(|(rec, _)| rec.elapsed)
        });
        assert_eq!(last, Some(6.0));
    }
}
