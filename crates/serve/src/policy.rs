//! Admission policies: who gets the free batch slots each tick.
//!
//! Every scheduler tick tops the active batch up from the queue of
//! arrived requests. *Which* queued requests take the free slots is the
//! admission policy's decision, and it is where mixed-scheme throughput
//! is won or lost: ticks only fuse projection/FFN GEMM rows across
//! requests of the *same* scheme (each scheme is a different accelerator
//! configuration), so a batch that mixes schemes splits into small
//! per-scheme GEMMs and forfeits most of the continuous-batching
//! dividend. [`AdmissionPolicy::SchemeAffinity`] tops the batch up
//! preferring the schemes already active so linear GEMMs fuse wide,
//! while an aging bound keeps deprioritised requests from starving.

use bbal_core::SchemeSpec;
use std::collections::BTreeSet;

/// A queued request as the admission policy sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedEntry {
    /// The request's id (its index in the submitted trace).
    pub id: usize,
    /// The scheme it will be served under.
    pub scheme: SchemeSpec,
    /// How many times the request has been *passed over*: scheduler
    /// top-ups that either left a batch slot unfilled or admitted a
    /// request queued behind this one, while this one stayed queued.
    /// (Merely waiting for a full batch does not count.)
    pub passed_over: u64,
    /// Worst-case KV cost of the pages the request's prefill will
    /// *newly* occupy, in the arena budget's unit (pages, or bytes of
    /// page charges — pages are scheme-sized once packed storage is
    /// on): its whole feed sequence, paged, minus any prefix-cache pages
    /// it would adopt that another request already holds (shared pages
    /// are pinned either way, so they are charged once across the
    /// batch). Admission only takes a request whose worst case fits in
    /// what the arena has free.
    pub cost: u64,
}

/// How the scheduler picks queued requests for free batch slots.
///
/// ```
/// use bbal_serve::{AdmissionPolicy, QueuedEntry};
/// use bbal_core::SchemeSpec;
/// use std::collections::BTreeSet;
///
/// let queued = [
///     QueuedEntry { id: 0, scheme: SchemeSpec::Bfp(4), passed_over: 0, cost: 2 },
///     QueuedEntry { id: 1, scheme: SchemeSpec::BBAL_PAPER, passed_over: 0, cost: 2 },
///     QueuedEntry { id: 2, scheme: SchemeSpec::Bfp(4), passed_over: 0, cost: 2 },
/// ];
/// let active: BTreeSet<_> = [SchemeSpec::Bfp(4)].into();
///
/// // FCFS fills slots in queue order regardless of scheme...
/// assert_eq!(AdmissionPolicy::Fcfs.admit(&queued, &active, 2, u64::MAX), vec![0, 1]);
/// // ...affinity picks the requests that will fuse with the active batch.
/// let affinity = AdmissionPolicy::SchemeAffinity { max_wait_ticks: 8 };
/// assert_eq!(affinity.admit(&queued, &active, 2, u64::MAX), vec![0, 2]);
/// // Either way, a request only gets a slot if its worst-case prefill
/// // fits in what the arena has free.
/// assert_eq!(AdmissionPolicy::Fcfs.admit(&queued, &active, 2, 3), vec![0]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionPolicy {
    /// First-come, first-served: free slots go to the longest-queued
    /// requests, schemes ignored. This is the scheduler's original
    /// behaviour — reports under `Fcfs` are bit-identical to reports
    /// from before the policy existed.
    #[default]
    Fcfs,
    /// Top the batch up preferring the scheme(s) already active, so the
    /// admitted requests' linear GEMM rows fuse with the running batch.
    /// A non-matching request is left queued — slots are *held open* for
    /// fusable work — until it has been passed over `max_wait_ticks`
    /// times, after which it is admitted with strict priority (FCFS
    /// among overdue requests) before any scheme-preferred peer.
    SchemeAffinity {
        /// Aging bound: how many times a queued request may be passed
        /// over (a top-up that held a slot open or gave one to a
        /// later-queued request) before it takes absolute priority.
        /// Must be ≥ 1; small values approach FCFS latency, large
        /// values approach pure per-scheme phases.
        max_wait_ticks: u64,
    },
}

impl AdmissionPolicy {
    /// Picks up to `slots` requests from `queued` (given in FCFS queue
    /// order) to admit this tick, returning their ids in admission
    /// order. `active_schemes` are the schemes of the requests already
    /// holding batch slots; `free` is how much of its KV budget the
    /// arena can still hand out (`u64::MAX` for an unbounded arena) —
    /// every admission deducts the entry's worst-case prefill
    /// [`cost`](QueuedEntry::cost) from it, and a request that does not
    /// fit is never admitted.
    ///
    /// `Fcfs` admits a queue prefix: it stops at the first entry that
    /// does not fit (head-of-line blocking preserves FCFS order, and
    /// the blocked request is guaranteed memory as soon as it frees).
    /// `SchemeAffinity` admits overdue entries
    /// (`passed_over >= max_wait_ticks`) first in queue order, then
    /// entries whose scheme is already active — in the running batch or
    /// among this call's admissions; when nothing is active it seeds
    /// from the front of the queue — and leaves non-matching entries
    /// queued even if slots remain. A non-fitting *overdue* entry stops
    /// all further admission (the memory is held open for it); a
    /// non-fitting preferred entry is merely skipped.
    pub fn admit(
        &self,
        queued: &[QueuedEntry],
        active_schemes: &BTreeSet<SchemeSpec>,
        slots: usize,
        mut free: u64,
    ) -> Vec<usize> {
        match *self {
            AdmissionPolicy::Fcfs => {
                let mut admitted: Vec<usize> = Vec::new();
                for e in queued.iter().take(slots) {
                    if e.cost > free {
                        break;
                    }
                    free -= e.cost;
                    admitted.push(e.id);
                }
                admitted
            }
            AdmissionPolicy::SchemeAffinity { max_wait_ticks } => {
                let mut admitted: Vec<usize> = Vec::new();
                let mut preferred = active_schemes.clone();
                // Overdue requests first, FCFS among themselves: this is
                // the starvation bound. Their schemes join the preferred
                // set so same-scheme peers can ride along. An overdue
                // request that does not fit in memory blocks everything
                // behind it — the free pages are reserved for it, or it
                // would starve on memory the way aging prevents it
                // starving on slots.
                for e in queued {
                    if admitted.len() == slots {
                        return admitted;
                    }
                    if e.passed_over >= max_wait_ticks {
                        if e.cost > free {
                            return admitted;
                        }
                        free -= e.cost;
                        admitted.push(e.id);
                        preferred.insert(e.scheme);
                    }
                }
                // An empty machine has nothing to fuse with: seed from
                // the front of the queue rather than idling. (An empty
                // preferred set implies no overdue admissions either —
                // they would have inserted their schemes.)
                if preferred.is_empty() {
                    if let Some(front) = queued.first() {
                        preferred.insert(front.scheme);
                    }
                }
                for e in queued {
                    if admitted.len() == slots {
                        break;
                    }
                    if preferred.contains(&e.scheme) && !admitted.contains(&e.id) && e.cost <= free
                    {
                        free -= e.cost;
                        admitted.push(e.id);
                    }
                }
                admitted
            }
        }
    }

    /// The name the `serve_sweep` experiment tables use.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Fcfs => "fcfs",
            AdmissionPolicy::SchemeAffinity { .. } => "affinity",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: usize, scheme: SchemeSpec, passed_over: u64) -> QueuedEntry {
        sized(id, scheme, passed_over, 1)
    }

    fn sized(id: usize, scheme: SchemeSpec, passed_over: u64, cost: u64) -> QueuedEntry {
        QueuedEntry {
            id,
            scheme,
            passed_over,
            cost,
        }
    }

    const A: SchemeSpec = SchemeSpec::BBAL_PAPER;
    const B: SchemeSpec = SchemeSpec::Bfp(4);
    const C: SchemeSpec = SchemeSpec::Oltron;
    const UNBOUNDED: u64 = u64::MAX;

    #[test]
    fn fcfs_takes_the_front_of_the_queue() {
        let q = [entry(3, A, 0), entry(5, B, 9), entry(7, C, 0)];
        let active = BTreeSet::new();
        assert_eq!(
            AdmissionPolicy::Fcfs.admit(&q, &active, 2, UNBOUNDED),
            vec![3, 5]
        );
        assert_eq!(
            AdmissionPolicy::Fcfs.admit(&q, &active, 9, UNBOUNDED),
            vec![3, 5, 7]
        );
    }

    #[test]
    fn fcfs_blocks_at_the_first_request_that_does_not_fit() {
        // Memory gating preserves FCFS order: the big request at the
        // head of the line is not jumped by the small one behind it.
        let q = [sized(0, A, 0, 2), sized(1, A, 0, 8), sized(2, A, 0, 1)];
        let active = BTreeSet::new();
        assert_eq!(AdmissionPolicy::Fcfs.admit(&q, &active, 3, 4), vec![0]);
        assert_eq!(
            AdmissionPolicy::Fcfs.admit(&q, &active, 3, 11),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn byte_budget_gates_admission_independently_of_pages() {
        // Two one-page requests with very different byte charges (a
        // packed page vs an f32 page, say): under a byte budget their
        // costs are those charges, and 1000 free bytes fit only the
        // first.
        let q = [sized(0, A, 0, 900), sized(1, A, 0, 200)];
        let active = BTreeSet::new();
        assert_eq!(AdmissionPolicy::Fcfs.admit(&q, &active, 2, 1000), vec![0]);
        // Affinity skips the non-fitting preferred entry but still
        // admits the later peer that fits in the remaining bytes.
        let p = AdmissionPolicy::SchemeAffinity { max_wait_ticks: 9 };
        let active: BTreeSet<_> = [A].into();
        assert_eq!(p.admit(&q, &active, 2, 500), vec![1]);
    }

    #[test]
    fn affinity_prefers_active_schemes_and_holds_others_back() {
        let p = AdmissionPolicy::SchemeAffinity { max_wait_ticks: 4 };
        let q = [entry(0, B, 0), entry(1, A, 0), entry(2, B, 0)];
        let active: BTreeSet<_> = [A].into();
        // Only the A request fuses; the B requests stay queued even
        // though a slot remains.
        assert_eq!(p.admit(&q, &active, 3, UNBOUNDED), vec![1]);
    }

    #[test]
    fn affinity_skips_non_fitting_peers_but_reserves_for_overdue() {
        let p = AdmissionPolicy::SchemeAffinity { max_wait_ticks: 4 };
        let active: BTreeSet<_> = [A].into();
        // A preferred entry that does not fit is skipped; a later
        // fitting peer still gets the slot.
        let q = [sized(0, A, 0, 9), sized(1, A, 0, 2)];
        assert_eq!(p.admit(&q, &active, 2, 4), vec![1]);
        // A non-fitting *overdue* entry stops admission entirely: the
        // free pages are held for it.
        let q = [sized(0, B, 4, 9), sized(1, A, 0, 2)];
        assert!(p.admit(&q, &active, 2, 4).is_empty());
    }

    #[test]
    fn affinity_seeds_from_the_front_when_nothing_is_active() {
        let p = AdmissionPolicy::SchemeAffinity { max_wait_ticks: 4 };
        let q = [entry(0, B, 0), entry(1, A, 0), entry(2, B, 0)];
        let active = BTreeSet::new();
        // Front scheme B becomes the seed, and both B's are taken.
        assert_eq!(p.admit(&q, &active, 2, UNBOUNDED), vec![0, 2]);
    }

    #[test]
    fn overdue_requests_preempt_scheme_preference() {
        let p = AdmissionPolicy::SchemeAffinity { max_wait_ticks: 3 };
        let q = [entry(0, A, 0), entry(1, B, 3), entry(2, A, 0)];
        let active: BTreeSet<_> = [A].into();
        // The overdue B jumps the A's; its scheme then counts as active,
        // and the remaining slot goes FCFS among preferred schemes.
        assert_eq!(p.admit(&q, &active, 2, UNBOUNDED), vec![1, 0]);
        let q2 = [entry(0, B, 0), entry(1, B, 3), entry(2, A, 0)];
        assert_eq!(p.admit(&q2, &active, 2, UNBOUNDED), vec![1, 0]);
    }

    #[test]
    fn admit_never_exceeds_the_slots() {
        let p = AdmissionPolicy::SchemeAffinity { max_wait_ticks: 1 };
        let q: Vec<QueuedEntry> = (0..10).map(|i| entry(i, A, 5)).collect();
        assert_eq!(p.admit(&q, &BTreeSet::new(), 3, UNBOUNDED), vec![0, 1, 2]);
        assert!(p.admit(&q, &BTreeSet::new(), 0, UNBOUNDED).is_empty());
    }
}
