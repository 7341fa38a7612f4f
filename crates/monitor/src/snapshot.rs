//! Epoch-consistent counter snapshots and the RCU publish hub.
//!
//! The paper's QUERY runs against a Definition-2-consistent global state;
//! until now that state only existed *after* a run, in the final
//! [`crate::cluster::ClusterReport`]. This module lets the coordinator
//! publish the same state *during* a run, at exactly the moments it is
//! consistent — the epoch settlements of DESIGN.md §5 and the final flush
//! quiescence of §3.2 — so reader threads can serve classify/posterior
//! traffic concurrently with ingest (DESIGN.md §7).
//!
//! A [`CounterSnapshot`] is pure counter-layer data (no Bayesian-network
//! semantics): per-counter open-epoch estimates, the cumulative settled
//! counts of every closed epoch, and the retained closed-epoch ring. The
//! CPT/query semantics live in `dsbn-core`, which resolves a
//! `CounterSnapshot` into query-ready conditional-probability reads.
//!
//! The [`SnapshotHub`] is the single-writer/many-reader handoff: the
//! coordinator thread (the only minter) `publish`es, and any
//! number of reader threads `load` the current snapshot through the
//! vendored `arc-swap` RCU cell — no lock, no message, no coordination
//! with ingest on the read path.

use crate::cluster::ClusterReport;
use arc_swap::ArcSwap;
use std::sync::Arc;

/// A frozen, counter-layer view of the coordinator's tracked state,
/// minted at a settlement (epoch close or final quiescence).
///
/// Per-counter reads decompose by epoch, mirroring how the coordinator
/// itself holds them:
///
/// - [`open`](Self::open) — the live estimate of the *open* epoch (a
///   Lemma 4 estimate for the randomized schemes, exact for the exact
///   scheme); with rolling disabled this is the whole stream.
/// - [`settled`](Self::settled) — the summed exact settlements of every
///   closed epoch (each roll's terminal sync is exact, DESIGN.md §5), so
///   a *cumulative* read is `settled[c] + open[c]` regardless of how many
///   epochs the retention ring has dropped.
/// - [`closed`](Self::closed) — the retained ring of per-epoch settled
///   counts, oldest first, for `lambda^age`-weighted decayed reads.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Publish sequence number, strictly increasing per hub; `0` is the
    /// empty pre-publish snapshot a fresh hub holds.
    pub seq: u64,
    /// Events represented: exact for the final snapshot; for mid-stream
    /// mints, the settled lower bound `epochs * boundary` (the open
    /// epoch's in-flight events are not yet countable anywhere).
    pub events: u64,
    /// Closed epochs at mint time.
    pub epochs: u64,
    /// Minted at the final flush quiescence (the run's terminal state)
    /// rather than a mid-stream epoch settlement.
    pub finalized: bool,
    /// Open-epoch coordinator estimates, one per counter.
    pub open: Vec<f64>,
    /// Cumulative exact settled counts across *all* closed epochs (not
    /// just the retained ring), one per counter. All zeros while no epoch
    /// has closed.
    pub settled: Vec<f64>,
    /// Retained closed-epoch settled counts, oldest first (the epoch
    /// ring; at most `ClusterConfig::epoch_ring` entries).
    pub closed: Vec<Vec<f64>>,
    /// Exact per-counter totals over the whole stream — the test oracle.
    /// Only the final snapshot can carry it: the oracle is reconstructed
    /// from site states at shutdown and is not coordinator-visible
    /// mid-stream.
    pub exact: Option<Vec<u64>>,
}

impl CounterSnapshot {
    /// The empty pre-publish snapshot (`seq == 0`): what a hub holds
    /// before the coordinator has minted anything.
    pub fn empty() -> Self {
        CounterSnapshot {
            seq: 0,
            events: 0,
            epochs: 0,
            finalized: false,
            open: Vec::new(),
            settled: Vec::new(),
            closed: Vec::new(),
            exact: None,
        }
    }

    /// The cumulative read of counter `c`: exact settled mass of every
    /// closed epoch plus the open-epoch estimate. With no closed epochs
    /// this is the open estimate itself, bit-for-bit.
    pub fn cumulative(&self, c: usize) -> f64 {
        if self.epochs == 0 {
            self.open[c]
        } else {
            self.settled[c] + self.open[c]
        }
    }
}

/// The single-writer / many-reader snapshot handoff: the coordinator
/// publishes [`CounterSnapshot`]s, reader threads load the current one
/// through an RCU cell. Cloning the hub clones the *handle* — all clones
/// see the same publishes — so one end plugs into
/// [`crate::cluster::ClusterConfig::with_publish`] and the others fan out
/// to reader threads.
#[derive(Clone)]
pub struct SnapshotHub {
    cell: Arc<ArcSwap<CounterSnapshot>>,
}

impl SnapshotHub {
    /// A fresh hub holding the empty `seq == 0` snapshot.
    pub fn new() -> Self {
        SnapshotHub { cell: Arc::new(ArcSwap::from_pointee(CounterSnapshot::empty())) }
    }

    /// The current snapshot (lock-free RCU load; the reader hot path).
    pub fn load(&self) -> Arc<CounterSnapshot> {
        self.cell.load_full()
    }

    /// Sequence number of the current snapshot (`0` = nothing published).
    pub fn seq(&self) -> u64 {
        self.load().seq
    }

    /// Publish a snapshot. Single writer by construction (the coordinator
    /// thread during a run, the driver at the end); readers
    /// observe publishes in order.
    pub(crate) fn publish(&self, snap: CounterSnapshot) {
        self.cell.store(Arc::new(snap));
    }

    /// Publish the *final* snapshot from a finished run's report: the
    /// terminal state of the flush quiescence handshake, with the exact
    /// oracle attached. Called by `run_cluster_on` after the coordinator
    /// joins, so it never races a mid-stream mint.
    ///
    /// `settled` is reconstructed as `exact_totals - open_epoch_exact`:
    /// every closed epoch settles exactly (the roll's terminal sync ships
    /// each site's exact per-epoch counts), so the coordinator's settled
    /// accumulator and the oracle's closed-epoch mass are the same number.
    pub(crate) fn publish_final(&self, report: &ClusterReport) {
        let settled: Vec<f64> = report
            .exact_totals
            .iter()
            .zip(&report.open_epoch_exact_totals)
            .map(|(&t, &o)| (t - o) as f64)
            .collect();
        self.publish(CounterSnapshot {
            seq: self.seq() + 1,
            events: report.events,
            epochs: report.epochs,
            finalized: true,
            open: report.estimates.clone(),
            settled,
            closed: report.epoch_estimates.clone(),
            exact: Some(report.exact_totals.clone()),
        });
    }
}

impl Default for SnapshotHub {
    fn default() -> Self {
        SnapshotHub::new()
    }
}

impl std::fmt::Debug for SnapshotHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.load();
        f.debug_struct("SnapshotHub")
            .field("seq", &s.seq)
            .field("epochs", &s.epochs)
            .field("finalized", &s.finalized)
            .field("n_counters", &s.open.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_hub_holds_the_empty_snapshot() {
        let hub = SnapshotHub::new();
        let s = hub.load();
        assert_eq!(s.seq, 0);
        assert!(!s.finalized);
        assert!(s.open.is_empty());
        assert_eq!(hub.seq(), 0);
    }

    #[test]
    fn publishes_are_seen_by_all_handles_in_order() {
        let hub = SnapshotHub::new();
        let reader = hub.clone();
        for seq in 1..=5u64 {
            let mut s = CounterSnapshot::empty();
            s.seq = seq;
            s.open = vec![seq as f64; 3];
            hub.publish(s);
            assert_eq!(reader.seq(), seq);
            assert_eq!(reader.load().open, vec![seq as f64; 3]);
        }
    }

    #[test]
    fn cumulative_read_is_open_plus_settled() {
        let mut s = CounterSnapshot::empty();
        s.open = vec![2.5, 0.0];
        s.settled = vec![10.0, 4.0];
        // No closed epoch: the open estimate verbatim (bit-for-bit).
        assert_eq!(s.cumulative(0).to_bits(), 2.5f64.to_bits());
        s.epochs = 2;
        assert_eq!(s.cumulative(0), 12.5);
        assert_eq!(s.cumulative(1), 4.0);
    }
}
