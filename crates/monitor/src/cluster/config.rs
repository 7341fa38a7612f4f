//! Cluster configuration, fault schedules, and run reports.

use crate::metrics::MessageStats;
use crate::partition::Partitioner;
use crate::snapshot::SnapshotHub;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One injected site fault (fail-stop model, DESIGN.md §8): the stream
/// driver kills `site` once it has streamed `kill_at` events and — when
/// `revive_at` is set — revives it with *fresh* protocol state once it has
/// streamed `revive_at` events. A crash wipes all of the site's unsettled
/// local counts (epoch settlements are the durable checkpoints bounding
/// the loss); arrivals routed to the site while it is down are lost and
/// accounted in [`ChurnReport`]. Kill points are driver-side event counts
/// and land *exactly*: the kill order rides the driver→site event link
/// in-band (FIFO with the arrivals), so the site crashes after ingesting
/// precisely the events routed to it before `kill_at` — every scheduled
/// kill fires, on every interleaving. Revives detour through the
/// coordinator (the catch-up payload needs its round cache) and land
/// asynchronously, like every other cluster boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteFault {
    /// Which site to kill.
    pub site: usize,
    /// Kill after the driver has streamed this many events.
    pub kill_at: u64,
    /// Revive after the driver has streamed this many events (must be
    /// `> kill_at`); `None` keeps the site down for the rest of the run.
    pub revive_at: Option<u64>,
}

impl SiteFault {
    /// A seeded churn schedule: up to `faults` kill/revive faults over an
    /// `events`-long stream, each targeting a *distinct* site (so at least
    /// one site always survives), with kills spread over the middle half
    /// of the stream, revives following after roughly an eighth to a
    /// quarter of it, and about one kill in four left permanent.
    pub fn schedule(k: usize, events: u64, faults: usize, seed: u64) -> Vec<SiteFault> {
        assert!(k > 1, "a churn schedule needs at least two sites");
        assert!(events >= 8, "a churn schedule needs at least eight events");
        let n = faults.min(k - 1);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x00c4_a54f);
        let mut sites: Vec<usize> = (0..k).collect();
        // Partial Fisher-Yates: the first n entries are distinct targets.
        for i in 0..n {
            let j = rng.gen_range(i..k);
            sites.swap(i, j);
        }
        (0..n)
            .map(|i| {
                let kill_at = rng.gen_range(events / 4..events / 2);
                let revive_at = if rng.gen_range(0..4u32) == 0 {
                    None
                } else {
                    Some(kill_at + rng.gen_range(events / 8..events / 4))
                };
                SiteFault { site: sites[i], kill_at, revive_at }
            })
            .collect()
    }
}

/// Churn section of a [`ClusterReport`]: what the injected faults cost.
/// The load-bearing reconciliation identity — pinned by the churn suite —
/// is that for every counter `c`, `exact_totals[c] + lost_counts[c]`
/// equals the full-stream count bit-for-bit, for any protocol.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnReport {
    /// Site crashes confirmed by the coordinator (`Crashed` markers).
    pub kills: u64,
    /// Rejoins the coordinator performed (`Revive` handshakes sent).
    pub revives: u64,
    /// Events discarded on arrival at a dead (or crashing) site without
    /// ever being ingested. Counts ingested-then-wiped by crashes are in
    /// `lost_counts` only.
    pub events_lost: u64,
    /// Per-counter increments lost to churn: counts wiped by a crash
    /// (unsettled local state) plus counts of events discarded while dead.
    pub lost_counts: Vec<u64>,
    /// Per-site cumulative downtime (crash to revive, or to shutdown for
    /// sites that never rejoined), measured at the site.
    pub site_downtime: Vec<Duration>,
    /// Crashes whose final in-flight packet was torn mid-flush (a nonempty
    /// truncated prefix reached the coordinator and was discarded).
    pub partial_final_packets: u64,
    /// Bytes of those torn prefixes, attributed to the dead site and
    /// discarded whole — applying a prefix would double-count against the
    /// site's wiped (and loss-accounted) local state.
    pub partial_bytes_discarded: u64,
}

impl ChurnReport {
    /// Total fault-injection actions the run carried out.
    pub fn faults_injected(&self) -> u64 {
        self.kills + self.revives
    }
}

/// Cluster runtime configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of sites (coordinator excluded), `k`.
    pub k: usize,
    /// Capacity of the event and up-packet channels (backpressure). Event
    /// channels carry chunks, so the in-flight event bound is
    /// `channel_capacity * chunk`.
    pub channel_capacity: usize,
    /// Base RNG seed (per-site RNGs derive from it).
    pub seed: u64,
    /// How events are routed to sites.
    pub partitioner: Partitioner,
    /// Events per driver → site chunk (cross-event ingest batching). `1` —
    /// the default — is the per-event pipeline as a degenerate case: every
    /// event travels as its own chunk and flushes its own packet.
    pub chunk: usize,
    /// Flush a site's accumulated update packet once it reaches this many
    /// bytes, even mid-chunk (bounds buffering; the packet also always
    /// flushes at a chunk boundary and before any control frame).
    pub flush_bytes: usize,
    /// Epoch-ring decay (DESIGN.md §5): close an epoch after every this
    /// many streamed events. `None` — the default, and the paper's setting
    /// — runs the whole stream as one open epoch; every pre-epoch code
    /// path is exactly this degenerate case.
    pub epoch_boundary: Option<u64>,
    /// Closed epochs retained at the coordinator (ring capacity `K`).
    /// Ignored unless `epoch_boundary` is set.
    pub epoch_ring: usize,
    /// Snapshot publish hub (DESIGN.md §7). When set, the coordinator
    /// mints a [`CounterSnapshot`] at every epoch settlement (so enable
    /// epoch rolling to get mid-stream snapshots) and the driver publishes
    /// the final quiescent state — with the exact oracle attached — after
    /// the run. `None` — the default — publishes nothing.
    ///
    /// [`CounterSnapshot`]: crate::snapshot::CounterSnapshot
    pub publish: Option<SnapshotHub>,
    /// Injected site faults (DESIGN.md §8), fired by the stream driver at
    /// their event thresholds. Empty — the default — injects nothing, and
    /// every fault path is exactly dead code.
    pub faults: Vec<SiteFault>,
}

impl ClusterConfig {
    /// Paper defaults: uniform random routing, per-event chunks, no epoch
    /// rolling.
    pub fn new(k: usize, seed: u64) -> Self {
        ClusterConfig {
            k,
            channel_capacity: 4096,
            seed,
            partitioner: Partitioner::UniformRandom,
            chunk: 1,
            flush_bytes: 64 * 1024,
            epoch_boundary: None,
            epoch_ring: 8,
            publish: None,
            faults: Vec::new(),
        }
    }

    /// Batch `chunk` events per driver → site send (and per site packet
    /// flush).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk >= 1, "chunk must be >= 1");
        self.chunk = chunk;
        self
    }

    /// Enable epoch rolling every `boundary` events with a `ring`-deep
    /// closed-epoch ring.
    pub fn with_epochs(mut self, boundary: u64, ring: usize) -> Self {
        assert!(boundary >= 1, "epoch boundary must be >= 1");
        assert!(ring >= 1, "epoch ring must be >= 1");
        self.epoch_boundary = Some(boundary);
        self.epoch_ring = ring;
        self
    }

    /// Publish counter snapshots to `hub`: one per epoch settlement plus
    /// the final quiescent state (see [`SnapshotHub`]).
    pub fn with_publish(mut self, hub: SnapshotHub) -> Self {
        self.publish = Some(hub);
        self
    }

    /// Inject the given site faults (e.g. from [`SiteFault::schedule`]).
    pub fn with_faults(mut self, faults: Vec<SiteFault>) -> Self {
        self.faults = faults;
        self
    }
}

/// Result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Message statistics (paper accounting + packets + wire bytes).
    pub stats: MessageStats,
    /// Wall-clock time from the first to the last update packet processed
    /// by the coordinator (the paper's runtime metric, Fig. 7).
    pub coordinator_busy: Duration,
    /// Wall-clock time of the whole run, including thread setup/teardown.
    pub wall_time: Duration,
    /// Number of events streamed.
    pub events: u64,
    /// Flush epochs the quiescence handshake needed (≥ 1; more than one
    /// means a broadcast cascade was still settling at end-of-stream).
    pub flush_epochs: u64,
    /// Final coordinator estimates, one per counter. With epoch rolling
    /// these cover only the *open* (last, partial) epoch.
    pub estimates: Vec<f64>,
    /// Exact per-counter totals of the *surviving* counts, reconstructed
    /// from site states at shutdown (an oracle for accuracy metrics; not
    /// visible to a real coordinator). Cumulative across all epochs. With
    /// no injected faults this is the whole stream; under churn the
    /// crash-lost counts live in [`ChurnReport::lost_counts`], and
    /// `exact_totals[c] + churn.lost_counts[c]` is the full-stream count.
    pub exact_totals: Vec<u64>,
    /// Stream epochs closed by `EpochRoll` (0 when rolling is disabled).
    pub epochs: u64,
    /// Closed epochs that fell off the retention ring (`epochs` minus the
    /// retained `epoch_estimates.len()`): these counts are gone from the
    /// coordinator, which a decay consumer must know rather than silently
    /// reading a shorter ring.
    pub dropped_epochs: u64,
    /// Ring of closed-epoch coordinator estimates, oldest first, at most
    /// `ClusterConfig::epoch_ring` entries; each inner vector has one
    /// estimate per counter, frozen when the epoch's roll completed.
    pub epoch_estimates: Vec<Vec<f64>>,
    /// Exact per-epoch totals for the same retained epochs (oracle,
    /// reconstructed from per-site snapshots taken at each site's roll) —
    /// same shape as `epoch_estimates`.
    pub epoch_exact_totals: Vec<Vec<u64>>,
    /// Exact totals of the open epoch only (oracle; equals `exact_totals`
    /// when rolling is disabled).
    pub open_epoch_exact_totals: Vec<u64>,
    /// Cumulative settled counts across *all* closed epochs (each roll's
    /// settlement is exact, so this is coordinator-visible, unlike the
    /// oracles above), one per counter. All zeros when rolling is
    /// disabled. `settled_totals[c] + estimates[c]` is the cumulative
    /// whole-stream read of counter `c` — the ring may have dropped old
    /// epochs, this never does.
    pub settled_totals: Vec<f64>,
    /// What the injected faults cost (all-zero without faults).
    pub churn: ChurnReport,
}

impl ClusterReport {
    /// Events per second relative to coordinator busy time (Fig. 8).
    ///
    /// Returns `f64::NAN` when the busy window is below the clock's
    /// resolution (e.g. an empty or near-instant run): reporting `0.0`
    /// events/sec for a run that processed events would be a lie.
    pub fn throughput(&self) -> f64 {
        let secs = self.coordinator_busy.as_secs_f64();
        if secs <= 0.0 {
            return f64::NAN;
        }
        self.events as f64 / secs
    }
}
