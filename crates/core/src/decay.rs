//! Time-decayed parameter tracking (the paper's future work (2)).
//!
//! "Consider time-decay models which give higher weight to more recent
//! stream instances." Two implementations live here:
//!
//! - [`DecayedMle`] — centralized per-event exponential decay: an event
//!   observed `d` ticks ago contributes `lambda^d` to its counters. It
//!   sees every event (like EXACTMLE), so it quantifies the *accuracy*
//!   benefit of decay with no communication story.
//! - [`DecayedTracker`] / [`run_decayed_cluster_tracker`] — **distributed**
//!   decay via the epoch-ring scheme (`dsbn_counters::epoch`, DESIGN.md
//!   §5). Decay can't be pushed into the counters directly — the HYZ
//!   estimator of Lemma 4 needs counts to be non-decreasing — so the
//!   stream is cut into epochs of `B` events; within an epoch the
//!   unmodified monotone protocols run (Lemma 4 holds per epoch), each
//!   roll closes its epoch with a *settlement* (every site reports its
//!   exact per-epoch counts — the terminal sync HYZ already ends every
//!   round with), the coordinator keeps a ring of the last `K` settled
//!   epochs, and a decayed count is the `lambda^age`-weighted ring sum
//!   plus the open epoch's live estimate. Closed epochs are thus exact;
//!   the `e^{±eps}` band comes from the open epoch. Communication stays
//!   far below forwarding: per roll, one `EpochRoll` broadcast plus `k`
//!   settlement/ack packets (a `Cumulative` frame per nonzero counter),
//!   and each epoch's counters pay the usual
//!   `O((sqrt(k)/eps + k) log B)`.
//!
//! Under concept drift the decayed models converge to the post-drift
//! distribution at a rate set by the half-life, while the plain MLE stays
//! polluted by pre-drift mass (see `exp_ablation_decay`).

use crate::algorithms::{hyz_protocols, TrackerConfig};
use crate::allocation::Scheme;
use crate::layout::CounterLayout;
use crate::snapshot::{CounterReads, CptEvaluator};
use crate::tracker::Smoothing;
use dsbn_bayes::classify::CpdSource;
use dsbn_bayes::network::Assignment;
use dsbn_bayes::BayesianNetwork;
use dsbn_counters::epoch::EpochRing;
use dsbn_counters::protocol::CounterProtocol;
use dsbn_counters::{ExactProtocol, HyzProtocol};
use dsbn_datagen::EventChunk;
use dsbn_monitor::{ClusterReport, CounterArray, MessageStats, Partitioner, SiteAssigner};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Exponential decay configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecayConfig {
    /// Per-event decay factor `lambda` in `(0, 1]`; 1 disables decay.
    pub lambda: f64,
    /// Smoothing for conditional estimates.
    pub smoothing: Smoothing,
}

impl DecayConfig {
    /// Configure via half-life: after `half_life` events a count's weight
    /// has halved.
    pub fn with_half_life(half_life: f64, smoothing: Smoothing) -> Self {
        assert!(half_life > 0.0, "half-life must be positive");
        DecayConfig { lambda: (-std::f64::consts::LN_2 / half_life).exp(), smoothing }
    }
}

/// Centralized exponentially decayed MLE.
pub struct DecayedMle {
    structure: BayesianNetwork,
    layout: CounterLayout,
    counts: Vec<f64>,
    last_tick: Vec<u64>,
    ln_lambda: f64,
    tick: u64,
    smoothing: Smoothing,
    ids_buf: Vec<u32>,
}

impl DecayedMle {
    /// Build over a network structure.
    pub fn new(structure: &BayesianNetwork, config: DecayConfig) -> Self {
        assert!(
            config.lambda > 0.0 && config.lambda <= 1.0,
            "lambda must be in (0,1], got {}",
            config.lambda
        );
        let layout = CounterLayout::new(structure);
        let n = layout.n_counters();
        DecayedMle {
            structure: structure.clone(),
            layout,
            counts: vec![0.0; n],
            last_tick: vec![0; n],
            ln_lambda: config.lambda.ln(),
            tick: 0,
            smoothing: config.smoothing,
            ids_buf: Vec::new(),
        }
    }

    /// Events observed.
    pub fn events(&self) -> u64 {
        self.tick
    }

    /// The tracked structure.
    pub fn structure(&self) -> &BayesianNetwork {
        &self.structure
    }

    /// Observe one event (counts of all other counters implicitly decay).
    pub fn observe(&mut self, x: &[usize]) {
        self.tick += 1;
        let mut ids = std::mem::take(&mut self.ids_buf);
        self.layout.map_event(x, &mut ids);
        for &id in &ids {
            let id = id as usize;
            let dt = self.tick - self.last_tick[id];
            self.counts[id] = self.counts[id] * (self.ln_lambda * dt as f64).exp() + 1.0;
            self.last_tick[id] = self.tick;
        }
        self.ids_buf = ids;
    }

    /// A counter's decayed value as of the current tick.
    pub fn decayed_count(&self, id: usize) -> f64 {
        let dt = self.tick - self.last_tick[id];
        self.counts[id] * (self.ln_lambda * dt as f64).exp()
    }

    /// The pure read-only evaluator over the decayed counts.
    pub fn evaluator(&self) -> CptEvaluator<'_, Self> {
        CptEvaluator::new(&self.structure, &self.layout, self, self.smoothing)
    }

    /// `log P~[x]` under the decayed model — the shared Algorithm 3 in log
    /// space, like every other tracker.
    pub fn log_query(&self, x: &[usize]) -> f64 {
        self.evaluator().log_query(x)
    }

    /// Classify under the decayed model.
    pub fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        self.evaluator().classify(target, x)
    }
}

impl CounterReads for DecayedMle {
    fn read(&self, id: usize) -> f64 {
        self.decayed_count(id)
    }
}

impl CpdSource for DecayedMle {
    fn cond_prob(&self, i: usize, value: usize, u: usize) -> f64 {
        self.evaluator().cond_prob(i, value, u)
    }
}

/// Epoch-ring decay configuration for the distributed trackers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochDecayConfig {
    /// Per-*epoch* decay factor `lambda` in `(0, 1]`: a closed epoch of
    /// age `a` is weighted `lambda^a`; the open epoch is weighted 1.
    pub lambda: f64,
    /// Epoch length `B` in events. `u64::MAX` never rolls — with
    /// `lambda = 1` that is exactly the undecayed tracker.
    pub boundary: u64,
    /// Closed epochs retained in the ring, `K >= 1`. Older epochs are
    /// dropped; their weight `lambda^K` bounds the truncation error.
    pub ring: usize,
}

impl EpochDecayConfig {
    /// Validated constructor.
    pub fn new(lambda: f64, boundary: u64, ring: usize) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0,1], got {lambda}");
        assert!(boundary >= 1, "epoch boundary must be >= 1");
        assert!(ring >= 1, "epoch ring must be >= 1");
        EpochDecayConfig { lambda, boundary, ring }
    }

    /// Decay disabled: one open epoch forever, no reweighting. A
    /// [`DecayedTracker`] under this configuration is bit-for-bit the
    /// plain [`crate::BnTracker`] (pinned by `tests/decay_drift.rs`).
    pub fn disabled() -> Self {
        EpochDecayConfig { lambda: 1.0, boundary: u64::MAX, ring: 1 }
    }

    /// Configure via half-life measured in epochs.
    pub fn with_half_life_epochs(half_life: f64, boundary: u64, ring: usize) -> Self {
        assert!(half_life > 0.0, "half-life must be positive");
        Self::new((-std::f64::consts::LN_2 / half_life).exp(), boundary, ring)
    }

    /// The per-event decay factor a [`DecayedMle`] needs to match this
    /// epoch-granular decay in expectation: `lambda^(1/B)`.
    pub fn per_event_lambda(&self) -> f64 {
        self.lambda.powf(1.0 / self.boundary as f64)
    }

    /// Whether rolling ever happens.
    pub fn rolls(&self) -> bool {
        self.boundary != u64::MAX
    }
}

/// Distributed time-decayed tracker on the synchronous simulator: the
/// paper's UPDATE pipeline (Algorithm 2 over a [`CounterArray`]) wrapped in
/// the epoch-ring scheme. Decayed conditional probabilities feed the shared
/// Algorithm 3 / Markov-blanket classification exactly like every other
/// tracker.
pub struct DecayedTracker<P: CounterProtocol> {
    structure: BayesianNetwork,
    layout: CounterLayout,
    array: CounterArray<P>,
    assigner: SiteAssigner,
    rng: SmallRng,
    smoothing: Smoothing,
    decay: EpochDecayConfig,
    /// Settled closed-epoch counts, one ring per counter (each roll ends
    /// with the sites' exact per-epoch settlement, so closed entries are
    /// exact; only the open epoch is a live protocol estimate).
    rings: Vec<EpochRing>,
    epochs: u64,
    events_in_epoch: u64,
    events: u64,
    ids_buf: Vec<u32>,
}

impl<P: CounterProtocol> DecayedTracker<P> {
    /// Build over `k` sites with one protocol instance per counter (layout
    /// id order) — the same shape as [`crate::BnTracker::new`] plus the
    /// epoch-decay configuration, and the identical RNG/routing sequence,
    /// so the disabled configuration stays bit-compatible.
    pub fn new(
        structure: &BayesianNetwork,
        protocols: Vec<P>,
        k: usize,
        partitioner: Partitioner,
        seed: u64,
        smoothing: Smoothing,
        decay: EpochDecayConfig,
    ) -> Self {
        let decay = EpochDecayConfig::new(decay.lambda, decay.boundary, decay.ring);
        let layout = CounterLayout::new(structure);
        assert_eq!(
            protocols.len(),
            layout.n_counters(),
            "one protocol instance per counter required"
        );
        let n = layout.n_counters();
        DecayedTracker {
            structure: structure.clone(),
            array: CounterArray::new(protocols, k),
            layout,
            assigner: SiteAssigner::new(partitioner, k),
            rng: SmallRng::seed_from_u64(seed),
            smoothing,
            decay,
            rings: vec![EpochRing::new(decay.ring); n],
            epochs: 0,
            events_in_epoch: 0,
            events: 0,
            ids_buf: Vec::new(),
        }
    }

    /// The tracked structure.
    pub fn structure(&self) -> &BayesianNetwork {
        &self.structure
    }

    /// Counter addressing.
    pub fn layout(&self) -> &CounterLayout {
        &self.layout
    }

    /// Select the layout's Algorithm-2 mapping implementation
    /// (bit-identical either way; see [`crate::layout::MappingMode`]).
    pub fn set_mapping(&mut self, mode: crate::layout::MappingMode) {
        self.layout.set_mapping(mode);
    }

    /// Events observed so far (all epochs).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Epochs closed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The decay configuration.
    pub fn decay(&self) -> EpochDecayConfig {
        self.decay
    }

    /// Communication so far, cumulative across epochs (paper message
    /// accounting; roll control frames count bytes only).
    pub fn stats(&self) -> MessageStats {
        self.array.stats()
    }

    /// Observe one event: route to a site and run Algorithm 2's `2n`
    /// updates; when the event completes an epoch, freeze the epoch's
    /// estimates into the ring and roll the counter array.
    pub fn observe(&mut self, x: &[usize]) {
        let site = self.assigner.assign(&mut self.rng);
        self.observe_at(site, x);
    }

    /// Observe an event at an explicit site.
    pub fn observe_at(&mut self, site: usize, x: &[usize]) {
        debug_assert!(self.structure.check_assignment(x).is_ok());
        let mut ids = std::mem::take(&mut self.ids_buf);
        self.layout.map_event(x, &mut ids);
        self.array.observe_event(site, &ids, &mut self.rng);
        self.ids_buf = ids;
        self.events += 1;
        self.events_in_epoch += 1;
        if self.events_in_epoch == self.decay.boundary {
            self.roll_epoch();
        }
    }

    /// Observe a whole [`EventChunk`]: ids for every event are mapped in
    /// one bulk CSR sweep, then swept per event with the same per-event
    /// routing/randomness interleaving as [`Self::observe`] — including
    /// epoch rolls, which may fire mid-chunk at exactly the event they
    /// would have fired on per-event (mapping is layout-only, so the
    /// upfront sweep is unaffected by the roll's state reset).
    pub fn observe_chunk(&mut self, chunk: &EventChunk) {
        if chunk.is_empty() {
            return;
        }
        let mut ids = std::mem::take(&mut self.ids_buf);
        self.layout.map_chunk(chunk, &mut ids);
        let stride = 2 * self.layout.n_vars();
        for event_ids in ids.chunks_exact(stride) {
            let site = self.assigner.assign(&mut self.rng);
            self.array.observe_event(site, event_ids, &mut self.rng);
            self.events += 1;
            self.events_in_epoch += 1;
            if self.events_in_epoch == self.decay.boundary {
                self.roll_epoch();
            }
        }
        self.ids_buf = ids;
    }

    /// Feed `m` events from a stream, in internal chunks (bit-identical to
    /// per-event observation, like [`crate::BnTracker::train`]).
    pub fn train<I: Iterator<Item = Assignment>>(&mut self, stream: I, m: u64) {
        let mut stream = stream.take(m as usize);
        let mut chunk =
            EventChunk::with_capacity(self.layout.n_vars(), crate::tracker::TRAIN_CHUNK);
        loop {
            chunk.clear();
            while chunk.len() < crate::tracker::TRAIN_CHUNK {
                match stream.next() {
                    Some(x) => {
                        debug_assert!(self.structure.check_assignment(&x).is_ok());
                        chunk.push(&x);
                    }
                    None => break,
                }
            }
            if chunk.is_empty() {
                break;
            }
            self.observe_chunk(&chunk);
        }
    }

    fn roll_epoch(&mut self) {
        // Settlement: the closed epoch enters the ring as its exact total
        // (what the sites' Cumulative settlement sums to — with the sim's
        // synchronous delivery, exactly `exact_total`); the byte cost of
        // the settlement exchange is accounted by `roll_epoch` below.
        for c in 0..self.layout.n_counters() {
            self.rings[c].push(self.array.exact_total(c) as f64);
        }
        self.array.roll_epoch(self.epochs as u32);
        self.epochs += 1;
        self.events_in_epoch = 0;
    }

    /// Decayed counter estimate: `lambda^age`-weighted sum of the settled
    /// ring plus the open epoch's live estimate.
    pub fn decayed_estimate(&self, id: usize) -> f64 {
        self.rings[id].decayed(self.array.estimate(id), self.decay.lambda)
    }

    /// Decayed *exact* count (oracle): the same weighting with the open
    /// epoch's exact count in place of its estimate — the centralized
    /// epoch-decayed MLE over exactly the events this tracker saw.
    pub fn exact_decayed_count(&self, id: usize) -> f64 {
        self.rings[id].decayed(self.array.exact_total(id) as f64, self.decay.lambda)
    }

    /// Decayed estimates for one CPD entry: `(A_i(x, u), A_i(u))`.
    pub fn decayed_pair(&self, i: usize, value: usize, u: usize) -> (f64, f64) {
        let num = self.decayed_estimate(self.layout.family_id(i, value, u) as usize);
        let den = self.decayed_estimate(self.layout.parent_id(i, u) as usize);
        (num, den)
    }

    /// The pure read-only evaluator over the decayed estimates.
    pub fn evaluator(&self) -> CptEvaluator<'_, Self> {
        CptEvaluator::new(&self.structure, &self.layout, self, self.smoothing)
    }

    /// `log P~[x]` under the decayed model — shared Algorithm 3.
    pub fn log_query(&self, x: &[usize]) -> f64 {
        self.evaluator().log_query(x)
    }

    /// `P~[x]` (prefer [`Self::log_query`] for large `n`).
    pub fn query(&self, x: &[usize]) -> f64 {
        self.evaluator().query(x)
    }

    /// `log P^[x]` of the exact epoch-decayed MLE over the same stream,
    /// with identical smoothing — the reference for the per-epoch
    /// `e^{±eps}` band (closed epochs are settled exactly; the gap to
    /// this oracle is the open epoch's Lemma-4 estimation error).
    pub fn exact_decayed_log_query(&self, x: &[usize]) -> f64 {
        let oracle = ExactDecayedView(self);
        CptEvaluator::new(&self.structure, &self.layout, &oracle, self.smoothing).log_query(x)
    }

    /// Classify under the decayed model (§V).
    pub fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        self.evaluator().classify(target, x)
    }

    /// Posterior over `target` given full evidence.
    pub fn posterior(&self, target: usize, x: &mut [usize]) -> Vec<f64> {
        self.evaluator().posterior(target, x)
    }
}

impl<P: CounterProtocol> CounterReads for DecayedTracker<P> {
    fn read(&self, id: usize) -> f64 {
        self.decayed_estimate(id)
    }
}

impl<P: CounterProtocol> CpdSource for DecayedTracker<P> {
    fn cond_prob(&self, i: usize, value: usize, u: usize) -> f64 {
        self.evaluator().cond_prob(i, value, u)
    }
}

/// The tracker's exact decayed counts as counter reads, fed through the
/// same smoothing and query path as the estimates.
struct ExactDecayedView<'a, P: CounterProtocol>(&'a DecayedTracker<P>);

impl<P: CounterProtocol> CounterReads for ExactDecayedView<'_, P> {
    fn read(&self, id: usize) -> f64 {
        self.0.exact_decayed_count(id)
    }
}

/// A decayed tracker built by any of the paper's schemes.
pub enum AnyDecayedTracker {
    /// Exact counters per epoch (decayed EXACTMLE).
    Exact(DecayedTracker<ExactProtocol>),
    /// Randomized HYZ counters (BASELINE / UNIFORM / NONUNIFORM budgets).
    Randomized(DecayedTracker<HyzProtocol>),
}

/// Build a distributed decayed tracker: the scheme's INIT error-budget
/// allocation (Algorithm 1) drives the per-epoch counters, exactly as
/// [`crate::build_tracker`] does for the undecayed tracker.
pub fn build_decayed_tracker(
    net: &BayesianNetwork,
    config: &TrackerConfig,
    decay: &EpochDecayConfig,
) -> AnyDecayedTracker {
    let layout = CounterLayout::new(net);
    let mut tracker = match config.scheme {
        Scheme::ExactMle => AnyDecayedTracker::Exact(DecayedTracker::new(
            net,
            vec![ExactProtocol; layout.n_counters()],
            config.k,
            config.partitioner,
            config.seed,
            config.smoothing,
            *decay,
        )),
        scheme => AnyDecayedTracker::Randomized(DecayedTracker::new(
            net,
            hyz_protocols(net, &layout, scheme, config.eps),
            config.k,
            config.partitioner,
            config.seed,
            config.smoothing,
            *decay,
        )),
    };
    tracker.set_mapping(config.mapping);
    tracker
}

macro_rules! delegate_decayed {
    ($self:ident, $t:ident => $body:expr) => {
        match $self {
            AnyDecayedTracker::Exact($t) => $body,
            AnyDecayedTracker::Randomized($t) => $body,
        }
    };
}

impl AnyDecayedTracker {
    /// Observe one event (UPDATE + epoch bookkeeping).
    pub fn observe(&mut self, x: &[usize]) {
        delegate_decayed!(self, t => t.observe(x))
    }

    /// Select the layout's Algorithm-2 mapping implementation (see
    /// [`crate::layout::MappingMode`]).
    pub fn set_mapping(&mut self, mode: crate::layout::MappingMode) {
        delegate_decayed!(self, t => t.set_mapping(mode))
    }

    /// Feed `m` events from a stream.
    pub fn train<I: Iterator<Item = Assignment>>(&mut self, stream: I, m: u64) {
        delegate_decayed!(self, t => t.train(stream, m))
    }

    /// `log P~[x]` under the decayed model.
    pub fn log_query(&self, x: &[usize]) -> f64 {
        delegate_decayed!(self, t => t.log_query(x))
    }

    /// `P~[x]`.
    pub fn query(&self, x: &[usize]) -> f64 {
        delegate_decayed!(self, t => t.query(x))
    }

    /// Exact epoch-decayed reference over the same stream (oracle).
    pub fn exact_decayed_log_query(&self, x: &[usize]) -> f64 {
        delegate_decayed!(self, t => t.exact_decayed_log_query(x))
    }

    /// Classify under the decayed model.
    pub fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        delegate_decayed!(self, t => t.classify(target, x))
    }

    /// Communication so far.
    pub fn stats(&self) -> MessageStats {
        delegate_decayed!(self, t => t.stats())
    }

    /// Events observed.
    pub fn events(&self) -> u64 {
        delegate_decayed!(self, t => t.events())
    }

    /// Epochs closed.
    pub fn epochs(&self) -> u64 {
        delegate_decayed!(self, t => t.epochs())
    }
}

impl CpdSource for AnyDecayedTracker {
    fn cond_prob(&self, i: usize, value: usize, u: usize) -> f64 {
        delegate_decayed!(self, t => t.cond_prob(i, value, u))
    }
}

/// The decayed model a cluster run leaves behind at the coordinator: the
/// open epoch's estimates plus the settled closed-epoch ring, queryable
/// with the same decayed read as [`DecayedTracker`], alongside the open
/// epoch's exact oracle reconstructed from site states.
#[derive(Debug, Clone)]
pub struct DecayedClusterModel {
    structure: BayesianNetwork,
    layout: CounterLayout,
    smoothing: Smoothing,
    lambda: f64,
    /// Open-epoch coordinator estimates.
    estimates: Vec<f64>,
    /// Settled closed-epoch counts (exact — each roll's settlement).
    rings: Vec<EpochRing>,
    /// Open-epoch exact totals (oracle).
    open_exact: Vec<u64>,
}

impl DecayedClusterModel {
    /// The tracked structure.
    pub fn structure(&self) -> &BayesianNetwork {
        &self.structure
    }

    /// Counter addressing.
    pub fn layout(&self) -> &CounterLayout {
        &self.layout
    }

    /// Decayed counter estimate at the coordinator.
    pub fn decayed_estimate(&self, id: usize) -> f64 {
        self.rings[id].decayed(self.estimates[id], self.lambda)
    }

    /// Decayed exact count (oracle): the settled ring with the open
    /// epoch's exact count in place of its estimate.
    pub fn exact_decayed_count(&self, id: usize) -> f64 {
        self.rings[id].decayed(self.open_exact[id] as f64, self.lambda)
    }

    /// The pure read-only evaluator over the decayed estimates.
    pub fn evaluator(&self) -> CptEvaluator<'_, Self> {
        CptEvaluator::new(&self.structure, &self.layout, self, self.smoothing)
    }

    /// `log P~[x]` — QUERY under the decayed model at the coordinator.
    pub fn log_query(&self, x: &[usize]) -> f64 {
        self.evaluator().log_query(x)
    }

    /// `P~[x]`.
    pub fn query(&self, x: &[usize]) -> f64 {
        self.evaluator().query(x)
    }

    /// `log P^[x]` of the exact epoch-decayed MLE over the same stream,
    /// identical smoothing — the per-epoch `e^{±eps}` band reference.
    pub fn exact_decayed_log_query(&self, x: &[usize]) -> f64 {
        let oracle = ExactDecayedModelView(self);
        CptEvaluator::new(&self.structure, &self.layout, &oracle, self.smoothing).log_query(x)
    }

    /// Classify under the decayed model (§V).
    pub fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        self.evaluator().classify(target, x)
    }

    /// Posterior over `target` given full evidence.
    pub fn posterior(&self, target: usize, x: &mut [usize]) -> Vec<f64> {
        self.evaluator().posterior(target, x)
    }
}

impl CounterReads for DecayedClusterModel {
    fn read(&self, id: usize) -> f64 {
        self.decayed_estimate(id)
    }
}

impl CpdSource for DecayedClusterModel {
    fn cond_prob(&self, i: usize, value: usize, u: usize) -> f64 {
        self.evaluator().cond_prob(i, value, u)
    }
}

/// Oracle view of [`DecayedClusterModel`]: the exact decayed counts as
/// counter reads.
struct ExactDecayedModelView<'a>(&'a DecayedClusterModel);

impl CounterReads for ExactDecayedModelView<'_> {
    fn read(&self, id: usize) -> f64 {
        self.0.exact_decayed_count(id)
    }
}

/// Everything a decayed cluster run produces.
#[derive(Debug, Clone)]
pub struct DecayedClusterRun {
    /// QUERY-able decayed model at the coordinator.
    pub model: DecayedClusterModel,
    /// Runtime, message, packet, byte, and epoch accounting.
    pub report: ClusterReport,
}

/// Run the distributed epoch-ring decayed tracker live on the threaded
/// cluster: the same `TrackerConfig` as [`crate::run_cluster_tracker`]
/// (scheme, `eps`, `k`, seed, partitioner, smoothing) plus the epoch-decay
/// configuration. Epoch rolls travel as `Frame::EpochRoll` broadcasts; the
/// cluster's epoch boundaries are approximate (within channel depth of
/// `B`) while the per-epoch exact oracle stays exact.
///
/// Fails with a typed [`dsbn_monitor::ClusterError`] (never a panic) when
/// a packet fails to decode or the transport errors.
pub fn run_decayed_cluster_tracker<I>(
    net: &BayesianNetwork,
    config: &TrackerConfig,
    decay: &EpochDecayConfig,
    events: I,
) -> Result<DecayedClusterRun, dsbn_monitor::ClusterError>
where
    I: Iterator<Item = Assignment>,
{
    let decay = EpochDecayConfig::new(decay.lambda, decay.boundary, decay.ring);
    let mut layout = CounterLayout::new(net);
    layout.set_mapping(config.mapping);
    let mut cluster =
        dsbn_monitor::ClusterConfig::new(config.k, config.seed).with_chunk(config.chunk);
    cluster.partitioner = config.partitioner;
    cluster.faults = config.faults.clone();
    if decay.rolls() {
        cluster = cluster.with_epochs(decay.boundary, decay.ring);
    }
    // Mid-stream serving rides the decay settlements; `snapshot_every` is
    // ignored here (the decay boundary already defines the settlements).
    if let Some(hub) = &config.publish {
        cluster = cluster.with_publish(hub.clone());
    }
    let report = match config.scheme {
        Scheme::ExactMle => {
            let protocols = vec![ExactProtocol; layout.n_counters()];
            crate::cluster::run_with(&protocols, &cluster, &layout, events)?
        }
        scheme => {
            let protocols = hyz_protocols(net, &layout, scheme, config.eps);
            crate::cluster::run_with(&protocols, &cluster, &layout, events)?
        }
    };
    let n = layout.n_counters();
    let mut rings = vec![EpochRing::new(decay.ring); n];
    for settled in &report.epoch_estimates {
        for c in 0..n {
            rings[c].push(settled[c]);
        }
    }
    let model = DecayedClusterModel {
        structure: net.clone(),
        smoothing: config.smoothing,
        lambda: decay.lambda,
        estimates: report.estimates.clone(),
        rings,
        open_exact: report.open_epoch_exact_totals.clone(),
        layout,
    };
    Ok(DecayedClusterRun { model, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsbn_bayes::{sprinkler_network, Cpt, Dag, Variable};
    use dsbn_datagen::{DriftingStream, TrainingStream};

    fn coin(p_one: f64) -> BayesianNetwork {
        let variables = vec![Variable::with_cardinality("X", 2).unwrap()];
        let cpts = vec![Cpt::new(0, 2, vec![], vec![1.0 - p_one, p_one]).unwrap()];
        BayesianNetwork::new("coin", variables, Dag::new(1), cpts).unwrap()
    }

    #[test]
    fn lambda_one_matches_plain_mle() {
        let net = sprinkler_network();
        let mut d = DecayedMle::new(&net, DecayConfig { lambda: 1.0, smoothing: Smoothing::None });
        let events: Vec<_> = TrainingStream::new(&net, 3).take(3000).collect();
        let mut count_s1_c1 = 0u64;
        let mut count_c1 = 0u64;
        for x in &events {
            d.observe(x);
            if x[0] == 1 {
                count_c1 += 1;
                if x[1] == 1 {
                    count_s1_c1 += 1;
                }
            }
        }
        let mle = count_s1_c1 as f64 / count_c1 as f64;
        assert!((d.cond_prob(1, 1, 1) - mle).abs() < 1e-9);
    }

    #[test]
    fn half_life_config() {
        let c = DecayConfig::with_half_life(1000.0, Smoothing::None);
        assert!((c.lambda.powf(1000.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be in (0,1]")]
    fn bad_lambda_rejected() {
        let net = sprinkler_network();
        let _ = DecayedMle::new(&net, DecayConfig { lambda: 1.5, smoothing: Smoothing::None });
    }

    #[test]
    fn decayed_model_adapts_to_drift_faster_than_plain() {
        let before = coin(0.9);
        let after = coin(0.1);
        let cfg = DecayConfig::with_half_life(500.0, Smoothing::Pseudocount(0.5));
        let mut decayed = DecayedMle::new(&before, cfg);
        let mut plain = DecayedMle::new(
            &before,
            DecayConfig { lambda: 1.0, smoothing: Smoothing::Pseudocount(0.5) },
        );
        let stream = DriftingStream::new(&[(&before, 20_000), (&after, 5_000)], 7);
        for x in stream.take(25_000) {
            decayed.observe(&x);
            plain.observe(&x);
        }
        // After the drift, truth is P(X=1) = 0.1.
        let p_decayed = decayed.cond_prob(0, 1, 0);
        let p_plain = plain.cond_prob(0, 1, 0);
        assert!((p_decayed - 0.1).abs() < 0.05, "decayed {p_decayed}");
        // Plain MLE is still dominated by the 20k pre-drift events.
        assert!(p_plain > 0.6, "plain {p_plain}");
    }

    #[test]
    fn decayed_counts_shrink_over_time() {
        let net = coin(1.0);
        let mut d = DecayedMle::new(&net, DecayConfig { lambda: 0.99, smoothing: Smoothing::None });
        d.observe(&[1]);
        let c0 = d.decayed_count(d.layout.family_id(0, 1, 0) as usize);
        for _ in 0..100 {
            d.observe(&[1]);
        }
        // Steady state ~ 1/(1-lambda) = 100.
        let c1 = d.decayed_count(d.layout.family_id(0, 1, 0) as usize);
        assert!(c0 <= 1.0 + 1e-12);
        assert!(c1 > 50.0 && c1 < 100.5, "steady state {c1}");
    }

    #[test]
    fn classify_under_decay() {
        let net = sprinkler_network();
        let mut d =
            DecayedMle::new(&net, DecayConfig::with_half_life(5000.0, Smoothing::Pseudocount(0.5)));
        for x in TrainingStream::new(&net, 2).take(20_000) {
            d.observe(&x);
        }
        let mut x = vec![1usize, 0, 0, 1];
        assert_eq!(d.classify(2, &mut x), 1);
    }

    #[test]
    fn epoch_decay_config_shapes() {
        let c = EpochDecayConfig::new(0.5, 1000, 8);
        assert!((c.per_event_lambda().powf(1000.0) - 0.5).abs() < 1e-12);
        assert!(c.rolls());
        let d = EpochDecayConfig::disabled();
        assert!(!d.rolls());
        assert_eq!(d.lambda, 1.0);
        let h = EpochDecayConfig::with_half_life_epochs(4.0, 100, 4);
        assert!((h.lambda.powf(4.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be in (0,1]")]
    fn epoch_decay_bad_lambda_rejected() {
        let _ = EpochDecayConfig::new(0.0, 100, 4);
    }

    #[test]
    fn distributed_decayed_tracker_adapts_to_drift() {
        // Same drift scenario as the centralized test above, but the
        // decayed model is now maintained *distributed*: exact counters
        // per epoch over 4 sites, ring-decayed at the coordinator.
        let before = coin(0.9);
        let after = coin(0.1);
        let layout = CounterLayout::new(&before);
        let decay = EpochDecayConfig::new(0.5, 1_000, 16); // half-life 1 epoch
        let mk = |d: EpochDecayConfig| {
            DecayedTracker::new(
                &before,
                vec![ExactProtocol; layout.n_counters()],
                4,
                dsbn_monitor::Partitioner::UniformRandom,
                9,
                Smoothing::Pseudocount(0.5),
                d,
            )
        };
        let mut decayed = mk(decay);
        let mut plain = mk(EpochDecayConfig::disabled());
        let stream = DriftingStream::new(&[(&before, 20_000), (&after, 5_000)], 7);
        for x in stream.take(25_000) {
            decayed.observe(&x);
            plain.observe(&x);
        }
        assert_eq!(decayed.epochs(), 25);
        let p_decayed = decayed.cond_prob(0, 1, 0);
        let p_plain = plain.cond_prob(0, 1, 0);
        assert!((p_decayed - 0.1).abs() < 0.05, "decayed {p_decayed}");
        assert!(p_plain > 0.6, "plain {p_plain}");
    }

    #[test]
    fn decayed_tracker_estimates_match_oracle_exactly_for_exact_scheme() {
        // With exact counters every ring entry equals its exact total, so
        // the decayed query must equal the decayed-oracle query to the bit.
        let net = sprinkler_network();
        let tc = TrackerConfig::new(Scheme::ExactMle).with_k(3).with_seed(5);
        let decay = EpochDecayConfig::new(0.7, 500, 8);
        let mut t = build_decayed_tracker(&net, &tc, &decay);
        t.train(TrainingStream::new(&net, 11), 4_200);
        assert_eq!(t.epochs(), 8);
        for x in TrainingStream::new(&net, 13).take(20) {
            assert_eq!(t.log_query(&x).to_bits(), t.exact_decayed_log_query(&x).to_bits());
        }
    }

    #[test]
    fn decayed_cluster_run_exact_scheme_matches_oracle() {
        let net = sprinkler_network();
        let tc = TrackerConfig::new(Scheme::ExactMle).with_k(3).with_seed(2);
        let decay = EpochDecayConfig::new(0.6, 1_000, 6);
        let run = run_decayed_cluster_tracker(
            &net,
            &tc,
            &decay,
            TrainingStream::new(&net, 21).take(5_500),
        )
        .expect("cluster run failed");
        assert_eq!(run.report.events, 5_500);
        assert_eq!(run.report.epochs, 5);
        // Exact counters: closed-epoch estimates equal the per-epoch exact
        // totals, so decayed queries equal the oracle to the bit.
        for x in TrainingStream::new(&net, 23).take(20) {
            assert_eq!(
                run.model.log_query(&x).to_bits(),
                run.model.exact_decayed_log_query(&x).to_bits()
            );
        }
    }
}
