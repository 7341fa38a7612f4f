//! The three workloads and the metrics each reports.
//!
//! Every workload repeats one pass — set-up, ingest, checks — until the
//! run's `--seconds` have elapsed (at least [`MIN_REPS`] times) and
//! reports medians over the repetitions, or percentiles over the samples
//! they pooled. A traced run alternates untraced and traced repetitions
//! (the ratio of the two is the tracing overhead), takes its per-layer
//! numbers from the traced ones, and adds the reference passes those
//! numbers are ratios against.

use crate::checks::{
    answer_and_check, counter_rel_err_rms, reconcile, same_bits, Accuracy, QuerySet, QueryTimes,
    Tally,
};
use crate::host;
use crate::passes::{
    cluster_pass, count_pass, map_pass, sim_pass, tracker_config, ClusterOut, ClusterSpec, Pool,
    ReaderOut, ReaderSpec, SimOut,
};
use crate::spans::Recorder;
use crate::stats::{median, quantile, staleness};
use dsbn_bayes::{BayesianNetwork, NetworkSpec};
use dsbn_core::{AnyTracker, CounterLayout, CptEvaluator, ExactReads, Scheme};
use dsbn_monitor::MessageStats;
use std::time::{Duration, Instant};

/// Repetitions a run makes however short its `--seconds`.
pub const MIN_REPS: usize = 3;

/// Sites of the ALARM cluster (the paper's Fig. 7–8 configuration).
const ALARM_K: usize = 8;
/// Events per alarm-ingest pass: long enough that the counters leave
/// their `p = 1` start (about 17 messages per event against EXACTMLE's
/// 74, and fewer bytes too).
const ALARM_INGEST_EVENTS: u64 = 500_000;
/// alarm-ingest stamps the hand-off of every this many events; each
/// stamp's staleness is the wait for the final model.
const STAMP_EVERY: u64 = 1024;
/// Distinct events minted for ALARM and replayed.
const ALARM_POOL: u64 = 65_536;
/// alarm-serve: open-loop ingest rate, events per pass (not a whole number
/// of settlements, so the final model's open epoch holds protocol
/// estimates), settlement cadence and query rate. Settling every 10 000
/// events restarts every counter at `p = 1`, so serving costs about four
/// times the messages per event of `alarm-ingest`; 50 000 events/s stays
/// below half the rate the cluster sustains so on a 2-CPU host even when
/// a busy neighbour halves its speed.
const SERVE_RATE: f64 = 50_000.0;
const SERVE_EVENTS: u64 = 205_000;
const SERVE_EVERY: u64 = 10_000;
const SERVE_QPS: f64 = 1_000.0;
/// A serving pass whose achieved ingest rate falls below this share of the
/// offered rate ran above the sustainable rate: its backlog grew inside
/// the runtime's queues even if the generator kept its schedule.
const SUSTAINED_SHARE: f64 = 0.95;
/// The ground-truth network is fixed; the seed varies the stream, the
/// queries, and the tracker's routing and counter randomness.
const NET_SEED: u64 = 1;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload run produces.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Traced runs: every span and aggregate, as JSON lines.
    pub trace: String,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Sim,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Sim, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "alarm-ingest",
            Workload::Sim => "alarm-sim",
            Workload::Serve => "alarm-serve",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run `workload` for `seconds` with inputs from `seed`.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let origin = Instant::now();
    let mut ctx = Ctx {
        seed,
        seconds,
        traced,
        tally: Tally::default(),
        driver: traced.then(|| Recorder::new(origin, "driver")),
        readers: Vec::new(),
        origin,
    };
    let root = ctx.driver.as_mut().map(|r| r.open_at("driver", origin));
    let metrics = match workload {
        Workload::Ingest => alarm_ingest(&mut ctx),
        Workload::Sim => alarm_sim(&mut ctx),
        Workload::Serve => alarm_serve(&mut ctx),
    };
    let mut trace = String::new();
    if let (Some(mut driver), Some(root)) = (ctx.driver.take(), root) {
        driver.close(root);
        for rec in std::iter::once(&driver).chain(&ctx.readers) {
            let (gap, least) = (rec.unattributed_ns(), rec.self_times().into_iter().min());
            ctx.tally.op(gap == 0 && least.unwrap_or(0) >= 0, || {
                format!(
                    "{} thread: span self times miss its wall time by {gap} ns (least {least:?})",
                    rec.thread()
                )
            });
            rec.write_jsonl(workload.name(), &mut trace);
        }
    }
    Outcome { metrics, tally: ctx.tally, trace }
}

struct Ctx {
    seed: u64,
    seconds: f64,
    traced: bool,
    tally: Tally,
    driver: Option<Recorder>,
    readers: Vec<Recorder>,
    origin: Instant,
}

impl Ctx {
    /// Run `rep` until the run's time is up (at least [`MIN_REPS`] times).
    /// Traced runs trace every second repetition.
    fn repeat<T>(&mut self, mut rep: impl FnMut(&mut Self, bool) -> T) -> Vec<(bool, T)> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.len() < MIN_REPS || start.elapsed().as_secs_f64() < self.seconds {
            let traced = self.traced && out.len() % 2 == 1;
            let run = out.len() as u32 + 1;
            let span = self.driver.as_mut().map(|r| {
                r.set_run(run);
                r.open("rep")
            });
            out.push((traced, rep(self, traced)));
            if let (Some(r), Some(id)) = (self.driver.as_mut(), span) {
                r.close(id);
                r.set_run(0);
            }
        }
        out
    }

    /// The driver recorder, when this repetition is traced.
    fn rec(&mut self, traced: bool) -> Option<&mut Recorder> {
        self.driver.as_mut().filter(|_| traced)
    }

    /// A fresh reader recorder, when this repetition is traced.
    fn reader_rec(&self, traced: bool) -> Option<Recorder> {
        traced.then(|| Recorder::new(self.origin, "reader"))
    }

    /// Run `f` under a driver span named `name` (traced runs only).
    fn scoped<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.driver.as_mut().map(|r| r.open(name));
        let out = f(self);
        if let (Some(r), Some(id)) = (self.driver.as_mut(), id) {
            r.close(id);
        }
        out
    }
}

fn network(spec: NetworkSpec) -> BayesianNetwork {
    spec.generate(NET_SEED).expect("preset network generation")
}

/// Set-up outside every timed window: the ground-truth network, the event
/// pool and the queries.
struct Inputs {
    net: BayesianNetwork,
    pool: Pool,
    queries: QuerySet,
    mint_s: f64,
}

fn inputs(ctx: &mut Ctx, spec: NetworkSpec, pool_events: u64) -> Inputs {
    ctx.scoped("gen.mint", |ctx| {
        let t0 = Instant::now();
        let net = network(spec);
        let pool = Pool::mint(&net, ctx.seed, pool_events);
        let queries = QuerySet::generate(&net, ctx.seed ^ 0x9e37_79b9);
        Inputs { net, pool, queries, mint_s: t0.elapsed().as_secs_f64() }
    })
}

fn per_event(v: u64, events: u64) -> f64 {
    v as f64 / events as f64
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Medians over the repetitions selected by `pick`.
fn med<T>(reps: &[(bool, T)], pick: impl Fn(&(bool, T)) -> Option<f64>) -> f64 {
    median(&reps.iter().filter_map(pick).collect::<Vec<_>>())
}

/// Accuracy and oracle checks of a finished cluster run, plus the
/// closed-loop query timings on its final model.
fn check_cluster(
    ctx: &mut Ctx,
    out: &ClusterOut,
    events: u64,
    queries: &QuerySet,
    times: &mut QueryTimes,
    acc: &mut Accuracy,
) -> Option<f64> {
    count_pass(&mut ctx.tally, &out.run);
    let run = out.run.as_ref().ok()?;
    let model = &run.model;
    let oracle_reads = ExactReads(&run.report.exact_totals);
    let oracle =
        CptEvaluator::new(model.structure(), model.layout(), &oracle_reads, model.smoothing());
    answer_and_check(model.structure(), model, &oracle, queries, times, acc, &mut ctx.tally);
    let layout = model.layout();
    let rec = reconcile(layout, |i, u| model.exact_total(layout.parent_id(i, u) as usize), events);
    ctx.tally.op(rec.is_ok() && run.report.events == events, || {
        format!("oracle reconciliation failed: {rec:?}, {} events reported", run.report.events)
    });
    Some(counter_rel_err_rms(
        layout,
        |i, v, u| model.counter_pair(i, v, u).0,
        |i, v, u| model.exact_total(layout.family_id(i, v, u) as usize),
    ))
}

/// The same checks for the single-thread tracker, whose oracle is its own
/// exact counts.
fn check_sim(
    ctx: &mut Ctx,
    out: &SimOut,
    queries: &QuerySet,
    times: &mut QueryTimes,
    acc: &mut Accuracy,
) -> f64 {
    let AnyTracker::Randomized(t) = &out.tracker else {
        unreachable!("the benchmark builds only randomized trackers")
    };
    let snap = t.snapshot();
    let exact = snap.exact.as_deref().expect("sim snapshots carry the oracle");
    let reads = ExactReads(exact);
    let oracle = CptEvaluator::new(t.structure(), t.layout(), &reads, t.smoothing());
    answer_and_check(t.structure(), &out.tracker, &oracle, queries, times, acc, &mut ctx.tally);
    let layout = t.layout();
    let rec = reconcile(layout, |i, u| t.exact_parent_count(i, u), out.events);
    ctx.tally.op(rec.is_ok() && t.events() == out.events, || {
        format!("oracle reconciliation failed: {rec:?}, {} events observed", t.events())
    });
    counter_rel_err_rms(
        layout,
        |i, v, u| t.counter_pair(i, v, u).0,
        |i, v, u| t.exact_family_count(i, v, u),
    )
}

/// One progress line per cluster pass, on standard error.
fn note_pass(out: &ClusterOut, events: u64) {
    eprintln!(
        "  pass: {:.0} events/s, set-up {:.3} ms, drain {:.1} ms{}",
        events as f64 / secs(out.ingest),
        ms(out.setup),
        ms(out.drain),
        out.reader.as_ref().map_or(String::new(), |r| format!(
            ", {} queries, p50 {:.1} us",
            r.queries,
            median(&r.latency_us)
        ))
    );
}

fn stats_of(out: &ClusterOut) -> Option<MessageStats> {
    out.run.as_ref().ok().map(|r| r.report.stats)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(
    rate: f64,
    bytes: f64,
    msgs: f64,
    query_us: &[f64],
    staleness_ms: &[f64],
    setup_s: f64,
) -> Vec<Metric> {
    vec![
        Metric { name: "ingest_events_per_s", unit: "events/s", value: rate },
        Metric { name: "wire_bytes_per_event", unit: "B/event", value: bytes },
        Metric { name: "messages_per_event", unit: "msgs/event", value: msgs },
        Metric { name: "query_latency_p50_us", unit: "us", value: quantile(query_us, 0.5) },
        Metric { name: "query_latency_p99_us", unit: "us", value: quantile(query_us, 0.99) },
        // No p90: on alarm-ingest its run-to-run spread reached its bound.
        Metric { name: "snapshot_staleness_p50_ms", unit: "ms", value: median(staleness_ms) },
        Metric { name: "setup_s", unit: "s", value: setup_s },
        Metric { name: "peak_rss_mb", unit: "MiB", value: host::peak_rss_mib() },
    ]
}

/// Per-layer metrics a workload fills in; every name is always reported.
#[derive(Default)]
struct Layers {
    init_build_s: f64,
    map_ns_per_event: f64,
    n_counters: f64,
    sim_observe_ns_per_event: f64,
    sim_ref_events_per_s: f64,
    stats: MessageStats,
    stats_events: u64,
    rel_err_rms: f64,
    acc: Accuracy,
    cluster_setup_s: f64,
    cluster_feed_s: f64,
    cluster_driver_s: f64,
    cluster_drain_s: f64,
    coordinator_busy_s: f64,
    coordinator_busy_share: f64,
    events_per_packet: f64,
    flush_epochs: f64,
    cluster_rate: f64,
    exact_ref_events_per_s: f64,
    exact_ref_bytes_per_event: f64,
    cpu_s_per_mevent: f64,
    reader: ReaderLayers,
    ingest_lateness_ms_p99: f64,
    mint_s: f64,
    ingest_overhead: f64,
    query_p50_overhead: f64,
}

#[derive(Default)]
struct ReaderLayers {
    snapshot_ns_p50: f64,
    resolve_us_p50: f64,
    resolve_share: f64,
    log_query_ns_p50: f64,
    classify_ns_p50: f64,
    posterior_ns_p50: f64,
    snapshots_seen: f64,
    mint_interval_ms_p50: f64,
    query_lateness_ms_p99: f64,
}

impl ReaderLayers {
    fn of(outs: &[&ReaderOut]) -> Self {
        let pool = |f: fn(&ReaderOut) -> &Vec<f64>| -> Vec<f64> {
            outs.iter().flat_map(|o| f(o).iter().copied()).collect()
        };
        let intervals: Vec<f64> =
            outs.iter().flat_map(|o| o.loads.windows(2).map(|w| ms(w[1].0 - w[0].0))).collect();
        let resolve: f64 = outs.iter().map(|o| secs(o.resolve_total)).sum();
        let busy: f64 = outs.iter().map(|o| secs(o.busy_total)).sum();
        ReaderLayers {
            snapshot_ns_p50: median(&pool(|o| &o.snapshot_ns)),
            resolve_us_p50: median(&pool(|o| &o.resolve_us)),
            resolve_share: resolve / busy,
            log_query_ns_p50: median(&pool(|o| &o.log_query_ns)),
            classify_ns_p50: median(&pool(|o| &o.classify_ns)),
            posterior_ns_p50: median(&pool(|o| &o.posterior_ns)),
            snapshots_seen: median(&outs.iter().map(|o| o.loads.len() as f64).collect::<Vec<_>>()),
            mint_interval_ms_p50: median(&intervals),
            query_lateness_ms_p99: quantile(&pool(|o| &o.lateness_ms), 0.99),
        }
    }
}

impl Layers {
    /// Fill the cluster-layer figures from traced cluster passes. Message
    /// tallies already taken from the workload's own passes are kept.
    fn cluster(&mut self, outs: &[&ClusterOut], driver: &Recorder) {
        let ok: Vec<_> = outs.iter().filter_map(|o| o.run.as_ref().ok().map(|r| (o, r))).collect();
        let m = |f: &dyn Fn(&ClusterOut, &dsbn_monitor::ClusterReport) -> f64| {
            median(&ok.iter().map(|(o, r)| f(o, &r.report)).collect::<Vec<_>>())
        };
        self.coordinator_busy_s = m(&|_, r| secs(r.coordinator_busy));
        self.coordinator_busy_share = m(&|_, r| secs(r.coordinator_busy) / secs(r.wall_time));
        self.events_per_packet = m(&|_, r| per_event(r.events, r.stats.packets.max(1)));
        self.flush_epochs = m(&|_, r| r.flush_epochs as f64);
        self.cpu_s_per_mevent = m(&|o, r| o.cpu_s / r.events as f64 * 1e6);
        self.cluster_setup_s = median(&driver.durations("cluster.setup"));
        self.cluster_drain_s = median(&driver.durations("cluster.drain"));
        self.cluster_feed_s = median(&driver.aggregate_totals("cluster.feed"));
        self.cluster_driver_s = median(&driver.aggregate_totals("cluster.driver"));
        if self.stats_events == 0 {
            if let Some((_, r)) = ok.first() {
                self.stats = r.report.stats;
                self.stats_events = r.report.events;
            }
        }
        let lateness: Vec<f64> =
            outs.iter().flat_map(|o| o.ingest_lateness_ms.iter().copied()).collect();
        if !lateness.is_empty() {
            self.ingest_lateness_ms_p99 = quantile(&lateness, 0.99);
        }
        let readers: Vec<&ReaderOut> = outs.iter().filter_map(|o| o.reader.as_ref()).collect();
        if !readers.is_empty() {
            self.reader = ReaderLayers::of(&readers);
        }
    }

    fn into_metrics(self) -> Vec<Metric> {
        let s = self.stats;
        let ev = self.stats_events.max(1);
        let r = self.reader;
        let metric = |name, unit, value| Metric { name, unit, value };
        vec![
            metric("init.build_s", "s", self.init_build_s),
            metric("layout.map_ns_per_event", "ns/event", self.map_ns_per_event),
            metric("layout.n_counters", "count", self.n_counters),
            metric("sim.observe_ns_per_event", "ns/event", self.sim_observe_ns_per_event),
            metric("sim.ref_events_per_s", "events/s", self.sim_ref_events_per_s),
            metric("counters.up_per_event", "msgs/event", per_event(s.up_messages, ev)),
            metric("counters.down_per_event", "msgs/event", per_event(s.down_messages, ev)),
            metric("counters.broadcasts_per_event", "1/event", per_event(s.broadcasts, ev)),
            metric("counters.bytes_per_message", "B/msg", per_event(s.bytes, s.total().max(1))),
            metric("counters.rel_err_rms", "ratio", self.rel_err_rms),
            metric("counters.query_rel_err_mean", "ratio", self.acc.mean_rel_err()),
            metric("counters.max_log_gap", "nat", self.acc.max_log_gap),
            metric("cluster.setup_s", "s", self.cluster_setup_s),
            metric("cluster.feed_s", "s", self.cluster_feed_s),
            metric("cluster.driver_s", "s", self.cluster_driver_s),
            metric("cluster.drain_s", "s", self.cluster_drain_s),
            metric("cluster.coordinator_busy_s", "s", self.coordinator_busy_s),
            metric("cluster.coordinator_busy_share", "ratio", self.coordinator_busy_share),
            metric("cluster.events_per_packet", "events/packet", self.events_per_packet),
            metric("cluster.flush_epochs", "count", self.flush_epochs),
            metric(
                "cluster.overhead_ratio",
                "ratio",
                self.sim_ref_events_per_s / self.cluster_rate,
            ),
            metric("cluster.exact_ref_events_per_s", "events/s", self.exact_ref_events_per_s),
            metric("cluster.exact_ref_bytes_per_event", "B/event", self.exact_ref_bytes_per_event),
            metric("process.cpu_s_per_mevent", "s/Mevent", self.cpu_s_per_mevent),
            metric("serve.snapshot_ns_p50", "ns", r.snapshot_ns_p50),
            metric("serve.resolve_us_p50", "us", r.resolve_us_p50),
            metric("serve.resolve_share", "ratio", r.resolve_share),
            metric("serve.log_query_ns_p50", "ns", r.log_query_ns_p50),
            metric("serve.classify_ns_p50", "ns", r.classify_ns_p50),
            metric("serve.posterior_ns_p50", "ns", r.posterior_ns_p50),
            metric("serve.snapshots_seen", "count", r.snapshots_seen),
            metric("serve.mint_interval_ms_p50", "ms", r.mint_interval_ms_p50),
            metric("gen.ingest_lateness_ms_p99", "ms", self.ingest_lateness_ms_p99),
            metric("gen.query_lateness_ms_p99", "ms", r.query_lateness_ms_p99),
            metric("gen.mint_s", "s", self.mint_s),
            metric("trace.ingest_overhead_ratio", "ratio", self.ingest_overhead),
            metric("trace.query_p50_overhead_ratio", "ratio", self.query_p50_overhead),
        ]
    }
}

fn alarm_config(scheme: Scheme, seed: u64) -> dsbn_core::TrackerConfig {
    tracker_config(scheme, ALARM_K, seed)
}

/// Reference passes shared by the traced ALARM workloads: the same stream
/// on the single-thread tracker and under EXACTMLE on the cluster.
fn alarm_references(ctx: &mut Ctx, inp: &Inputs, events: u64, layers: &mut Layers) {
    let seed = ctx.seed;
    let sim = ctx.scoped("ref.sim", |ctx| {
        let rec = ctx.driver.as_mut();
        sim_pass(&inp.net, &alarm_config(Scheme::NonUniform, seed), &inp.pool, events, rec)
    });
    layers.sim_ref_events_per_s = per_event(sim.events, 1) / secs(sim.ingest);
    layers.sim_observe_ns_per_event = secs(sim.ingest) * 1e9 / sim.events as f64;
    exact_reference(ctx, inp, events, layers);
    layers.map_ns_per_event = ctx.scoped("layout.map", |_| map_pass(&inp.net, &inp.pool, events));
    layers.n_counters = CounterLayout::new(&inp.net).n_counters() as f64;
}

/// The workload's stream under EXACTMLE on the cluster: the base of the
/// HYZ-vs-exact gap.
fn exact_reference(ctx: &mut Ctx, inp: &Inputs, events: u64, layers: &mut Layers) {
    let seed = ctx.seed;
    let exact = ctx.scoped("ref.exact", |_| {
        let spec = ClusterSpec {
            net: &inp.net,
            config: alarm_config(Scheme::ExactMle, seed),
            pool: &inp.pool,
            events,
            rate: None,
            stamp_every: None,
            reader: None,
        };
        cluster_pass(spec, None, None)
    });
    count_pass(&mut ctx.tally, &exact.run);
    layers.exact_ref_events_per_s = events as f64 / secs(exact.ingest);
    layers.exact_ref_bytes_per_event =
        stats_of(&exact).map_or(f64::NAN, |s| per_event(s.bytes, events));
}

/// The serve layer and the pacing generator sit idle in the closed-loop
/// workloads; a short serving pass on the same stream measures them.
fn serving_probe(ctx: &mut Ctx, inp: &Inputs, layers: &mut Layers) {
    let config = alarm_config(Scheme::NonUniform, ctx.seed);
    let events = SERVE_EVENTS / 2;
    let probe = ctx.scoped("probe.serve", |ctx| {
        serve_pass(ctx, inp, config, events, (SERVE_RATE, SERVE_EVERY, SERVE_QPS), true)
    });
    check_serving(ctx, &probe, &inp.queries, (events, SERVE_RATE));
    layers.reader = ReaderLayers::of(&[probe.reader.as_ref().expect("serving pass has a reader")]);
    layers.ingest_lateness_ms_p99 = quantile(&probe.ingest_lateness_ms, 0.99);
}

/// A serving pass: paced ingest with snapshot settlements and the
/// open-loop reader.
fn serve_pass(
    ctx: &mut Ctx,
    inp: &Inputs,
    config: dsbn_core::TrackerConfig,
    events: u64,
    (rate, every, qps): (f64, u64, f64),
    traced: bool,
) -> ClusterOut {
    let mut reader_rec = ctx.reader_rec(traced);
    let spec = ClusterSpec {
        net: &inp.net,
        config,
        pool: &inp.pool,
        events,
        rate: Some(rate),
        stamp_every: Some(every),
        reader: Some(ReaderSpec { queries: &inp.queries, qps }),
    };
    let out = cluster_pass(spec, ctx.rec(traced), reader_rec.as_mut());
    ctx.readers.extend(reader_rec);
    out
}

/// Checks particular to a serving pass of `events` offered at `rate`: the
/// reader's answers were well formed, the served final answers are
/// bit-identical to the end-of-run model, and the pass ran below the
/// sustainable rate.
fn check_serving(ctx: &mut Ctx, out: &ClusterOut, queries: &QuerySet, (events, rate): (u64, f64)) {
    let reader = out.reader.as_ref().expect("serving pass has a reader");
    ctx.tally.attempted += reader.queries;
    ctx.tally.failed += reader.failed;
    if reader.failed > 0 {
        ctx.tally.notes.push(format!("{} served answers were malformed", reader.failed));
    }
    if let (Ok(run), Some(server)) = (&out.run, &out.server) {
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let same = (0..queries.len()).all(|i| {
            let q = queries.get(i);
            q.prepare(&mut x);
            q.prepare(&mut y);
            same_bits(&q.ask(server, &mut x), &q.ask(&run.model, &mut y))
        });
        ctx.tally.op(same, || "final served answers differ from the end-of-run model".into());
    }
    // Above the sustainable rate the backlog grows for as long as the pass
    // lasts: in the generator (lateness) or in the runtime's queues (the
    // achieved rate falls behind the offered one).
    let late = &out.ingest_lateness_ms;
    let tail = median(&late[late.len() - late.len() / 10..]);
    let achieved = events as f64 / secs(out.ingest);
    ctx.tally.op((tail.is_nan() || tail <= 50.0) && achieved >= SUSTAINED_SHARE * rate, || {
        format!(
            "above the sustainable rate: {achieved:.0} of {rate:.0} events/s achieved, \
             ingest {tail:.1} ms late at the end"
        )
    });
}

fn alarm_ingest(ctx: &mut Ctx) -> Vec<Metric> {
    let inp = inputs(ctx, NetworkSpec::alarm(), ALARM_POOL);
    let seed = ctx.seed;
    let mut times = [QueryTimes::default(), QueryTimes::default()];
    let mut acc = Accuracy::default();
    let mut rel_err = Vec::new();
    let reps = ctx.repeat(|ctx, traced| {
        let spec = ClusterSpec {
            net: &inp.net,
            config: alarm_config(Scheme::NonUniform, seed),
            pool: &inp.pool,
            events: ALARM_INGEST_EVENTS,
            rate: None,
            stamp_every: Some(STAMP_EVERY),
            reader: None,
        };
        let out = cluster_pass(spec, ctx.rec(traced), None);
        note_pass(&out, ALARM_INGEST_EVENTS);
        let t = &mut times[usize::from(traced)];
        let err = ctx.scoped("checks", |ctx| {
            check_cluster(ctx, &out, ALARM_INGEST_EVENTS, &inp.queries, t, &mut acc)
        });
        rel_err.extend(err);
        out
    });
    let events = ALARM_INGEST_EVENTS;
    let rate = med(&reps, |r| (!r.0).then(|| events as f64 / secs(r.1.ingest)));
    if !ctx.traced {
        let stale: Vec<f64> =
            reps.iter().flat_map(|r| r.1.handed.iter().map(|&t| ms(r.1.returned - t))).collect();
        return end_to_end(
            rate,
            med(&reps, |r| stats_of(&r.1).map(|s| per_event(s.bytes, events))),
            med(&reps, |r| stats_of(&r.1).map(|s| per_event(s.total(), events))),
            &times[0].latencies_us(),
            &stale,
            med(&reps, |r| Some(secs(r.1.setup))),
        );
    }
    let mut layers = Layers {
        mint_s: inp.mint_s,
        rel_err_rms: median(&rel_err),
        acc,
        cluster_rate: rate,
        ..Layers::default()
    };
    let traced: Vec<&ClusterOut> = reps.iter().filter(|r| r.0).map(|r| &r.1).collect();
    layers.cluster(&traced, ctx.driver.as_ref().expect("traced run"));
    layers.ingest_overhead = rate / med(&reps, |r| r.0.then(|| events as f64 / secs(r.1.ingest)));
    layers.query_p50_overhead = median(&times[1].latencies_us()) / median(&times[0].latencies_us());
    alarm_references(ctx, &inp, events, &mut layers);
    layers.init_build_s = median(&ctx.driver.as_ref().expect("traced run").durations("init.build"));
    serving_probe(ctx, &inp, &mut layers);
    layers.into_metrics()
}

fn alarm_sim(ctx: &mut Ctx) -> Vec<Metric> {
    let inp = inputs(ctx, NetworkSpec::alarm(), ALARM_POOL);
    let seed = ctx.seed;
    let config = alarm_config(Scheme::NonUniform, seed);
    let events = ALARM_INGEST_EVENTS;
    let mut times = [QueryTimes::default(), QueryTimes::default()];
    let mut acc = Accuracy::default();
    let mut rel_err = Vec::new();
    // Per pass, the median `observe_chunk` latency.
    let mut chunk_ms = Vec::new();
    let reps = ctx.repeat(|ctx, traced| {
        let out = sim_pass(&inp.net, &config, &inp.pool, events, ctx.rec(traced));
        eprintln!(
            "  pass: {:.0} events/s, set-up {:.3} ms",
            out.events as f64 / secs(out.ingest),
            ms(out.setup)
        );
        let t = &mut times[usize::from(traced)];
        rel_err.push(ctx.scoped("checks", |ctx| check_sim(ctx, &out, &inp.queries, t, &mut acc)));
        if !traced {
            chunk_ms.push(median(&out.chunk_latency.iter().map(|&d| ms(d)).collect::<Vec<_>>()));
        }
        (out.events, out.setup, out.ingest, out.tracker.stats(), out.cpu_s)
    });
    let untraced_rate = med(&reps, |r| (!r.0).then(|| r.1 .0 as f64 / secs(r.1 .2)));
    if !ctx.traced {
        return end_to_end(
            untraced_rate,
            med(&reps, |r| Some(per_event(r.1 .3.bytes, r.1 .0))),
            med(&reps, |r| Some(per_event(r.1 .3.total(), r.1 .0))),
            &times[0].latencies_us(),
            &chunk_ms,
            med(&reps, |r| Some(secs(r.1 .1))),
        );
    }
    let driver = ctx.driver.as_ref().expect("traced run");
    let traced_rate = med(&reps, |r| r.0.then(|| r.1 .0 as f64 / secs(r.1 .2)));
    let (sim_events, _, _, stats, _) = reps.iter().find(|r| r.0).expect("a traced repetition").1;
    let observe: f64 = driver.durations("sim.observe").iter().sum();
    let traced_events: u64 = reps.iter().filter(|r| r.0).map(|r| r.1 .0).sum();
    let mut layers = Layers {
        init_build_s: median(&driver.durations("init.build")),
        sim_observe_ns_per_event: observe * 1e9 / traced_events as f64,
        sim_ref_events_per_s: untraced_rate,
        stats,
        stats_events: sim_events,
        rel_err_rms: median(&rel_err),
        acc,
        mint_s: inp.mint_s,
        ingest_overhead: untraced_rate / traced_rate,
        query_p50_overhead: median(&times[1].latencies_us()) / median(&times[0].latencies_us()),
        ..Layers::default()
    };
    layers.map_ns_per_event = ctx.scoped("layout.map", |_| map_pass(&inp.net, &inp.pool, events));
    layers.n_counters = CounterLayout::new(&inp.net).n_counters() as f64;
    // No threads, channels or scheduler run in this workload; probes of
    // the same stream on the cluster (closed-loop, EXACTMLE and serving)
    // give those layers' figures.
    let spec = ClusterSpec {
        net: &inp.net,
        config,
        pool: &inp.pool,
        events,
        rate: None,
        stamp_every: None,
        reader: None,
    };
    let closed = ctx.scoped("probe.cluster", |ctx| cluster_pass(spec, ctx.rec(true), None));
    count_pass(&mut ctx.tally, &closed.run);
    layers.cluster_rate = events as f64 / secs(closed.ingest);
    layers.cluster(&[&closed], ctx.driver.as_ref().expect("traced run"));
    // The process CPU of this workload's own passes, not of the probe.
    layers.cpu_s_per_mevent = med(&reps, |r| r.0.then(|| r.1 .4 / r.1 .0 as f64 * 1e6));
    exact_reference(ctx, &inp, events, &mut layers);
    serving_probe(ctx, &inp, &mut layers);
    layers.into_metrics()
}

fn alarm_serve(ctx: &mut Ctx) -> Vec<Metric> {
    let inp = inputs(ctx, NetworkSpec::alarm(), ALARM_POOL);
    let seed = ctx.seed;
    let mut times = QueryTimes::default();
    let mut acc = Accuracy::default();
    let mut rel_err = Vec::new();
    let reps = ctx.repeat(|ctx, traced| {
        let out = serve_pass(
            ctx,
            &inp,
            alarm_config(Scheme::NonUniform, seed),
            SERVE_EVENTS,
            (SERVE_RATE, SERVE_EVERY, SERVE_QPS),
            traced,
        );
        note_pass(&out, SERVE_EVENTS);
        ctx.scoped("checks", |ctx| {
            rel_err.extend(check_cluster(
                ctx,
                &out,
                SERVE_EVENTS,
                &inp.queries,
                &mut times,
                &mut acc,
            ));
            check_serving(ctx, &out, &inp.queries, (SERVE_EVENTS, SERVE_RATE));
        });
        out
    });
    let events = SERVE_EVENTS;
    let pooled = |traced: bool, f: &dyn Fn(&ClusterOut) -> Vec<f64>| -> Vec<f64> {
        reps.iter().filter(|r| r.0 == traced).flat_map(|r| f(&r.1)).collect()
    };
    let latency = |o: &ClusterOut| o.reader.as_ref().map_or(Vec::new(), |r| r.latency_us.clone());
    let rate = med(&reps, |r| (!r.0).then(|| events as f64 / secs(r.1.ingest)));
    if !ctx.traced {
        let stale = pooled(false, &|o| {
            let Some(&origin) = o.handed.first() else { return Vec::new() };
            let handed: Vec<Duration> = o.handed.iter().map(|&t| t - origin).collect();
            let loads: Vec<(Duration, u64)> = o.reader.as_ref().map_or(Vec::new(), |r| {
                r.loads.iter().map(|&(t, e)| (t.saturating_duration_since(origin), e)).collect()
            });
            staleness(&handed, SERVE_EVERY, &loads).into_iter().map(ms).collect()
        });
        return end_to_end(
            rate,
            med(&reps, |r| stats_of(&r.1).map(|s| per_event(s.bytes, events))),
            med(&reps, |r| stats_of(&r.1).map(|s| per_event(s.total(), events))),
            &pooled(false, &latency),
            &stale,
            med(&reps, |r| Some(secs(r.1.setup))),
        );
    }
    let mut layers = Layers {
        mint_s: inp.mint_s,
        rel_err_rms: median(&rel_err),
        acc,
        cluster_rate: rate,
        ..Layers::default()
    };
    let traced: Vec<&ClusterOut> = reps.iter().filter(|r| r.0).map(|r| &r.1).collect();
    let driver = ctx.driver.as_ref().expect("traced run");
    layers.cluster(&traced, driver);
    layers.init_build_s = median(&driver.durations("init.build"));
    layers.ingest_overhead = rate / med(&reps, |r| r.0.then(|| events as f64 / secs(r.1.ingest)));
    layers.query_p50_overhead = median(&pooled(true, &latency)) / median(&pooled(false, &latency));
    alarm_references(ctx, &inp, events, &mut layers);
    layers.into_metrics()
}
