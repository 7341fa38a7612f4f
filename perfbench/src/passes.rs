//! The measured passes every workload is built from: one cluster run
//! (closed- or open-loop ingest, optionally with a live reader), one run of
//! the single-thread tracker, and a replay of the id-mapping kernel.
//!
//! Inputs come from a seeded [`Pool`] minted before any timed window and
//! replayed cyclically, so a pass of any length costs the generator only a
//! copy per event and memory stays bounded.

use crate::checks::{Query, QuerySet, Tally, EPS};
use crate::host;
use crate::spans::Recorder;
use dsbn_bayes::BayesianNetwork;
use dsbn_core::{
    build_tracker, run_cluster_tracker, AnyTracker, ClusterTrackerRun, CounterLayout, Scheme,
    SnapshotHub, SnapshotServer, TrackerConfig,
};
use dsbn_datagen::{EventChunk, TrainingStream};
use dsbn_monitor::ClusterError;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Events per pool chunk, and the chunk the single-thread tracker observes
/// per call (the cluster's default ingest chunk).
pub const CHUNK: usize = 256;

/// A seeded pool of training events, replayed cyclically.
pub struct Pool {
    chunks: Vec<EventChunk>,
    events: u64,
}

impl Pool {
    /// Mint `events` (rounded up to whole chunks) from `net` with `seed`.
    pub fn mint(net: &BayesianNetwork, seed: u64, events: u64) -> Self {
        let events = events.div_ceil(CHUNK as u64) * CHUNK as u64;
        let chunks = TrainingStream::new(net, seed).chunks(CHUNK, events).collect();
        Pool { chunks, events }
    }

    /// Event `i` of the replayed stream.
    pub fn event(&self, i: u64) -> &[u32] {
        let j = i % self.events;
        self.chunks[(j / CHUNK as u64) as usize].event((j % CHUNK as u64) as usize)
    }

    /// The first `events` of the replayed stream as whole chunks (`events`
    /// rounds up to a chunk).
    pub fn chunks(&self, events: u64) -> impl Iterator<Item = &EventChunk> {
        let n = events.div_ceil(CHUNK as u64) as usize;
        self.chunks.iter().cycle().take(n)
    }
}

/// The tracker configuration every workload uses: defaults apart from the
/// scheme, `eps`, `k` and the seed (and, for serving, the snapshot hub and
/// cadence).
pub fn tracker_config(scheme: Scheme, k: usize, seed: u64) -> TrackerConfig {
    TrackerConfig::new(scheme).with_eps(EPS).with_k(k).with_seed(seed)
}

/// The event iterator handed to `run_cluster_tracker`. It records when
/// the runtime first pulls (set-up ends), when each settlement's last
/// event and the stream's last event are handed over, and, when paced,
/// sleeps until each event is due. Traced, it also splits the driver
/// thread's time into generator work, pacing sleep and runtime work
/// between pulls.
struct Feed<'a> {
    pool: &'a Pool,
    next: u64,
    total: u64,
    /// Open-loop schedule: nanoseconds between events.
    period_ns: Option<f64>,
    /// Stamp the hand-off time of every this many events, for staleness.
    every: Option<u64>,
    traced: bool,
    start: Option<Instant>,
    prev_exit: Option<Instant>,
    last_handed: Option<Instant>,
    final_pull: Option<Instant>,
    handed: Vec<Instant>,
    /// Lateness of every 64th event, milliseconds.
    lateness_ms: Vec<f64>,
    feed: Duration,
    driver: Duration,
    idle: Duration,
}

impl Iterator for Feed<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        // The runtime may pull again after the end; only the first end
        // counts.
        if self.final_pull.is_some() {
            return None;
        }
        let i = self.next;
        let timed = self.traced || self.period_ns.is_some() || i == 0 || i == self.total;
        let enter = if timed { Some(Instant::now()) } else { None };
        if let (true, Some(prev), Some(enter)) = (self.traced, self.prev_exit, enter) {
            self.driver += enter - prev;
        }
        if i == self.total {
            self.final_pull = enter;
            return None;
        }
        let start = *self.start.get_or_insert_with(|| enter.expect("first pull is timed"));
        let mut woke = enter;
        if let (Some(period), Some(now)) = (self.period_ns, enter) {
            let due = start + Duration::from_nanos((i as f64 * period) as u64);
            let now = if now < due {
                std::thread::sleep(due - now);
                let w = Instant::now();
                self.idle += w - now;
                w
            } else {
                now
            };
            if i.is_multiple_of(64) {
                self.lateness_ms.push((now - due).as_secs_f64() * 1e3);
            }
            woke = Some(now);
        }
        let x: Vec<usize> = self.pool.event(i).iter().map(|&v| v as usize).collect();
        self.next += 1;
        let boundary = self.every.is_some_and(|e| self.next.is_multiple_of(e));
        if self.traced || boundary || self.next == self.total {
            let exit = Instant::now();
            if let Some(w) = woke {
                self.feed += exit - w;
            }
            if boundary {
                self.handed.push(exit);
            }
            if self.next == self.total {
                self.last_handed = Some(exit);
            }
            self.prev_exit = Some(exit);
        }
        Some(x)
    }
}

/// The open-loop reader of a serving pass.
pub struct ReaderSpec<'a> {
    pub queries: &'a QuerySet,
    /// Queries per second.
    pub qps: f64,
}

/// What the reader brings home.
#[derive(Default)]
pub struct ReaderOut {
    /// Per query, from its due time to its answer, microseconds.
    pub latency_us: Vec<f64>,
    /// Per query, how late the reader started it, milliseconds.
    pub lateness_ms: Vec<f64>,
    /// `(when, events)` at the first load of each new snapshot sequence.
    pub loads: Vec<(Instant, u64)>,
    pub queries: u64,
    pub failed: u64,
    // Traced only: per-call times.
    pub snapshot_ns: Vec<f64>,
    pub resolve_us: Vec<f64>,
    pub log_query_ns: Vec<f64>,
    pub classify_ns: Vec<f64>,
    pub posterior_ns: Vec<f64>,
    pub resolve_total: Duration,
    pub busy_total: Duration,
}

/// How long before a query is due the reader stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

const RUNNING: u8 = 0;
const DONE: u8 = 1;
const FAILED: u8 = 2;

fn reader_loop(
    server: &SnapshotServer,
    spec: &ReaderSpec<'_>,
    state: &AtomicU8,
    rec: Option<&mut Recorder>,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let traced = rec.is_some();
    let start = Instant::now();
    let root = rec.map(|r| (r.open_at("reader", start), r));
    let period = 1.0 / spec.qps;
    let (mut idle, mut snap_t, mut eval_t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut last_seq = server.seq();
    let mut finalized = false;
    let mut x = Vec::new();
    let qs = spec.queries;
    for i in 0u64.. {
        match state.load(Ordering::Acquire) {
            FAILED => break,
            DONE if finalized => break,
            _ => {}
        }
        let due = start + Duration::from_secs_f64(i as f64 * period);
        let q = qs.get(i as usize);
        q.prepare(&mut x);
        let now = Instant::now();
        let woke = if now < due {
            // Sleep to just short of the due time, then spin: a sleeping
            // thread wakes up to a scheduler tick late, which would time
            // the timer rather than the query.
            if due - now > SPIN {
                std::thread::sleep(due - now - SPIN);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let w = Instant::now();
            idle += w - now;
            w
        } else {
            now
        };
        out.lateness_ms.push((woke - due).as_secs_f64() * 1e3);
        let snap = server.snapshot();
        let loaded = Instant::now();
        if snap.seq != last_seq {
            last_seq = snap.seq;
            finalized = snap.finalized;
            out.loads.push((loaded, snap.events));
            if traced {
                out.resolve_us.push((loaded - woke).as_secs_f64() * 1e6);
                out.resolve_total += loaded - woke;
            }
        } else if traced {
            out.snapshot_ns.push((loaded - woke).as_nanos() as f64);
        }
        snap_t += loaded - woke;
        let answer = q.ask(&server.evaluator(&snap), &mut x);
        let done = Instant::now();
        let ok = q.well_formed(&answer, server.structure());
        eval_t += done - loaded;
        if traced {
            let ns = (done - loaded).as_nanos() as f64;
            match q {
                Query::Joint(_) => out.log_query_ns.push(ns),
                Query::Classify(_) => out.classify_ns.push(ns),
                Query::Posterior(_) => out.posterior_ns.push(ns),
            }
        }
        out.latency_us.push((done - due).as_secs_f64() * 1e6);
        out.queries += 1;
        out.failed += u64::from(!ok);
    }
    out.busy_total = snap_t + eval_t;
    if let Some((id, r)) = root {
        r.aggregate("reader.idle", idle, out.queries);
        r.aggregate("serve.snapshot", snap_t, out.queries);
        r.aggregate("serve.evaluate", eval_t, out.queries);
        r.close(id);
    }
    out
}

/// One cluster pass: `run_cluster_tracker` over `events` events of the
/// pool, closed-loop or paced at `rate`, optionally settling and
/// publishing a snapshot every `stamp_every` events to a server that
/// `reader` queries meanwhile.
pub struct ClusterSpec<'a> {
    pub net: &'a BayesianNetwork,
    pub config: TrackerConfig,
    pub pool: &'a Pool,
    pub events: u64,
    /// Open-loop ingest rate, events per second; `None` is closed-loop.
    pub rate: Option<f64>,
    /// Stamp the hand-off time of every this many events; a serving pass
    /// also settles at this cadence.
    pub stamp_every: Option<u64>,
    /// The reader of a serving pass.
    pub reader: Option<ReaderSpec<'a>>,
}

pub struct ClusterOut {
    pub run: Result<ClusterTrackerRun, ClusterError>,
    /// The server the reader used (serving passes), for the final-answer
    /// identity check.
    pub server: Option<SnapshotServer>,
    /// First library call to first event accepted.
    pub setup: Duration,
    /// First event accepted to the final model returned.
    pub ingest: Duration,
    /// Last event handed to the final model returned.
    pub drain: Duration,
    pub cpu_s: f64,
    pub ingest_lateness_ms: Vec<f64>,
    /// Hand-off times of every `stamp_every`-th event.
    pub handed: Vec<Instant>,
    /// When the final model was returned.
    pub returned: Instant,
    pub reader: Option<ReaderOut>,
}

/// Run one cluster pass. With `rec`, the driver thread's time is recorded
/// as spans under the innermost open span, and the reader traces into
/// `reader_rec`.
pub fn cluster_pass(
    spec: ClusterSpec<'_>,
    mut rec: Option<&mut Recorder>,
    reader_rec: Option<&mut Recorder>,
) -> ClusterOut {
    let traced = rec.is_some();
    let cpu0 = host::process_cpu_s();
    let mut feed = Feed {
        pool: spec.pool,
        next: 0,
        total: spec.events,
        period_ns: spec.rate.map(|r| 1e9 / r),
        every: spec.stamp_every,
        traced,
        start: None,
        prev_exit: None,
        last_handed: None,
        final_pull: None,
        handed: Vec::new(),
        lateness_ms: Vec::new(),
        feed: Duration::ZERO,
        driver: Duration::ZERO,
        idle: Duration::ZERO,
    };
    let call = Instant::now();
    let pass_span = rec.as_deref_mut().map(|r| r.open_at("cluster.run", call));
    let mut config = spec.config;
    let mut built = None;
    let (run, server, reader) = match spec.reader {
        None => (run_cluster_tracker(spec.net, &config, feed.by_ref()), None, None),
        Some(reader_spec) => {
            let every = spec.stamp_every.expect("a serving pass settles at its stamp cadence");
            let hub = SnapshotHub::new();
            let server = SnapshotServer::new(spec.net, config.smoothing, hub.clone());
            built = Some(Instant::now());
            config = config.with_snapshot_every(every).with_publish(hub);
            let state = AtomicU8::new(RUNNING);
            let (run, reader) = std::thread::scope(|scope| {
                let reader = scope.spawn(|| reader_loop(&server, &reader_spec, &state, reader_rec));
                let run = run_cluster_tracker(spec.net, &config, feed.by_ref());
                state.store(if run.is_ok() { DONE } else { FAILED }, Ordering::Release);
                (run, reader.join().expect("reader thread panicked"))
            });
            (run, Some(server), Some(reader))
        }
    };
    let returned = Instant::now();
    let first = feed.start.unwrap_or(returned);
    if let (Some(r), Some(id)) = (rec, pass_span) {
        let setup = r.open_at("cluster.setup", call);
        if let Some(built) = built {
            r.record("init.build", call, built);
        }
        r.close_at(setup, first);
        let stream = r.open_at("cluster.stream", first);
        r.aggregate("cluster.feed", feed.feed, feed.next);
        r.aggregate("cluster.driver", feed.driver, feed.next);
        r.aggregate("gen.idle", feed.idle, feed.next);
        let final_pull = feed.final_pull.unwrap_or(returned);
        r.close_at(stream, final_pull);
        r.record("cluster.drain", final_pull, returned);
        r.close_at(id, returned);
    }
    ClusterOut {
        run,
        server,
        setup: first - call,
        ingest: returned - first,
        drain: returned - feed.last_handed.unwrap_or(returned),
        cpu_s: host::process_cpu_s() - cpu0,
        ingest_lateness_ms: feed.lateness_ms,
        handed: feed.handed,
        returned,
        reader,
    }
}

pub struct SimOut {
    pub tracker: AnyTracker,
    pub events: u64,
    /// `build_tracker` call to the first `observe_chunk` call.
    pub setup: Duration,
    /// First `observe_chunk` call to the last one's return.
    pub ingest: Duration,
    /// Per `observe_chunk` call: from handing the chunk over to the model
    /// covering it.
    pub chunk_latency: Vec<Duration>,
    pub cpu_s: f64,
}

/// One pass of the single-thread tracker: `build_tracker`, then
/// `observe_chunk` over `events` events of the pool (rounded up to whole
/// chunks). Traced, each call is a span under the innermost open span.
pub fn sim_pass(
    net: &BayesianNetwork,
    config: &TrackerConfig,
    pool: &Pool,
    events: u64,
    mut rec: Option<&mut Recorder>,
) -> SimOut {
    let cpu0 = host::process_cpu_s();
    let call = Instant::now();
    let mut tracker = build_tracker(net, config);
    let built = Instant::now();
    if let Some(r) = rec.as_deref_mut() {
        r.record("init.build", call, built);
    }
    let mut chunk_latency = Vec::new();
    let mut n = 0u64;
    let first = Instant::now();
    for chunk in pool.chunks(events) {
        let t0 = Instant::now();
        tracker.observe_chunk(chunk);
        let t1 = Instant::now();
        if let Some(r) = rec.as_deref_mut() {
            r.record("sim.observe", t0, t1);
        }
        chunk_latency.push(t1 - t0);
        n += chunk.len() as u64;
    }
    let end = Instant::now();
    SimOut {
        tracker,
        events: n,
        setup: first - call,
        ingest: end - first,
        chunk_latency,
        cpu_s: host::process_cpu_s() - cpu0,
    }
}

/// Replay `CounterLayout::map_chunk` over the first `events` events of the
/// pool; nanoseconds per event.
pub fn map_pass(net: &BayesianNetwork, pool: &Pool, events: u64) -> f64 {
    let layout = CounterLayout::new(net);
    let mut ids = Vec::new();
    let mut n = 0u64;
    let t0 = Instant::now();
    for chunk in pool.chunks(events) {
        layout.map_chunk(chunk, &mut ids);
        std::hint::black_box(&ids);
        n += chunk.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Check a ClusterError-free pass: count the pass as one operation.
pub fn count_pass<T>(tally: &mut Tally, res: &Result<T, ClusterError>) {
    tally.op(res.is_ok(), || match res {
        Err(e) => format!("cluster run failed: {e}"),
        Ok(_) => unreachable!(),
    });
}
