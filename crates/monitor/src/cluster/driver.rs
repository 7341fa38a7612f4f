//! The run driver: spawns the site and coordinator threads, feeds the
//! stream, and reconstructs the exact oracles into a [`ClusterReport`].

use crate::partition::SiteAssigner;
use crate::transport::{ChannelTransport, ClusterError, Fabric, Transport, UpPacket, UpSender};
use bytes::BytesMut;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use dsbn_counters::protocol::CounterProtocol;
use dsbn_datagen::EventChunk;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

use super::config::{ChurnReport, ClusterConfig, ClusterReport};
use super::coordinator::run_coordinator;
use super::site::{run_site, SiteFeed, SiteFinal, SiteWorker};

/// Run a chunked stream through the cluster over the default in-process
/// channel transport. See [`run_cluster_on`] for the parameters; this is
/// `run_cluster_on(&ChannelTransport, ...)`.
pub fn run_cluster<P, F, I>(
    protocols: &[P],
    config: &ClusterConfig,
    events: I,
    map_event: F,
) -> Result<ClusterReport, ClusterError>
where
    P: CounterProtocol + Sync,
    P::Site: Send,
    F: Fn(&EventChunk, &mut Vec<u32>) + Sync,
    I: Iterator<Item = EventChunk>,
{
    run_cluster_on(&ChannelTransport, protocols, config, events, map_event)
}

/// Run a chunked stream through the cluster over `transport`.
///
/// * `protocols` — one protocol instance per counter.
/// * `events` — the training stream as [`EventChunk`]s, consumed on the
///   caller thread (use [`dsbn_datagen::chunk_events`] or
///   [`dsbn_datagen::TrainingStream::chunks`] to produce them; incoming
///   chunk granularity is transport-only — the driver re-chunks per site
///   by [`ClusterConfig::chunk`], which is what governs wire behavior).
/// * `map_event` — maps a whole per-site chunk to the counter ids its
///   events increment, back to back at a fixed per-event stride (the
///   tracker's UPDATE logic, e.g. `CounterLayout::map_chunk` writing each
///   event's 2n family/parent counters of Algorithm 2); called on site
///   threads, once per delivered chunk rather than once per event.
///
/// Fails with a typed [`ClusterError`] — never a panic or a hung join —
/// when a packet fails to decode, a frame arrives where the protocol
/// forbids it, or the transport substrate errors.
pub fn run_cluster_on<T, P, F, I>(
    transport: &T,
    protocols: &[P],
    config: &ClusterConfig,
    events: I,
    map_event: F,
) -> Result<ClusterReport, ClusterError>
where
    T: Transport,
    P: CounterProtocol + Sync,
    P::Site: Send,
    F: Fn(&EventChunk, &mut Vec<u32>) + Sync,
    I: Iterator<Item = EventChunk>,
{
    assert!(config.k > 0, "need at least one site");
    assert!(config.chunk >= 1, "chunk must be >= 1");
    if let Some(b) = config.epoch_boundary {
        assert!(b >= 1, "epoch boundary must be >= 1");
        assert!(config.epoch_ring >= 1, "epoch ring must be >= 1");
    }
    for f in &config.faults {
        assert!(f.site < config.k, "fault targets site {} but k = {}", f.site, config.k);
        if let Some(r) = f.revive_at {
            assert!(r > f.kill_at, "site {} revive_at {r} <= kill_at {}", f.site, f.kill_at);
        }
    }
    let k = config.k;
    let start = Instant::now();

    let Fabric { site_ups, driver_up, coord_rx, coord_downs, site_downs, pumps } =
        transport.connect(k, config.channel_capacity)?;

    let mut event_txs: Vec<Sender<SiteFeed>> = Vec::with_capacity(k);
    let mut event_rxs: Vec<Receiver<SiteFeed>> = Vec::with_capacity(k);
    for _ in 0..k {
        let (tx, rx) = bounded::<SiteFeed>(config.channel_capacity);
        event_txs.push(tx);
        event_rxs.push(rx);
    }
    // Final site states, oracle snapshots, and churn ledgers.
    let (state_tx, state_rx) = unbounded::<SiteFinal<P::Site>>();

    let result = std::thread::scope(|scope| {
        // --- site threads ---
        for (site_id, ((up_tx, down_rx), event_rx)) in
            site_ups.into_iter().zip(site_downs).zip(event_rxs).enumerate()
        {
            let state_tx = state_tx.clone();
            let map_event = &map_event;
            let seed = config.seed;
            let flush_bytes = config.flush_bytes;
            scope.spawn(move || {
                let mut worker = SiteWorker {
                    site_id,
                    protocols,
                    map_event,
                    up_tx,
                    flush_bytes,
                    states: protocols.iter().map(|p| p.new_site()).collect(),
                    snaps: Vec::new(),
                    rng: SmallRng::seed_from_u64(seed ^ (site_id as u64).wrapping_mul(0x9e37_79b9)),
                    ids: Vec::new(),
                    batch: Vec::new(),
                    pkt: BytesMut::new(),
                    dying: false,
                    dead: false,
                    lost: vec![0; protocols.len()],
                    events_lost: 0,
                    down_since: None,
                    downtime: Duration::ZERO,
                };
                // A panic out of the serve loop (protocol or `map_event`
                // code is caller-supplied) becomes an in-band typed fault,
                // so the coordinator aborts the run with it instead of the
                // driver discarding a poisoned join.
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_site(&mut worker, &down_rx, &event_rx);
                }))
                .is_err();
                if panicked {
                    let _ = worker.up_tx.send(UpPacket::Fault {
                        site: site_id,
                        error: ClusterError::WorkerPanicked { role: format!("site {site_id}") },
                    });
                }
                if let Some(t) = worker.down_since.take() {
                    worker.downtime += t.elapsed();
                }
                let _ = state_tx.send(SiteFinal {
                    site_id,
                    states: worker.states,
                    snaps: worker.snaps,
                    lost: worker.lost,
                    events_lost: worker.events_lost,
                    downtime: worker.downtime,
                });
            });
        }
        drop(state_tx);

        // --- coordinator thread ---
        let ring_cap = config.epoch_ring;
        let hub = config.publish.clone();
        let boundary = config.epoch_boundary.unwrap_or(0);
        let coord_handle = scope.spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_coordinator(protocols, k, ring_cap, coord_downs, coord_rx, hub, boundary)
            }))
            .unwrap_or_else(|_| Err(ClusterError::WorkerPanicked { role: "coordinator".into() }))
        });

        // --- driver: feed events from the caller thread ---
        // Incoming chunks are re-chunked per destination site: each event
        // is routed by the partitioner and appended to that site's pending
        // chunk, which ships when it reaches `config.chunk` events. One
        // channel send thus carries a whole slab of events; `chunk = 1`
        // degenerates to one send per event.
        let mut assigner = SiteAssigner::new(config.partitioner, k);
        let mut driver_rng = SmallRng::seed_from_u64(config.seed ^ 0xd1f7);
        // Flatten the fault schedule into event-ordered injections. Every
        // injection rides the driver's up link as an `Inject` marker —
        // FIFO against `RollRequest`s and ahead of the channel close, so
        // the coordinator handles every one of them in phase 1 — and a
        // kill *additionally* rides the target site's event link as an
        // in-band `SiteFeed::Kill` (after flushing the site's pending
        // chunk), so the crash lands at the exact kill point regardless
        // of scheduling: the site crashes after ingesting precisely the
        // events routed to it first. The up-link `Inject` is enqueued
        // before the in-band marker, so the coordinator always observes
        // the injection (`Dying`) before the site's terminal `Crashed`
        // marker — revives that arrive mid-crash defer correctly.
        let mut injections: Vec<(u64, usize, bool)> = Vec::new();
        for f in &config.faults {
            injections.push((f.kill_at, f.site, true));
            if let Some(r) = f.revive_at {
                injections.push((r, f.site, false));
            }
        }
        injections.sort_unstable();
        let mut next_inject = 0usize;
        let mut n_events = 0u64;
        let chunk_cap = config.chunk;
        let mut builders: Vec<EventChunk> = (0..k).map(|_| EventChunk::new()).collect();
        'stream: for chunk in events {
            for ev in chunk.iter() {
                let site = assigner.assign(&mut driver_rng);
                builders[site].push_u32(ev);
                n_events += 1;
                if builders[site].len() >= chunk_cap {
                    let full = std::mem::replace(
                        &mut builders[site],
                        EventChunk::with_capacity(ev.len(), chunk_cap),
                    );
                    if event_txs[site].send(SiteFeed::Chunk(full)).is_err() {
                        break 'stream;
                    }
                }
                while next_inject < injections.len() && injections[next_inject].0 <= n_events {
                    let (_, site, kill) = injections[next_inject];
                    next_inject += 1;
                    if driver_up.send(UpPacket::Inject { site, kill }).is_err() {
                        break 'stream;
                    }
                    if kill {
                        if !builders[site].is_empty() {
                            let full = std::mem::replace(
                                &mut builders[site],
                                EventChunk::with_capacity(ev.len(), chunk_cap),
                            );
                            if event_txs[site].send(SiteFeed::Chunk(full)).is_err() {
                                break 'stream;
                            }
                        }
                        if event_txs[site].send(SiteFeed::Kill).is_err() {
                            break 'stream;
                        }
                    }
                }
                // The driver is the only party that sees the global event
                // count, so it requests epoch rolls — after flushing every
                // pending chunk, so all boundary events are on their way
                // first. The roll broadcast may still overtake events
                // queued on the (separate) event channels, so cluster
                // epoch boundaries are approximate — within channel depth
                // of `B` — while the per-epoch exact oracle stays exact
                // (sites snapshot at their own roll).
                if let Some(b) = config.epoch_boundary {
                    if n_events.is_multiple_of(b) {
                        for (site, builder) in builders.iter_mut().enumerate() {
                            if !builder.is_empty() {
                                let full = std::mem::replace(
                                    builder,
                                    EventChunk::with_capacity(ev.len(), chunk_cap),
                                );
                                if event_txs[site].send(SiteFeed::Chunk(full)).is_err() {
                                    break 'stream;
                                }
                            }
                        }
                        if driver_up.send(UpPacket::RollRequest).is_err() {
                            break 'stream;
                        }
                    }
                }
            }
        }
        for (site, builder) in builders.into_iter().enumerate() {
            if !builder.is_empty() {
                let _ = event_txs[site].send(SiteFeed::Chunk(builder));
            }
        }
        // Injections scheduled past the stream's end still fire rather
        // than silently vanishing when the stream is shorter than their
        // thresholds; they precede the driver-channel close, keeping them
        // in phase 1 — and a late kill's in-band marker precedes the
        // event-channel close, so the site crashes at end-of-stream (with
        // nothing buffered, an empty partial). Every scheduled kill lands.
        for &(_, site, kill) in &injections[next_inject..] {
            let _ = driver_up.send(UpPacket::Inject { site, kill });
            if kill {
                let _ = event_txs[site].send(SiteFeed::Kill);
            }
        }
        drop(driver_up);
        for tx in event_txs.drain(..) {
            drop(tx); // closes site event streams
        }

        // A coordinator panic is converted to a typed error inside the
        // thread; a panicked join here (out-of-memory in the unwind path,
        // say) gets the same typed error instead of a driver panic.
        let out = coord_handle
            .join()
            .map_err(|_| ClusterError::WorkerPanicked { role: "coordinator".into() })??;

        // Reconstruct the exact oracles from returned site states: the
        // cumulative per-counter totals, the per-epoch totals (from the
        // snapshots each site took at its rolls), and the open epoch's.
        let n_counters = protocols.len();
        let mut epoch_exact: Vec<Vec<u64>> = vec![vec![0u64; n_counters]; out.epochs as usize];
        let mut open_epoch_exact_totals = vec![0u64; n_counters];
        let mut churn = ChurnReport {
            kills: out.kills,
            revives: out.revives,
            partial_final_packets: out.partial_final_packets,
            partial_bytes_discarded: out.partial_bytes_discarded,
            lost_counts: vec![0; n_counters],
            site_downtime: vec![Duration::ZERO; k],
            events_lost: 0,
        };
        for fin in state_rx.iter() {
            // Dead sites record an all-zero snapshot per roll they slept
            // through, so the oracle invariant holds under churn too.
            assert_eq!(fin.snaps.len(), out.epochs as usize, "site missed an epoch roll");
            for (e, snap) in fin.snaps.iter().enumerate() {
                for (c, v) in snap.iter().enumerate() {
                    epoch_exact[e][c] += v;
                }
            }
            for (c, st) in fin.states.iter().enumerate() {
                open_epoch_exact_totals[c] += protocols[c].site_local_count(st);
            }
            for (c, v) in fin.lost.iter().enumerate() {
                churn.lost_counts[c] += v;
            }
            churn.events_lost += fin.events_lost;
            churn.site_downtime[fin.site_id] = fin.downtime;
        }
        let mut exact_totals = open_epoch_exact_totals.clone();
        for snap in &epoch_exact {
            for (c, v) in snap.iter().enumerate() {
                exact_totals[c] += v;
            }
        }
        // Retain the same ring of epochs as the estimates; anything beyond
        // the ring is *reported* as dropped, not silently truncated.
        let drop_n = epoch_exact.len().saturating_sub(config.epoch_ring);
        let epoch_exact_totals = epoch_exact.split_off(drop_n);
        debug_assert_eq!(epoch_exact_totals.len(), out.closed_estimates.len());

        Ok(ClusterReport {
            stats: out.stats,
            coordinator_busy: out.busy,
            wall_time: Duration::ZERO, // filled below
            events: n_events,
            flush_epochs: out.flush_epochs,
            estimates: out.estimates,
            exact_totals,
            epochs: out.epochs,
            dropped_epochs: drop_n as u64,
            epoch_estimates: out.closed_estimates,
            epoch_exact_totals,
            open_epoch_exact_totals,
            settled_totals: out.settled_totals,
            churn,
        })
    });
    // Transport pump threads hold the far ends of the links; everything
    // they bridge was dropped when the scope closed, so they are finishing
    // now — join them before returning (error or not).
    let mut pump_panicked = false;
    for p in pumps {
        if p.join().is_err() {
            pump_panicked = true;
        }
    }
    let mut report = result?;
    // A clean-looking run whose pump thread panicked still failed: the
    // report may silently miss traffic the pump dropped mid-unwind.
    if pump_panicked {
        return Err(ClusterError::WorkerPanicked { role: "transport pump".into() });
    }
    report.wall_time = start.elapsed();
    // Terminal snapshot: the coordinator has joined (no racing mid-stream
    // mint), the report carries the reconstructed exact oracle, and the
    // flush handshake proved this state is the run's final word.
    if let Some(hub) = &config.publish {
        hub.publish_final(&report);
    }
    Ok(report)
}
