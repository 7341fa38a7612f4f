//! Live threaded cluster runtime.
//!
//! Stands in for the paper's AWS EC2 deployment (§VI-A): one OS thread per
//! site plus a coordinator, communicating over a pluggable [`Transport`]
//! (crossbeam channels by default, Unix-domain sockets via
//! [`crate::transport::UdsTransport`]) with genuinely asynchronous,
//! possibly out-of-order message delivery — exactly the conditions the
//! round-tagged counter protocols are built for. See DESIGN.md for the
//! thread/channel topology and shutdown protocol, and DESIGN.md §6 for the
//! transport abstraction.
//!
//! Ingest is *chunked end to end* (DESIGN.md §2–§3): the driver re-chunks
//! the incoming [`EventChunk`] stream into per-site chunks of
//! [`ClusterConfig::chunk`] events, so one channel send carries a whole
//! slab of events instead of one heap-allocated `Vec` each; a site
//! accumulates the wire encodings of successive events' updates
//! ([`dsbn_counters::wire::encode_event`] sections) into one reused buffer
//! and flushes it as a single multi-event packet on a size /
//! chunk-boundary policy; the coordinator decodes each packet in one
//! allocation-free pass ([`dsbn_counters::wire::visit_packet`]).
//! Control traffic (sync replies, flush acks, epoch settlements) always
//! *forces a flush first*, which keeps the FIFO attribution and quiescence
//! arguments of DESIGN.md §3/§5 intact. `chunk = 1` — the default — is the
//! per-event pipeline as a degenerate case.
//!
//! The coordinator is one thread, as in the paper: it decodes every
//! packet, applies every update, and issues every broadcast in transport
//! arrival order, so round feedback reaches the sites with no extra hop.
//! Accounting, flush quiescence, epoch settlement, snapshot minting, and
//! churn bookkeeping all run on that same thread.
//!
//! [`MessageStats::bytes`] measures frame bytes that actually crossed a
//! link; `MessageStats::packets` counts the physical bundled sends (so
//! chunking lowers `packets` but never `bytes` or the paper's per-update
//! `up/down_messages` accounting). Transport envelope overhead (UDS length
//! prefixes) is never counted, so accounting is transport-invariant.
//!
//! A run ends with a deterministic *quiescence handshake* (DESIGN.md §3.2)
//! instead of a wall-clock drain: after every site has exhausted its
//! stream, the coordinator repeatedly issues `Flush(epoch)` barriers down
//! the (FIFO) site channels and waits for all `k` acks; an epoch during
//! which the coordinator issued no new broadcast proves that no reply can
//! still be in flight, so shutdown never races in-flight sync traffic and
//! never depends on timing.
//!
//! Every decode path is panic-free: malformed packets, out-of-range
//! counter ids, and misplaced frames surface as a typed
//! [`ClusterError`] from [`run_cluster`] / [`run_cluster_on`] instead of
//! killing a thread and hanging the join — a prerequisite for feeding the
//! runtime from a real socket.
//!
//! Used by `exp_fig7_8` (training runtime and throughput vs. number of
//! sites) and by `dsbn_core`'s `run_cluster_tracker`, which layers the
//! paper's full UPDATE/QUERY tracker logic on top of this runtime.
//!
//! [`Transport`]: crate::transport::Transport
//! [`EventChunk`]: dsbn_datagen::EventChunk
//! [`MessageStats::bytes`]: crate::metrics::MessageStats::bytes
//! [`ClusterError`]: crate::transport::ClusterError

mod config;
mod coordinator;
mod driver;
mod site;

pub use config::{ChurnReport, ClusterConfig, ClusterReport, SiteFault};
pub use driver::{run_cluster, run_cluster_on};

#[cfg(test)]
mod tests {
    use super::coordinator::Coordinator;
    use super::site::SiteWorker;
    use super::*;
    use crate::partition::Partitioner;
    use crate::snapshot::SnapshotHub;
    use crate::transport::{ClusterError, DownPacket, UpPacket};
    use bytes::{Bytes, BytesMut};
    use crossbeam::channel::{unbounded, Sender};
    use dsbn_counters::msg::{DownMsg, UpMsg};
    use dsbn_counters::protocol::CounterProtocol;
    use dsbn_counters::wire::{encode, frame_len, Frame, WireError};
    use dsbn_counters::{ExactProtocol, HyzProtocol};
    use dsbn_datagen::{chunk_events, EventChunk};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::time::Duration;

    /// Route each event to counter 0 or 1 by the parity of its first value
    /// — a miniature tracker in the chunk-mapping form (stride 1).
    fn tiny_map(chunk: &EventChunk, ids: &mut Vec<u32>) {
        ids.clear();
        ids.extend(chunk.iter().map(|ev| ev[0] % 2));
    }

    /// Every event hits counter 0 (stride 1).
    fn all_zero(chunk: &EventChunk, ids: &mut Vec<u32>) {
        ids.clear();
        ids.resize(chunk.len(), 0);
    }

    /// Every event hits counters 0..8 — a sprinkler-sized `2n` (stride 8).
    fn wide8(chunk: &EventChunk, ids: &mut Vec<u32>) {
        ids.clear();
        for _ in 0..chunk.len() {
            ids.extend(0..8u32);
        }
    }

    /// `run_cluster` + unwrap: these tests feed well-formed streams, so an
    /// `Err` is itself a failure.
    fn run_ok<P, F, I>(
        protocols: &[P],
        config: &ClusterConfig,
        events: I,
        map_event: F,
    ) -> ClusterReport
    where
        P: CounterProtocol + Sync,
        P::Site: Send,
        F: Fn(&EventChunk, &mut Vec<u32>) + Sync,
        I: Iterator<Item = EventChunk>,
    {
        run_cluster(protocols, config, events, map_event).expect("cluster run failed")
    }

    #[test]
    fn exact_protocol_counts_everything() {
        let protocols = vec![ExactProtocol, ExactProtocol];
        let config = ClusterConfig::new(3, 9);
        let events = (0..1000u64).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 16), tiny_map);
        assert_eq!(report.events, 1000);
        assert_eq!(report.estimates[0], 500.0);
        assert_eq!(report.estimates[1], 500.0);
        assert_eq!(report.exact_totals, vec![500, 500]);
        assert_eq!(report.stats.up_messages, 1000);
        // Default chunk = 1: one packet per event regardless of how the
        // caller grouped the incoming stream.
        assert_eq!(report.stats.packets, 1000);
    }

    #[test]
    fn wire_bytes_measure_actual_transport() {
        // ExactProtocol never broadcasts, so every byte on the wire is an
        // event's bundled up packet. Single-update events are below the
        // UpBatch break-even, so they ship as plain 5-byte Increment
        // frames: the tally is exactly 5 per update.
        let protocols = vec![ExactProtocol, ExactProtocol];
        let config = ClusterConfig::new(3, 9);
        let events = (0..1000u64).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 1), tiny_map);
        let inc = frame_len(&Frame::Up { counter: 0, msg: UpMsg::Increment }) as u64;
        assert_eq!(report.stats.bytes, report.stats.up_messages * inc);
        assert_eq!(report.stats.broadcasts, 0);
    }

    #[test]
    fn up_batch_amortizes_frame_headers_on_wide_events() {
        // Eight exact counters per event (a sprinkler-sized 2n): the batch
        // frame replaces 8 x 5 = 40 bytes with a 5-byte header + 4 per id.
        let protocols = vec![ExactProtocol; 8];
        let config = ClusterConfig::new(3, 13);
        let m = 500u64;
        let events = (0..m).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 8), wide8);
        assert_eq!(report.stats.up_messages, 8 * m);
        assert_eq!(report.stats.packets, m);
        let batch =
            frame_len(&Frame::UpBatch { increments: (0..8).collect(), reports: vec![] }) as u64;
        assert_eq!(batch, 5 + 8 * 4);
        assert_eq!(report.stats.bytes, m * batch);
        let singles = report.stats.up_messages * 5;
        assert!(report.stats.bytes < singles, "{} !< {singles}", report.stats.bytes);
    }

    #[test]
    fn chunked_transport_coalesces_packets_not_bytes() {
        // The same exact run at chunk sizes 1 and 64: identical logical
        // messages, estimates, totals, and *bytes* (the multi-event packet
        // is the concatenation of the same encode_event sections); only
        // the physical packet count drops — by roughly the chunk factor.
        let protocols = vec![ExactProtocol; 8];
        let m = 4_000u64;
        let events = || (0..m).map(|_| vec![0usize]);
        let per_event =
            run_ok(&protocols, &ClusterConfig::new(3, 13), chunk_events(events(), 16), wide8);
        let chunked = run_ok(
            &protocols,
            &ClusterConfig::new(3, 13).with_chunk(64),
            chunk_events(events(), 16),
            wide8,
        );
        assert_eq!(chunked.estimates, per_event.estimates);
        assert_eq!(chunked.exact_totals, per_event.exact_totals);
        assert_eq!(chunked.stats.up_messages, per_event.stats.up_messages);
        assert_eq!(chunked.stats.down_messages, per_event.stats.down_messages);
        assert_eq!(chunked.stats.bytes, per_event.stats.bytes);
        assert_eq!(per_event.stats.packets, m);
        assert!(
            chunked.stats.packets * 32 <= per_event.stats.packets,
            "chunked packets {} not amortized vs {}",
            chunked.stats.packets,
            per_event.stats.packets
        );
    }

    #[test]
    fn size_threshold_bounds_packet_growth() {
        // A tiny flush threshold forces mid-chunk flushes: every packet
        // stays small, and nothing is lost.
        let protocols = vec![ExactProtocol; 8];
        let mut config = ClusterConfig::new(2, 5).with_chunk(256);
        config.flush_bytes = 128;
        let m = 2_000u64;
        let events = (0..m).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 64), wide8);
        assert_eq!(report.exact_totals[0], m);
        // 37 bytes per event, threshold 128: at most 4 events per packet.
        assert!(
            report.stats.packets * 4 >= m,
            "packets {} too few for a 128-byte threshold",
            report.stats.packets
        );
    }

    #[test]
    fn hyz_protocol_under_asynchrony() {
        let protocols = vec![HyzProtocol::new(0.1)];
        let config = ClusterConfig::new(4, 11);
        let m = 50_000u64;
        let events = (0..m).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 32), all_zero);
        assert_eq!(report.exact_totals[0], m);
        let rel = (report.estimates[0] - m as f64).abs() / m as f64;
        // Asynchronous delivery adds transient error on top of the eps
        // guarantee; it must still land well within a few eps.
        assert!(rel < 0.5, "relative error {rel}");
        assert!(report.stats.up_messages < m / 5, "messages {}", report.stats.up_messages);
        assert!(report.stats.packets <= report.stats.up_messages);
        // Broadcast accounting stays exact under threading.
        assert_eq!(report.stats.down_messages, report.stats.broadcasts * 4);
    }

    #[test]
    fn hyz_protocol_with_chunked_ingest_stays_in_band() {
        // Coalescing delays reports (they sit in the site buffer until a
        // flush), which the round-tagged protocol absorbs like any other
        // asynchrony; the quiescence handshake still flushes everything
        // out, so the final estimate stays in band for every seed.
        for seed in 0..8u64 {
            let protocols = vec![HyzProtocol::new(0.2)];
            let config = ClusterConfig::new(4, seed).with_chunk(64);
            let m = 30_000u64;
            let events = (0..m).map(|_| vec![0usize]);
            let report = run_ok(&protocols, &config, chunk_events(events, 64), all_zero);
            assert_eq!(report.exact_totals[0], m, "seed {seed}");
            let rel = (report.estimates[0] - m as f64).abs() / m as f64;
            assert!(rel < 1.0, "seed {seed}: relative error {rel}");
            assert!(report.stats.packets <= report.stats.up_messages);
        }
    }

    #[test]
    fn quiescence_handshake_completes_inflight_rounds() {
        // Aggressive rounds right up to the end of the stream: the old
        // fixed-timeout drain could cut a sync short; the handshake must
        // always leave the coordinator outside a sync (its estimate is
        // anchored at the last completed round, never mid-collection).
        for seed in 0..20u64 {
            let protocols = vec![HyzProtocol::new(0.5)];
            let config = ClusterConfig::new(5, seed).with_chunk(16);
            let m = 3_000u64;
            let events = (0..m).map(|_| vec![0usize]);
            let report = run_ok(&protocols, &config, chunk_events(events, 16), all_zero);
            assert_eq!(report.exact_totals[0], m);
            // At least one full flush epoch always runs.
            assert!(report.flush_epochs >= 1, "seed {seed}");
            let rel = (report.estimates[0] - m as f64).abs() / m as f64;
            assert!(rel < 2.5, "seed {seed}: relative error {rel}");
        }
    }

    #[test]
    fn epoch_rolls_partition_the_stream_exactly() {
        // Exact counters: a closed epoch's frozen estimate must equal its
        // exact per-epoch total (FIFO attribution makes the roll lossless),
        // and all epochs plus the open one must sum to the whole stream.
        let protocols = vec![ExactProtocol, ExactProtocol];
        let config = ClusterConfig::new(3, 17).with_epochs(250, 8);
        let m = 1000u64;
        let events = (0..m).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 8), tiny_map);
        assert_eq!(report.events, m);
        assert_eq!(report.epochs, 4);
        assert_eq!(report.dropped_epochs, 0, "ring of 8 holds all 4 epochs");
        assert_eq!(report.epoch_estimates.len(), 4);
        assert_eq!(report.epoch_exact_totals.len(), 4);
        for (est, exact) in report.epoch_estimates.iter().zip(&report.epoch_exact_totals) {
            for (e, &t) in est.iter().zip(exact) {
                assert_eq!(*e, t as f64, "closed-epoch estimate drifted from exact");
            }
        }
        // Every event hits exactly one of the two counters; epoch sizes
        // are approximate (roll broadcasts can overtake queued events) but
        // the cumulative total across counters is exact.
        let all: u64 = report.epoch_exact_totals.iter().flatten().sum::<u64>()
            + report.open_epoch_exact_totals.iter().sum::<u64>();
        assert_eq!(all, m);
        assert_eq!(report.exact_totals, vec![500, 500]);
        // The final estimates cover the open epoch only.
        assert_eq!(report.estimates[0], report.open_epoch_exact_totals[0] as f64);
    }

    #[test]
    fn epoch_rolls_settle_exactly_under_chunked_ingest() {
        // The flush-before-control rule: a site must push every buffered
        // update of the closing epoch onto the wire *before* its
        // settlement/ack, or FIFO attribution breaks and the settled
        // epochs drift. Exact counters make any drift visible as a hard
        // mismatch.
        let protocols = vec![ExactProtocol, ExactProtocol];
        let config = ClusterConfig::new(3, 29).with_epochs(250, 8).with_chunk(32);
        let m = 1000u64;
        let events = (0..m).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 32), tiny_map);
        assert_eq!(report.events, m);
        assert_eq!(report.epochs, 4);
        assert_eq!(report.dropped_epochs, 0);
        for (est, exact) in report.epoch_estimates.iter().zip(&report.epoch_exact_totals) {
            for (e, &t) in est.iter().zip(exact) {
                assert_eq!(*e, t as f64, "closed-epoch estimate drifted under chunking");
            }
        }
        let all: u64 = report.epoch_exact_totals.iter().flatten().sum::<u64>()
            + report.open_epoch_exact_totals.iter().sum::<u64>();
        assert_eq!(all, m);
        assert_eq!(report.exact_totals, vec![500, 500]);
        assert_eq!(report.estimates[0], report.open_epoch_exact_totals[0] as f64);
    }

    #[test]
    fn epoch_ring_caps_retained_epochs() {
        let protocols = vec![ExactProtocol];
        let config = ClusterConfig::new(2, 7).with_epochs(100, 2);
        let events = (0..600u64).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 4), all_zero);
        assert_eq!(report.epochs, 6);
        // Only the last `ring` epochs are retained, estimates and oracle
        // alike, and they stay aligned; the 4 that fell off the ring are
        // *reported* dropped, never silently truncated.
        assert_eq!(report.dropped_epochs, 4);
        assert_eq!(report.epoch_estimates.len(), 2);
        assert_eq!(report.epoch_exact_totals.len(), 2);
        for (est, exact) in report.epoch_estimates.iter().zip(&report.epoch_exact_totals) {
            assert_eq!(est[0], exact[0] as f64);
        }
        // Cumulative totals still cover all 6 epochs.
        assert_eq!(report.exact_totals[0], 600);
    }

    #[test]
    fn hub_publishes_settlements_and_the_final_state() {
        // The coordinator mints a snapshot at every epoch settlement and
        // the driver publishes the finalized state after the quiescence
        // handshake. Exact counters make the contract checkable hard: every
        // cumulative read of the final snapshot must equal the oracle, and
        // must be bit-identical to `settled_totals + estimates`.
        let protocols = vec![ExactProtocol, ExactProtocol];
        let hub = SnapshotHub::new();
        let config = ClusterConfig::new(3, 9).with_epochs(250, 8).with_publish(hub.clone());
        let events = (0..1000u64).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 16), tiny_map);
        let snap = hub.load();
        assert!(snap.finalized);
        assert_eq!(snap.epochs, report.epochs);
        // One mint per settlement, plus the final publish.
        assert_eq!(snap.seq, report.epochs + 1);
        assert_eq!(snap.events, report.events);
        assert_eq!(snap.exact.as_deref(), Some(report.exact_totals.as_slice()));
        assert_eq!(snap.closed.len(), report.epoch_estimates.len());
        for c in 0..protocols.len() {
            assert_eq!(snap.cumulative(c), report.exact_totals[c] as f64);
            assert_eq!(
                snap.cumulative(c).to_bits(),
                (report.settled_totals[c] + report.estimates[c]).to_bits(),
            );
        }
        // Without epoch rolling only the final state is published, and its
        // cumulative read is the end-of-run estimate verbatim.
        let protocols = vec![ExactProtocol, ExactProtocol];
        let hub = SnapshotHub::new();
        let config = ClusterConfig::new(3, 9).with_publish(hub.clone());
        let events = (0..500u64).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 16), tiny_map);
        let snap = hub.load();
        assert_eq!(snap.seq, 1);
        assert!(snap.finalized);
        for c in 0..protocols.len() {
            assert_eq!(snap.cumulative(c).to_bits(), report.estimates[c].to_bits());
        }
    }

    #[test]
    fn hyz_epoch_rolls_terminate_and_settle_exactly() {
        // Randomized counters under epoch rolling: every run must terminate
        // (rolls complete through the quiescence handshake even when they
        // land at end-of-stream), and because a roll closes its epoch with
        // the sites' exact settlement, every closed epoch's ring entry
        // must equal that epoch's exact total — for a *randomized*
        // protocol, under real thread interleaving and chunked ingest.
        for seed in 0..8u64 {
            let protocols = vec![HyzProtocol::new(0.2)];
            let config = ClusterConfig::new(4, seed).with_epochs(4_000, 4).with_chunk(32);
            let m = 16_000u64;
            let events = (0..m).map(|_| vec![0usize]);
            let report = run_ok(&protocols, &config, chunk_events(events, 32), all_zero);
            assert_eq!(report.exact_totals[0], m, "seed {seed}");
            assert_eq!(report.epochs, 4, "seed {seed}");
            for (e, (est, exact)) in
                report.epoch_estimates.iter().zip(&report.epoch_exact_totals).enumerate()
            {
                assert_eq!(est[0], exact[0] as f64, "seed {seed} epoch {e}: not settled");
            }
            // The open epoch's estimate is a live Lemma-4 estimate.
            if report.open_epoch_exact_totals[0] > 1_000 {
                let t = report.open_epoch_exact_totals[0] as f64;
                let rel = (report.estimates[0] - t).abs() / t;
                assert!(rel < 1.0, "seed {seed}: open epoch rel err {rel}");
            }
        }
    }

    #[test]
    fn round_robin_partitioner_balances() {
        let protocols = vec![ExactProtocol];
        let mut config = ClusterConfig::new(5, 1);
        config.partitioner = Partitioner::RoundRobin;
        let events = (0..500u64).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 10), all_zero);
        assert_eq!(report.estimates[0], 500.0);
    }

    #[test]
    fn empty_stream_terminates() {
        let protocols = vec![ExactProtocol];
        let config = ClusterConfig::new(2, 3);
        let report =
            run_ok(&protocols, &config, std::iter::empty::<EventChunk>(), |_, ids| ids.clear());
        assert_eq!(report.events, 0);
        assert_eq!(report.estimates[0], 0.0);
        assert_eq!(report.stats.total(), 0);
        // No events -> busy window is empty -> throughput is undefined,
        // not zero.
        assert!(report.throughput().is_nan());
    }

    #[test]
    fn single_site_cluster() {
        let protocols = vec![HyzProtocol::new(0.2)];
        let config = ClusterConfig::new(1, 5).with_chunk(8);
        let events = (0..10_000u64).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 8), all_zero);
        assert_eq!(report.exact_totals[0], 10_000);
        let rel = (report.estimates[0] - 10_000.0).abs() / 10_000.0;
        assert!(rel < 1.0, "rel {rel}");
    }

    // ---- decode/protocol error paths (no panic reachable from bytes) ----

    /// A coordinator wired to nowhere: `send_down_all` tolerates closed
    /// links, so the tests can poke the decode paths directly.
    fn lone_coord(
        protocols: &[ExactProtocol],
        k: usize,
    ) -> Coordinator<'_, ExactProtocol, Sender<DownPacket>> {
        let down_txs = (0..k).map(|_| unbounded::<DownPacket>().0).collect();
        Coordinator::new(protocols, k, 8, down_txs, None, 0)
    }

    #[test]
    fn corrupt_up_packet_is_a_typed_wire_error() {
        let protocols = vec![ExactProtocol, ExactProtocol];
        let mut coord = lone_coord(&protocols, 2);
        let err = coord.handle_updates(0, Bytes::copy_from_slice(&[42, 0, 0])).unwrap_err();
        match err {
            ClusterError::Wire { site: Some(0), source: WireError::BadTag(42), .. } => {}
            other => panic!("expected BadTag(42), got {other:?}"),
        }
    }

    #[test]
    fn truncated_up_packet_is_a_typed_wire_error() {
        let protocols = vec![ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::Up { counter: 0, msg: UpMsg::Increment }, &mut buf);
        let cut = buf.freeze().slice(0..2); // mid-frame
        let mut coord = lone_coord(&protocols, 1);
        let err = coord.handle_updates(0, cut).unwrap_err();
        match err {
            ClusterError::Wire { site: Some(0), source: WireError::Truncated, .. } => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_counter_is_a_protocol_error() {
        let protocols = vec![ExactProtocol, ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::Up { counter: 7, msg: UpMsg::Increment }, &mut buf);
        let mut coord = lone_coord(&protocols, 1);
        let err = coord.handle_updates(0, buf.freeze()).unwrap_err();
        assert!(
            matches!(&err, ClusterError::Protocol { detail, .. } if detail.contains("counter 7")),
            "expected out-of-range protocol error, got {err:?}"
        );
    }

    #[test]
    fn down_frame_on_the_up_path_is_a_protocol_error() {
        let protocols = vec![ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::Down { counter: 0, msg: DownMsg::SyncRequest { round: 1 } }, &mut buf);
        let mut coord = lone_coord(&protocols, 1);
        let err = coord.handle_updates(0, buf.freeze()).unwrap_err();
        assert!(matches!(err, ClusterError::Protocol { .. }), "got {err:?}");
    }

    #[test]
    fn packet_from_unknown_site_is_a_protocol_error() {
        let protocols = vec![ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::Up { counter: 0, msg: UpMsg::Increment }, &mut buf);
        let mut coord = lone_coord(&protocols, 2);
        let err = coord.handle_updates(5, buf.freeze()).unwrap_err();
        assert!(
            matches!(&err, ClusterError::Protocol { detail, .. } if detail.contains("site 5")),
            "got {err:?}"
        );
    }

    #[test]
    fn unexpected_epoch_ack_is_a_protocol_error() {
        // An ack while no roll is in flight used to trip a debug_assert
        // inside the roller; it must surface as a typed error instead.
        let protocols = vec![ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::EpochAck { epoch: 3 }, &mut buf);
        let mut coord = lone_coord(&protocols, 2);
        let err = coord.handle_control(0, buf.freeze()).unwrap_err();
        assert!(
            matches!(&err, ClusterError::Protocol { detail, .. }
                if detail.contains("unexpected epoch ack")),
            "got {err:?}"
        );
    }

    #[test]
    fn non_control_frame_in_a_control_packet_is_a_protocol_error() {
        let protocols = vec![ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::Up { counter: 0, msg: UpMsg::Increment }, &mut buf);
        let mut coord = lone_coord(&protocols, 1);
        let err = coord.handle_control(0, buf.freeze()).unwrap_err();
        assert!(matches!(err, ClusterError::Protocol { .. }), "got {err:?}");
    }

    #[test]
    fn corrupt_down_packet_faults_the_site() {
        // A site that receives garbage reports a typed fault *up* (so the
        // coordinator aborts the whole run) and stops, instead of
        // panicking its thread and hanging the join.
        let protocols = vec![ExactProtocol];
        let map = |_: &EventChunk, ids: &mut Vec<u32>| ids.clear();
        let (up_tx, up_rx) = unbounded::<UpPacket>();
        let mut site = SiteWorker {
            site_id: 0,
            protocols: &protocols,
            map_event: &map,
            up_tx,
            flush_bytes: 1024,
            states: protocols.iter().map(|p| p.new_site()).collect(),
            snaps: Vec::new(),
            rng: SmallRng::seed_from_u64(1),
            ids: Vec::new(),
            batch: Vec::new(),
            pkt: BytesMut::new(),
            dying: false,
            dead: false,
            lost: vec![0; 1],
            events_lost: 0,
            down_since: None,
            downtime: Duration::ZERO,
        };
        let alive = site.handle_down(DownPacket::Data(Bytes::copy_from_slice(&[42])));
        assert!(!alive, "a faulted site must stop");
        match up_rx.try_recv().expect("fault must be forwarded up") {
            UpPacket::Fault {
                site: 0,
                error: ClusterError::Wire { source: WireError::BadTag(42), .. },
            } => {}
            other => panic!("expected forwarded wire fault, got {other:?}"),
        }
    }

    #[test]
    fn transport_fault_on_the_down_link_is_forwarded_up() {
        let protocols = vec![ExactProtocol];
        let map = |_: &EventChunk, ids: &mut Vec<u32>| ids.clear();
        let (up_tx, up_rx) = unbounded::<UpPacket>();
        let mut site = SiteWorker {
            site_id: 0,
            protocols: &protocols,
            map_event: &map,
            up_tx,
            flush_bytes: 1024,
            states: protocols.iter().map(|p| p.new_site()).collect(),
            snaps: Vec::new(),
            rng: SmallRng::seed_from_u64(1),
            ids: Vec::new(),
            batch: Vec::new(),
            pkt: BytesMut::new(),
            dying: false,
            dead: false,
            lost: vec![0; 1],
            events_lost: 0,
            down_since: None,
            downtime: Duration::ZERO,
        };
        let substrate = ClusterError::Transport("socket torn".into());
        assert!(!site.handle_down(DownPacket::Fault(substrate.clone())));
        match up_rx.try_recv().expect("fault must be forwarded up") {
            UpPacket::Fault { site: 0, error } => assert_eq!(error, substrate),
            other => panic!("expected forwarded transport fault, got {other:?}"),
        }
    }
}
