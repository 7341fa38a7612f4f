//! The coordinator thread and its two-phase loop.

use crate::metrics::MessageStats;
use crate::snapshot::{CounterSnapshot, SnapshotHub};
use crate::transport::{ClusterError, DownPacket, DownSender, UpPacket};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::Receiver;
use dsbn_counters::epoch::EpochRoller;
use dsbn_counters::msg::{DownMsg, UpMsg};
use dsbn_counters::protocol::CounterProtocol;
use dsbn_counters::wire::{encode, visit_packet, Frame, WireItem};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Coordinator-side site lifecycle under fault injection (DESIGN.md §8).
/// `Dying` is the in-flight window between the kill order going down and
/// the site's terminal `Crashed` marker coming back up: updates from a
/// dying site are still applied normally (and forgotten wholesale when the
/// marker lands). FIFO on the driver and site links guarantees no site is
/// still `Dying` once every stream has closed, which is what keeps the
/// phase-2 flush-barrier accounting (`alive_sites` expected acks) exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteStatus {
    Alive,
    Dying,
    Dead,
}

/// The coordinator: all per-counter open-epoch protocol state, decoded and
/// applied inline in transport arrival order, plus the epoch-roll
/// machinery (DESIGN.md §5), the closed-epoch settlement ring, the down
/// links, and all accounting.
pub(super) struct Coordinator<'a, P: CounterProtocol, D: DownSender> {
    protocols: &'a [P],
    k: usize,
    ring_cap: usize,
    down_txs: Vec<D>,
    /// Open-epoch coordinator state, one per counter.
    coords: Vec<P::Coord>,
    roller: EpochRoller,
    /// Per-counter settlement accumulator for the closing epoch: each
    /// site's ack carries its exact per-epoch counts (the terminal sync
    /// that closes the epoch, mirroring how HYZ anchors every round).
    settle: Vec<u64>,
    /// Settled closed-epoch counts, oldest first, capped at `ring_cap`.
    closed_estimates: VecDeque<Vec<f64>>,
    /// Cumulative settled counts across *all* closed epochs — unlike the
    /// ring it never truncates, so `settled_cum + open` is always the
    /// whole-stream cumulative read (what a snapshot's readers see).
    settled_cum: Vec<f64>,
    stats: MessageStats,
    /// Broadcasts issued since the last flush barrier went out; a
    /// completed flush epoch with zero of these proves quiescence.
    downs_since_flush: u64,
    /// Snapshot publish hub; `None` mints nothing.
    hub: Option<SnapshotHub>,
    /// Events per epoch (0 when rolling is disabled); only used to stamp
    /// the approximate `events` field on mid-stream snapshots.
    boundary: u64,
    /// Sequence number of the last minted snapshot.
    snap_seq: u64,
    /// Reused open-estimate slab for snapshot minting (one bounded
    /// `snapshot_into` sweep per mint, no per-mint allocation here).
    snap_buf: Vec<f64>,
    /// Per-site fault-injection lifecycle; all `Alive` on a clean run.
    status: Vec<SiteStatus>,
    /// Revive orders that arrived while the kill was still in flight
    /// (site `Dying`): applied as soon as the `Crashed` marker lands.
    pending_revive: Vec<bool>,
    /// Per-counter cache of the last round broadcast, `(round, p)` —
    /// `(0, 1.0)` before any broadcast and after every epoch roll. This is
    /// the rejoin catch-up source: a reviving site replays exactly these
    /// `NewRound` frames to re-INIT its protocols mid-round.
    rounds: Vec<(u32, f64)>,
    /// Churn accounting (all zero without injected faults).
    kills: u64,
    revives: u64,
    partial_final_packets: u64,
    partial_bytes_discarded: u64,
}

impl<'a, P: CounterProtocol, D: DownSender> Coordinator<'a, P, D> {
    pub(super) fn new(
        protocols: &'a [P],
        k: usize,
        ring_cap: usize,
        down_txs: Vec<D>,
        hub: Option<SnapshotHub>,
        boundary: u64,
    ) -> Self {
        Coordinator {
            protocols,
            k,
            ring_cap,
            down_txs,
            coords: protocols.iter().map(|p| p.new_coord(k)).collect(),
            roller: EpochRoller::new(k),
            settle: vec![0; protocols.len()],
            closed_estimates: VecDeque::new(),
            settled_cum: vec![0.0; protocols.len()],
            stats: MessageStats::default(),
            downs_since_flush: 0,
            hub,
            boundary,
            snap_seq: 0,
            snap_buf: vec![0.0; protocols.len()],
            status: vec![SiteStatus::Alive; k],
            pending_revive: vec![false; k],
            rounds: vec![(0, 1.0); protocols.len()],
            kills: 0,
            revives: 0,
            partial_final_packets: 0,
            partial_bytes_discarded: 0,
        }
    }

    /// Sites still expected to ack flush barriers: everything not `Dead`.
    /// Barriers only go out in phase 2, where FIFO guarantees no site is
    /// `Dying` (see the phase-1/phase-2 comments at the call sites).
    fn alive_sites(&self) -> usize {
        self.status.iter().filter(|s| **s != SiteStatus::Dead).count()
    }

    /// Driver fault injection. A kill marks the site dying — the kill
    /// itself rides the driver→site event link in-band (`SiteFeed::Kill`,
    /// FIFO with the arrivals — exact kill points); this marker only
    /// sequences revives, deferring any that arrive before the site's
    /// terminal `Crashed` marker does. A kill for a site already dying or
    /// dead is a no-op (fail-stop: there is nothing left to kill twice). A
    /// revive rejoins the site now (it is dead), defers the rejoin (kill
    /// still in flight — FIFO forbids reviving a site that has not
    /// finished dying), or is a no-op (site never died).
    fn handle_inject(&mut self, site: usize, kill: bool) -> Result<(), ClusterError> {
        if site >= self.k {
            return Err(ClusterError::Protocol {
                context: "fault injection",
                detail: format!("fault for unknown site {site} (k = {})", self.k),
            });
        }
        match (kill, self.status[site]) {
            (true, SiteStatus::Alive) => self.status[site] = SiteStatus::Dying,
            (false, SiteStatus::Dead) => self.rejoin(site),
            (false, SiteStatus::Dying) => self.pending_revive[site] = true,
            _ => {}
        }
        Ok(())
    }

    /// Send an encoded down payload to every site, accounting its bytes
    /// once per receiving site.
    fn send_down_all(&mut self, payload: Bytes) {
        self.stats.bytes += (self.k * payload.len()) as u64;
        for tx in &mut self.down_txs {
            let _ = tx.send(DownPacket::Data(payload.clone()));
        }
    }

    /// Issue one protocol broadcast (`Frame::Down`) to every site, with
    /// the paper's accounting: one logical broadcast, `k` down messages.
    fn issue_broadcast(&mut self, counter: u32, msg: DownMsg) {
        if let DownMsg::NewRound { round, p } = msg {
            self.rounds[counter as usize] = (round, p);
        }
        self.stats.broadcasts += 1;
        self.stats.down_messages += self.k as u64;
        self.downs_since_flush += 1;
        let mut buf = BytesMut::new();
        encode(&Frame::Down { counter, msg }, &mut buf);
        self.send_down_all(buf.freeze());
    }

    /// Send a flush barrier down every site link.
    fn send_flush(&mut self, epoch: u64) {
        for tx in &mut self.down_txs {
            let _ = tx.send(DownPacket::Flush(epoch));
        }
    }

    /// Apply one decoded counter update from `site`. Updates from a site
    /// that has not yet acked the in-flight roll were sent before it
    /// rolled (FIFO links make this attribution exact) and belong to the
    /// *closing* epoch: they are counted but dropped, because the site's
    /// settlement — its exact per-epoch counts, carried by the ack that
    /// follows them — supersedes anything they could contribute. A closing
    /// epoch cannot keep running its protocol: a sync is a global barrier,
    /// and sites already in the new epoch would answer a cross-epoch sync
    /// as stale, wedging it forever.
    fn apply_update(&mut self, site: usize, cid: u32, up: UpMsg) -> Result<(), ClusterError> {
        let c = cid as usize;
        if c >= self.protocols.len() {
            return Err(ClusterError::Protocol {
                context: "up packet",
                detail: format!("counter {cid} out of range ({} counters)", self.protocols.len()),
            });
        }
        self.stats.up_messages += 1;
        if self.roller.is_stale(site) {
            return Ok(());
        }
        if let Some(down) = self.protocols[c].handle_up(&mut self.coords[c], site, up) {
            self.issue_broadcast(cid, down);
        }
        Ok(())
    }

    /// One multi-event update packet from `site`, decoded in a single
    /// allocation-free pass over the buffer.
    pub(super) fn handle_updates(
        &mut self,
        site: usize,
        payload: Bytes,
    ) -> Result<(), ClusterError> {
        if site >= self.k {
            return Err(ClusterError::Protocol {
                context: "up packet",
                detail: format!("packet from unknown site {site} (k = {})", self.k),
            });
        }
        self.stats.packets += 1;
        self.stats.bytes += payload.len() as u64;
        let mut err: Option<ClusterError> = None;
        let res = visit_packet(payload, |item| {
            if err.is_some() {
                return;
            }
            match item {
                WireItem::Up { counter, msg } => {
                    if let Err(e) = self.apply_update(site, counter, msg) {
                        err = Some(e);
                    }
                }
                WireItem::Down { .. } | WireItem::EpochRoll { .. } => {
                    err = Some(ClusterError::Protocol {
                        context: "up packet",
                        detail: format!("down frame from site {site} on the up path"),
                    });
                }
                WireItem::EpochAck { .. } => {
                    err = Some(ClusterError::Protocol {
                        context: "up packet",
                        detail: format!("epoch ack from site {site} outside a control packet"),
                    });
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        res.map_err(|source| ClusterError::Wire { context: "up packet", site: Some(site), source })
    }

    /// Mint and publish a [`CounterSnapshot`] from the current open
    /// estimates plus the settled accumulators. Called only at epoch
    /// settlements — the one mid-stream moment the state is
    /// Definition-2-consistent (DESIGN.md §7). No-op without a hub.
    fn mint(&mut self) {
        let Some(hub) = &self.hub else { return };
        dsbn_counters::protocol::snapshot_into(self.protocols, &self.coords, &mut self.snap_buf);
        self.snap_seq += 1;
        let epochs = self.roller.epochs_closed() as u64;
        hub.publish(CounterSnapshot {
            seq: self.snap_seq,
            events: epochs * self.boundary,
            epochs,
            finalized: false,
            open: self.snap_buf.clone(),
            settled: self.settled_cum.clone(),
            closed: self.closed_estimates.iter().cloned().collect(),
            exact: None,
        });
    }

    /// Begin closing `epoch`: swap in fresh open-epoch coordinators (the
    /// old states are superseded by the incoming settlements), reset the
    /// rejoin catch-up cache (every protocol restarts at round 0), and
    /// broadcast `EpochRoll` — a control frame: bytes only, and it counts
    /// toward `downs_since_flush` so the quiescence handshake waits for
    /// the acks it will trigger.
    fn start_roll(&mut self, epoch: u32) {
        self.coords = self.protocols.iter().map(|p| p.new_coord(self.k)).collect();
        self.rounds.iter_mut().for_each(|r| *r = (0, 1.0));
        // Fresh coordinator banks assume all k sites contribute: re-forget
        // the dead roster. A fresh bank has no sync or report in flight,
        // so the forget can never need to broadcast.
        for site in 0..self.k {
            if self.status[site] == SiteStatus::Dead {
                for (c, p) in self.protocols.iter().enumerate() {
                    let down = p.site_crashed(&mut self.coords[c], site);
                    debug_assert!(down.is_none(), "crash-forget on fresh state broadcast");
                }
            }
        }
        self.downs_since_flush += 1;
        let mut buf = BytesMut::new();
        encode(&Frame::EpochRoll { epoch }, &mut buf);
        self.send_down_all(buf.freeze());
    }

    /// The driver crossed an epoch boundary: start closing the next epoch,
    /// unless one is already in flight (the request then queues inside the
    /// roller).
    fn request_roll(&mut self) {
        if let Some(epoch) = self.roller.request() {
            self.start_roll(epoch);
            self.settle_instant_rolls();
        }
    }

    /// All sites acked: the epoch is settled — freeze the summed
    /// settlements into the ring (and the never-truncating cumulative
    /// accumulator). Returns a queued roll to start next.
    fn close_epoch(&mut self) -> Option<u32> {
        let settled: Vec<f64> = self.settle.iter().map(|&v| v as f64).collect();
        self.settle.iter_mut().for_each(|v| *v = 0);
        for (cum, &s) in self.settled_cum.iter_mut().zip(&settled) {
            *cum += s;
        }
        if self.closed_estimates.len() == self.ring_cap {
            self.closed_estimates.pop_front();
        }
        self.closed_estimates.push_back(settled);
        self.roller.finish()
    }

    /// A roll whose every non-dead site has already acked — which happens
    /// the moment it starts when *all* sites are dead (the roller pre-fills
    /// the dead roster) — settles immediately, exactly as a final ack
    /// would have; chained for queued requests.
    fn settle_instant_rolls(&mut self) {
        while self.roller.rolling() && self.roller.all_acked() {
            self.mint();
            match self.close_epoch() {
                Some(next) => self.start_roll(next),
                None => break,
            }
        }
    }

    /// A site's terminal `Crashed` marker (the last packet on its FIFO up
    /// link — everything the site delivered is already applied). Account
    /// the torn final packet, if any: the site died mid-flush, so the
    /// truncated prefix is attributed to it and discarded whole — its
    /// updates came from local state that was wiped into the site's loss
    /// ledger, so applying even the decodable part would double-count.
    /// Then complete any roll the site was the last holdout of (mint +
    /// settle *before* forgetting, exactly as its own ack would have — the
    /// settlement reflects what every site actually reported), forget the
    /// dead site's contribution in every open-epoch counter, and apply a
    /// revive that arrived while the kill was still in flight.
    fn handle_crashed(&mut self, site: usize, partial: Bytes) -> Result<(), ClusterError> {
        if site >= self.k {
            return Err(ClusterError::Protocol {
                context: "crash marker",
                detail: format!("crash marker from unknown site {site} (k = {})", self.k),
            });
        }
        if self.status[site] == SiteStatus::Dead {
            return Err(ClusterError::Protocol {
                context: "crash marker",
                detail: format!("site {site} crashed twice without a revive"),
            });
        }
        self.status[site] = SiteStatus::Dead;
        self.kills += 1;
        if !partial.is_empty() {
            self.partial_final_packets += 1;
            self.partial_bytes_discarded += partial.len() as u64;
        }
        if self.roller.mark_dead(site) {
            self.mint();
            if let Some(next) = self.close_epoch() {
                self.start_roll(next);
            }
            self.settle_instant_rolls();
        }
        for (c, p) in self.protocols.iter().enumerate() {
            if let Some(down) = p.site_crashed(&mut self.coords[c], site) {
                self.issue_broadcast(c as u32, down);
            }
        }
        if self.pending_revive[site] {
            self.rejoin(site);
        }
        Ok(())
    }

    /// Re-admit a dead site: give every counter protocol its rejoin hook
    /// (returns are discarded — the hook's announcement is the current
    /// round, which the catch-up payload below already carries, so
    /// re-broadcasting it to the whole cluster would only be redundant
    /// traffic), then send the revive order with its catch-up payload: one
    /// `NewRound` frame per counter with an open round (from the round
    /// cache), so the returning site re-INITs its protocols mid-round.
    /// FIFO on the down link orders the catch-up ahead of every later
    /// broadcast, so the site can never observe round `r + 1` before `r`.
    fn rejoin(&mut self, site: usize) {
        for (c, p) in self.protocols.iter().enumerate() {
            let _ = p.rejoin_site(&mut self.coords[c], site);
        }
        self.revives += 1;
        self.status[site] = SiteStatus::Alive;
        self.pending_revive[site] = false;
        self.roller.mark_live(site);
        let mut buf = BytesMut::new();
        for (c, &(round, p)) in self.rounds.iter().enumerate() {
            if round > 0 {
                encode(
                    &Frame::Down { counter: c as u32, msg: DownMsg::NewRound { round, p } },
                    &mut buf,
                );
            }
        }
        self.stats.bytes += buf.len() as u64;
        let _ = self.down_txs[site].send(DownPacket::Revive(buf.freeze()));
    }

    /// One control packet from `site`: the site's settlement — exact
    /// per-epoch counts as `Cumulative` frames for its nonzero counters —
    /// followed by its `Frame::EpochAck`. Bytes count, packet/message
    /// tallies do not (lifecycle traffic, DESIGN.md §4). Completing an ack
    /// settles the epoch and can release a queued roll.
    pub(super) fn handle_control(
        &mut self,
        site: usize,
        payload: Bytes,
    ) -> Result<(), ClusterError> {
        if site >= self.k {
            return Err(ClusterError::Protocol {
                context: "control packet",
                detail: format!("packet from unknown site {site} (k = {})", self.k),
            });
        }
        self.stats.bytes += payload.len() as u64;
        let mut err: Option<ClusterError> = None;
        let mut rolls = Vec::new();
        let mut closed = 0u64;
        let res = visit_packet(payload, |item| {
            if err.is_some() {
                return;
            }
            match item {
                WireItem::Up { counter, msg: UpMsg::Cumulative { value } } => {
                    let c = counter as usize;
                    if c >= self.settle.len() {
                        err = Some(ClusterError::Protocol {
                            context: "control packet",
                            detail: format!(
                                "settlement for counter {counter} out of range ({} counters)",
                                self.settle.len()
                            ),
                        });
                        return;
                    }
                    self.settle[c] += value;
                }
                WireItem::EpochAck { epoch } => {
                    // The roller's preconditions are transport-reachable
                    // here (a confused peer can ack an epoch that is not
                    // closing), so guard them instead of asserting.
                    if !self.roller.rolling() || epoch != self.roller.epochs_closed() {
                        err = Some(ClusterError::Protocol {
                            context: "control packet",
                            detail: format!("unexpected epoch ack {epoch} from site {site}"),
                        });
                        return;
                    }
                    if self.roller.ack(site, epoch) {
                        closed += 1;
                        if let Some(next) = self.close_epoch() {
                            rolls.push(next);
                        }
                    }
                }
                other => {
                    err = Some(ClusterError::Protocol {
                        context: "control packet",
                        detail: format!("non-control frame {other:?} in a control packet"),
                    });
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        res.map_err(|source| ClusterError::Wire {
            context: "control packet",
            site: Some(site),
            source,
        })?;
        // An epoch settled while processing this packet: mint a snapshot
        // at the settlement, *before* any queued roll resets the open
        // coordinators — the open estimates still belong to the epoch the
        // snapshot's readers will see as open.
        if closed > 0 {
            self.mint();
        }
        for epoch in rolls {
            self.start_roll(epoch);
        }
        self.settle_instant_rolls();
        Ok(())
    }

    /// Close out the run into a [`CoordOut`].
    fn finish(
        self,
        first_packet: Option<Instant>,
        last_packet: Instant,
        flush_epochs: u64,
    ) -> CoordOut {
        CoordOut {
            epochs: self.roller.epochs_closed() as u64,
            closed_estimates: self.closed_estimates.into_iter().collect(),
            settled_totals: self.settled_cum,
            stats: self.stats,
            estimates: self
                .coords
                .iter()
                .zip(self.protocols)
                .map(|(co, p)| p.estimate(co))
                .collect(),
            busy: match first_packet {
                Some(f) => last_packet.duration_since(f),
                None => Duration::ZERO,
            },
            flush_epochs,
            kills: self.kills,
            revives: self.revives,
            partial_final_packets: self.partial_final_packets,
            partial_bytes_discarded: self.partial_bytes_discarded,
        }
    }
}

/// What the coordinator hands back to the driver.
pub(super) struct CoordOut {
    pub(super) stats: MessageStats,
    pub(super) estimates: Vec<f64>,
    pub(super) closed_estimates: Vec<Vec<f64>>,
    pub(super) settled_totals: Vec<f64>,
    pub(super) epochs: u64,
    pub(super) busy: Duration,
    pub(super) flush_epochs: u64,
    pub(super) kills: u64,
    pub(super) revives: u64,
    pub(super) partial_final_packets: u64,
    pub(super) partial_bytes_discarded: u64,
}

/// The coordinator loop: plain blocking receives on the merged inbox.
pub(super) fn run_coordinator<P: CounterProtocol, D: DownSender>(
    protocols: &[P],
    k: usize,
    ring_cap: usize,
    down_txs: Vec<D>,
    up_rx: Receiver<UpPacket>,
    hub: Option<SnapshotHub>,
    boundary: u64,
) -> Result<CoordOut, ClusterError> {
    let mut c = Coordinator::new(protocols, k, ring_cap, down_txs, hub, boundary);
    let mut first_packet: Option<Instant> = None;
    let mut last_packet = Instant::now();
    let mut done = 0usize;
    // Phase 1: serve traffic until every site reports end-of-stream.
    // Every RollRequest is enqueued by the driver before it closes the
    // event channels, so all of them are dequeued before the k-th Done
    // (FIFO merged inbox).
    while done < k {
        match up_rx.recv() {
            Ok(UpPacket::Updates { site, payload }) => {
                let now = Instant::now();
                first_packet.get_or_insert(now);
                last_packet = now;
                c.handle_updates(site, payload)?;
            }
            Ok(UpPacket::Control { site, payload }) => c.handle_control(site, payload)?,
            Ok(UpPacket::Crashed { site, partial }) => c.handle_crashed(site, partial)?,
            Ok(UpPacket::Inject { site, kill }) => c.handle_inject(site, kill)?,
            Ok(UpPacket::RollRequest) => c.request_roll(),
            Ok(UpPacket::Done) => done += 1,
            Ok(UpPacket::FlushAck { epoch }) => {
                return Err(ClusterError::Protocol {
                    context: "coordinator",
                    detail: format!("flush ack (epoch {epoch}) before any flush barrier"),
                })
            }
            Ok(UpPacket::Fault { error, .. }) => return Err(error),
            Err(_) => break,
        }
    }
    // Phase 2: quiescence handshake. Repeat flush epochs until one
    // completes with no broadcast issued during it — then no reply can be
    // in flight and the run state is final. Terminates because with no new
    // arrivals a broadcast cascade is finite (sync request -> replies ->
    // new round -> silence), and every in-flight epoch roll completes
    // within one flush epoch (its acks precede the flush acks on the FIFO
    // up paths).
    let mut flush_epoch = 0u64;
    loop {
        flush_epoch += 1;
        c.downs_since_flush = 0;
        c.send_flush(flush_epoch);
        // Dead sites never ack a barrier (their `Crashed` marker — the
        // last packet on their FIFO up link — preceded every `Done`, so
        // the roster is final before the first barrier goes out; `Inject`
        // markers likewise all precede the driver-channel close, so no
        // site is still `Dying` here and the expectation cannot change
        // mid-epoch).
        let expected = c.alive_sites();
        let mut acks = 0usize;
        while acks < expected {
            match up_rx.recv() {
                Ok(UpPacket::Updates { site, payload }) => {
                    last_packet = Instant::now();
                    first_packet.get_or_insert(last_packet);
                    c.handle_updates(site, payload)?;
                }
                Ok(UpPacket::Control { site, payload }) => c.handle_control(site, payload)?,
                Ok(UpPacket::FlushAck { epoch }) => {
                    if epoch != flush_epoch {
                        return Err(ClusterError::Protocol {
                            context: "coordinator",
                            detail: format!(
                                "flush ack for epoch {epoch} during epoch {flush_epoch}"
                            ),
                        });
                    }
                    acks += 1;
                }
                Ok(UpPacket::Crashed { site, .. }) => {
                    return Err(ClusterError::Protocol {
                        context: "coordinator",
                        detail: format!("crash marker from site {site} after end of stream"),
                    })
                }
                Ok(UpPacket::Inject { .. }) => {
                    return Err(ClusterError::Protocol {
                        context: "coordinator",
                        detail: "fault injection after end of stream".into(),
                    })
                }
                Ok(UpPacket::RollRequest) => {
                    return Err(ClusterError::Protocol {
                        context: "coordinator",
                        detail: "roll request after end of stream".into(),
                    })
                }
                Ok(UpPacket::Done) => {
                    return Err(ClusterError::Protocol {
                        context: "coordinator",
                        detail: "done after all streams closed".into(),
                    })
                }
                Ok(UpPacket::Fault { error, .. }) => return Err(error),
                Err(_) => acks = expected, // all sites gone; nothing in flight
            }
        }
        if c.downs_since_flush == 0 {
            break;
        }
    }
    if c.roller.rolling() {
        return Err(ClusterError::Protocol {
            context: "coordinator",
            detail: "quiescent with an epoch roll still open".into(),
        });
    }
    Ok(c.finish(first_packet, last_packet, flush_epoch))
}
