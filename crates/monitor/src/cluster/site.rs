//! The site thread: chunked UPDATE ingest, the packet send path, and
//! its serve loop.

use crate::transport::{ClusterError, DownPacket, UpPacket, UpSender};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::Receiver;
use dsbn_counters::msg::UpMsg;
use dsbn_counters::protocol::CounterProtocol;
use dsbn_counters::wire::{encode, encode_event, visit_packet, Frame, WireItem};
use dsbn_datagen::EventChunk;
use rand::rngs::SmallRng;
use std::time::{Duration, Instant};

/// What the driver feeds a site's ingest link: event slabs, or the in-band
/// kill marker. Riding the same FIFO as the arrivals makes a fault
/// schedule's kill point *exact* — the site crashes after ingesting
/// precisely the events routed to it before `kill_at`, on every
/// interleaving — where a kill detoured through the coordinator's down
/// link would race the site draining its event queue (a fast site could
/// finish its whole stream before the order round-tripped, and the kill
/// would silently miss).
pub(super) enum SiteFeed {
    Chunk(EventChunk),
    Kill,
}

/// Per-site-thread state: the protocol site states plus the chunked send
/// path — a reused packet buffer that accumulates `encode_event` sections
/// and flushes on size, at chunk boundaries, and (always) before any
/// control frame leaves the site. The flush-before-control rule is what
/// keeps the per-site FIFO attribution arguments (quiescence, epoch
/// settlement — DESIGN.md §3.2/§5.1) valid under coalescing: no update can
/// linger in a local buffer while an ack that must follow it goes out.
///
/// Generic over the transport's up-sending half `U`, so the same loop runs
/// over a channel or a socket.
pub(super) struct SiteWorker<'a, P: CounterProtocol, F, U: UpSender> {
    pub(super) site_id: usize,
    pub(super) protocols: &'a [P],
    pub(super) map_event: &'a F,
    pub(super) up_tx: U,
    pub(super) flush_bytes: usize,
    pub(super) states: Vec<P::Site>,
    /// Exact per-epoch snapshots taken at each roll (oracle).
    pub(super) snaps: Vec<Vec<u64>>,
    pub(super) rng: SmallRng,
    /// Scratch: the current chunk's counter ids, back to back at a fixed
    /// per-event stride (the layout's `map_chunk` slab).
    pub(super) ids: Vec<u32>,
    /// Scratch: the current event's (or broadcast's) pending updates.
    pub(super) batch: Vec<(u32, UpMsg)>,
    /// The accumulating multi-event packet (reused across flushes).
    pub(super) pkt: BytesMut,
    /// A `Kill` arrived: crash mid-way through the next chunk (tearing the
    /// in-flight packet) or at end-of-stream, whichever comes first.
    pub(super) dying: bool,
    /// Crashed: discard events and broadcasts, never ack a barrier, wait
    /// for `Revive`.
    pub(super) dead: bool,
    /// Per-counter increments lost to churn (wiped at crashes, discarded
    /// while dead) — the site's half of the reconciliation identity.
    pub(super) lost: Vec<u64>,
    /// Events discarded on arrival without being ingested.
    pub(super) events_lost: u64,
    /// When the current outage started (set at the crash).
    pub(super) down_since: Option<Instant>,
    /// Cumulative downtime over all outages.
    pub(super) downtime: Duration,
}

impl<P, F, U> SiteWorker<'_, P, F, U>
where
    P: CounterProtocol,
    F: Fn(&EventChunk, &mut Vec<u32>),
    U: UpSender,
{
    /// Send the accumulated packet, if any. Returns `false` when the up
    /// link is gone (the run is over).
    fn flush(&mut self) -> bool {
        if self.pkt.is_empty() {
            return true;
        }
        let payload = Bytes::copy_from_slice(&self.pkt);
        self.pkt.clear();
        self.up_tx.send(UpPacket::Updates { site: self.site_id, payload }).is_ok()
    }

    /// Report an unrecoverable error up (so the coordinator aborts the run
    /// with it) and stop this site. Always returns `false`.
    fn fault(&mut self, error: ClusterError) -> bool {
        let _ = self.up_tx.send(UpPacket::Fault { site: self.site_id, error });
        false
    }

    /// Run UPDATE for every event in a chunk, coalescing the events' wire
    /// encodings into the packet buffer; flush on the size threshold, at
    /// the chunk boundary, and immediately after any event that produced a
    /// non-increment message. Reports (and cumulative/threshold messages)
    /// drive the protocols' round feedback — a buffered HYZ report delays
    /// the sync/`NewRound` cycle, leaving sites sampling at a stale higher
    /// probability and *inflating* the paper's logical message counts — so
    /// they ship promptly, like the other control-ish traffic (the
    /// flush-before-control rule). Bare increments, the exact-maintenance
    /// hot path, carry no feedback and keep full amortization.
    fn handle_chunk(&mut self, chunk: &EventChunk) -> bool {
        if self.dead {
            self.lose_chunk(chunk);
            return true;
        }
        if self.dying {
            return self.crash_mid_chunk(chunk);
        }
        if chunk.is_empty() {
            return self.flush();
        }
        // Map the whole chunk in one sweep (the layout's stride-table bulk
        // kernel — no per-event re-deriving), then walk the id slab at its
        // fixed per-event stride. The scratch is taken out of `self` for
        // the duration so mid-loop flushes can borrow the worker.
        let mut ids = std::mem::take(&mut self.ids);
        (self.map_event)(chunk, &mut ids);
        let stride = self.chunk_stride(&ids, chunk.len());
        let mut ok = true;
        for e in 0..chunk.len() {
            for &cid in &ids[e * stride..(e + 1) * stride] {
                self.protocols[cid as usize].increment_batch(
                    &mut self.states[cid as usize],
                    cid,
                    1,
                    &mut self.batch,
                    &mut self.rng,
                );
            }
            let urgent = self.batch.iter().any(|(_, m)| !matches!(m, UpMsg::Increment));
            encode_event(&mut self.batch, &mut self.pkt);
            if (urgent || self.pkt.len() >= self.flush_bytes) && !self.flush() {
                ok = false;
                break;
            }
        }
        self.ids = ids;
        ok && self.flush()
    }

    /// The per-event id stride of a mapped chunk slab (the `2n` of
    /// Algorithm 2 under a layout mapping; test doubles may emit fewer).
    fn chunk_stride(&self, ids: &[u32], events: usize) -> usize {
        let stride = ids.len() / events;
        debug_assert_eq!(stride * events, ids.len(), "mapping must emit a fixed per-event stride");
        stride
    }

    /// Discard a chunk routed to this dead site: every event is counted
    /// into the loss ledger, nothing is ingested. The mapped slab feeds the
    /// ledger directly — each id in it is exactly one lost increment.
    fn lose_chunk(&mut self, chunk: &EventChunk) {
        if chunk.is_empty() {
            return;
        }
        let mut ids = std::mem::take(&mut self.ids);
        (self.map_event)(chunk, &mut ids);
        for &cid in &ids {
            self.lost[cid as usize] += 1;
        }
        self.events_lost += chunk.len() as u64;
        self.ids = ids;
    }

    /// A `Kill` is pending: ingest the first half of this chunk with every
    /// flush suppressed (so the updates pile into the packet buffer),
    /// discard the second half, then crash — tearing the buffered packet
    /// mid-frame. This is the deterministic reproduction of a site dying
    /// mid-flush: the coordinator receives a truncated final packet it
    /// must attribute and discard.
    fn crash_mid_chunk(&mut self, chunk: &EventChunk) -> bool {
        let keep = chunk.len().div_ceil(2);
        if !chunk.is_empty() {
            let mut ids = std::mem::take(&mut self.ids);
            (self.map_event)(chunk, &mut ids);
            let stride = self.chunk_stride(&ids, chunk.len());
            for (i, ev_ids) in
                (0..chunk.len()).map(|e| &ids[e * stride..(e + 1) * stride]).enumerate()
            {
                if i < keep {
                    for &cid in ev_ids {
                        self.protocols[cid as usize].increment_batch(
                            &mut self.states[cid as usize],
                            cid,
                            1,
                            &mut self.batch,
                            &mut self.rng,
                        );
                    }
                    encode_event(&mut self.batch, &mut self.pkt);
                } else {
                    for &cid in ev_ids {
                        self.lost[cid as usize] += 1;
                    }
                    self.events_lost += 1;
                }
            }
            self.ids = ids;
        }
        self.crash()
    }

    /// Execute the crash (fail-stop): send the torn prefix of whatever was
    /// still unflushed as the `Crashed` marker's partial payload — the
    /// *last* packet on this site's FIFO up link, so the coordinator has
    /// applied everything the site delivered when it learns of the death —
    /// then wipe all protocol state into the loss ledger and go dark.
    fn crash(&mut self) -> bool {
        let partial = Bytes::copy_from_slice(&self.pkt[..self.pkt.len() / 2]);
        self.pkt.clear();
        self.batch.clear();
        for (c, st) in self.states.iter_mut().enumerate() {
            self.lost[c] += self.protocols[c].site_local_count(st);
            *st = self.protocols[c].new_site();
        }
        self.dying = false;
        self.dead = true;
        self.down_since = Some(Instant::now());
        self.up_tx.send(UpPacket::Crashed { site: self.site_id, partial }).is_ok()
    }

    /// Come back from the dead with the protocol states already fresh
    /// (wiped at the crash): close the outage ledger and fast-forward into
    /// the current protocol rounds via the coordinator's catch-up frames —
    /// FIFO delivery on the down link guarantees they precede any
    /// broadcast sent after the rejoin.
    fn revive(&mut self, catchup: Bytes) -> bool {
        if !self.dead {
            return true; // never sent by our coordinator; a no-op is safe
        }
        self.dead = false;
        if let Some(t) = self.down_since.take() {
            self.downtime += t.elapsed();
        }
        if catchup.is_empty() {
            return true;
        }
        self.handle_data(catchup)
    }

    /// A dead site discards broadcast data, but the per-epoch oracle needs
    /// every site to observe every roll exactly once: scan the packet for
    /// `EpochRoll` frames and record an all-zero epoch snapshot for each
    /// (the site's counts for the closing epoch were wiped into the loss
    /// ledger at the crash, or discarded on arrival).
    fn observe_rolls_dead(&mut self, payload: Bytes) -> bool {
        let n = self.protocols.len();
        let mut zero_snaps = 0usize;
        let res = visit_packet(payload, |item| {
            if let WireItem::EpochRoll { .. } = item {
                zero_snaps += 1;
            }
        });
        for _ in 0..zero_snaps {
            self.snaps.push(vec![0; n]);
        }
        if let Err(source) = res {
            return self.fault(ClusterError::Wire {
                context: "down packet",
                site: Some(self.site_id),
                source,
            });
        }
        true
    }

    /// Close an epoch at this site: flush everything produced before the
    /// roll (buffered updates and replies — per-site FIFO then guarantees
    /// the coordinator sees all of the closing epoch's traffic before the
    /// ack), snapshot the exact per-epoch deltas (states were fresh at the
    /// previous roll, so the local count *is* the delta), reset, and send
    /// the settlement control packet: one `Cumulative` frame per nonzero
    /// counter — the epoch's terminal sync — followed by the ack.
    fn roll_epoch(&mut self, epoch: u32) -> bool {
        if !self.batch.is_empty() {
            encode_event(&mut self.batch, &mut self.pkt);
        }
        if !self.flush() {
            return false;
        }
        let snap: Vec<u64> = self
            .states
            .iter()
            .enumerate()
            .map(|(c, st)| self.protocols[c].site_local_count(st))
            .collect();
        for (c, st) in self.states.iter_mut().enumerate() {
            *st = self.protocols[c].new_site();
        }
        // The packet buffer is empty after the flush; borrow it for the
        // control packet.
        for (c, &value) in snap.iter().enumerate() {
            if value > 0 {
                encode(
                    &Frame::Up { counter: c as u32, msg: UpMsg::Cumulative { value } },
                    &mut self.pkt,
                );
            }
        }
        encode(&Frame::EpochAck { epoch }, &mut self.pkt);
        self.snaps.push(snap);
        let payload = Bytes::copy_from_slice(&self.pkt);
        self.pkt.clear();
        self.up_tx.send(UpPacket::Control { site: self.site_id, payload }).is_ok()
    }

    /// Handle one down packet; returns `false` when the run is over (link
    /// gone) or this site faulted (the fault is forwarded up first).
    pub(super) fn handle_down(&mut self, pkt: DownPacket) -> bool {
        match pkt {
            DownPacket::Data(payload) => {
                if self.dead {
                    return self.observe_rolls_dead(payload);
                }
                self.handle_data(payload)
            }
            // The down link is FIFO, so by the time the barrier is read
            // every earlier broadcast has been handled and its replies
            // sent — the flush below pushes anything still buffered onto
            // the (per-site FIFO) up link ahead of this ack. A dead site
            // never acks: the coordinator stopped expecting it when the
            // `Crashed` marker (which preceded this barrier) arrived.
            DownPacket::Flush(epoch) => {
                if self.dead {
                    return true;
                }
                if !self.flush() {
                    return false;
                }
                self.up_tx.send(UpPacket::FlushAck { epoch }).is_ok()
            }
            // The transport substrate failed on our down link: forward the
            // fault up so the coordinator aborts, and stop.
            DownPacket::Fault(error) => self.fault(error),
            // A transport-delivered kill order. Driver-injected faults
            // arrive in-band on the event link instead (`SiteFeed::Kill`,
            // for exact kill points); this arm keeps the wire variant
            // meaningful for transports that deliver one directly.
            DownPacket::Kill => {
                if !self.dead {
                    self.dying = true;
                }
                true
            }
            DownPacket::Revive(catchup) => self.revive(catchup),
        }
    }

    /// Decode and apply one broadcast-data payload (a down packet's, or a
    /// rejoin catch-up's — same frames, same rules).
    fn handle_data(&mut self, payload: Bytes) -> bool {
        let mut ok = true;
        let mut err: Option<ClusterError> = None;
        let res = visit_packet(payload, |item| {
            if !ok || err.is_some() {
                return;
            }
            match item {
                WireItem::Down { counter, msg } => {
                    let c = counter as usize;
                    if c >= self.protocols.len() {
                        err = Some(ClusterError::Protocol {
                            context: "down packet",
                            detail: format!(
                                "counter {counter} out of range ({} counters)",
                                self.protocols.len()
                            ),
                        });
                        return;
                    }
                    if let Some(reply) =
                        self.protocols[c].handle_down(&mut self.states[c], msg, &mut self.rng)
                    {
                        self.batch.push((counter, reply));
                    }
                }
                WireItem::EpochRoll { epoch } => ok = self.roll_epoch(epoch),
                WireItem::Up { .. } | WireItem::EpochAck { .. } => {
                    err = Some(ClusterError::Protocol {
                        context: "down packet",
                        detail: "up frame on a down link".into(),
                    });
                }
            }
        });
        if let Some(e) = err {
            return self.fault(e);
        }
        if let Err(source) = res {
            return self.fault(ClusterError::Wire {
                context: "down packet",
                site: Some(self.site_id),
                source,
            });
        }
        if !ok {
            return false;
        }
        if self.batch.is_empty() {
            return true;
        }
        // Sync replies are time-critical control traffic: encode
        // them behind whatever updates are already buffered and
        // force the flush.
        encode_event(&mut self.batch, &mut self.pkt);
        self.flush()
    }
}

/// What a site thread hands back at exit: the final protocol states and
/// per-epoch exact snapshots (the oracle inputs), plus the site's churn
/// ledger.
pub(super) struct SiteFinal<S> {
    pub(super) site_id: usize,
    pub(super) states: Vec<S>,
    pub(super) snaps: Vec<Vec<u64>>,
    /// Per-counter increments wiped by crashes or discarded while dead.
    pub(super) lost: Vec<u64>,
    /// Events discarded while dead without ever being ingested.
    pub(super) events_lost: u64,
    pub(super) downtime: Duration,
}

/// One site thread's serve loop, extracted so the spawn site can wrap it
/// in `catch_unwind` and turn an escaped panic — e.g. from a
/// caller-supplied protocol or `map_event` — into a typed in-band
/// [`ClusterError::WorkerPanicked`] instead of a silently discarded join.
pub(super) fn run_site<P, F, U>(
    worker: &mut SiteWorker<'_, P, F, U>,
    down_rx: &Receiver<DownPacket>,
    event_rx: &Receiver<SiteFeed>,
) where
    P: CounterProtocol,
    F: Fn(&EventChunk, &mut Vec<u32>),
    U: UpSender,
{
    loop {
        crossbeam::channel::select! {
            recv(down_rx) -> pkt => match pkt {
                Ok(pkt) => {
                    if !worker.handle_down(pkt) {
                        return;
                    }
                }
                Err(_) => return,
            },
            recv(event_rx) -> chunk => match chunk {
                Ok(SiteFeed::Chunk(chunk)) => {
                    if !worker.handle_chunk(&chunk) {
                        return;
                    }
                }
                // The in-band kill order: arm the crash. It lands on the
                // next chunk (tearing its packet mid-frame) or at
                // end-of-stream, whichever comes first; a site already
                // dead has nothing left to kill (fail-stop).
                Ok(SiteFeed::Kill) => {
                    if !worker.dead {
                        worker.dying = true;
                    }
                }
                Err(_) => {
                    // Stream finished. A site still holding a kill order
                    // crashes here, with an empty partial packet (every
                    // chunk flushed at its boundary), so the coordinator
                    // always gets the terminal `Crashed` marker before
                    // this site's `Done` — the FIFO invariant phase 2
                    // relies on. Then announce and keep serving
                    // broadcasts and flush barriers until the coordinator
                    // closes our down link.
                    if worker.dying && !worker.crash() {
                        return;
                    }
                    let _ = worker.up_tx.send(UpPacket::Done);
                    while let Ok(pkt) = down_rx.recv() {
                        if !worker.handle_down(pkt) {
                            return;
                        }
                    }
                    return;
                }
            },
        }
    }
}
