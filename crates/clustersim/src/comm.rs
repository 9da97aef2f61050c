//! The per-rank communication endpoint.
//!
//! A [`Comm`] owns its rank's virtual clock. Computation advances it via
//! [`Comm::advance`]; communication calls combine CPU costs (charged to the
//! clock) with NIC bookings in the shared state. The API mirrors the
//! simplified MPI surface of the mini language:
//!
//! | mini-Fortran        | Comm method        |
//! |---------------------|--------------------|
//! | `mpi_isend`         | [`Comm::isend`]    |
//! | `mpi_irecv`         | [`Comm::irecv`]    |
//! | `mpi_waitall_recv`  | [`Comm::wait_all_recvs`] |
//! | `mpi_waitall`       | [`Comm::wait_all`] |
//! | `mpi_alltoall`      | [`Comm::alltoall`] |
//! | `mpi_barrier`       | [`Comm::barrier`]  |

use crate::message::{InFlight, MsgKey};
use crate::model::NetworkModel;
use crate::script::Op;
use crate::state::{CollectiveKind, Shared};
use crate::stats::RankStats;
use crate::time::SimTime;
use crate::trace::{Event, EventKind};
use bytes::Bytes;
use std::sync::Arc;

/// Handle returned by [`Comm::irecv`], redeemed at wait time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecvId(pub usize);

#[derive(Debug, Clone)]
struct PendingRecv {
    id: RecvId,
    key: MsgKey,
}

/// A collective this rank has joined (`*_begin`) but not yet completed —
/// the saved inputs the matching `poll_*` needs to reproduce the blocking
/// path's post-completion accounting bit-for-bit.
struct PendingColl {
    kind: CollectiveKind,
    idx: u64,
    entry: SimTime,
    bytes_per: usize,
}

/// What [`Comm::finish`] hands back to the runner.
pub(crate) struct Finished {
    pub stats: RankStats,
    pub events: Vec<Event>,
    pub log: Option<Vec<Op>>,
}

/// One rank's endpoint into the simulated cluster.
pub struct Comm {
    shared: Arc<Shared>,
    rank: usize,
    clock: SimTime,
    next_recv_id: usize,
    pending_recvs: Vec<PendingRecv>,
    /// NIC-done times of sends not yet waited on.
    outstanding_sends: Vec<SimTime>,
    collective_idx: u64,
    /// Collective joined but not yet completed (resumable mode only).
    pending_coll: Option<PendingColl>,
    stats: RankStats,
    trace: Option<Vec<Event>>,
    /// The calls made so far, as replayable script operations (when the
    /// cluster is [recording](crate::Cluster::recording) and every call
    /// so far had an [`Op`] form).
    log: Option<Vec<Op>>,
}

impl Comm {
    pub(crate) fn new(shared: Arc<Shared>, rank: usize, traced: bool, recording: bool) -> Self {
        Comm {
            shared,
            rank,
            clock: SimTime::ZERO,
            next_recv_id: 0,
            pending_recvs: Vec::new(),
            outstanding_sends: Vec::new(),
            collective_idx: 0,
            pending_coll: None,
            stats: RankStats {
                rank,
                ..Default::default()
            },
            trace: traced.then(Vec::new),
            log: recording.then(Vec::new),
        }
    }

    fn log(&mut self, op: Op) {
        if let Some(log) = &mut self.log {
            log.push(op);
        }
    }

    /// Log a computation span, merged into an immediately preceding one:
    /// integer addition is associative, so one [`Op::ComputeExact`] of
    /// the sum moves the clock and `compute` exactly as the parts did.
    fn log_compute(&mut self, dt: SimTime) {
        if let Some(log) = &mut self.log {
            match log.last_mut() {
                Some(Op::ComputeExact(sum)) => *sum += dt,
                _ => log.push(Op::ComputeExact(dt)),
            }
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn np(&self) -> usize {
        self.shared.np
    }

    pub fn model(&self) -> &NetworkModel {
        &self.shared.model
    }

    /// Current virtual time at this rank.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    fn emit(&mut self, kind: EventKind) {
        if let Some(tr) = &mut self.trace {
            tr.push(Event {
                rank: self.rank,
                t: self.clock,
                kind,
            });
        }
    }

    /// Charge `ns` nanoseconds of computation to this rank.
    pub fn advance(&mut self, ns: f64) {
        let dt = SimTime::from_ns_f64(ns);
        self.clock += dt;
        self.stats.compute += dt;
        self.emit(EventKind::Compute { ns: dt.as_ns() });
        self.log_compute(dt);
    }

    /// Charge an already-rounded computation span to this rank. Callers
    /// that pre-aggregate many per-statement charges (the interpreter's
    /// block-summarized cost accounting) must round each charge first —
    /// integer addition is associative, so the summed clock is
    /// byte-identical to making the individual [`Comm::advance`] calls.
    pub fn advance_exact(&mut self, dt: SimTime) {
        self.clock += dt;
        self.stats.compute += dt;
        self.emit(EventKind::Compute { ns: dt.as_ns() });
        self.log_compute(dt);
    }

    /// Non-blocking send. CPU pays `o + β_s·S`; the NIC takes over.
    ///
    /// Returns the virtual time at which the NIC finishes reading the
    /// buffer — after this instant the application may safely overwrite it
    /// (the interpreter's buffer-reuse detector uses exactly this bound).
    pub fn isend(&mut self, dst: usize, tag: i64, payload: Bytes) -> SimTime {
        assert!(dst < self.np(), "isend to rank {dst} of {}", self.np());
        assert_ne!(dst, self.rank, "isend to self is not modeled; copy locally");
        let n = payload.len();
        self.log(Op::Send {
            to: dst,
            tag,
            bytes: n,
        });
        let cpu = self.shared.model.send_cpu_at(self.rank, self.shared.np, n);
        self.clock += cpu;
        self.stats.comm_cpu += cpu;

        let (_depart, nic_done) = self.shared.book_send_nic(self.rank, self.clock, n);
        let ready_at = nic_done + self.shared.model.latency;
        self.outstanding_sends.push(nic_done);
        self.stats.bytes_sent += n as u64;
        self.stats.msgs_sent += 1;
        self.emit(EventKind::SendPosted {
            dst,
            tag,
            nbytes: n,
            nic_done,
            ready_at,
        });
        self.shared.deposit(
            MsgKey {
                src: self.rank,
                dst,
                tag,
            },
            InFlight { ready_at, payload },
        );
        nic_done
    }

    /// Post a non-blocking receive; costs one overhead `o` now.
    pub fn irecv(&mut self, src: usize, tag: i64) -> RecvId {
        assert!(src < self.np(), "irecv from rank {src} of {}", self.np());
        let id = RecvId(self.next_recv_id);
        self.next_recv_id += 1;
        let overhead = self.shared.model.overhead_at(self.rank, self.shared.np);
        self.clock += overhead;
        self.stats.comm_cpu += overhead;
        self.pending_recvs.push(PendingRecv {
            id,
            key: MsgKey {
                src,
                dst: self.rank,
                tag,
            },
        });
        self.emit(EventKind::RecvPosted { src, tag });
        self.log(Op::Recv { from: src, tag });
        id
    }

    /// Block until the message for `id` arrives; returns its payload.
    pub fn wait_recv(&mut self, id: RecvId) -> Bytes {
        let pos = self
            .pending_recvs
            .iter()
            .position(|p| p.id == id)
            .expect("wait_recv on unknown or already-completed RecvId");
        // Waiting on one receive by handle has no script form.
        self.log = None;
        let pending = self.pending_recvs.remove(pos);
        let (arrival, payload) = self.shared.match_one(pending.key);
        self.absorb_arrival(arrival, pending.key, &payload);
        payload
    }

    /// Wait for *all* posted receives; returns (id, payload) in post order.
    ///
    /// This is `mpi_waitall_recv` — the call the transformation inserts at
    /// the top of each tile to drain the previous tile's receives (paper
    /// §3.6 step 2).
    pub fn wait_all_recvs(&mut self) -> Vec<(RecvId, Bytes)> {
        self.log(Op::WaitRecvs);
        if self.pending_recvs.is_empty() {
            return Vec::new();
        }
        let pendings = std::mem::take(&mut self.pending_recvs);
        let keys: Vec<MsgKey> = pendings.iter().map(|p| p.key).collect();
        let matched = self.shared.match_all(self.rank, &keys);
        let mut out = Vec::with_capacity(pendings.len());
        for (p, (arrival, payload)) in pendings.into_iter().zip(matched) {
            self.absorb_arrival(arrival, p.key, &payload);
            out.push((p.id, payload));
        }
        out
    }

    fn absorb_arrival(&mut self, arrival: SimTime, key: MsgKey, payload: &Bytes) {
        let n = payload.len();
        if arrival > self.clock {
            self.stats.blocked += arrival - self.clock;
            self.clock = arrival;
        }
        let cpu = self.shared.model.recv_cpu_at(self.rank, self.shared.np, n);
        self.clock += cpu;
        self.stats.comm_cpu += cpu;
        self.stats.bytes_recv += n as u64;
        self.stats.msgs_recv += 1;
        self.emit(EventKind::RecvMatched {
            src: key.src,
            tag: key.tag,
            nbytes: n,
            arrival,
        });
    }

    /// Non-blocking [`Comm::wait_all_recvs`]: complete all posted receives
    /// if every one of them already has a message, else `None` with nothing
    /// consumed. On success the matching, NIC serialization, clock jump,
    /// stats, and trace events are the blocking path's own code on the same
    /// inputs — and since a parked rank's clock does not move, the values
    /// are byte-identical no matter how many polls returned `None` first.
    pub fn poll_wait_all_recvs(&mut self) -> Option<Vec<(RecvId, Bytes)>> {
        self.shared
            .check_aborts(self.rank, "waiting for posted receives");
        if self.pending_recvs.is_empty() {
            self.log(Op::WaitRecvs);
            return Some(Vec::new());
        }
        let keys: Vec<MsgKey> = self.pending_recvs.iter().map(|p| p.key).collect();
        let matched = self.shared.try_match_all(self.rank, &keys)?;
        // Logged at completion only, so re-polls after `None` log nothing.
        self.log(Op::WaitRecvs);
        let pendings = std::mem::take(&mut self.pending_recvs);
        let mut out = Vec::with_capacity(pendings.len());
        for (p, (arrival, payload)) in pendings.into_iter().zip(matched) {
            self.absorb_arrival(arrival, p.key, &payload);
            out.push((p.id, payload));
        }
        Some(out)
    }

    /// Drain all outstanding sends (NIC done — buffers reusable): the send
    /// half of `mpi_waitall`. Purely local — the drain times were fixed at
    /// `isend` time — so it never blocks and needs no poll counterpart.
    pub fn drain_sends(&mut self) {
        let drained = self
            .outstanding_sends
            .drain(..)
            .fold(SimTime::ZERO, SimTime::max);
        if drained > self.clock {
            self.stats.blocked += drained - self.clock;
            self.clock = drained;
        }
        self.emit(EventKind::SendsDrained { until: drained });
        self.log(Op::Drain);
    }

    /// Wait for all outstanding sends (NIC drained — buffers reusable) and
    /// all posted receives. This is `mpi_waitall`.
    pub fn wait_all(&mut self) -> Vec<(RecvId, Bytes)> {
        let out = self.wait_all_recvs();
        self.drain_sends();
        out
    }

    /// Join an alltoall: fixes the entry clock and sequence index, registers
    /// the payloads, and remembers what the completion accounting needs.
    /// Shared by the blocking [`Comm::alltoall`] and the resumable
    /// [`Comm::poll_alltoall`], so both attribute identical costs.
    pub fn alltoall_begin(&mut self, payload_per_dst: Vec<Bytes>) {
        assert!(
            self.pending_coll.is_none(),
            "collective already in flight on rank {}",
            self.rank
        );
        assert_eq!(
            payload_per_dst.len(),
            self.np(),
            "alltoall needs one payload per rank"
        );
        // Collectives log at their begin, which runs exactly once each.
        if self.log.is_some() {
            let sizes: Vec<usize> = payload_per_dst.iter().map(Bytes::len).collect();
            self.log(if sizes.iter().all(|&n| n == sizes[0]) {
                Op::Alltoall { bytes: sizes[0] }
            } else {
                Op::AlltoallV { bytes: sizes }
            });
        }
        let bytes_per = payload_per_dst
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != self.rank)
            .map(|(_, b)| b.len())
            .max()
            .unwrap_or(0);
        let entry = self.clock;
        let idx = self.collective_idx;
        self.collective_idx += 1;
        self.shared.collective_begin(
            CollectiveKind::Alltoall,
            idx,
            self.rank,
            entry,
            payload_per_dst,
        );
        self.pending_coll = Some(PendingColl {
            kind: CollectiveKind::Alltoall,
            idx,
            entry,
            bytes_per,
        });
    }

    /// Post-completion accounting for an alltoall: the CPU part of this
    /// rank's own pairwise exchanges is comm_cpu; the rest of the jump is
    /// blocked.
    fn absorb_alltoall(&mut self, entry: SimTime, bytes_per: usize, completion: SimTime) {
        let np = self.np() as u64;
        let per_pair = self.shared.model.send_cpu_at(self.rank, self.shared.np, bytes_per)
            + self.shared.model.recv_cpu_at(self.rank, self.shared.np, bytes_per);
        let cpu_part = SimTime(per_pair.as_ns() * (np - 1));
        let total_jump = completion.saturating_sub(entry);
        let cpu_part = SimTime(cpu_part.as_ns().min(total_jump.as_ns()));
        self.stats.comm_cpu += cpu_part;
        self.stats.blocked += total_jump - cpu_part;
        self.clock = completion.max(self.clock);
        self.stats.alltoalls += 1;
        let traffic = bytes_per as u64 * (np - 1);
        self.stats.bytes_sent += traffic;
        self.stats.bytes_recv += traffic;
        self.stats.msgs_sent += np - 1;
        self.stats.msgs_recv += np - 1;
        self.emit(EventKind::Alltoall {
            bytes_per_partner: bytes_per,
            completion,
        });
    }

    /// Non-blocking completion check for an [`Comm::alltoall_begin`]: takes
    /// this rank's share once the last arriver computed it. The clock does
    /// not move while parked (`entry` was saved at the begin), so the
    /// accounting equals the blocking path's byte-for-byte.
    pub fn poll_alltoall(&mut self) -> Option<Vec<Bytes>> {
        self.shared.check_aborts(self.rank, "in an alltoall");
        let pc = self
            .pending_coll
            .as_ref()
            .expect("poll_alltoall without alltoall_begin");
        debug_assert_eq!(pc.kind, CollectiveKind::Alltoall);
        let (completion, payloads) = self.shared.try_collective_take(pc.idx, self.rank)?;
        let pc = self.pending_coll.take().expect("checked above");
        self.absorb_alltoall(pc.entry, pc.bytes_per, completion);
        Some(payloads)
    }

    /// Blocking all-to-all exchange: `payload_per_dst[d]` goes to rank `d`
    /// (the self-slot is copied through without network cost). Returns one
    /// payload per source rank. All ranks must call in matching order.
    pub fn alltoall(&mut self, payload_per_dst: Vec<Bytes>) -> Vec<Bytes> {
        self.alltoall_begin(payload_per_dst);
        let pc = self.pending_coll.take().expect("just set");
        let (completion, payloads) = self.shared.collective_wait(pc.kind, pc.idx, self.rank);
        self.absorb_alltoall(pc.entry, pc.bytes_per, completion);
        payloads
    }

    /// Join a barrier (resumable counterpart of [`Comm::barrier`]).
    pub fn barrier_begin(&mut self) {
        assert!(
            self.pending_coll.is_none(),
            "collective already in flight on rank {}",
            self.rank
        );
        self.log(Op::Barrier);
        let entry = self.clock;
        let idx = self.collective_idx;
        self.collective_idx += 1;
        self.shared
            .collective_begin(CollectiveKind::Barrier, idx, self.rank, entry, Vec::new());
        self.pending_coll = Some(PendingColl {
            kind: CollectiveKind::Barrier,
            idx,
            entry,
            bytes_per: 0,
        });
    }

    fn absorb_barrier(&mut self, completion: SimTime) {
        self.stats.blocked += completion.saturating_sub(self.clock);
        self.clock = completion.max(self.clock);
        self.stats.barriers += 1;
        self.emit(EventKind::Barrier { completion });
    }

    /// Non-blocking completion check for a [`Comm::barrier_begin`].
    pub fn poll_barrier(&mut self) -> Option<()> {
        self.shared.check_aborts(self.rank, "in a barrier");
        let pc = self
            .pending_coll
            .as_ref()
            .expect("poll_barrier without barrier_begin");
        debug_assert_eq!(pc.kind, CollectiveKind::Barrier);
        let (completion, _) = self.shared.try_collective_take(pc.idx, self.rank)?;
        self.pending_coll = None;
        self.absorb_barrier(completion);
        Some(())
    }

    /// Barrier: all ranks synchronize to the latest entry time (+`o`).
    pub fn barrier(&mut self) {
        self.barrier_begin();
        let pc = self.pending_coll.take().expect("just set");
        let (completion, _) = self.shared.collective_wait(pc.kind, pc.idx, self.rank);
        self.absorb_barrier(completion);
    }

    /// Number of receives posted but not yet waited on.
    pub fn pending_recv_count(&self) -> usize {
        self.pending_recvs.len()
    }

    /// Number of sends not yet drained by `wait_all`.
    pub fn outstanding_send_count(&self) -> usize {
        self.outstanding_sends.len()
    }

    /// The rank's final statistics, trace events, and call log.
    pub(crate) fn finish(&mut self) -> Finished {
        assert!(
            self.pending_recvs.is_empty(),
            "rank {} finished with {} unmatched receives",
            self.rank,
            self.pending_recvs.len()
        );
        self.stats.finish = self.clock;
        Finished {
            stats: std::mem::take(&mut self.stats),
            events: self.trace.take().unwrap_or_default(),
            log: self.log.take(),
        }
    }

    /// Read-only view of the running stats (tests).
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        // A rank unwinding mid-communication leaves peers blocked on
        // messages or collectives that will never come; poison the cluster
        // so they abort immediately instead of hitting the deadlock
        // timeout.
        if std::thread::panicking() {
            self.shared.poison();
        }
    }
}
