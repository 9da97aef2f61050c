//! The cluster runner. Two execution engines share one accounting core:
//!
//! - [`Cluster::run`] — thread-per-rank: one task per simulated rank on the
//!   persistent [`crate::pool`] (rank 0 on the calling thread, the rest on
//!   reusable pool workers), ranks block on condvars. Kept as the
//!   differential reference, the way `single_lock_reference` preserves the
//!   historical state backend.
//! - [`Cluster::run_resumable`] — M worker threads drive `np`
//!   [`RankMachine`]s through a runnable queue ([`crate::sched`]); a rank
//!   that cannot progress parks its *state*, not an OS thread, so any `np`
//!   runs on a fixed worker count.
//!
//! Both produce byte-identical results, statistics, and traces (pinned by
//! the differential suites; argument in DESIGN.md §3).

use crate::comm::{Comm, Finished};
use crate::model::NetworkModel;
use crate::pool;
use crate::sched::{ParkOutcome, RankSched};
use crate::script::Op;
use crate::state::{Shared, WakeEvent};
use crate::stats::Report;
use crate::trace::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Errors surfaced by a simulated run.
#[derive(Debug)]
pub enum SimError {
    /// A rank panicked (simulated deadlock, program bug, interpreter error).
    RankPanic { rank: usize, message: String },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::RankPanic { rank, message } => {
                write!(f, "rank {rank} failed: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Results of a completed run.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    pub report: Report,
    /// Present when the cluster was built with tracing enabled.
    pub trace: Option<Trace>,
    /// Each rank's `Comm` calls as script operations, indexed by rank.
    /// Present when the cluster was [recording](Cluster::recording) and
    /// every rank's calls all had a script form.
    pub ops: Option<Vec<Vec<Op>>>,
}

/// One quantum of resumable-rank progress.
pub enum Step<R> {
    /// The rank hit a blocking point whose condition isn't met yet; park it
    /// and re-step when a wake arrives.
    Blocked,
    /// The rank ran to completion.
    Done(R),
}

/// A rank as a resumable state machine: `step` runs until the program
/// either finishes or reaches a communication point that cannot progress
/// (an unmatched wait, an incomplete collective). The machine owns all
/// suspended execution state — frames, pc, pending operations — and `step`
/// is re-entered with the same `Comm` after a wake.
///
/// Contract: a `Blocked` return must leave the rank's virtual clock
/// untouched relative to the eventual completion — i.e. polling must be
/// free. The `Comm` poll methods guarantee this by construction.
pub trait RankMachine {
    type Out: Send;
    fn step(&mut self, comm: &mut Comm) -> Step<Self::Out>;
}

/// The largest rank count a cluster accepts. The shared state keeps one
/// mailbox per (source, destination) pair, so memory grows with np²;
/// 512 is the largest np any committed grid runs.
pub const MAX_NP: usize = 512;

/// A simulated cluster: `np` ranks over one [`NetworkModel`].
pub struct Cluster {
    np: usize,
    model: NetworkModel,
    traced: bool,
    recording: bool,
    single_lock: bool,
}

impl Cluster {
    pub fn new(np: usize, model: NetworkModel) -> Self {
        assert!(np >= 1, "cluster needs at least one rank");
        assert!(np <= MAX_NP, "cluster of {np} ranks exceeds the limit of {MAX_NP}");
        Cluster {
            np,
            model,
            traced: false,
            recording: false,
            single_lock: false,
        }
    }

    /// Enable event tracing (costs memory; intended for tests/debugging).
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Log every rank's `Comm` calls as [`Op`]s into
    /// [`RunOutput::ops`], so the run can be replayed as
    /// [scripts](crate::script::Script) on other models.
    pub fn recording(mut self) -> Self {
        self.recording = true;
        self
    }

    /// Use the historical single-global-lock state backend instead of the
    /// sharded one. Virtual times are identical by construction; this
    /// exists so differential tests can prove it.
    pub fn single_lock_reference(mut self) -> Self {
        self.single_lock = true;
        self
    }

    pub fn np(&self) -> usize {
        self.np
    }

    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Run `f` once per rank — rank 0 on the calling thread, ranks 1..np
    /// on persistent pool workers — and gather everything. `f` receives a
    /// mutable [`Comm`] endpoint.
    pub fn run<R, F>(&self, f: F) -> Result<RunOutput<R>, SimError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let shared = Arc::new(if self.single_lock {
            Shared::new_single_lock(self.np, self.model.clone())
        } else {
            Shared::new(self.np, self.model.clone())
        });
        let f = &f;
        let (traced, recording) = (self.traced, self.recording);

        let slots: Vec<Mutex<Option<Result<_, SimError>>>> =
            (0..self.np).map(|_| Mutex::new(None)).collect();

        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..self.np)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                let slots = &slots;
                Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let mut comm = Comm::new(shared, rank, traced, recording);
                        let result = f(&mut comm);
                        (result, comm.finish())
                    }));
                    *slots[rank].lock().unwrap() = Some(outcome.map_err(|payload| {
                        SimError::RankPanic {
                            rank,
                            message: panic_message(payload),
                        }
                    }));
                }) as _
            })
            .collect();
        pool::scope_ranks(tasks);

        let slots: Vec<Option<Result<_, SimError>>> = slots
            .into_iter()
            .map(|s| s.into_inner().unwrap())
            .collect();
        gather(self.np, traced, recording, slots)
    }

    /// Run `np` resumable rank machines on a bounded worker set. `mk`
    /// constructs each rank's machine (called on the calling thread, in
    /// rank order). `workers` caps the drivers; `None` means
    /// `min(np, available cores)`. The calling thread always participates,
    /// and extra drivers join only as non-blocking pool tickets allow — so
    /// a run makes progress with zero tickets and never waits on admission.
    ///
    /// Worker count and host scheduling cannot change any result byte:
    /// see `sched.rs` module docs and DESIGN.md §3.
    pub fn run_resumable<M, F>(
        &self,
        workers: Option<usize>,
        mk: F,
    ) -> Result<RunOutput<M::Out>, SimError>
    where
        M: RankMachine + Send,
        F: Fn(&mut Comm) -> M,
    {
        let shared = Arc::new(if self.single_lock {
            Shared::new_single_lock(self.np, self.model.clone())
        } else {
            Shared::new(self.np, self.model.clone())
        });
        let sched = Arc::new(RankSched::new(self.np));
        {
            let sched = Arc::clone(&sched);
            shared.set_waker(Arc::new(move |ev| match ev {
                WakeEvent::One(rank) => sched.wake(rank),
                WakeEvent::All => sched.wake_all(),
            }));
        }

        struct RankCell<M> {
            machine: M,
            comm: Comm,
        }
        // One cell per rank. The scheduler hands a rank to exactly one
        // worker at a time, so these locks are uncontended; they exist to
        // move ownership soundly between workers.
        let cells: Vec<Mutex<Option<RankCell<M>>>> = (0..self.np)
            .map(|rank| {
                let mut comm =
                    Comm::new(Arc::clone(&shared), rank, self.traced, self.recording);
                let machine = mk(&mut comm);
                Mutex::new(Some(RankCell { machine, comm }))
            })
            .collect();
        type Slot<R> = Mutex<Option<Result<(R, Finished), SimError>>>;
        let slots: Vec<Slot<M::Out>> = (0..self.np).map(|_| Mutex::new(None)).collect();

        let worker = || {
            while let Some(rank) = sched.next() {
                let mut guard = cells[rank]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let cell = guard.as_mut().expect("scheduled rank has a live machine");
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    match cell.machine.step(&mut cell.comm) {
                        Step::Done(out) => Some((out, cell.comm.finish())),
                        Step::Blocked => None,
                    }
                }));
                match stepped {
                    Ok(None) => {
                        drop(guard);
                        if sched.park(rank) == ParkOutcome::Deadlock {
                            // Quiescence: nothing queued, nothing running,
                            // live ranks remain. Requeue them all; each
                            // aborts at its next poll with a diagnostic.
                            shared.mark_deadlocked();
                        }
                    }
                    Ok(Some(done)) => {
                        *slots[rank]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Ok(done));
                        guard.take();
                        drop(guard);
                        if sched.done(rank) {
                            // This rank's exit quiesced the cluster with
                            // peers still parked: they wait on messages
                            // that will now never arrive.
                            shared.mark_deadlocked();
                        }
                    }
                    Err(payload) => {
                        // The worker thread itself isn't unwinding, so the
                        // Comm drop can't poison for us — do it explicitly
                        // to abort peers (which also wakes parked ranks).
                        shared.poison();
                        *slots[rank]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) =
                            Some(Err(SimError::RankPanic {
                                rank,
                                message: panic_message(payload),
                            }));
                        guard.take();
                        drop(guard);
                        // `poison()` above already woke every parked rank
                        // to abort, so a quiescing exit needs no separate
                        // deadlock wake here.
                        let _ = sched.done(rank);
                    }
                }
            }
        };

        // The caller always drives; extra workers join only as free tickets
        // allow (never blocking on admission — oversize grids keep moving).
        let want = workers
            .unwrap_or_else(|| default_workers(self.np))
            .clamp(1, self.np.max(1));
        let tickets = pool::Tickets::try_acquire_up_to(want - 1);
        let helpers = tickets.granted();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
            (0..helpers + 1).map(|_| Box::new(&worker) as _).collect();
        pool::scope_helpers(tasks);
        drop(tickets);

        let slots: Vec<Option<Result<_, SimError>>> = slots
            .into_iter()
            .map(|s| s.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner))
            .collect();
        gather(self.np, self.traced, self.recording, slots)
    }
}

/// Default driver count for resumable runs: one per core, never more than
/// ranks. With the sweep executor running scenarios in parallel, scenario-
/// level concurrency usually saturates the machine already.
fn default_workers(np: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(np)
        .max(1)
}

/// Collect per-rank slots into a [`RunOutput`], preferring the root-cause
/// error over secondary "aborted: another rank failed" panics from
/// poisoned peers.
fn gather<R>(
    np: usize,
    traced: bool,
    recording: bool,
    slots: Vec<Option<Result<(R, Finished), SimError>>>,
) -> Result<RunOutput<R>, SimError> {
    if slots.iter().any(|s| matches!(s, Some(Err(_)))) {
        let mut fallback = None;
        for slot in slots {
            if let Some(Err(e)) = slot {
                let SimError::RankPanic { message, .. } = &e;
                if !message.contains("aborted: another rank failed") {
                    return Err(e);
                }
                fallback.get_or_insert(e);
            }
        }
        return Err(fallback.expect("checked an error exists"));
    }

    let mut results = Vec::with_capacity(np);
    let mut report = Report::default();
    let mut traces = Vec::with_capacity(np);
    let mut ops = recording.then(|| Vec::with_capacity(np));
    for slot in slots {
        let (result, done) = slot.expect("every rank joined")?;
        results.push(result);
        report.per_rank.push(done.stats);
        traces.push(done.events);
        ops = ops.zip(done.log).map(|(mut all, log)| {
            all.push(log);
            all
        });
    }
    Ok(RunOutput {
        results,
        report,
        trace: traced.then(|| Trace::merged(traces)),
        ops,
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use bytes::Bytes;

    #[test]
    fn single_rank_compute_only() {
        let cluster = Cluster::new(1, NetworkModel::mpich_gm());
        let out = cluster
            .run(|comm| {
                comm.advance(1000.0);
                comm.now()
            })
            .unwrap();
        assert_eq!(out.results[0], SimTime(1000));
        assert_eq!(out.report.per_rank[0].compute, SimTime(1000));
        assert_eq!(out.report.makespan(), SimTime(1000));
    }

    #[test]
    fn ping_message_arrives_with_latency() {
        let model = NetworkModel::mpich_gm();
        let l = model.latency;
        let wire = model.wire(8);
        let send_cpu = model.send_cpu(8);
        let cluster = Cluster::new(2, model);
        let out = cluster
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.isend(1, 7, Bytes::from(vec![42u8; 8]));
                    comm.wait_all();
                } else {
                    let id = comm.irecv(0, 7);
                    let data = comm.wait_recv(id);
                    assert_eq!(data.len(), 8);
                }
                comm.now()
            })
            .unwrap();
        // Receiver: irecv overhead happens immediately; message ready at
        // send_cpu + wire + latency (receiver NIC idle). Arrival dominates.
        let ready = send_cpu + wire + l;
        let expect = ready.max(NetworkModel::mpich_gm().overhead)
            + NetworkModel::mpich_gm().recv_cpu(8);
        assert_eq!(out.results[1], expect);
        assert!(out.report.per_rank[1].blocked > SimTime::ZERO);
    }

    #[test]
    fn overlap_hides_transfer_on_rdma() {
        // Sender computes 10ms after isend of 1MB; under GM the wire time
        // (~4ms) hides entirely within compute. Receiver also computes 10ms
        // before waiting: arrival should already have happened.
        let model = NetworkModel::mpich_gm();
        let cluster = Cluster::new(2, model.clone());
        let out = cluster
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.isend(1, 0, Bytes::from(vec![0u8; 1_000_000]));
                    comm.advance(10_000_000.0); // 10 ms
                    comm.wait_all();
                } else {
                    let id = comm.irecv(0, 0);
                    comm.advance(10_000_000.0);
                    comm.wait_recv(id);
                }
                comm.now()
            })
            .unwrap();
        let r1 = &out.report.per_rank[1];
        // Blocked time ≈ 0: the transfer was fully overlapped.
        assert!(
            r1.blocked < SimTime::from_us(300),
            "blocked = {}",
            r1.blocked
        );
        // And the total is compute-dominated.
        assert!(r1.finish < SimTime::from_ms(11));
    }

    #[test]
    fn no_overlap_under_tcp_per_byte_costs() {
        // Same pattern under MPICH: β·1MB = 8ms of CPU on each side that
        // cannot be hidden.
        let cluster = Cluster::new(2, NetworkModel::mpich());
        let out = cluster
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.isend(1, 0, Bytes::from(vec![0u8; 1_000_000]));
                    comm.advance(10_000_000.0);
                    comm.wait_all();
                } else {
                    let id = comm.irecv(0, 0);
                    comm.advance(10_000_000.0);
                    comm.wait_recv(id);
                }
                comm.now()
            })
            .unwrap();
        // Receiver pays ~8ms of recv CPU on top of 10ms compute.
        let r1 = &out.report.per_rank[1];
        assert!(r1.comm_cpu > SimTime::from_ms(7), "comm_cpu = {}", r1.comm_cpu);
        assert!(r1.finish > SimTime::from_ms(17), "finish = {}", r1.finish);
    }

    #[test]
    fn alltoall_exchanges_data_and_synchronizes() {
        let cluster = Cluster::new(4, NetworkModel::mpich_gm());
        let out = cluster
            .run(|comm| {
                let me = comm.rank() as u8;
                let payloads: Vec<Bytes> = (0..4)
                    .map(|dst| Bytes::from(vec![me * 10 + dst as u8; 4]))
                    .collect();
                let got = comm.alltoall(payloads);
                got.iter().map(|b| b[0]).collect::<Vec<u8>>()
            })
            .unwrap();
        // Rank 2 receives from src s the value s*10 + 2.
        assert_eq!(out.results[2], vec![2, 12, 22, 32]);
        // All ranks finish at the same time (symmetric collective).
        let t0 = out.report.per_rank[0].finish;
        assert!(out.report.per_rank.iter().all(|r| r.finish == t0));
        assert_eq!(out.report.per_rank[0].alltoalls, 1);
    }

    #[test]
    fn alltoall_completion_matches_model_formula() {
        let model = NetworkModel::mpich();
        let np = 4;
        let s = 1000usize;
        let cluster = Cluster::new(np, model.clone());
        let out = cluster
            .run(|comm| {
                let payloads: Vec<Bytes> =
                    (0..4).map(|_| Bytes::from(vec![0u8; s])).collect();
                comm.alltoall(payloads);
                comm.now()
            })
            .unwrap();
        let per_pair = model.send_cpu(s) + model.recv_cpu(s) + model.wire(s);
        let expect = SimTime(per_pair.as_ns() * (np as u64 - 1)) + model.latency;
        assert_eq!(out.results[0], expect);
    }

    #[test]
    fn barrier_aligns_ranks() {
        let cluster = Cluster::new(3, NetworkModel::mpich_gm());
        let out = cluster
            .run(|comm| {
                comm.advance((comm.rank() as f64 + 1.0) * 1000.0);
                comm.barrier();
                comm.now()
            })
            .unwrap();
        let expect = SimTime(3000) + NetworkModel::mpich_gm().overhead;
        assert!(out.results.iter().all(|&t| t == expect));
        assert_eq!(out.report.per_rank[0].barriers, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let cluster = Cluster::new(4, NetworkModel::mpich());
            cluster
                .run(|comm| {
                    let me = comm.rank();
                    let np = comm.np();
                    for j in 1..np {
                        let to = (me + j) % np;
                        comm.isend(to, j as i64, Bytes::from(vec![me as u8; 256]));
                        let from = (np + me - j) % np;
                        comm.irecv(from, j as i64);
                    }
                    comm.advance(50_000.0);
                    comm.wait_all();
                    comm.now()
                })
                .unwrap()
        };
        let a = run();
        let b = run();
        let fa: Vec<_> = a.report.per_rank.iter().map(|r| r.finish).collect();
        let fb: Vec<_> = b.report.per_rank.iter().map(|r| r.finish).collect();
        assert_eq!(fa, fb);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn rank_panic_is_reported() {
        let cluster = Cluster::new(2, NetworkModel::mpich_gm());
        let err = cluster
            .run(|comm| {
                if comm.rank() == 1 {
                    panic!("boom at rank 1");
                }
                comm.barrier_free_noop();
            })
            .unwrap_err();
        match err {
            SimError::RankPanic { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("boom"));
            }
        }
    }

    impl Comm {
        fn barrier_free_noop(&mut self) {}
    }

    #[test]
    fn trace_records_send_and_recv() {
        let cluster = Cluster::new(2, NetworkModel::mpich_gm()).traced();
        let out = cluster
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.isend(1, 3, Bytes::from(vec![1u8; 16]));
                    comm.wait_all();
                } else {
                    let id = comm.irecv(0, 3);
                    comm.wait_recv(id);
                }
            })
            .unwrap();
        let trace = out.trace.unwrap();
        assert_eq!(
            trace.count(|e| matches!(e.kind, crate::trace::EventKind::SendPosted { .. })),
            1
        );
        assert_eq!(
            trace.count(
                |e| matches!(e.kind, crate::trace::EventKind::RecvMatched { .. })
            ),
            1
        );
    }

    #[test]
    fn unmatched_recv_at_finish_panics_rank() {
        let cluster = Cluster::new(2, NetworkModel::mpich_gm());
        let err = cluster
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.isend(1, 9, Bytes::from(vec![0u8; 4]));
                    comm.wait_all();
                } else {
                    // irecv posted, never waited.
                    comm.irecv(0, 9);
                }
            })
            .unwrap_err();
        match err {
            SimError::RankPanic { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("unmatched receives"));
            }
        }
    }
}
