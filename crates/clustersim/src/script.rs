//! Scripted ranks: a fixed list of communication operations run as a
//! [`RankMachine`] on [`Cluster::run_resumable`](crate::Cluster::run_resumable),
//! the engine production runs. Benches and tests that want the simulator
//! without an interpreter on top write each rank's script instead of a
//! closure for the thread-per-rank engine.
//!
//! ```
//! use clustersim::script::{Op, Script};
//! use clustersim::{Cluster, NetworkModel};
//!
//! let cluster = Cluster::new(2, NetworkModel::mpich_gm());
//! let out = cluster
//!     .run_resumable(None, |comm| {
//!         let peer = 1 - comm.rank();
//!         Script::new(vec![
//!             Op::Send { to: peer, tag: 0, bytes: 64 },
//!             Op::Recv { from: peer, tag: 0 },
//!             Op::WaitAll,
//!         ])
//!     })
//!     .unwrap();
//! assert!(out.report.makespan() > clustersim::SimTime::ZERO);
//! ```

use crate::cluster::{RankMachine, Step};
use crate::comm::Comm;
use crate::time::SimTime;
use bytes::Bytes;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One scripted operation. Payloads are `bytes` long and zero-filled:
/// the simulator times a message by its length, never its contents.
///
/// A [recording](crate::Cluster::recording) logs a rank's `Comm` calls as
/// these, so replaying the log re-issues exactly the same calls.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `isend` to `to`.
    Send { to: usize, tag: i64, bytes: usize },
    /// Post an `irecv` from `from`.
    Recv { from: usize, tag: i64 },
    /// Block until every posted receive has matched.
    WaitRecvs,
    /// [`Op::WaitRecvs`], then drain outstanding sends (`wait_all`).
    WaitAll,
    /// An alltoall with `bytes` per partner.
    Alltoall { bytes: usize },
    /// Charge `ns` of computation.
    Compute(f64),
    /// A barrier.
    Barrier,
    /// Charge an already-rounded computation span
    /// ([`Comm::advance_exact`]).
    ComputeExact(SimTime),
    /// Drain outstanding sends alone ([`Comm::drain_sends`]).
    Drain,
    /// An alltoall with `bytes[d]` for destination `d` (the self slot
    /// included: it counts toward the exchange's per-partner size).
    AlltoallV { bytes: Vec<usize> },
}

/// One shared zero-filled payload per distinct size, so replaying a
/// script allocates each size once, not once per message.
#[derive(Debug, Clone)]
pub struct Payloads(Arc<BTreeMap<usize, Bytes>>);

impl Payloads {
    /// The payloads every operation in `scripts` sends.
    pub fn for_scripts<'a>(scripts: impl IntoIterator<Item = &'a [Op]>) -> Payloads {
        let mut sizes = BTreeMap::new();
        for ops in scripts {
            for op in ops {
                let mut add = |n: usize| {
                    sizes.entry(n).or_insert_with(|| Bytes::from(vec![0u8; n]));
                };
                match op {
                    Op::Send { bytes, .. } | Op::Alltoall { bytes } => add(*bytes),
                    Op::AlltoallV { bytes } => bytes.iter().copied().for_each(add),
                    _ => {}
                }
            }
        }
        Payloads(Arc::new(sizes))
    }

    fn get(&self, n: usize) -> Bytes {
        self.0
            .get(&n)
            .cloned()
            .expect("payloads were built from this script")
    }
}

/// A rank that runs its [`Op`]s in order and finishes with its clock.
pub struct Script<'a> {
    ops: Cow<'a, [Op]>,
    payloads: Payloads,
    pc: usize,
    /// The collective at `pc` has been joined and awaits completion.
    joined: bool,
}

impl Script<'static> {
    pub fn new(ops: Vec<Op>) -> Script<'static> {
        let payloads = Payloads::for_scripts([ops.as_slice()]);
        Script::build(Cow::Owned(ops), payloads)
    }
}

impl<'a> Script<'a> {
    /// A script over borrowed operations whose payloads come from a pool
    /// shared with the other ranks (see [`Payloads::for_scripts`]).
    pub fn with_payloads(ops: &'a [Op], payloads: &Payloads) -> Script<'a> {
        Script::build(Cow::Borrowed(ops), payloads.clone())
    }

    fn build(ops: Cow<'a, [Op]>, payloads: Payloads) -> Script<'a> {
        Script {
            ops,
            payloads,
            pc: 0,
            joined: false,
        }
    }
}

impl RankMachine for Script<'_> {
    type Out = SimTime;

    fn step(&mut self, comm: &mut Comm) -> Step<SimTime> {
        while let Some(op) = self.ops.get(self.pc) {
            match op {
                Op::Send { to, tag, bytes } => {
                    comm.isend(*to, *tag, self.payloads.get(*bytes));
                }
                Op::Recv { from, tag } => {
                    comm.irecv(*from, *tag);
                }
                Op::WaitRecvs => {
                    if comm.poll_wait_all_recvs().is_none() {
                        return Step::Blocked;
                    }
                }
                Op::WaitAll => {
                    if comm.poll_wait_all_recvs().is_none() {
                        return Step::Blocked;
                    }
                    comm.drain_sends();
                }
                Op::Alltoall { .. } | Op::AlltoallV { .. } => {
                    if !self.joined {
                        let payloads = match op {
                            Op::Alltoall { bytes } => vec![self.payloads.get(*bytes); comm.np()],
                            Op::AlltoallV { bytes } => {
                                bytes.iter().map(|&n| self.payloads.get(n)).collect()
                            }
                            _ => unreachable!("matched an alltoall above"),
                        };
                        comm.alltoall_begin(payloads);
                        self.joined = true;
                    }
                    if comm.poll_alltoall().is_none() {
                        return Step::Blocked;
                    }
                    self.joined = false;
                }
                Op::Barrier => {
                    if !self.joined {
                        comm.barrier_begin();
                        self.joined = true;
                    }
                    if comm.poll_barrier().is_none() {
                        return Step::Blocked;
                    }
                    self.joined = false;
                }
                Op::Compute(ns) => comm.advance(*ns),
                Op::ComputeExact(dt) => comm.advance_exact(*dt),
                Op::Drain => comm.drain_sends(),
            }
            self.pc += 1;
        }
        Step::Done(comm.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, NetworkModel};

    /// A script on the resumable engine lands every rank on the clock the
    /// same operations reach as a closure on the thread-per-rank engine —
    /// every operation kind, uneven alltoall sizes included.
    #[test]
    fn scripts_match_the_blocking_engine() {
        let np = 4;
        let script = |me: usize| -> Vec<Op> {
            let mut ops = Vec::new();
            for round in 0..8i64 {
                let to = (me + 1) % np;
                let from = (me + np - 1) % np;
                ops.push(Op::Send {
                    to,
                    tag: round,
                    bytes: 128,
                });
                ops.push(Op::Recv { from, tag: round });
                ops.push(Op::Compute(250.0));
                ops.push(Op::ComputeExact(SimTime(40 * me as u64)));
                ops.push(match round % 3 {
                    0 => Op::WaitRecvs,
                    1 => Op::WaitAll,
                    _ => Op::Drain,
                });
                if round % 3 == 2 {
                    ops.push(Op::WaitRecvs);
                }
                ops.push(if round % 2 == 0 {
                    Op::Alltoall { bytes: 64 }
                } else {
                    // Uneven per-destination sizes, the self slot largest
                    // on rank 0.
                    Op::AlltoallV {
                        bytes: (0..np).map(|d| 16 * (1 + (me * 3 + d) % 5)).collect(),
                    }
                });
                if round % 4 == 3 {
                    ops.push(Op::Barrier);
                }
            }
            ops.push(Op::WaitAll);
            ops
        };
        let cluster = Cluster::new(np, NetworkModel::mpich());
        let scripted = cluster
            .run_resumable(Some(2), |comm| Script::new(script(comm.rank())))
            .unwrap();
        let blocking = cluster
            .run(|comm| {
                for op in script(comm.rank()) {
                    match op {
                        Op::Send { to, tag, bytes } => {
                            comm.isend(to, tag, Bytes::from(vec![comm.rank() as u8; bytes]));
                        }
                        Op::Recv { from, tag } => {
                            comm.irecv(from, tag);
                        }
                        Op::WaitRecvs => {
                            comm.wait_all_recvs();
                        }
                        Op::WaitAll => {
                            comm.wait_all();
                        }
                        Op::Alltoall { bytes } => {
                            let payload = Bytes::from(vec![comm.rank() as u8; bytes]);
                            comm.alltoall(vec![payload; comm.np()]);
                        }
                        Op::AlltoallV { bytes } => {
                            let payloads = bytes.iter().map(|&n| Bytes::from(vec![1u8; n]));
                            comm.alltoall(payloads.collect());
                        }
                        Op::Compute(ns) => comm.advance(ns),
                        Op::ComputeExact(dt) => comm.advance_exact(dt),
                        Op::Barrier => comm.barrier(),
                        Op::Drain => comm.drain_sends(),
                    }
                }
                comm.now()
            })
            .unwrap();
        assert_eq!(scripted.results, blocking.results);
        assert_eq!(scripted.report.per_rank, blocking.report.per_rank);
        assert!(scripted.report.per_rank.iter().all(|r| r.barriers == 2));
    }

    /// Recording a run and replaying the log as scripts reproduces every
    /// rank's statistics, on the recording model and on others.
    #[test]
    fn recorded_calls_replay_identically() {
        let np = 3;
        let body = |comm: &mut Comm| {
            let me = comm.rank();
            for round in 0..4i64 {
                comm.advance(100.0 + me as f64);
                comm.advance(0.4);
                comm.isend((me + 1) % np, round, Bytes::from(vec![0u8; 256 << round]));
                comm.irecv((me + np - 1) % np, round);
                comm.advance_exact(SimTime(75));
                if round % 2 == 0 {
                    comm.wait_all();
                } else {
                    comm.wait_all_recvs();
                    comm.barrier();
                    comm.drain_sends();
                }
                comm.alltoall((0..np).map(|d| Bytes::from(vec![0u8; 8 * (d + 1)])).collect());
            }
        };
        let recorded = Cluster::new(np, NetworkModel::mpich())
            .recording()
            .run(body)
            .unwrap();
        let ops = recorded.ops.expect("recording was on");
        // Adjacent compute charges merged into one exact span.
        assert!(matches!(ops[0][0], Op::ComputeExact(SimTime(100))));
        let payloads = Payloads::for_scripts(ops.iter().map(Vec::as_slice));
        for model in [NetworkModel::mpich(), NetworkModel::mpich_gm()] {
            let full = Cluster::new(np, model.clone()).run(body).unwrap();
            let replay = Cluster::new(np, model)
                .run_resumable(Some(2), |comm| {
                    Script::with_payloads(&ops[comm.rank()], &payloads)
                })
                .unwrap();
            assert_eq!(replay.report.per_rank, full.report.per_rank);
        }
    }
}
