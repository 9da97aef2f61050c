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

/// One scripted operation. Payloads are `bytes` long and filled with the
/// sender's rank.
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
}

/// A rank that runs its [`Op`]s in order and finishes with its clock.
pub struct Script {
    ops: Vec<Op>,
    pc: usize,
    /// The alltoall at `pc` has been joined and awaits completion.
    joined: bool,
}

impl Script {
    pub fn new(ops: Vec<Op>) -> Script {
        Script {
            ops,
            pc: 0,
            joined: false,
        }
    }
}

impl RankMachine for Script {
    type Out = SimTime;

    fn step(&mut self, comm: &mut Comm) -> Step<SimTime> {
        while let Some(op) = self.ops.get(self.pc) {
            match *op {
                Op::Send { to, tag, bytes } => {
                    comm.isend(to, tag, Bytes::from(vec![comm.rank() as u8; bytes]));
                }
                Op::Recv { from, tag } => {
                    comm.irecv(from, tag);
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
                Op::Alltoall { bytes } => {
                    if !self.joined {
                        let payload = Bytes::from(vec![comm.rank() as u8; bytes]);
                        comm.alltoall_begin(vec![payload; comm.np()]);
                        self.joined = true;
                    }
                    if comm.poll_alltoall().is_none() {
                        return Step::Blocked;
                    }
                    self.joined = false;
                }
                Op::Compute(ns) => comm.advance(ns),
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
    /// same operations reach as a closure on the thread-per-rank engine.
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
                ops.push(if round % 2 == 0 {
                    Op::WaitRecvs
                } else {
                    Op::WaitAll
                });
                ops.push(Op::Alltoall { bytes: 64 });
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
                        Op::Compute(ns) => comm.advance(ns),
                    }
                }
                comm.now()
            })
            .unwrap();
        assert_eq!(scripted.results, blocking.results);
        assert_eq!(scripted.report.per_rank, blocking.report.per_rank);
    }
}
