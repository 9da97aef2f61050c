//! A `clustersim`-only probe on the production (resumable) engine: a
//! scripted [`RankMachine`] runs rounds of an all-peers isend/irecv
//! exchange followed by an alltoall, with no interpreter above it, so
//! its host time per message is `clustersim` self time alone.

use clustersim::{Bytes, Cluster, Comm, NetworkModel, RankMachine, Step};
use std::time::Instant;

const PAYLOAD_BYTES: usize = 1024;
/// Rounds per np: roughly equal message totals at np 8 and 32.
const PLAN: [(usize, usize); 2] = [(8, 400), (32, 25)];
/// Timed repetitions of each np; the median is reported.
const REPS: usize = 5;

enum Phase {
    Post,
    WaitPeers,
    WaitAlltoall,
}

struct ScriptedRank {
    round: usize,
    rounds: usize,
    phase: Phase,
    payload: Bytes,
}

impl RankMachine for ScriptedRank {
    type Out = ();

    fn step(&mut self, comm: &mut Comm) -> Step<()> {
        loop {
            match self.phase {
                Phase::Post => {
                    if self.round == self.rounds {
                        return Step::Done(());
                    }
                    let (me, np, tag) = (comm.rank(), comm.np(), self.round as i64);
                    for peer in (0..np).filter(|&p| p != me) {
                        comm.irecv(peer, tag);
                    }
                    for peer in (0..np).filter(|&p| p != me) {
                        comm.isend(peer, tag, self.payload.clone());
                    }
                    self.phase = Phase::WaitPeers;
                }
                Phase::WaitPeers => {
                    if comm.poll_wait_all_recvs().is_none() {
                        return Step::Blocked;
                    }
                    comm.drain_sends();
                    comm.alltoall_begin(vec![self.payload.clone(); comm.np()]);
                    self.phase = Phase::WaitAlltoall;
                }
                Phase::WaitAlltoall => {
                    if comm.poll_alltoall().is_none() {
                        return Step::Blocked;
                    }
                    self.round += 1;
                    self.phase = Phase::Post;
                }
            }
        }
    }
}

/// Host microseconds per message delivered (point-to-point sends plus
/// alltoall pair transfers): the median over repetitions at each rank
/// count, averaged over the two counts.
pub fn host_us_per_msg() -> Result<f64, String> {
    let mut medians = Vec::new();
    for (np, rounds) in PLAN {
        let mut per_msg = Vec::new();
        for _ in 0..REPS {
            let cluster = Cluster::new(np, NetworkModel::mpich_gm());
            let t = Instant::now();
            let out = cluster
                .run_resumable(None, |_| ScriptedRank {
                    round: 0,
                    rounds,
                    phase: Phase::Post,
                    payload: Bytes::from(vec![0u8; PAYLOAD_BYTES]),
                })
                .map_err(|e| format!("probe at np {np} failed: {e}"))?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            // Per round every rank sends to every peer twice: once
            // point-to-point, once inside the alltoall.
            let sent = out.report.total_msgs_sent();
            let want = (2 * rounds * np * (np - 1)) as u64;
            if sent != want {
                return Err(format!(
                    "probe at np {np} sent {sent} messages, want {want}"
                ));
            }
            per_msg.push(us / sent as f64);
        }
        medians.push(crate::util::median(&per_msg));
    }
    Ok(medians.iter().sum::<f64>() / medians.len() as f64)
}
