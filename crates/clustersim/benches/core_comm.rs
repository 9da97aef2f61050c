//! Criterion micro-bench for the simulator core: isend/recv ping-pong and
//! alltoall rendezvous at np {8, 32}, as scripted ranks on
//! `Cluster::run_resumable` — the engine the sweep runs. This is the
//! verify gate's perf smoke: per-pair mailboxes, the rank scheduler's
//! park/wake path and the collective slot, with no interpreter on top, so
//! a contention regression shows up as wall-clock here before it shows up
//! as a slow sweep.

use clustersim::script::{Op, Script};
use clustersim::{Cluster, NetworkModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Neighbouring ranks exchange `rounds` paired isend/irecv ping-pongs.
fn bench_pingpong(c: &mut Criterion) {
    let mut g = c.benchmark_group("core/pingpong");
    g.sample_size(10);
    for np in [8usize, 32] {
        g.bench_with_input(BenchmarkId::new("rounds=64", np), &np, |b, &np| {
            b.iter(|| {
                let cluster = Cluster::new(np, NetworkModel::mpich_gm());
                let out = cluster
                    .run_resumable(None, |comm| {
                        let peer = comm.rank() ^ 1;
                        let mut ops = Vec::new();
                        if peer < comm.np() {
                            for round in 0..64 {
                                ops.push(Op::Send {
                                    to: peer,
                                    tag: round,
                                    bytes: 256,
                                });
                                ops.push(Op::Recv {
                                    from: peer,
                                    tag: round,
                                });
                                ops.push(Op::WaitRecvs);
                                ops.push(Op::WaitAll);
                            }
                        }
                        Script::new(ops)
                    })
                    .unwrap();
                black_box(out.report.makespan())
            });
        });
    }
    g.finish();
}

/// Full alltoall rendezvous: every rank contributes and collects per-peer
/// payloads — the collective slot + per-rank NIC bump path.
fn bench_alltoall(c: &mut Criterion) {
    let mut g = c.benchmark_group("core/alltoall");
    g.sample_size(10);
    for np in [8usize, 32] {
        g.bench_with_input(BenchmarkId::new("rounds=16", np), &np, |b, &np| {
            b.iter(|| {
                let cluster = Cluster::new(np, NetworkModel::mpich_gm());
                let out = cluster
                    .run_resumable(None, |_| Script::new(vec![Op::Alltoall { bytes: 256 }; 16]))
                    .unwrap();
                black_box(out.report.makespan())
            });
        });
    }
    g.finish();
}

criterion_group!(core_comm, bench_pingpong, bench_alltoall);
criterion_main!(core_comm);
