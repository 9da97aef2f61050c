//! Criterion bench: clustersim throughput — wall-clock cost of simulating
//! communication patterns, as scripted ranks on `Cluster::run_resumable`
//! (the engine the sweep runs). Simulation speed bounds how large an
//! evaluation the harness can afford.

use clustersim::script::{Op, Script};
use clustersim::{Cluster, NetworkModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_alltoall_rounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/alltoall");
    g.sample_size(10);
    for np in [4usize, 8] {
        g.bench_with_input(BenchmarkId::new("rounds=32", np), &np, |b, &np| {
            b.iter(|| {
                let cluster = Cluster::new(np, NetworkModel::mpich_gm());
                let out = cluster
                    .run_resumable(None, |_| Script::new(vec![Op::Alltoall { bytes: 512 }; 32]))
                    .unwrap();
                black_box(out.report.makespan())
            });
        });
    }
    g.finish();
}

fn bench_isend_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/isend-pipeline");
    g.sample_size(10);
    g.bench_function("np=8 msgs=256", |b| {
        b.iter(|| {
            let cluster = Cluster::new(8, NetworkModel::mpich_gm());
            let out = cluster
                .run_resumable(None, |comm| {
                    let (me, np) = (comm.rank(), comm.np());
                    let mut ops = Vec::new();
                    for round in 0..256 {
                        let to = (me + 1 + round % (np - 1)) % np;
                        let from = (np + me - 1 - round % (np - 1)) % np;
                        ops.push(Op::Send {
                            to,
                            tag: round as i64,
                            bytes: 64,
                        });
                        ops.push(Op::Recv {
                            from,
                            tag: round as i64,
                        });
                        ops.push(Op::Compute(500.0));
                        if round % 16 == 15 {
                            ops.push(Op::WaitAll);
                        }
                    }
                    ops.push(Op::WaitAll);
                    Script::new(ops)
                })
                .unwrap();
            black_box(out.report.makespan())
        });
    });
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let mut g = c.benchmark_group("interp");
    g.sample_size(10);
    let src = "\
program main
  real :: a(512)
  do it = 1, 64
    do i = 1, 512
      a(i) = a(i) * 0.5 + i + it
    end do
  end do
end program";
    let program = fir::parse(src).unwrap();
    g.bench_function("sequential-kernel 32k stmts", |b| {
        b.iter(|| {
            black_box(
                interp::run_program(
                    black_box(&program),
                    1,
                    &NetworkModel::mpich_gm(),
                )
                .unwrap()
                .report
                .makespan(),
            )
        });
    });
    g.finish();
}

criterion_group!(benches, bench_alltoall_rounds, bench_isend_pipeline, bench_interpreter);
criterion_main!(benches);
