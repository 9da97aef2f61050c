//! Per-iteration micro-benchmark of the interpreter's two executors: the
//! tree-walker (`optimize: false`) and the typed block executor the
//! optimization pass compiles summarized loops to (`optimize: true`).
//! Each row runs one loop nest on one rank and prints host nanoseconds
//! per innermost iteration for both — the best of three runs — after
//! checking that both reach the same makespan: the executors differ only
//! in host time.
//!
//! The first four rows are the inner loop nests of the `direct2d`, `fft`,
//! `adi` and `indirect` workloads at standard size and np = 32; the rest
//! isolate one kind of work each.
//!
//! ```text
//! cargo run --release --example opt_bench
//! ```

use clustersim::NetworkModel;
use interp::{compile_program, Options};
use std::time::Instant;

/// Host seconds of the fastest of three runs, and the run's makespan.
fn time(program: &fir::Program, optimize: bool) -> (f64, clustersim::SimTime) {
    let opts = Options {
        optimize,
        ..Default::default()
    };
    let compiled = compile_program(program, &opts).unwrap();
    let model = NetworkModel::mpich_gm();
    let mut best = f64::INFINITY;
    let mut makespan = clustersim::SimTime::ZERO;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = compiled.run(1, &model).unwrap();
        best = best.min(t0.elapsed().as_secs_f64());
        makespan = r.report.makespan();
        std::hint::black_box(r);
    }
    (best, makespan)
}

fn bench(label: &str, iterations: u64, src: &str) {
    let program = fir::parse(src).unwrap();
    let (walk, walk_span) = time(&program, false);
    let (block, block_span) = time(&program, true);
    assert_eq!(
        walk_span, block_span,
        "{label}: virtual times must not move"
    );
    let per_iter = |s: f64| s * 1e9 / iterations as f64;
    println!(
        "{label:22} {:9.1} {:9.1} {:7.2}x",
        per_iter(walk),
        per_iter(block),
        walk / block
    );
}

/// A loop of `n` iterations over `body` (the loop variable is `i`).
fn flat_loop(decls: &str, n: u64, body: &str) -> String {
    format!("program main\n  {decls}\n  do i = 1, {n}\n    {body}\n  end do\nend program")
}

fn main() {
    println!(
        "{:22} {:>9} {:>9} {:>8}",
        "ns per iteration", "tree-walk", "block", "speedup"
    );
    bench(
        "direct2d inner",
        4 * 4096 * 32,
        "program main
  real :: as(4096, 32)
  do iy = 1, 4
    do ix = 1, 4096
      do iz = 1, 32
        t = 0.0
        do iw = 1, 3
          t = t + ix * iw + iz + iy
        end do
        as(ix, iz) = t * 0.5 + ix
      end do
    end do
  end do
end program",
    );
    bench(
        "fft inner",
        4 * 4096 * 32,
        "program main
  real :: as(4096, 32), spec(4096)
  do ip = 1, 4
    do ix = 1, 4096
      do iz = 1, 32
        t = spec(ix) + ip
        do iw = 1, 2
          t = t + cos(0.001 * (ix * iw + iz)) * 0.5 + sin(0.002 * iw) * 0.25
        end do
        as(ix, iz) = t
      end do
    end do
  end do
end program",
    );
    bench(
        "adi inner",
        4 * 4096 * 32,
        "program main
  real :: u(4096, 32), c(4096)
  do it = 1, 4
    do ix = 1, 4096
      do iz = 1, 32
        t = c(ix) * 0.5 + u(ix, iz) * 0.25 + iz
        do iw = 1, 2
          t = t + c(ix) * 0.001 * iw
        end do
        u(ix, iz) = t
      end do
    end do
  end do
end program",
    );
    bench(
        "indirect inner",
        128 * 4096,
        "subroutine producer(iy, m, at)
  integer :: iy, m
  real :: at(m)
  do i = 1, m
    t = 0.0
    do iw = 1, 3
      t = t + i * iw + iy
    end do
    at(i) = t * 0.5 + i
  end do
end subroutine

program main
  real :: at(4096)
  do iy = 1, 128
    call producer(iy, 4096, at)
  end do
end program",
    );
    let n = 1 << 20;
    bench(
        "base (one add)",
        n,
        &flat_loop("real :: a(1)", n, "t = t + 1.0"),
    );
    bench(
        "chain",
        n,
        &flat_loop("real :: a(1)", n, "t = t + i * 2 + i - 0.5 + i"),
    );
    bench(
        "array load",
        n,
        &flat_loop(&format!("real :: a({n})"), n, "t = a(i)"),
    );
    bench(
        "array store",
        n,
        &flat_loop(&format!("real :: a({n})"), n, "a(i) = t"),
    );
    bench(
        "intrinsic",
        n,
        &flat_loop("real :: a(1)", n, "t = sin(t + i)"),
    );
}
