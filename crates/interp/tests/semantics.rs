//! Language-semantics tests: every intrinsic, Fortran typing rules, loop
//! semantics, and procedure-call corner cases, each verified through a
//! complete parse → validate → simulate run.

use clustersim::NetworkModel;
use interp::{run_program_opts, run_source, Data, Options, RunError};

fn run1(src: &str) -> interp::RankOutput {
    run_source(src, 1, &NetworkModel::mpich_gm())
        .unwrap_or_else(|e| panic!("{e}\n---\n{src}"))
        .outputs
        .remove(0)
}

fn reals(out: &interp::RankOutput, name: &str) -> Vec<f64> {
    match &out.arrays[name].data {
        Data::Real(v) => v.clone(),
        Data::Int(_) => panic!("expected real array `{name}`"),
    }
}

fn ints(out: &interp::RankOutput, name: &str) -> Vec<i64> {
    match &out.arrays[name].data {
        Data::Int(v) => v.clone(),
        Data::Real(_) => panic!("expected integer array `{name}`"),
    }
}

#[test]
fn trigonometry_and_transcendentals() {
    let out = run1(
        "program m\n  real :: a(5)\n  a(1) = sin(0.0)\n  a(2) = cos(0.0)\n  a(3) = exp(1.0)\n  a(4) = log(exp(2.0))\n  a(5) = sqrt(16.0)\nend program",
    );
    let a = reals(&out, "a");
    assert_eq!(a[0], 0.0);
    assert_eq!(a[1], 1.0);
    assert!((a[2] - std::f64::consts::E).abs() < 1e-12);
    assert!((a[3] - 2.0).abs() < 1e-12);
    assert_eq!(a[4], 4.0);
}

#[test]
fn min_max_mixed_types_promote() {
    let out = run1(
        "program m\n  real :: a(2)\n  integer :: b(2)\n  a(1) = min(3, 2.5)\n  a(2) = max(1, 2, 3.5)\n  b(1) = min(7, 4, 9)\n  b(2) = max(7, 4, 9)\nend program",
    );
    assert_eq!(reals(&out, "a"), vec![2.5, 3.5]);
    assert_eq!(ints(&out, "b"), vec![4, 9]);
}

#[test]
fn abs_floor_int_real_conversions() {
    let out = run1(
        "program m\n  integer :: b(4)\n  real :: a(2)\n  b(1) = abs(-7)\n  b(2) = floor(2.9)\n  b(3) = floor(-2.1)\n  b(4) = int(-2.9)\n  a(1) = abs(-2.5)\n  a(2) = real(3)\nend program",
    );
    assert_eq!(ints(&out, "b"), vec![7, 2, -3, -2]);
    assert_eq!(reals(&out, "a"), vec![2.5, 3.0]);
}

#[test]
fn mod_follows_fortran_sign_rule() {
    // Fortran MOD takes the sign of the dividend.
    let out = run1(
        "program m\n  integer :: b(4)\n  b(1) = mod(7, 3)\n  b(2) = mod(-7, 3)\n  b(3) = mod(7, -3)\n  b(4) = mod(-7, -3)\nend program",
    );
    assert_eq!(ints(&out, "b"), vec![1, -1, 1, -1]);
}

#[test]
fn integer_power_semantics() {
    let out = run1(
        "program m\n  integer :: b(4)\n  real :: a(1)\n  b(1) = 2**10\n  b(2) = (-2)**3\n  b(3) = 2**0\n  b(4) = 2**(-1)\n  a(1) = 2.0**(-1)\nend program",
    );
    assert_eq!(ints(&out, "b"), vec![1024, -8, 1, 0]);
    assert_eq!(reals(&out, "a"), vec![0.5]);
}

#[test]
fn negative_step_loop_runs_downward() {
    let out = run1(
        "program m\n  integer :: b(5)\n  n = 0\n  do i = 5, 1, -1\n    n = n + 1\n    b(n) = i\n  end do\nend program",
    );
    assert_eq!(ints(&out, "b"), vec![5, 4, 3, 2, 1]);
}

#[test]
fn zero_trip_loop_body_never_runs() {
    let out = run1(
        "program m\n  integer :: b(1)\n  b(1) = 9\n  do i = 5, 1\n    b(1) = 0\n  end do\nend program",
    );
    assert_eq!(ints(&out, "b"), vec![9]);
}

#[test]
fn loop_bounds_evaluated_once() {
    // Fortran evaluates bounds at entry; mutating `n` inside must not
    // change the trip count.
    let out = run1(
        "program m\n  integer :: b(1), n\n  n = 3\n  do i = 1, n\n    n = 100\n    b(1) = b(1) + 1\n  end do\nend program",
    );
    assert_eq!(ints(&out, "b"), vec![3]);
}

/// A loop whose last value is `i64::MAX` — or, stepping down, `i64::MIN` —
/// runs exactly its Fortran trip count instead of wrapping its counter
/// past the bound. Pinned on every loop driver: the summarized loop
/// (plain body, optimized), the resumable engine's loop (a body with a
/// branch, or unoptimized) and the thread-per-rank executor's loop.
#[test]
fn loops_ending_at_the_integer_limits_terminate() {
    let model = NetworkModel::mpich_gm();
    for (lo, hi, step, last) in [
        ("9223372036854775806", "9223372036854775807", "1", i64::MAX),
        ("-9223372036854775807", "-9223372036854775807 - 1", "-1", i64::MIN),
    ] {
        for body in ["n = n + 1", "if (n >= 0) then\n      n = n + 1\n    end if"] {
            let src = format!(
                "program m\n  integer :: b(2)\n  n = 0\n  do i = {lo}, {hi}, {step}\n    {body}\n  end do\n  b(1) = n\n  b(2) = i\nend program"
            );
            let program = fir::parse(&src).unwrap();
            for optimize in [true, false] {
                for resumable in [true, false] {
                    let opts = Options {
                        optimize,
                        resumable,
                        ..Default::default()
                    };
                    let out = run_program_opts(&program, 1, &model, &opts)
                        .unwrap_or_else(|e| panic!("{e}\n---\n{src}"));
                    assert_eq!(
                        ints(&out.outputs[0], "b"),
                        vec![2, last],
                        "optimize={optimize} resumable={resumable}\n{src}"
                    );
                }
            }
        }
    }
}

#[test]
fn integer_division_truncates_toward_zero() {
    let out = run1(
        "program m\n  integer :: b(4)\n  b(1) = 7 / 2\n  b(2) = -7 / 2\n  b(3) = 7 / -2\n  b(4) = 1 / 2\nend program",
    );
    assert_eq!(ints(&out, "b"), vec![3, -3, -3, 0]);
}

#[test]
fn implicit_typing_of_scalars() {
    // `count1` starts with c → real; `idx` with i → integer.
    let out = run1(
        "program m\n  real :: a(1)\n  integer :: b(1)\n  count1 = 7 / 2\n  idx = 7 / 2\n  a(1) = count1\n  b(1) = idx\nend program",
    );
    // 7/2 is integer division (both ints) = 3; stored into real `count1`
    // as 3.0.
    assert_eq!(reals(&out, "a"), vec![3.0]);
    assert_eq!(ints(&out, "b"), vec![3]);
}

#[test]
fn declared_integer_scalar_truncates_on_store() {
    let out = run1(
        "program m\n  integer :: n\n  integer :: b(1)\n  n = 3.9\n  b(1) = n\nend program",
    );
    assert_eq!(ints(&out, "b"), vec![3]);
}

#[test]
fn custom_lower_bounds_work_end_to_end() {
    let out = run1(
        "program m\n  real :: a(0:3), c(-2:2)\n  do i = 0, 3\n    a(i) = i\n  end do\n  do i = -2, 2\n    c(i) = i * 10\n  end do\nend program",
    );
    assert_eq!(reals(&out, "a"), vec![0.0, 1.0, 2.0, 3.0]);
    assert_eq!(reals(&out, "c"), vec![-20.0, -10.0, 0.0, 10.0, 20.0]);
}

#[test]
fn nested_procedure_calls_share_array_state() {
    let src = "\
subroutine double(n, v)
  integer :: n
  real :: v(n)
  do i = 1, n
    v(i) = v(i) * 2
  end do
end subroutine

subroutine addone_then_double(n, v)
  integer :: n
  real :: v(n)
  do i = 1, n
    v(i) = v(i) + 1
  end do
  call double(n, v)
end subroutine

program m
  real :: a(3)
  do i = 1, 3
    a(i) = i
  end do
  call addone_then_double(3, a)
end program";
    let out = run1(src);
    assert_eq!(reals(&out, "a"), vec![4.0, 6.0, 8.0]);
}

#[test]
fn scalar_params_are_by_value() {
    // Documented simplification (DESIGN.md): scalar writes in callees do
    // not propagate back.
    let src = "\
subroutine bump(x, v)
  integer :: x
  real :: v(1)
  x = x + 100
  v(1) = x
end subroutine

program m
  integer :: n, b(1)
  real :: a(1)
  n = 5
  call bump(n, a)
  b(1) = n
end program";
    let out = run1(src);
    assert_eq!(ints(&out, "b"), vec![5]); // caller's n unchanged
    assert_eq!(reals(&out, "a"), vec![105.0]); // callee saw its copy
}

#[test]
fn division_by_zero_is_reported() {
    let err = run_source(
        "program m\n  integer :: b(1)\n  n = 0\n  b(1) = 1 / n\nend program",
        1,
        &NetworkModel::mpich_gm(),
    )
    .unwrap_err();
    match err {
        RunError::Sim(clustersim::SimError::RankPanic { message, .. }) => {
            assert!(message.contains("division by zero"), "{message}");
        }
        other => panic!("expected rank panic, got {other:?}"),
    }
}

#[test]
fn mod_by_zero_is_reported() {
    let err = run_source(
        "program m\n  integer :: b(1)\n  n = 0\n  b(1) = mod(5, n)\nend program",
        1,
        &NetworkModel::mpich_gm(),
    )
    .unwrap_err();
    assert!(format!("{err}").contains("mod by zero"));
}

#[test]
fn logical_operators_as_integers() {
    let out = run1(
        "program m\n  integer :: b(6)\n  b(1) = 1 .and. 1\n  b(2) = 1 .and. 0\n  b(3) = 0 .or. 1\n  b(4) = .not. 0\n  b(5) = 3 < 5\n  b(6) = 3 /= 3\nend program",
    );
    assert_eq!(ints(&out, "b"), vec![1, 0, 1, 1, 1, 0]);
}

#[test]
fn barrier_only_program_runs_on_many_ranks() {
    let r = run_source(
        "program m\n  integer :: b(1)\n  call mpi_barrier()\n  b(1) = mynum\n  call mpi_barrier()\nend program",
        6,
        &NetworkModel::mpich(),
    )
    .unwrap();
    for (rank, out) in r.outputs.iter().enumerate() {
        assert_eq!(ints(out, "b"), vec![rank as i64]);
    }
}

#[test]
fn ring_exchange_with_wrap() {
    let src = "\
program m
  real :: s(4), r(4)
  do i = 1, 4
    s(i) = mynum * 10 + i
  end do
  inxt = mod(mynum + 1, np)
  iprv = mod(np + mynum - 1, np)
  call mpi_isend(s(1:4), 4, inxt, 0)
  call mpi_irecv(r(1:4), 4, iprv, 0)
  call mpi_waitall()
end program";
    let r = run_source(src, 3, &NetworkModel::mpich_gm()).unwrap();
    // rank 1 receives from rank 0: 1, 2, 3, 4 (+0*10)
    assert_eq!(reals(&r.outputs[1], "r"), vec![1.0, 2.0, 3.0, 4.0]);
    // rank 0 receives from rank 2.
    assert_eq!(reals(&r.outputs[0], "r"), vec![21.0, 22.0, 23.0, 24.0]);
}
