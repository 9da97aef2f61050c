//! Differential pinning of the `interp::opt` pass: the optimized
//! interpreter — constant folding, loop unrolling, loop-invariant
//! hoisting, block-summarized cost accounting, typed register blocks —
//! must be *unobservable* next to the plain slot-indexed walk. For every
//! registry workload (original AND transformed program), and for a
//! proptest-sampled space of rank counts, network models, cost scales,
//! and option flags, virtual times, full per-rank stats, array payloads,
//! and prints must be byte-identical; and a table of failing programs
//! must fail with the same runtime error, on the same rank.

use clustersim::NetworkModel;
use interp::{run_program_opts, CostModel, Options, RunResult};
use overlap_suite::sweep::{transform_workload, ModelSpec, SizeClass};
use proptest::prelude::*;

fn run(program: &fir::Program, np: usize, model: &NetworkModel, opts: &Options) -> RunResult {
    run_program_opts(program, np, model, opts).unwrap_or_else(|e| panic!("run failed: {e}"))
}

/// Everything the simulation produced, compared field-for-field.
fn assert_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.outputs, b.outputs, "{what}: outputs differ");
    assert_eq!(
        a.report.per_rank, b.report.per_rank,
        "{what}: per-rank stats differ"
    );
}

/// Exhaustive: every registry workload, original and transformed, under
/// every preset model at two rank counts — optimized and unoptimized
/// runs are indistinguishable.
#[test]
fn every_registry_workload_is_opt_invariant() {
    let base = Options {
        optimize: false,
        ..Default::default()
    };
    let tuned = Options::default();
    assert!(tuned.optimize, "the opt pass is on by default");
    for entry in workloads::registry() {
        for np in [2usize, 4] {
            let w = (entry.make)(SizeClass::Small, np);
            let original = w.program();
            for model_spec in ModelSpec::presets() {
                let model = model_spec.to_model();
                let transformed = transform_workload(w.as_ref(), &model, None).program;
                for (kind, program) in [("original", &original), ("prepush", &transformed)] {
                    let what =
                        format!("{} np={np} {} {kind}", entry.name, model.name);
                    let plain = run(program, np, &model, &base);
                    let fast = run(program, np, &model, &tuned);
                    assert_identical(&plain, &fast, &what);
                }
            }
        }
    }
}

/// The gated modes keep parity too: buffer-reuse detection (array stores
/// excluded from blocks) and tracing (no blocks at all) still run the
/// folder/hoister, and traces must come out event-for-event identical.
#[test]
fn strict_and_traced_modes_stay_identical() {
    let model = NetworkModel::mpich_gm();
    for entry in workloads::registry() {
        let w = (entry.make)(SizeClass::Small, 2);
        let program = w.program();
        for (reuse, trace) in [(true, false), (false, true), (true, true)] {
            let mk = |optimize| Options {
                optimize,
                detect_buffer_reuse: reuse,
                trace,
                ..Default::default()
            };
            let what = format!("{} reuse={reuse} trace={trace}", entry.name);
            let plain = run(&program, 2, &model, &mk(false));
            let fast = run(&program, 2, &model, &mk(true));
            assert_identical(&plain, &fast, &what);
            if trace {
                let (pt, ft) = (plain.trace.unwrap(), fast.trace.unwrap());
                assert_eq!(pt.events, ft.events, "{what}: traces differ");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sampled: workload × np × model × a *non-integral* cost scale (the
    /// per-statement rounding is where naive charge summation would
    /// drift) × option flags.
    #[test]
    fn optimized_interpreter_is_unobservable(
        widx in 0usize..8,
        np in 2usize..5,
        model_idx in 0usize..3,
        scale_num in 1u32..40,
        transformed in any::<bool>(),
        reuse in any::<bool>(),
    ) {
        let registry = workloads::registry();
        let entry = &registry[widx % registry.len()];
        let w = (entry.make)(SizeClass::Small, np);
        let model = ModelSpec::presets()[model_idx].to_model();
        let program = if transformed {
            transform_workload(w.as_ref(), &model, None).program
        } else {
            w.program()
        };
        // E.g. scale 7 → ns_per_op 0.7: charges round per statement.
        let cost = CostModel::default().scaled(scale_num as f64 / 10.0);
        let mk = |optimize| Options {
            optimize,
            detect_buffer_reuse: reuse,
            cost: cost.clone(),
            ..Default::default()
        };
        let plain = run(&program, np, &model, &mk(false));
        let fast = run(&program, np, &model, &mk(true));
        let what = format!(
            "{} np={np} {} scale={} transformed={transformed} reuse={reuse}",
            entry.name, model.name, scale_num
        );
        assert_identical(&plain, &fast, &what);
    }
}

// ------------------------------------------------ runtime-error parity

/// One row of the error-parity table: a program run on 2 ranks, where
/// only rank 1 goes wrong, and the message it must fail with — or `None`
/// for a program that must succeed.
struct ErrorCase {
    name: &'static str,
    src: &'static str,
    error: Option<&'static str>,
}

/// Loops run `n` (a variable, so they stay summarized loops rather than
/// unrolling) iterations; rank 1's subscripts or divisors go wrong at the
/// iteration the name says.
const ERROR_CASES: &[ErrorCase] = &[
    ErrorCase {
        name: "out-of-bounds load, first iteration",
        src: "program m\n  real :: a(32), b(32)\n  n = 32\n  do i = 1, n\n    b(i) = a(i - mynum) * 2.0\n  end do\nend program",
        error: Some("subscript 0 of `a` out of bounds in dimension 1: valid 1..=32"),
    },
    ErrorCase {
        name: "out-of-bounds load, middle iteration",
        src: "program m\n  real :: a(32), b(32)\n  n = 32\n  do i = 1, n\n    b(i) = a(i + 16 * mynum) * 2.0\n  end do\nend program",
        error: Some("subscript 33 of `a` out of bounds in dimension 1: valid 1..=32"),
    },
    ErrorCase {
        name: "out-of-bounds load, last iteration",
        src: "program m\n  real :: a(32), b(32)\n  n = 32\n  do i = 1, n\n    b(i) = a(i + mynum) * 2.0\n  end do\nend program",
        error: Some("subscript 33 of `a` out of bounds in dimension 1: valid 1..=32"),
    },
    ErrorCase {
        name: "out-of-bounds load, second dimension",
        src: "program m\n  real :: g(4, 8), b(8)\n  n = 8\n  do j = 1, n\n    b(j) = g(2, j + 4 * mynum)\n  end do\nend program",
        error: Some("subscript 9 of `g` out of bounds in dimension 2: valid 1..=8"),
    },
    ErrorCase {
        name: "out-of-bounds store, first iteration",
        src: "program m\n  real :: a(32), b(32)\n  n = 32\n  do i = 1, n\n    b(i - mynum) = a(i) + i\n  end do\nend program",
        error: Some("subscript 0 of `b` out of bounds in dimension 1: valid 1..=32"),
    },
    ErrorCase {
        name: "out-of-bounds store, middle iteration",
        src: "program m\n  real :: a(32), b(32)\n  n = 32\n  do i = 1, n\n    b(i + 16 * mynum) = a(i) + i\n  end do\nend program",
        error: Some("subscript 33 of `b` out of bounds in dimension 1: valid 1..=32"),
    },
    ErrorCase {
        name: "out-of-bounds store, last iteration",
        src: "program m\n  real :: a(32), b(32)\n  n = 32\n  do i = 1, n\n    b(i + mynum) = a(i) + i\n  end do\nend program",
        error: Some("subscript 33 of `b` out of bounds in dimension 1: valid 1..=32"),
    },
    ErrorCase {
        name: "integer division by zero in a block",
        src: "program m\n  integer :: k(32)\n  n = 32\n  kz = 1 - mynum\n  do i = 1, n\n    k(i) = i / kz\n  end do\nend program",
        error: Some("integer division by zero"),
    },
    ErrorCase {
        name: "integer division by zero, middle iteration",
        src: "program m\n  integer :: k(32)\n  n = 32\n  do i = 1, n\n    k(i) = 100 / (i - 100 + 84 * mynum)\n  end do\nend program",
        error: Some("integer division by zero"),
    },
    ErrorCase {
        name: "mod by zero in a block",
        src: "program m\n  integer :: k(32)\n  n = 32\n  kz = 1 - mynum\n  do i = 1, n\n    k(i) = mod(i, kz) + 1\n  end do\nend program",
        error: Some("mod by zero"),
    },
    ErrorCase {
        // The store's subscript is out of range too, but the tree-walker
        // evaluates the value before it checks the subscript.
        name: "division by zero before an out-of-bounds store",
        src: "program m\n  integer :: k(32)\n  n = 32\n  kz = 1 - mynum\n  do i = 1, n\n    k(i + 100 * mynum) = i / kz\n  end do\nend program",
        error: Some("integer division by zero"),
    },
    ErrorCase {
        // The load is evaluated before the division it feeds.
        name: "out-of-bounds load before a division by zero",
        src: "program m\n  integer :: k(32)\n  n = 32\n  kz = 1 - mynum\n  do i = 1, n\n    k(i) = k(i + 100 * mynum) / kz\n  end do\nend program",
        error: Some("subscript 101 of `k` out of bounds in dimension 1: valid 1..=32"),
    },
    ErrorCase {
        // The window has room past `at`'s declared extent; the declared
        // shape is what bounds the store.
        name: "store through a window parameter past its declared extent",
        src: "subroutine fill(m, at)\n  integer :: m\n  real :: at(m)\n  do i = 1, m + mynum\n    at(i) = i * 0.5\n  end do\nend subroutine\n\nprogram main\n  real :: grid(4, 3)\n  call fill(4, grid(:, 2))\nend program",
        error: Some("subscript 5 of `at` out of bounds in dimension 1: valid 1..=4"),
    },
    ErrorCase {
        // Overlapping windows of one array: each iteration's store
        // through one is read back through the other.
        name: "two parameter windows over one array",
        src: "subroutine mix(n, x, y)\n  integer :: n\n  real :: x(n), y(n)\n  do i = 1, n\n    x(i) = y(i) + 1.0\n    y(i) = x(i) * 2.0 + mynum\n  end do\nend subroutine\n\nprogram main\n  real :: g(12)\n  do i = 1, 12\n    g(i) = i\n  end do\n  call mix(6, g(1:6), g(4:9))\nend program",
        error: None,
    },
    ErrorCase {
        // Validation lets an inner loop reuse the outer loop's variable;
        // after the loops it holds the inner loop's last value.
        name: "inner loop reusing the outer loop's variable",
        src: "program m\n  integer :: a(2)\n  n = 8 + mynum\n  do i = 1, n\n    do i = 1, 3\n      a(2) = a(2) + i\n    end do\n  end do\n  a(1) = i\nend program",
        error: None,
    },
    ErrorCase {
        // Sequence association is untyped: integer storage seen through
        // a real parameter keeps integer arithmetic (`x(i) / 2`).
        name: "integer storage through a real parameter",
        src: "subroutine halve(n, x)\n  integer :: n\n  real :: x(n)\n  do i = 1, n\n    x(i) = x(i) / 2 + mynum\n  end do\nend subroutine\n\nprogram main\n  integer :: k(8)\n  do i = 1, 8\n    k(i) = i * 3\n  end do\n  call halve(8, k)\nend program",
        error: None,
    },
];

/// Every row, optimized and on the tree-walker: a failing program fails
/// with the same `RunError` text on the same rank, and the text is the
/// row's; a passing program produces identical outputs and stats.
#[test]
fn runtime_errors_match_the_tree_walker() {
    let model = NetworkModel::mpich_gm();
    for case in ERROR_CASES {
        let program = fir::parse_validated(case.src)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let mk = |optimize| Options {
            optimize,
            ..Default::default()
        };
        let plain = run_program_opts(&program, 2, &model, &mk(false));
        let fast = run_program_opts(&program, 2, &model, &mk(true));
        match (case.error, plain, fast) {
            (None, Ok(plain), Ok(fast)) => assert_identical(&plain, &fast, case.name),
            (Some(expected), Err(plain), Err(fast)) => {
                assert_eq!(plain.to_string(), fast.to_string(), "{}", case.name);
                let rank = |e: &interp::RunError| match e {
                    interp::RunError::Sim(clustersim::SimError::RankPanic { rank, .. }) => *rank,
                    other => panic!("{}: expected a rank panic, got {other}", case.name),
                };
                assert_eq!((rank(&plain), rank(&fast)), (1, 1), "{}", case.name);
                assert!(
                    fast.to_string().contains(expected),
                    "{}: expected `{expected}` in `{fast}`",
                    case.name
                );
            }
            (expected, plain, fast) => panic!(
                "{}: expected {expected:?}, tree-walker gave {:?}, optimized gave {:?}",
                case.name,
                plain.map(|_| "success"),
                fast.map(|_| "success")
            ),
        }
    }
}
