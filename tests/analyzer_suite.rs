//! The static analyzer's external contract:
//!
//! 1. the hand-broken negative corpus is rejected with its *pinned*
//!    diagnostic codes (golden — the codes are part of the tool's
//!    interface, scripts grep for them);
//! 2. every program the pipeline emits — registry × rank counts ×
//!    original/pre-push — verifies clean.
//!
//! The type inference the optimizer's typed blocks rest on is pinned by
//! `tests/opt_parity.rs`: typed blocks against the tree-walker.

use overlap_suite::analyze::{verify_comm, CommCheckConfig};
use overlap_suite::sweep::{analyze_registry, ModelSpec};
use proptest::prelude::*;
use workloads::SizeClass;

#[test]
fn negative_corpus_is_rejected_with_pinned_codes() {
    for np in [2usize, 4, 8] {
        for case in workloads::negative::analyzer_cases(np) {
            let program = fir::parse_validated(&case.source).unwrap_or_else(|e| {
                panic!("case `{}` must parse: {}", case.name, e.render(&case.source))
            });
            let report = verify_comm(&program, &CommCheckConfig::new(np as i64));
            assert!(
                !report.is_clean(),
                "case `{}` (np={np}) must be rejected",
                case.name
            );
            let codes: Vec<&str> = report
                .diagnostics
                .iter()
                .map(|d| d.code.as_str())
                .collect();
            assert!(
                codes.iter().all(|c| *c == case.expect_code),
                "case `{}` (np={np}) must pin {}, got {:?}:\n{}",
                case.name,
                case.expect_code,
                codes,
                report.render_human(&case.source)
            );
        }
    }
}

#[test]
fn negative_corpus_diagnostics_name_the_offending_line() {
    // Rendering must point into the *case's own source* — a span of 0..0
    // (or one past the end) would mean the analyzer lost provenance.
    for case in workloads::negative::analyzer_cases(4) {
        let program = fir::parse_validated(&case.source).unwrap();
        let report = verify_comm(&program, &CommCheckConfig::new(4));
        for d in &report.diagnostics {
            assert!(
                d.span.end > d.span.start && d.span.end as usize <= case.source.len(),
                "case `{}`: diagnostic span {:?} does not point into the source",
                case.name,
                d.span
            );
        }
        let rendered = report.render_human(&case.source);
        assert!(
            rendered.contains(case.expect_code),
            "case `{}`: rendering must show the code:\n{rendered}",
            case.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// Every program the pipeline emits is analyzer-clean: all registry
    /// workloads, original and pre-push, under every preset model, across
    /// sampled rank counts.
    #[test]
    fn emitted_programs_are_analyzer_clean(np in prop::sample::select(vec![2usize, 4, 8])) {
        for row in analyze_registry(SizeClass::Small, np, &ModelSpec::presets()) {
            prop_assert!(
                row.is_clean(),
                "{} has diagnostics:\n{}",
                row.label(),
                row.report.render_human(&row.source)
            );
        }
    }
}
