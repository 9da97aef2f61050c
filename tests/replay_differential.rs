//! Differential pinning of replay: a run recorded on one network model
//! and replayed on another must be unobservable next to a full run on
//! that model. Enumerated over every registry workload, original and
//! pre-push, at np {2, 4, 8}, under every model family — every
//! `RankStats` field and every output array must match.

use clustersim::NetworkModel;
use interp::{compile_program, CompiledProgram, Options, RankOutput, Recording};
use overlap_suite::sweep::{transform_workload, ModelSpec, SizeClass};

/// One model of every family, parameterized forms included.
const FAMILIES: [&str; 8] = [
    "mpich",
    "mpich-gm",
    "rdma-ideal",
    "mpich-beta:2",
    "congested:2:1.5",
    "congested:2:3",
    "hetero:half-slow",
    "hetero:straggler",
];

fn models() -> Vec<NetworkModel> {
    FAMILIES
        .iter()
        .map(|f| ModelSpec::parse(f).unwrap().to_model())
        .collect()
}

fn compile(program: &fir::Program, opts: &Options) -> CompiledProgram {
    compile_program(program, opts).unwrap_or_else(|e| panic!("compile failed: {e}"))
}

/// A recorded run: the recording and the outputs of the run that made it.
fn record(
    compiled: &CompiledProgram,
    np: usize,
    model: &NetworkModel,
) -> (Recording, Vec<RankOutput>) {
    let (run, recording) = compiled
        .run_recorded(np, model)
        .unwrap_or_else(|e| panic!("recorded run failed: {e}"));
    let recording = recording.expect("default options record");
    assert_eq!(recording.np(), np);
    (recording, run.outputs)
}

/// Replay a recording on every model and compare against a full run.
fn assert_replays_match(
    compiled: &CompiledProgram,
    (recording, outputs): (Recording, Vec<RankOutput>),
    what: &str,
) {
    let np = recording.np();
    for model in models() {
        let full = compiled
            .run(np, &model)
            .unwrap_or_else(|e| panic!("{what} on {}: full run failed: {e}", model.name));
        let replayed = recording
            .replay(&model)
            .unwrap_or_else(|e| panic!("{what} on {}: replay failed: {e}", model.name));
        assert_eq!(
            replayed.per_rank, full.report.per_rank,
            "{what} on {}: per-rank stats differ",
            model.name
        );
        assert_eq!(
            outputs, full.outputs,
            "{what} on {}: outputs differ",
            model.name
        );
    }
}

#[test]
fn replay_equals_a_full_run_on_every_model() {
    let opts = Options::default();
    let models = models();
    for entry in workloads::registry() {
        for np in [2usize, 4, 8] {
            let w = (entry.make)(SizeClass::Small, np);
            // The original: recorded once, on the first family.
            let original = compile(&w.program(), &opts);
            let what = format!("{} np={np} original", entry.name);
            assert_replays_match(&original, record(&original, np, &models[0]), &what);
            // Pre-push: each family's own transform (K-selection reads the
            // model), recorded on a different family than it replays on.
            for (i, model) in models.iter().enumerate() {
                let program = transform_workload(w.as_ref(), model, None).program;
                let compiled = compile(&program, &opts);
                let recorded_on = &models[(i + 1) % models.len()];
                let what = format!(
                    "{} np={np} prepush for {} recorded on {}",
                    entry.name, model.name, recorded_on.name
                );
                assert_replays_match(&compiled, record(&compiled, np, recorded_on), &what);
            }
        }
    }
}

/// The buffer-reuse detector reads the clock and a trace keeps every
/// compute event: neither run may hand out a recording.
#[test]
fn time_dependent_runs_are_never_recorded() {
    let w = (workloads::find("direct2d").unwrap().make)(SizeClass::Small, 2);
    let program = w.program();
    let model = NetworkModel::mpich_gm();
    let traced = Options {
        trace: true,
        ..Default::default()
    };
    for opts in [Options::strict(), traced] {
        let compiled = compile(&program, &opts);
        let (full, recording) = compiled.run_recorded(2, &model).unwrap();
        assert!(recording.is_none(), "{opts:?} must not record");
        let plain = compiled.run(2, &model).unwrap();
        assert_eq!(full.outputs, plain.outputs);
        assert_eq!(full.report.per_rank, plain.report.per_rank);
        assert_eq!(full.trace.is_some(), opts.trace);
    }
    // The default options do record.
    let compiled = compile(&program, &Options::default());
    assert!(compiled.run_recorded(2, &model).unwrap().1.is_some());
}
