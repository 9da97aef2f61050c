//! The traced pass: the pipeline of one sweep row, re-done call by call
//! from this file so each layer's public entry point gets its own span.
//! It bypasses the compile cache on purpose (every shape is built,
//! parsed, transformed and compiled here), so its totals are busy time
//! per layer, not a breakdown of `sweep_s`.

use crate::grids::SimCounts;
use clustersim::Report;
use compuniformer::{find_opportunities, transform, Options as TransformOptions, UserOracle};
use driver::measure::model_caps;
use driver::{RunStatus, ScenarioSpec, SweepRecord};
use interp::{compile_program, Options};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Busy milliseconds and counts per layer, summed over the pass.
#[derive(Default)]
pub struct LayerTotals {
    pub build_ms: f64,
    pub parse_ms: f64,
    pub scan_ms: f64,
    pub transform_ms: f64,
    pub opportunities: u64,
    pub applied: u64,
    pub verify_ms: f64,
    pub diagnostics: u64,
    pub compile_ms: f64,
    pub run_orig_ms: f64,
    pub run_prepush_ms: f64,
    pub equiv_ms: f64,
    pub hash_ms: f64,
    pub counts: SimCounts,
    /// Equivalence mismatches and failed calls.
    pub failures: Vec<String>,
    /// One record per scenario, for the reference check.
    pub records: Vec<SweepRecord>,
}

impl LayerTotals {
    fn absorb(&mut self, o: LayerTotals) {
        self.build_ms += o.build_ms;
        self.parse_ms += o.parse_ms;
        self.scan_ms += o.scan_ms;
        self.transform_ms += o.transform_ms;
        self.opportunities += o.opportunities;
        self.applied += o.applied;
        self.verify_ms += o.verify_ms;
        self.diagnostics += o.diagnostics;
        self.compile_ms += o.compile_ms;
        self.run_orig_ms += o.run_orig_ms;
        self.run_prepush_ms += o.run_prepush_ms;
        self.equiv_ms += o.equiv_ms;
        self.hash_ms += o.hash_ms;
        self.counts.msgs += o.counts.msgs;
        self.counts.bytes += o.counts.bytes;
        self.counts.collectives += o.counts.collectives;
        self.counts.virtual_ns += o.counts.virtual_ns;
        self.failures.extend(o.failures);
        self.records.extend(o.records);
    }
}

/// Time one call, adding its duration in ms to `acc`.
fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64() * 1e3;
    out
}

fn add_report(counts: &mut SimCounts, r: &Report) {
    counts.msgs += r.total_msgs_sent();
    counts.bytes += r.total_bytes_sent();
    counts.collectives += r
        .per_rank
        .iter()
        .map(|s| s.alltoalls + s.barriers)
        .sum::<u64>();
    counts.virtual_ns += r.makespan().as_ns();
}

/// Every scenario of one (workload, size, np) shape: the original
/// program is built, parsed, scanned and compiled once, then each model
/// transforms, verifies, compiles and simulates.
fn shape_pass(specs: &[&ScenarioSpec]) -> LayerTotals {
    let mut t = LayerTotals::default();
    let first = specs[0];
    let entry = workloads::find(&first.workload).expect("grid names registry workloads");
    let (w, src) = span(&mut t.build_ms, || {
        let w = (entry.make)(first.size, first.np);
        let src = w.source();
        (w, src)
    });
    let program = span(&mut t.parse_ms, || fir::parse_validated(&src))
        .unwrap_or_else(|e| panic!("`{}` must parse: {e}", first.workload));
    span(&mut t.scan_ms, || {
        std::hint::black_box(find_opportunities(&program, UserOracle::AssumeSafe, &[]));
    });
    let original = span(&mut t.compile_ms, || {
        compile_program(&program, &Options::default())
    })
    .unwrap_or_else(|e| panic!("`{}` must compile: {e}", first.workload));
    let context = w.context();
    let symbols = context.pairs();
    let outputs = w.output_arrays();

    for spec in specs {
        let key = spec.key();
        let np = spec.np;
        let model = spec.model.to_model();
        let hash = span(&mut t.hash_ms, || driver::scenario_input_hash(spec));
        // The options `driver::measure::transform_workload` builds.
        let opts = TransformOptions {
            tile_size: spec.tile_size,
            context: context.clone(),
            oracle: UserOracle::AssumeSafe,
            kselect_model: model_caps(&model, context.get("np").unwrap_or(8).max(1) as usize),
            ..Default::default()
        };
        let out = match span(&mut t.transform_ms, || transform(&program, &opts)) {
            Ok(out) => out,
            Err(e) => {
                t.failures.push(format!("{key}: transform failed: {e}"));
                continue;
            }
        };
        t.opportunities += out.report.opportunities.len() as u64;
        t.applied += out.report.applied_count() as u64;
        let cfg = analyzer::CommCheckConfig::new(np as i64).with_symbols(symbols.clone());
        let verdict = span(&mut t.verify_ms, || {
            analyzer::verify_comm(&out.program, &cfg)
        });
        t.diagnostics += verdict.diagnostics.len() as u64;
        let prepush = match span(&mut t.compile_ms, || {
            compile_program(&out.program, &Options::default())
        }) {
            Ok(p) => p,
            Err(e) => {
                t.failures
                    .push(format!("{key}: transformed compile failed: {e}"));
                continue;
            }
        };
        let runs = (
            span(&mut t.run_orig_ms, || original.run(np, &model)),
            span(&mut t.run_prepush_ms, || prepush.run(np, &model)),
        );
        let (base, pre) = match runs {
            (Ok(b), Ok(p)) => (b, p),
            (Err(e), _) | (_, Err(e)) => {
                t.failures.push(format!("{key}: run failed: {e}"));
                continue;
            }
        };
        add_report(&mut t.counts, &base.report);
        add_report(&mut t.counts, &pre.report);
        // The §4 comparison `driver::measure` makes.
        let mismatches = span(&mut t.equiv_ms, || {
            let excluded = out.report.incomparable_arrays();
            let mut bad = 0usize;
            for rank in 0..np {
                for name in outputs.iter().filter(|n| !excluded.contains(&n.as_str())) {
                    if base.outputs[rank].arrays.get(name) != pre.outputs[rank].arrays.get(name) {
                        bad += 1;
                    }
                }
            }
            bad
        });
        if mismatches > 0 {
            t.failures
                .push(format!("{key}: {mismatches} output arrays differ"));
        }
        let opp = &out.report.opportunities;
        t.records.push(SweepRecord {
            spec: (*spec).clone(),
            status: RunStatus::Ok,
            tile_size: opp.iter().find_map(|o| o.tile_size),
            strategy: opp.iter().find_map(|o| o.strategy.map(|s| s.to_string())),
            orig_ns: Some(base.report.makespan().as_ns()),
            prepush_ns: Some(pre.report.makespan().as_ns()),
            orig_exposed_ns: Some(base.report.max_exposed_comm().as_ns()),
            prepush_exposed_ns: Some(pre.report.max_exposed_comm().as_ns()),
            speedup: None,
            input_hash: hash,
            wall_ms: 0.0,
        });
    }
    t
}

/// Run the traced pass over `specs` on `threads` workers, one shape at a
/// time per worker (shapes in first-seen order of `specs`).
pub fn layered_pass(specs: &[ScenarioSpec], threads: usize) -> LayerTotals {
    let mut shapes: Vec<Vec<&ScenarioSpec>> = Vec::new();
    for spec in specs {
        let same = |s: &&ScenarioSpec| {
            s.workload == spec.workload && s.size == spec.size && s.np == spec.np
        };
        match shapes.iter_mut().find(|g| same(&g[0])) {
            Some(g) => g.push(spec),
            None => shapes.push(vec![spec]),
        }
    }
    let next = AtomicUsize::new(0);
    let total = Mutex::new(LayerTotals::default());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(group) = shapes.get(i) else { break };
                let part = shape_pass(group);
                total
                    .lock()
                    .expect("no worker panics holding it")
                    .absorb(part);
            });
        }
    });
    total.into_inner().expect("workers joined")
}
