//! The parallel sweep executor. Scenarios are dealt round-robin into
//! per-worker deques; each worker pops from the front of its own deque
//! and, when empty, steals from the back of a victim's, so an expensive
//! scenario never idles the other cores. Results land in index-addressed
//! slots, making the final record order a pure function of the grid —
//! identical regardless of thread count or completion order. A panicking
//! scenario (analysis bug, equivalence failure, unknown workload) becomes
//! an *error row*, not a dead sweep.
//!
//! Scheduling is by *shape group*: the rows that share (workload, size,
//! np) run back to back on one worker, so a program interpreted for one
//! model can be replayed for the group's other models
//! ([`crate::replay`]). A lone row is simulated in full, unrecorded.
//!
//! Threading: sweep workers run as *helper* tasks on the persistent
//! [`clustersim::pool`] (no fresh OS threads per sweep), and each
//! scenario's simulated ranks are scheduled onto the same pool under
//! ticket admission — a worker thus *is* its scenario's rank 0, and total
//! live threads stay bounded by the pool's capacity plus the largest
//! admitted scenario instead of growing with the grid.

use crate::cache::{self, CacheStats};
use crate::event::{EventSink, NullSink, ProgressEvent};
use crate::measure::{measure_original_with, measure_with};
use crate::replay::{RunCounts, Simulator};
use crate::spec::{ScenarioSpec, Variant};
use crate::SweepGrid;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    Ok,
    /// The scenario failed; the row records why and the sweep continues.
    Error(String),
}

/// One row of the sweep artifact: the spec plus everything measured.
/// Fields are `None` when the variant doesn't produce them (e.g. an
/// `original`-only run has no prepush time) or the scenario errored.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    pub spec: ScenarioSpec,
    pub status: RunStatus,
    /// Tile size actually used (the heuristic's choice when the spec
    /// requested `None`).
    pub tile_size: Option<i64>,
    pub strategy: Option<String>,
    pub orig_ns: Option<u64>,
    pub prepush_ns: Option<u64>,
    pub orig_exposed_ns: Option<u64>,
    pub prepush_exposed_ns: Option<u64>,
    pub speedup: Option<f64>,
    /// Content hash of the scenario's simulation inputs
    /// ([`cache::scenario_input_hash`]): the `--incremental` reuse key.
    /// `None` when the hash couldn't be computed (unknown workload) or
    /// the row came from a pre-v3 artifact. Deterministic, so it survives
    /// normalization and lives in committed artifacts.
    pub input_hash: Option<u64>,
    /// Host wall-clock spent simulating this scenario, in milliseconds.
    /// Informative only — normalized to 0 in committed artifacts so the
    /// JSON stays byte-deterministic across runs and machines.
    pub wall_ms: f64,
}

impl SweepRecord {
    pub fn is_ok(&self) -> bool {
        self.status == RunStatus::Ok
    }

    pub fn error(&self) -> Option<&str> {
        match &self.status {
            RunStatus::Ok => None,
            RunStatus::Error(e) => Some(e),
        }
    }

    fn failed(spec: &ScenarioSpec, message: String, wall_ms: f64) -> SweepRecord {
        SweepRecord {
            spec: spec.clone(),
            status: RunStatus::Error(message),
            tile_size: None,
            strategy: None,
            orig_ns: None,
            prepush_ns: None,
            orig_exposed_ns: None,
            prepush_exposed_ns: None,
            speedup: None,
            input_hash: None,
            wall_ms,
        }
    }
}

/// Sweep-wide aggregates over the `compare` records.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    pub scenarios: usize,
    pub ok: usize,
    pub errors: usize,
    /// Geometric mean of the speedups of all ok `compare` records.
    pub geomean_speedup: Option<f64>,
    /// (scenario key, speedup) extremes.
    pub best: Option<(String, f64)>,
    pub worst: Option<(String, f64)>,
    /// Per-model-id geomean speedup, in first-seen record order.
    pub per_model: Vec<(String, f64)>,
    /// Total host wall-clock of the sweep in milliseconds (normalized to
    /// 0 in committed artifacts).
    pub wall_ms: f64,
}

/// Host-side timing of one sweep — the `overlap-sweep/v2` artifact's
/// optional `timing` section. Never part of the normalized (committed)
/// form: wall-clock varies across machines and runs by design.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTiming {
    /// Total sweep wall-clock in milliseconds.
    pub wall_ms_total: f64,
    /// Rank-pool ticket capacity during the sweep.
    pub pool_capacity: usize,
    /// High-water mark of live pool worker threads (process lifetime).
    pub workers_high_water: usize,
    /// Compilation-cache hits during this sweep (delta of the process
    /// cache's counters across the run).
    pub cache_hits: u64,
    /// Compilation-cache misses (= compilations performed) this sweep.
    pub cache_misses: u64,
    /// Baseline rows reused instead of re-simulated (`--incremental`
    /// only; 0 for a plain sweep).
    pub reused_rows: usize,
    /// Program simulations interpreted in full this sweep.
    pub full_runs: u64,
    /// Program simulations replayed from a recording made for another
    /// model of the same shape group.
    pub replayed_runs: u64,
    /// `(scenario key, wall_ms)` per record, in record order.
    pub per_scenario: Vec<(String, f64)>,
}

/// Everything one sweep produced: ordered records plus aggregates, plus
/// host timing when the sweep was actually executed (absent after reading
/// a normalized artifact).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    pub records: Vec<SweepRecord>,
    pub summary: SweepSummary,
    pub timing: Option<SweepTiming>,
}

impl SweepResult {
    /// A copy with every wall-clock field zeroed and the timing section
    /// dropped: virtual times and speedups are deterministic, host
    /// wall-clock is not, so committed artifacts (and byte-equality
    /// assertions) use this form.
    pub fn normalized(&self) -> SweepResult {
        let mut out = self.clone();
        for r in &mut out.records {
            r.wall_ms = 0.0;
        }
        out.summary.wall_ms = 0.0;
        out.timing = None;
        out
    }
}

/// Compute the aggregates for a record list.
///
/// Only *ok* records with a finite, positive speedup contribute to the
/// geomeans and extremes. Error rows are skipped even when they carry a
/// `speedup` value (a parsed artifact may — records are data, not
/// provenance), so a model whose scenarios all errored simply has no
/// per-model aggregate instead of contributing a NaN-shaped one.
pub fn summarize(records: &[SweepRecord], wall_ms: f64) -> SweepSummary {
    let ok = records.iter().filter(|r| r.is_ok()).count();
    let mut best: Option<(String, f64)> = None;
    let mut worst: Option<(String, f64)> = None;
    let mut by_model: Vec<(String, Vec<f64>)> = Vec::new();
    for r in records {
        let Some(s) = r.speedup else { continue };
        if !r.is_ok() || !s.is_finite() || s <= 0.0 {
            continue;
        }
        if best.as_ref().is_none_or(|(_, b)| s > *b) {
            best = Some((r.spec.key(), s));
        }
        if worst.as_ref().is_none_or(|(_, w)| s < *w) {
            worst = Some((r.spec.key(), s));
        }
        let id = r.spec.model.id();
        match by_model.iter_mut().find(|(m, _)| *m == id) {
            Some((_, v)) => v.push(s),
            None => by_model.push((id, vec![s])),
        }
    }
    let geomean = |v: &[f64]| -> Option<f64> {
        if v.is_empty() {
            None
        } else {
            Some((v.iter().map(|s| s.ln()).sum::<f64>() / v.len() as f64).exp())
        }
    };
    let all: Vec<f64> = by_model.iter().flat_map(|(_, v)| v.iter().copied()).collect();
    SweepSummary {
        scenarios: records.len(),
        ok,
        errors: records.len() - ok,
        geomean_speedup: geomean(&all),
        best,
        worst,
        per_model: by_model
            .iter()
            .map(|(m, v)| (m.clone(), geomean(v).unwrap_or(1.0)))
            .collect(),
        wall_ms,
    }
}

/// Run one scenario, isolating panics into an error row. Compilation is
/// served from the process-wide [`cache::global`] compile cache.
pub fn run_scenario(spec: &ScenarioSpec) -> SweepRecord {
    run_scenario_in(spec, cache::global())
}

/// [`run_scenario`] against an explicit cache (tests use private caches
/// to observe exact hit/miss counts).
pub fn run_scenario_in(spec: &ScenarioSpec, compile_cache: &cache::CompileCache) -> SweepRecord {
    run_scenario_with(spec, compile_cache, &Simulator::full(&RunCounts::default()))
}

/// [`run_scenario_in`] with the simulations run by `sim`.
fn run_scenario_with(
    spec: &ScenarioSpec,
    compile_cache: &cache::CompileCache,
    sim: &Simulator,
) -> SweepRecord {
    let t0 = Instant::now();
    // The input hash is computed as soon as the workload exists, outside
    // the Result flow, so even a row that *errors* mid-measurement still
    // carries it (an `--incremental` re-run must see the error row's
    // identity to know its inputs moved — though error rows are never
    // reused regardless).
    let hash_slot = Cell::new(None::<u64>);
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<SweepRecord, String> {
        let entry = workloads::find(&spec.workload).ok_or_else(|| {
            let known: Vec<&str> = workloads::registry().iter().map(|e| e.name).collect();
            format!(
                "unknown workload `{}` (known: {})",
                spec.workload,
                known.join(", ")
            )
        })?;
        let w = (entry.make)(spec.size, spec.np);
        hash_slot.set(Some(cache::scenario_input_hash_with(
            spec,
            &*w,
            workloads::registry_fingerprint(),
        )));
        let model = spec.model.to_model();
        let mut rec = SweepRecord::failed(spec, String::new(), 0.0);
        rec.status = RunStatus::Ok;
        match spec.variant {
            Variant::Compare => {
                let m = measure_with(sim, compile_cache, spec, &*w, &model);
                rec.tile_size = m.tile_size;
                rec.strategy = m.strategy.clone();
                rec.orig_ns = Some(m.orig.as_ns());
                rec.prepush_ns = Some(m.prepush.as_ns());
                rec.orig_exposed_ns = Some(m.orig_exposed.as_ns());
                rec.prepush_exposed_ns = Some(m.prepush_exposed.as_ns());
                rec.speedup = Some(m.speedup());
            }
            Variant::Original => {
                let (makespan, exposed) =
                    measure_original_with(sim, compile_cache, spec, &*w, &model);
                rec.orig_ns = Some(makespan.as_ns());
                rec.orig_exposed_ns = Some(exposed.as_ns());
            }
            Variant::Prepush => {
                let (out, compiled) = compile_cache.transformed(spec, &*w, &model);
                rec.tile_size = out.report.opportunities.iter().find_map(|o| o.tile_size);
                rec.strategy = out
                    .report
                    .opportunities
                    .iter()
                    .find_map(|o| o.strategy.map(|s| s.to_string()));
                let r = sim
                    .simulate(|| fir::unparse(&out.program), &compiled, spec.np, &model)
                    .map_err(|e| format!("transformed run failed: {e}"))?;
                rec.prepush_ns = Some(r.report.makespan().as_ns());
                rec.prepush_exposed_ns = Some(r.report.max_exposed_comm().as_ns());
            }
        }
        Ok(rec)
    }));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut rec = match outcome {
        Ok(Ok(mut rec)) => {
            rec.wall_ms = wall_ms;
            rec
        }
        Ok(Err(msg)) => SweepRecord::failed(spec, msg, wall_ms),
        Err(panic) => SweepRecord::failed(spec, panic_message(panic), wall_ms),
    };
    rec.input_hash = hash_slot.get();
    rec
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "scenario panicked (non-string payload)".to_string()
    }
}

/// Expand `grid` and run every scenario on `threads` workers (0 = one per
/// available core, capped by the scenario count).
pub fn run_sweep(grid: &SweepGrid, threads: usize) -> SweepResult {
    run_sweep_with(grid, threads, &NullSink)
}

/// [`run_sweep`] with structured progress reported into `sink` (sweep
/// started/finished plus per-scenario events; see [`crate::event`]).
/// The sink observes, never steers: results are identical whatever it is.
pub fn run_sweep_with(grid: &SweepGrid, threads: usize, sink: &dyn EventSink) -> SweepResult {
    let specs = grid.expand();
    sink.emit(ProgressEvent::SweepStarted {
        scenarios: specs.len(),
        incremental: false,
    });
    let t0 = Instant::now();
    let cache_before = cache::global().stats();
    let (records, runs) = run_specs_counted(&specs, threads, sink);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let result = finish_sweep(records, wall_ms, cache_before, 0, runs);
    emit_finished(sink, &result);
    result
}

fn emit_finished(sink: &dyn EventSink, result: &SweepResult) {
    let t = result.timing.as_ref();
    sink.emit(ProgressEvent::SweepFinished {
        scenarios: result.summary.scenarios,
        ok: result.summary.ok,
        errors: result.summary.errors,
        wall_ms: result.summary.wall_ms,
        cache_hits: t.map_or(0, |t| t.cache_hits),
        cache_misses: t.map_or(0, |t| t.cache_misses),
        reused_rows: t.map_or(0, |t| t.reused_rows),
    });
}

fn finish_sweep(
    records: Vec<SweepRecord>,
    wall_ms: f64,
    cache_before: CacheStats,
    reused_rows: usize,
    (full_runs, replayed_runs): (u64, u64),
) -> SweepResult {
    let summary = summarize(&records, wall_ms);
    let cache_delta = cache::global().stats().since(&cache_before);
    let pool_stats = clustersim::pool::stats();
    let timing = SweepTiming {
        wall_ms_total: wall_ms,
        pool_capacity: clustersim::pool::capacity(),
        workers_high_water: pool_stats.workers_high_water,
        cache_hits: cache_delta.hits,
        cache_misses: cache_delta.misses,
        reused_rows,
        full_runs,
        replayed_runs,
        per_scenario: records
            .iter()
            .map(|r| (r.spec.key(), r.wall_ms))
            .collect(),
    };
    SweepResult {
        records,
        summary,
        timing: Some(timing),
    }
}

/// What [`run_sweep_incremental`] did: the merged result plus, per
/// record, whether it was reused from the baseline (true) or freshly
/// simulated (false).
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalOutcome {
    pub result: SweepResult,
    /// Parallel to `result.records`.
    pub reused: Vec<bool>,
}

/// Expand `grid` and re-simulate only the cells whose inputs moved since
/// `baseline`; everything else is reused from the baseline row.
///
/// A baseline row is reusable for a cell iff all of:
/// - its spec key equals the cell's key,
/// - its status is ok — error rows are *never* reused, even with a
///   matching hash (the error may have been environmental, and a reused
///   error teaches nothing), and
/// - it carries an `input_hash` equal to the cell's freshly computed one
///   (a missing hash — pre-v3 baseline, unknown workload — is a miss).
///
/// Virtual times are a deterministic function of the hashed inputs, so
/// the merged result normalizes byte-identically to a cold full run;
/// reused rows get `wall_ms = 0` (no host time was spent on them).
pub fn run_sweep_incremental(
    grid: &SweepGrid,
    threads: usize,
    baseline: &SweepResult,
) -> IncrementalOutcome {
    run_sweep_incremental_with(grid, threads, baseline, &NullSink)
}

/// [`run_sweep_incremental`] with progress events: reused rows emit a
/// `ScenarioFinished { reused: true }` (nothing simulated, no matching
/// `ScenarioStarted`), fresh cells emit the usual started/finished pair.
pub fn run_sweep_incremental_with(
    grid: &SweepGrid,
    threads: usize,
    baseline: &SweepResult,
    sink: &dyn EventSink,
) -> IncrementalOutcome {
    let specs = grid.expand();
    sink.emit(ProgressEvent::SweepStarted {
        scenarios: specs.len(),
        incremental: true,
    });
    let t0 = Instant::now();
    let cache_before = cache::global().stats();

    let by_key: HashMap<String, &SweepRecord> = baseline
        .records
        .iter()
        .map(|r| (r.spec.key(), r))
        .collect();

    let mut merged: Vec<Option<SweepRecord>> = vec![None; specs.len()];
    let mut reused = vec![false; specs.len()];
    let mut fresh_idx = Vec::new();
    let mut fresh_specs = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let reusable = cache::scenario_input_hash(spec).and_then(|h| {
            by_key
                .get(&spec.key())
                .filter(|b| b.is_ok() && b.input_hash == Some(h))
        });
        match reusable {
            Some(row) => {
                let mut row = (*row).clone();
                row.wall_ms = 0.0;
                sink.emit(ProgressEvent::ScenarioFinished {
                    key: row.spec.key(),
                    ok: row.is_ok(),
                    cache_warm: false,
                    reused: true,
                    wall_ms: 0.0,
                });
                merged[i] = Some(row);
                reused[i] = true;
            }
            None => {
                fresh_idx.push(i);
                fresh_specs.push(spec.clone());
            }
        }
    }

    let (fresh, runs) = run_specs_counted(&fresh_specs, threads, sink);
    for (i, rec) in fresh_idx.into_iter().zip(fresh) {
        merged[i] = Some(rec);
    }
    let records: Vec<SweepRecord> = merged
        .into_iter()
        .map(|r| r.expect("every cell is either reused or freshly run"))
        .collect();

    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let reused_rows = reused.iter().filter(|r| **r).count();
    let outcome = IncrementalOutcome {
        result: finish_sweep(records, wall_ms, cache_before, reused_rows, runs),
        reused,
    };
    emit_finished(sink, &outcome.result);
    outcome
}

/// Run an explicit scenario list in parallel; records come back in spec
/// order regardless of which worker finished which scenario when.
pub fn run_specs(specs: &[ScenarioSpec], threads: usize) -> Vec<SweepRecord> {
    run_specs_with(specs, threads, &NullSink)
}

/// Run one scenario, emitting the started/finished event pair around it.
fn run_scenario_reported(
    spec: &ScenarioSpec,
    sim: &Simulator,
    sink: &dyn EventSink,
) -> SweepRecord {
    sink.emit(ProgressEvent::ScenarioStarted { key: spec.key() });
    let cache_warm = cache::global().warm_for(spec);
    let rec = run_scenario_with(spec, cache::global(), sim);
    sink.emit(ProgressEvent::ScenarioFinished {
        key: rec.spec.key(),
        ok: rec.is_ok(),
        cache_warm,
        reused: false,
        wall_ms: rec.wall_ms,
    });
    rec
}

/// Spec indices grouped by shape (workload, size, np), groups in order of
/// first appearance and rows in spec order within each.
fn shape_groups(specs: &[ScenarioSpec]) -> Vec<Vec<usize>> {
    let mut index: HashMap<(&str, &str, usize), usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let g = *index
            .entry((s.workload.as_str(), s.size.id(), s.np))
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[g].push(i);
    }
    groups
}

/// [`run_specs`] with per-scenario progress events. Events for different
/// scenarios interleave in completion order; the *records* still come
/// back in spec order.
pub fn run_specs_with(
    specs: &[ScenarioSpec],
    threads: usize,
    sink: &dyn EventSink,
) -> Vec<SweepRecord> {
    run_specs_counted(specs, threads, sink).0
}

/// [`run_specs_with`], also returning `(full_runs, replayed_runs)`.
/// Whole shape groups are dealt round-robin into per-worker deques; a
/// group of several rows shares one replay memo.
fn run_specs_counted(
    specs: &[ScenarioSpec],
    threads: usize,
    sink: &dyn EventSink,
) -> (Vec<SweepRecord>, (u64, u64)) {
    if specs.is_empty() {
        return (Vec::new(), (0, 0));
    }
    let groups = shape_groups(specs);
    let nthreads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .min(groups.len())
    .max(1);

    let counts = RunCounts::default();
    let slots: Vec<Mutex<Option<SweepRecord>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    let run_group = |rows: &[usize]| {
        let sim = if rows.len() > 1 {
            Simulator::replaying(&counts)
        } else {
            Simulator::full(&counts)
        };
        for &idx in rows {
            *slots[idx].lock().unwrap() = Some(run_scenario_reported(&specs[idx], &sim, sink));
        }
    };

    if nthreads == 1 {
        groups.iter().for_each(|g| run_group(g));
    } else {
        // Round-robin deal into per-worker deques.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..nthreads)
            .map(|w| Mutex::new((w..groups.len()).step_by(nthreads).collect()))
            .collect();

        // Worker loops run as *helper* tasks on the persistent pool (the
        // first on this thread): no fresh OS threads per sweep, and each
        // worker becomes rank 0 of the scenarios it runs.
        let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..nthreads)
            .map(|me| {
                let deques = &deques;
                let (groups, run_group) = (&groups, &run_group);
                Box::new(move || loop {
                    // Own work first (front), then steal from a victim (back).
                    let mut next = deques[me].lock().unwrap().pop_front();
                    if next.is_none() {
                        for v in 1..nthreads {
                            next = deques[(me + v) % nthreads].lock().unwrap().pop_back();
                            if next.is_some() {
                                break;
                            }
                        }
                    }
                    let Some(g) = next else { break };
                    run_group(&groups[g]);
                }) as _
            })
            .collect();
        clustersim::pool::scope_helpers(workers);
    }

    let records = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every scenario index was claimed by exactly one worker")
        })
        .collect();
    (records, counts.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ModelSpec, SizeClass};

    fn tiny_spec(workload: &str) -> ScenarioSpec {
        ScenarioSpec {
            workload: workload.into(),
            size: SizeClass::Small,
            np: 2,
            model: ModelSpec::MpichGm,
            tile_size: None,
            variant: Variant::Compare,
        }
    }

    #[test]
    fn unknown_workload_is_an_error_row_not_a_dead_sweep() {
        let specs = vec![tiny_spec("no-such-kernel"), tiny_spec("direct2d")];
        let recs = run_specs(&specs, 2);
        assert_eq!(recs.len(), 2);
        assert!(recs[0].error().unwrap().contains("unknown workload"));
        assert!(recs[1].is_ok());
        assert!(recs[1].speedup.is_some());
    }

    #[test]
    fn variants_populate_the_matching_fields() {
        let mut orig = tiny_spec("direct2d");
        orig.variant = Variant::Original;
        let mut pre = tiny_spec("direct2d");
        pre.variant = Variant::Prepush;
        let recs = run_specs(&[orig, pre], 1);
        assert!(recs[0].orig_ns.is_some() && recs[0].prepush_ns.is_none());
        assert!(recs[1].prepush_ns.is_some() && recs[1].orig_ns.is_none());
        assert!(recs[1].strategy.is_some());
        assert!(recs[0].speedup.is_none() && recs[1].speedup.is_none());
    }

    #[test]
    fn summary_aggregates_compare_records() {
        let recs = run_specs(&[tiny_spec("direct2d"), tiny_spec("indirect")], 2);
        let s = summarize(&recs, 12.5);
        assert_eq!(s.scenarios, 2);
        assert_eq!(s.ok, 2);
        assert_eq!(s.errors, 0);
        assert!(s.geomean_speedup.unwrap() > 0.0);
        assert_eq!(s.per_model.len(), 1);
        assert_eq!(s.per_model[0].0, "mpich-gm");
        assert_eq!(s.wall_ms, 12.5);
        assert!(s.best.is_some() && s.worst.is_some());
    }

    #[test]
    fn summary_skips_error_rows_and_degenerate_speedups() {
        // An artifact (records are data — they may come from a file, not
        // a fresh run) where one model's rows all errored yet still carry
        // speedup values, plus ok rows with NaN/zero speedups: none of
        // these may leak into the aggregates.
        let mut errored = SweepRecord {
            status: RunStatus::Error("sim exploded".into()),
            ..run_scenario(&tiny_spec("direct2d"))
        };
        errored.spec.model = ModelSpec::Mpich;
        errored.speedup = Some(7.5); // stale value on an error row
        let mut nan_row = run_scenario(&tiny_spec("direct2d"));
        nan_row.speedup = Some(f64::NAN);
        let mut zero_row = run_scenario(&tiny_spec("direct2d"));
        zero_row.speedup = Some(0.0);
        let good = run_scenario(&tiny_spec("indirect"));
        let good_speedup = good.speedup.unwrap();

        let s = summarize(&[errored, nan_row, zero_row, good], 0.0);
        assert_eq!(s.scenarios, 4);
        assert_eq!(s.errors, 1);
        // Only the good row aggregates: one model (mpich-gm), no NaN.
        assert_eq!(s.per_model.len(), 1);
        assert_eq!(s.per_model[0].0, "mpich-gm");
        assert!(s.per_model[0].1.is_finite());
        assert_eq!(s.geomean_speedup, Some(good_speedup));
        assert_eq!(s.best.as_ref().unwrap().1, good_speedup);
        assert_eq!(s.worst.as_ref().unwrap().1, good_speedup);

        // A model whose rows ALL errored: no aggregate at all.
        let mut only_err = run_scenario(&tiny_spec("direct2d"));
        only_err.status = RunStatus::Error("boom".into());
        only_err.speedup = Some(2.0);
        let s = summarize(&[only_err], 0.0);
        assert!(s.per_model.is_empty());
        assert_eq!(s.geomean_speedup, None);
        assert!(s.best.is_none() && s.worst.is_none());
    }

    #[test]
    fn records_carry_input_hashes() {
        let ok = run_scenario(&tiny_spec("direct2d"));
        assert_eq!(ok.input_hash, cache::scenario_input_hash(&ok.spec));
        assert!(ok.input_hash.is_some());
        // Unknown workload: no generator, no hash.
        let unknown = run_scenario(&tiny_spec("no-such-kernel"));
        assert_eq!(unknown.input_hash, None);
    }

    fn tiny_grid() -> SweepGrid {
        SweepGrid::new()
            .workloads(["direct2d", "indirect"])
            .size(SizeClass::Small)
            .nps([2])
            .models([ModelSpec::MpichGm])
    }

    #[test]
    fn incremental_with_unchanged_inputs_reuses_every_row() {
        let cold = run_sweep(&tiny_grid(), 1);
        let inc = run_sweep_incremental(&tiny_grid(), 1, &cold);
        assert!(inc.reused.iter().all(|r| *r), "nothing moved → all reused");
        assert_eq!(inc.result.normalized(), cold.normalized());
        let t = inc.result.timing.as_ref().unwrap();
        assert_eq!(t.reused_rows, cold.records.len());
        assert_eq!(
            (t.cache_hits, t.cache_misses),
            (0, 0),
            "a fully reused sweep never touches the compile cache"
        );
        // Reused rows spent no host time.
        assert!(inc.result.records.iter().all(|r| r.wall_ms == 0.0));
    }

    #[test]
    fn incremental_never_reuses_error_rows_or_rows_without_hashes() {
        let cold = run_sweep(&tiny_grid(), 1);

        // Baseline row errored (hash intact): must re-simulate.
        let mut poisoned = cold.clone();
        poisoned.records[0].status = RunStatus::Error("flaky host".into());
        let inc = run_sweep_incremental(&tiny_grid(), 1, &poisoned);
        assert!(!inc.reused[0], "error row is a miss even with a matching hash");
        assert!(inc.reused[1]);
        assert!(inc.result.records[0].is_ok(), "re-simulation healed the row");
        assert_eq!(inc.result.normalized(), cold.normalized());
        assert_eq!(inc.result.timing.as_ref().unwrap().reused_rows, 1);

        // Baseline row lacks input_hash (pre-v3 artifact): must re-simulate.
        let mut unhashed = cold.clone();
        unhashed.records[1].input_hash = None;
        let inc = run_sweep_incremental(&tiny_grid(), 1, &unhashed);
        assert!(inc.reused[0] && !inc.reused[1]);
        assert_eq!(inc.result.normalized(), cold.normalized());

        // Baseline row's hash is stale (inputs moved): must re-simulate.
        let mut stale = cold.clone();
        stale.records[0].input_hash = Some(0xdead_beef);
        let inc = run_sweep_incremental(&tiny_grid(), 1, &stale);
        assert!(!inc.reused[0] && inc.reused[1]);
        assert_eq!(inc.result.normalized(), cold.normalized());

        // Baseline row missing entirely (new cell): must simulate.
        let mut shrunk = cold.clone();
        shrunk.records.remove(0);
        let inc = run_sweep_incremental(&tiny_grid(), 1, &shrunk);
        assert!(!inc.reused[0] && inc.reused[1]);
        assert_eq!(inc.result.normalized(), cold.normalized());
    }

    #[test]
    fn sweeps_emit_structured_progress_events() {
        use crate::event::MemorySink;
        let sink = MemorySink::new();
        let cold = run_sweep_with(&tiny_grid(), 2, &sink);
        let events = sink.take();
        assert_eq!(events[0].kind(), "sweep-started");
        assert_eq!(events.last().unwrap().kind(), "sweep-finished");
        let started: Vec<&ProgressEvent> =
            events.iter().filter(|e| e.kind() == "scenario-started").collect();
        let finished: Vec<&ProgressEvent> =
            events.iter().filter(|e| e.kind() == "scenario-finished").collect();
        assert_eq!(started.len(), cold.records.len());
        assert_eq!(finished.len(), cold.records.len());
        assert!(finished.iter().all(|e| matches!(
            e,
            ProgressEvent::ScenarioFinished { ok: true, reused: false, .. }
        )));
        if let ProgressEvent::SweepFinished { scenarios, ok, errors, .. } =
            events.last().unwrap()
        {
            assert_eq!((*scenarios, *ok, *errors), (cold.records.len(), cold.summary.ok, 0));
        }

        // Incremental with nothing moved: only reused finishes, no starts.
        let sink = MemorySink::new();
        let inc = run_sweep_incremental_with(&tiny_grid(), 1, &cold, &sink);
        assert_eq!(inc.result.normalized(), cold.normalized());
        let events = sink.take();
        assert!(events.iter().all(|e| e.kind() != "scenario-started"));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(
                    e,
                    ProgressEvent::ScenarioFinished { reused: true, .. }
                ))
                .count(),
            cold.records.len()
        );
        // The sink observed; it never steered: same bytes as the plain run.
        let silent = run_sweep(&tiny_grid(), 2);
        assert_eq!(silent.normalized(), cold.normalized());
    }

    #[test]
    fn normalized_zeroes_wall_clock_only() {
        let result = run_sweep(
            &SweepGrid::new()
                .workloads(["direct2d"])
                .size(SizeClass::Small)
                .nps([2])
                .models([ModelSpec::MpichGm]),
            1,
        );
        let n = result.normalized();
        assert!(n.records.iter().all(|r| r.wall_ms == 0.0));
        assert_eq!(n.summary.wall_ms, 0.0);
        assert!(result.timing.is_some(), "executed sweeps carry timing");
        assert!(n.timing.is_none(), "normalized artifacts drop timing");
        assert_eq!(n.records[0].orig_ns, result.records[0].orig_ns);
        assert_eq!(n.summary.geomean_speedup, result.summary.geomean_speedup);
    }
}
