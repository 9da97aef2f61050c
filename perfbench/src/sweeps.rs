//! One sample of a sweep workload (`sim-standard`, `model-fanout`), run
//! in a fresh child process so the process-wide compile cache starts
//! cold: fill the cache for every shape (set-up), then time
//! `driver::run_specs` over the grid and check every row.

use crate::grids::{row_fields, Reference, Workload};
use crate::util::{cpu_seconds, median, ms_since, num_list, peak_rss_mb, Rng};
use driver::cache::{self, CacheStats, CompileCache};
use driver::json::{self, Json};
use driver::{run_specs, summarize, ScenarioSpec, SweepResult};
use std::time::{Duration, Instant};

/// Sweep workers, fixed so runs on bigger machines stay comparable.
pub const SWEEP_WORKERS: usize = 2;
/// Set-ups a set-up-only child makes at least, and the span it keeps
/// making them for (README, "Fastest of a span").
const SETUP_REPS: usize = 3;
const BEST_OF_SPAN: Duration = Duration::from_secs(1);
/// Artifact renders timed per sample (the sweeps' `fetch_ms`): bursts
/// spread over about a second, the fastest burst's median counting.
const RENDER_BURSTS: usize = 40;
const RENDERS_PER_BURST: usize = 20;
const BURST_GAP: Duration = Duration::from_millis(25);

/// The scenario order one sample hands to `run_specs`: a pure function
/// of the workload seed and the sample's index within the run.
pub fn sample_order(w: Workload, seed: u64, index: u64) -> Vec<ScenarioSpec> {
    let mut specs = w.specs();
    Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(index)).shuffle(&mut specs);
    specs
}

/// Build every workload and fill `cache` for each shape; the cache's
/// hit/miss movement and the seconds each spec took.
fn set_up(specs: &[ScenarioSpec], cache: &CompileCache) -> (CacheStats, Vec<f64>) {
    let before = cache.stats();
    let mut secs = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = Instant::now();
        let entry = workloads::find(&spec.workload).expect("grid names registry workloads");
        let w = (entry.make)(spec.size, spec.np);
        let model = spec.model.to_model();
        cache.original(spec, &*w);
        cache.transformed(spec, &*w, &model);
        secs.push(t.elapsed().as_secs_f64());
    }
    (cache.stats().since(&before), secs)
}

/// One set-up on a cold cache, checked by the cold-cache guard.
fn guarded_set_up(
    w: Workload,
    specs: &[ScenarioSpec],
    cache: &CompileCache,
    failures: &mut Vec<String>,
) -> (CacheStats, Vec<f64>) {
    let (stats, secs) = set_up(specs, cache);
    if stats.misses != w.compile_shapes() {
        failures.push(format!(
            "cold-cache guard: set-up compiled {} shapes, want {} (was the cache warm?)",
            stats.misses,
            w.compile_shapes()
        ));
    }
    (stats, secs)
}

/// Set-ups alone, with no sweep, each into a fresh private cache in the
/// same spec order, back to back for [`BEST_OF_SPAN`] (at least
/// [`SETUP_REPS`] of them): one `setup_s` value for the run, the sum over
/// specs of each spec's fastest time.
pub fn setup_sample(w: Workload, seed: u64, index: u64) -> Json {
    let specs = sample_order(w, seed, index);
    let mut failures = Vec::new();
    let mut best = vec![f64::INFINITY; specs.len()];
    let mut setups = 0;
    let t = Instant::now();
    while setups < SETUP_REPS || t.elapsed() < BEST_OF_SPAN {
        let private = CompileCache::new();
        let (_, secs) = guarded_set_up(w, &specs, &private, &mut failures);
        for (b, s) in best.iter_mut().zip(secs) {
            *b = b.min(s);
        }
        setups += 1;
    }
    Json::Obj(vec![
        ("setup_s".into(), Json::Float(best.iter().sum())),
        ("setups".into(), Json::Int(setups as i64)),
        ("attempted".into(), Json::Int(setups as i64)),
        ("failed".into(), Json::Int(failures.len() as i64)),
        (
            "failures".into(),
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        ),
    ])
}

pub fn sample(w: Workload, seed: u64, index: u64) -> Json {
    let specs = sample_order(w, seed, index);
    let reference = Reference::load(w);
    let mut failures: Vec<String> = Vec::new();
    // The set-up the sweep uses, into the process-wide cache. It is
    // checked, not timed: `setup_s` comes from set-up-only children.
    let (setup_stats, _) = guarded_set_up(w, &specs, cache::global(), &mut failures);

    // The measured sweep.
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let records = run_specs(&specs, SWEEP_WORKERS);
    let sweep_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;

    // A row fails on an error status or any field off its reference
    // (`run_scenario` has already applied the §4 equivalence gate).
    let mut failed = failures.len();
    for r in &records {
        if let Some(why) = reference.check_row(&r.spec.key(), &row_fields(r)) {
            failures.push(why);
            failed += 1;
        }
    }
    let virtual_ns: u64 = records
        .iter()
        .map(|r| r.orig_ns.unwrap_or(0) + r.prepush_ns.unwrap_or(0))
        .sum();
    let row_ms: Vec<f64> = records.iter().map(|r| r.wall_ms).collect();

    // What a user fetches after the sweep: the canonical artifact bytes.
    let result = SweepResult {
        summary: summarize(&records, sweep_s * 1e3),
        records,
        timing: None,
    }
    .normalized();
    let mut fetch_ms = f64::INFINITY;
    for burst in 0..RENDER_BURSTS {
        if burst > 0 {
            std::thread::sleep(BURST_GAP);
        }
        let mut times = Vec::with_capacity(RENDERS_PER_BURST);
        for _ in 0..RENDERS_PER_BURST {
            let t = Instant::now();
            std::hint::black_box(json::to_json_string(&result));
            times.push(ms_since(t));
        }
        fetch_ms = fetch_ms.min(median(&times));
    }

    Json::Obj(vec![
        ("sweep_s".into(), Json::Float(sweep_s)),
        ("cpu_s".into(), Json::Float(cpu_s)),
        ("peak_rss_mb".into(), Json::Float(peak_rss_mb())),
        ("job_ms".into(), num_list(&row_ms)),
        ("fetch_ms".into(), num_list(&[fetch_ms])),
        ("jobs".into(), Json::Int(result.records.len() as i64)),
        // The set-up (with its cache guard) counts as one operation.
        (
            "attempted".into(),
            Json::Int((result.records.len() + 1) as i64),
        ),
        ("failed".into(), Json::Int(failed as i64)),
        (
            "failures".into(),
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        ),
        ("cache_hits".into(), Json::Int(setup_stats.hits as i64)),
        ("cache_misses".into(), Json::Int(setup_stats.misses as i64)),
        (
            "pool_high_water".into(),
            Json::Int(clustersim::pool::stats().workers_high_water as i64),
        ),
        ("virtual_ns".into(), Json::Int(virtual_ns as i64)),
    ])
}
