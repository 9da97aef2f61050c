//! The one-shot CLI client of the job core.
//!
//! `harness sweep` / `harness quick` / `harness diff` used to carry
//! their orchestration inline; now they parse flags and delegate here.
//! [`sweep_command`] submits a single job to a [`JobCore`] with a queue
//! of one, waits for it, and renders *exactly* the bytes the harness
//! always printed (pinned by the golden stdout test against the
//! committed artifact). The artifact file it writes is the job's
//! canonical artifact — the same `Arc<String>` the HTTP service serves
//! from `GET /jobs/:id/artifact` — which is how "serving may change
//! wall-clock, never a simulated byte" stays a structural property
//! rather than a promise.
//!
//! These functions are *front-end* code: they print to stdout/stderr
//! and return process exit codes (the caller exits; nothing here calls
//! `std::process::exit`). The sweep engine underneath them stays
//! silent — see [`crate::event`].

use crate::diff::DiffReport;
use crate::exec::{SweepRecord, SweepResult, SweepTiming};
use crate::grid::SweepGrid;
use crate::job::{JobCore, JobSpec, JobState};
use crate::json;
use crate::spec::ScenarioSpec;
use clustersim::SimTime;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Options for [`sweep_command`], mirroring the harness's sweep flags.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (0 = one per core).
    pub threads: usize,
    /// Where the normalized artifact goes.
    pub out: String,
    /// Also write the non-normalized artifact (with `timing`) here.
    pub wall_out: Option<String>,
    /// Diff against this artifact after the run (the regression gate);
    /// with `incremental`, also the artifact whose rows to reuse.
    pub baseline: Option<String>,
    pub tolerance: f64,
    /// Swap the compiled-in grid for a `scenarios/*.toml` file.
    pub grid: Option<String>,
    /// Write the gate's diff report as markdown here.
    pub md_out: Option<String>,
    /// Reuse baseline rows whose `input_hash` is unchanged.
    pub incremental: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 0,
            out: "BENCH_sweep.json".into(),
            wall_out: None,
            baseline: None,
            tolerance: 0.0,
            grid: None,
            md_out: None,
            incremental: false,
        }
    }
}

/// Options for [`diff_command`].
#[derive(Debug, Clone, Default)]
pub struct DiffOptions {
    pub tolerance: f64,
    /// Restrict the comparison to a scenario file's expansion.
    pub grid: Option<String>,
    /// Write the report as markdown here.
    pub md_out: Option<String>,
    /// Compare host wall-clock `timing` sections instead (informational).
    pub wall: bool,
}

fn hr_string(title: &str) -> String {
    format!(
        "\n==================================================================\n\
         {title}\n\
         ==================================================================\n"
    )
}

fn hr(title: &str) {
    print!("{}", hr_string(title));
}

/// Load a declarative scenario file (`scenarios/*.toml`) into a grid.
/// On failure: the historical diagnostic on stderr, exit code 2.
fn load_grid(path: &str) -> Result<SweepGrid, i32> {
    crate::job::GridSource::GridFile(path.to_string())
        .resolve()
        .map_err(|e| {
            eprintln!("{e}");
            2
        })
}

/// Read a sweep artifact, treating any corruption (including non-UTF-8
/// bytes) as a readable error, never a panic.
fn load_artifact(path: &str) -> Result<SweepResult, i32> {
    let bytes = std::fs::read(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        2
    })?;
    json::from_json_bytes(&bytes).map_err(|e| {
        eprintln!("{path}: {e}");
        2
    })
}

/// Write the markdown diff report when `--md-out` was given.
fn write_md_report(
    md_out: &Option<String>,
    report: &DiffReport,
    baseline: &str,
    candidate: &str,
    tolerance: f64,
) -> Result<(), i32> {
    let Some(path) = md_out else { return Ok(()) };
    let md = report.render_markdown(baseline, candidate, tolerance);
    if let Err(e) = std::fs::write(path, &md) {
        eprintln!("cannot write {path}: {e}");
        return Err(1);
    }
    println!("wrote {path} (markdown diff report)");
    Ok(())
}

/// The sweep's stdout block — header rule, record table, aggregates,
/// timing line — exactly as the harness has always printed it. Public
/// so the golden test can pin these bytes against the committed
/// artifact without running a sweep.
pub fn render_sweep_stdout(result: &SweepResult) -> String {
    let mut out = hr_string(&format!(
        "sweep — {} scenarios ({} ok, {} errors) in {:.0} ms wall",
        result.summary.scenarios,
        result.summary.ok,
        result.summary.errors,
        result.summary.wall_ms
    ));
    out.push_str(&format!(
        "{:<22} {:>8} {:>3} {:>14} {:>6} {:>12} {:>12} {:>7}  strategy/status\n",
        "workload", "size", "np", "model", "K", "orig", "prepush", "gain"
    ));
    for r in &result.records {
        let k = r
            .tile_size
            .map(|k| k.to_string())
            .unwrap_or_else(|| "-".into());
        match r.error() {
            Some(e) => out.push_str(&format!(
                "{:<22} {:>8} {:>3} {:>14} {:>6} {:>12} {:>12} {:>7}  ERROR: {}\n",
                r.spec.workload,
                r.spec.size.id(),
                r.spec.np,
                r.spec.model.id(),
                k,
                "-",
                "-",
                "-",
                e.lines().next().unwrap_or("")
            )),
            None => out.push_str(&format!(
                "{:<22} {:>8} {:>3} {:>14} {:>6} {:>12} {:>12} {:>6.2}x  {}\n",
                r.spec.workload,
                r.spec.size.id(),
                r.spec.np,
                r.spec.model.id(),
                k,
                r.orig_ns.map(SimTime::from_ns).map_or("-".into(), |t| t.to_string()),
                r.prepush_ns.map(SimTime::from_ns).map_or("-".into(), |t| t.to_string()),
                r.speedup.unwrap_or(0.0),
                r.strategy.as_deref().unwrap_or("-")
            )),
        }
    }
    if let Some(g) = result.summary.geomean_speedup {
        out.push_str(&format!("\ngeomean speedup: {g:.3}x\n"));
    }
    for (model, g) in &result.summary.per_model {
        out.push_str(&format!("  {model:<14} geomean {g:.3}x\n"));
    }
    if let Some((key, s)) = &result.summary.best {
        out.push_str(&format!("best : {s:.2}x  {key}\n"));
    }
    if let Some((key, s)) = &result.summary.worst {
        out.push_str(&format!("worst: {s:.2}x  {key}\n"));
    }
    if let Some(t) = &result.timing {
        out.push_str(&format!(
            "compile cache: {} hit(s), {} miss(es); {} baseline row(s) reused\n",
            t.cache_hits, t.cache_misses, t.reused_rows
        ));
    }
    out
}

/// `harness sweep` / `harness quick`: run a grid as a single job on a
/// fresh [`JobCore`], print the record table + aggregates, write the
/// artifact(s), and run the regression gate when a baseline was given.
/// Returns the process exit code.
pub fn sweep_command(preset: SweepGrid, opts: &SweepOptions) -> i32 {
    match sweep_command_inner(preset, opts) {
        Ok(()) => 0,
        Err(code) => code,
    }
}

fn sweep_command_inner(preset: SweepGrid, opts: &SweepOptions) -> Result<(), i32> {
    if opts.md_out.is_some() && opts.baseline.is_none() {
        eprintln!("--md-out needs --baseline (the markdown report is a diff report)");
        return Err(2);
    }
    if opts.incremental && opts.baseline.is_none() {
        eprintln!("--incremental needs --baseline (the artifact whose rows to reuse)");
        return Err(2);
    }
    let grid = match &opts.grid {
        Some(path) => load_grid(path)?,
        None => preset,
    };

    // One job on a single-slot core: the CLI is the degenerate client of
    // the same machinery the sweep service runs.
    let core = JobCore::new(1);
    let mut spec = JobSpec::grid(grid.clone()).threads(opts.threads);
    if opts.incremental {
        let baseline_path = opts.baseline.as_deref().expect("checked above");
        let baseline = load_artifact(baseline_path)?;
        spec = spec.baseline(Arc::new(baseline));
    }
    let id = match core.submit(spec) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("{e}");
            core.shutdown();
            core.join();
            return Err(2);
        }
    };
    let state = core
        .wait_terminal(id, Duration::from_secs(7 * 24 * 3600))
        .expect("job was just submitted");
    core.shutdown();
    core.join();
    let result = match state {
        JobState::Done => core.result(id).expect("done job has a result"),
        JobState::Failed(msg) => {
            eprintln!("sweep failed: {msg}");
            return Err(1);
        }
        other => {
            eprintln!("sweep job ended {}", other.id());
            return Err(1);
        }
    };

    if opts.incremental {
        let baseline_path = opts.baseline.as_deref().expect("checked above");
        let status = core.status(id).expect("job exists");
        let simulated = status.finished - status.reused;
        println!(
            "incremental vs {baseline_path}: reused {} row(s), re-simulated {simulated}",
            status.reused
        );
    }
    print!("{}", render_sweep_stdout(&result));

    // Committed artifacts are normalized (host wall-clock zeroed, timing
    // dropped) so the bytes are identical across runs, machines, and
    // thread counts. The job core computed them once; the file below and
    // the service's /artifact endpoint share this string.
    let text = core.artifact(id).expect("done job has an artifact");
    if let Err(e) = std::fs::write(&opts.out, text.as_bytes()) {
        eprintln!("cannot write {}: {e}", opts.out);
        return Err(1);
    }
    println!("\nwrote {} ({} records)", opts.out, result.records.len());
    if let Some(wall_out) = &opts.wall_out {
        // The non-normalized artifact keeps per-scenario wall_ms and the
        // `timing` section — the tracked perf-trajectory data.
        let text = json::to_json_string(&result);
        if let Err(e) = std::fs::write(wall_out, &text) {
            eprintln!("cannot write {wall_out}: {e}");
            return Err(1);
        }
        if let Some(t) = &result.timing {
            println!(
                "wrote {wall_out} (timing: {:.0} ms total, pool capacity {}, \
                 worker high-water {}, cache {}h/{}m, {} reused)",
                t.wall_ms_total,
                t.pool_capacity,
                t.workers_high_water,
                t.cache_hits,
                t.cache_misses,
                t.reused_rows
            );
        }
    }
    // The committed BENCH_sweep.json is the quick-grid baseline that
    // scripts/verify.sh regenerates; warn whenever any *other* grid —
    // whichever subcommand or --grid file produced it — lands there.
    if grid != SweepGrid::quick() && opts.out == "BENCH_sweep.json" {
        eprintln!(
            "note: overwrote the quick-grid baseline at BENCH_sweep.json — \
             `git restore BENCH_sweep.json` (or rerun `harness quick`), \
             or pass --out next time"
        );
    }
    if result.summary.errors > 0 {
        return Err(1);
    }
    if let Some(baseline_path) = &opts.baseline {
        let baseline = load_artifact(baseline_path)?;
        hr(&format!(
            "regression gate — {} (baseline) vs this run, tolerance {}",
            baseline_path, opts.tolerance
        ));
        let report = crate::diff(&baseline, &result, opts.tolerance);
        print!("{}", report.render());
        write_md_report(
            &opts.md_out,
            &report,
            baseline_path,
            "this run",
            opts.tolerance,
        )?;
        if report.has_regressions() {
            eprintln!("regression gate FAILED");
            return Err(1);
        }
        println!("regression gate passed");
    }
    Ok(())
}

/// Keep only the records a grid file's expansion names (by scenario
/// key), recomputing the summary over the survivors.
fn restrict_to_grid(result: SweepResult, keys: &HashSet<String>) -> SweepResult {
    let records: Vec<SweepRecord> = result
        .records
        .into_iter()
        .filter(|r| keys.contains(&r.spec.key()))
        .collect();
    let summary = crate::summarize(&records, result.summary.wall_ms);
    SweepResult {
        records,
        summary,
        timing: None,
    }
}

/// `harness diff`: compare two sweep artifacts; exit code 1 on
/// regressions. `--grid` scopes the comparison to a scenario file's
/// expansion; `--md-out` writes the report as markdown; `--wall`
/// compares the host wall-clock `timing` sections instead.
pub fn diff_command(paths: &[String], opts: &DiffOptions) -> i32 {
    match diff_command_inner(paths, opts) {
        Ok(()) => 0,
        Err(code) => code,
    }
}

fn diff_command_inner(paths: &[String], opts: &DiffOptions) -> Result<(), i32> {
    if paths.len() != 2 {
        eprintln!(
            "usage: harness diff [--wall] <a.json> <b.json> [--tol F] [--grid FILE.toml] [--md-out PATH]"
        );
        return Err(2);
    }
    if opts.wall {
        return wall_diff(&paths[0], &paths[1]);
    }
    let mut a = load_artifact(&paths[0])?;
    let mut b = load_artifact(&paths[1])?;
    if let Some(grid_path) = &opts.grid {
        let keys: HashSet<String> = load_grid(grid_path)?
            .expand()
            .iter()
            .map(ScenarioSpec::key)
            .collect();
        a = restrict_to_grid(a, &keys);
        b = restrict_to_grid(b, &keys);
        println!(
            "(scoped to {}: {} baseline / {} candidate records match)",
            grid_path,
            a.records.len(),
            b.records.len()
        );
    }
    hr(&format!(
        "diff — {} (baseline) vs {} (candidate), tolerance {}",
        paths[0], paths[1], opts.tolerance
    ));
    let report = crate::diff(&a, &b, opts.tolerance);
    print!("{}", report.render());
    write_md_report(&opts.md_out, &report, &paths[0], &paths[1], opts.tolerance)?;
    if report.has_regressions() {
        return Err(1);
    }
    Ok(())
}

/// `diff --wall`: compare the host wall-clock `timing` sections of two
/// `--wall-out` artifacts — the per-PR perf trajectory the ROADMAP tracks
/// under `perf/`. Prints per-scenario movements (sorted by absolute delta)
/// and totals. Purely informational: wall clock varies across machines and
/// runs, so this never exits nonzero on a slowdown — it exists so a perf
/// regression is *seen* in CI output, not to fail the gate.
fn wall_diff(baseline_path: &str, candidate_path: &str) -> Result<(), i32> {
    let load_timing = |path: &str| -> Result<SweepTiming, i32> {
        let result = load_artifact(path)?;
        result.timing.ok_or_else(|| {
            eprintln!(
                "{path}: no `timing` section — wall diffs need the non-normalized \
                 --wall-out artifact (e.g. perf/PR*_quick_wall.json)"
            );
            2
        })
    };
    let a = load_timing(baseline_path)?;
    let b = load_timing(candidate_path)?;
    hr(&format!(
        "wall-clock diff — {baseline_path} (baseline) vs {candidate_path} (candidate)"
    ));
    let base: HashMap<&str, f64> = a
        .per_scenario
        .iter()
        .map(|(k, ms)| (k.as_str(), *ms))
        .collect();
    let mut rows: Vec<(&str, Option<f64>, f64)> = b
        .per_scenario
        .iter()
        .map(|(k, ms)| (k.as_str(), base.get(k.as_str()).copied(), *ms))
        .collect();
    rows.sort_by(|x, y| {
        let d = |r: &(&str, Option<f64>, f64)| r.1.map_or(f64::MAX, |old| (r.2 - old).abs());
        d(y).partial_cmp(&d(x)).expect("finite wall times")
    });
    println!(
        "{:<58} {:>10} {:>10} {:>8}",
        "scenario", "old ms", "new ms", "ratio"
    );
    for (key, old, new) in &rows {
        match old {
            Some(old) => println!(
                "{key:<58} {old:>10.1} {new:>10.1} {:>7.2}x",
                old / new.max(1e-9)
            ),
            None => println!("{key:<58} {:>10} {new:>10.1}  (new scenario)", "-"),
        }
    }
    for (key, ms) in &a.per_scenario {
        if !b.per_scenario.iter().any(|(k, _)| k == key) {
            println!("{key:<58} {ms:>10.1} {:>10}  (dropped)", "-");
        }
    }
    let matched_old: f64 = rows.iter().filter_map(|r| r.1).sum();
    let matched_new: f64 = rows.iter().filter(|r| r.1.is_some()).map(|r| r.2).sum();
    println!(
        "\ntotals: {:.0} ms -> {:.0} ms over {} matched scenario(s) ({:.2}x); \
         whole runs {:.0} ms -> {:.0} ms",
        matched_old,
        matched_new,
        rows.iter().filter(|r| r.1.is_some()).count(),
        matched_old / matched_new.max(1e-9),
        a.wall_ms_total,
        b.wall_ms_total,
    );
    // Reuse counters ride along so the perf trajectory shows the cache
    // *working* — an accidental 0%-hit regression is visible here, not
    // silent. (Pre-v3 artifacts read back as all-zero counters.)
    println!(
        "compile cache: {} -> {} hit(s), {} -> {} miss(es); reused rows {} -> {}",
        a.cache_hits, b.cache_hits, a.cache_misses, b.cache_misses, a.reused_rows, b.reused_rows,
    );
    println!(
        "simulations: full {} -> {}, replayed {} -> {}",
        a.full_runs, b.full_runs, a.replayed_runs, b.replayed_runs,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hr_rule_matches_the_historical_width() {
        let s = hr_string("title");
        let lines: Vec<&str> = s.lines().collect();
        // Leading blank line, rule, title, rule.
        assert_eq!(lines[0], "");
        assert_eq!(lines[1], "=".repeat(66));
        assert_eq!(lines[2], "title");
        assert_eq!(lines[3], lines[1]);
    }

    #[test]
    fn render_is_stable_for_an_empty_result() {
        let result = SweepResult {
            records: Vec::new(),
            summary: crate::summarize(&[], 0.0),
            timing: None,
        };
        let s = render_sweep_stdout(&result);
        assert!(s.contains("sweep — 0 scenarios (0 ok, 0 errors) in 0 ms wall"));
        assert!(s.contains("strategy/status"));
    }
}
