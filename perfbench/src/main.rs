//! `overlap-perfbench`: the suite's end-to-end and per-layer benchmark.
//! See `perfbench/README.md` for the workloads, the metrics, and how to
//! read them.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-standard --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics over repeated samples, each in a fresh child
//! process (so the process-wide compile cache starts cold); `--trace 1`
//! adds the per-layer pass and reports the per-layer metrics.

mod grids;
mod layers;
mod load;
mod probe;
mod sweeps;
mod util;

use driver::json::{self, Json};
use grids::{row_fields, Reference, Workload};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use util::{field, list, median, quantile};

/// Operations per `service` sample.
const SERVICE_BATCH: usize = 600;
/// Samples every `--trace 0` run takes, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;
/// No new sample starts after this much of a run has passed, whatever
/// `--seconds` says, so a run always ends well inside three minutes.
const RUN_CAP: Duration = Duration::from_secs(120);
/// Set-up-only children (sweeps) before each sample and after the last.
const SETUP_CHILDREN: usize = 2;
const SETUP_INDEX_BASE: u64 = 1000;
/// Values a run needs before its p99 has ten beyond it.
const P99_MIN_VALUES: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one sample in this process (how [`child`] re-invokes us).
    child: bool,
    index: u64,
    traced: bool,
    write_reference: bool,
    setup_only: bool,
}

const USAGE: &str = "usage: overlap-perfbench --workload <sim-standard|model-fanout|service> \
     --seed <n> --seconds <n> --trace <0|1>\n       \
     overlap-perfbench --workload <name> --write-reference";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SimStandard,
        seed: 1,
        seconds: 10,
        trace: false,
        child: false,
        index: 0,
        traced: false,
        write_reference: false,
        setup_only: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--child" => args.child = true,
            "--index" => args.index = value()?.parse().map_err(|e| format!("--index: {e}"))?,
            "--traced" => args.traced = true,
            "--setup-only" => args.setup_only = true,
            "--write-reference" => args.write_reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.child {
        let doc = match args.workload {
            Workload::Service => load::sample(args.seed, args.index, SERVICE_BATCH, args.traced),
            w if args.setup_only => sweeps::setup_sample(w, args.seed, args.index),
            w => sweeps::sample(w, args.seed, args.index),
        };
        println!("{}", json::write_json_compact(&doc));
        return;
    }
    let outcome = if args.write_reference {
        write_reference(args.workload).map(|()| None)
    } else if args.trace {
        traced_run(&args).map(Some)
    } else {
        measured_run(&args).map(Some)
    };
    match outcome {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// What a child process runs besides a plain sample.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ChildMode {
    Sample,
    Traced,
    SetupOnly,
}

/// Run one sample in a fresh child process and parse its report.
fn child(w: Workload, seed: u64, index: u64, mode: ChildMode) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name()])
        .args(["--seed", &seed.to_string(), "--index", &index.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    match mode {
        ChildMode::Sample => {}
        ChildMode::Traced => {
            cmd.arg("--traced");
        }
        ChildMode::SetupOnly => {
            cmd.arg("--setup-only");
        }
    }
    let out = cmd.output().map_err(|e| format!("spawn sample: {e}"))?;
    if !out.status.success() {
        return Err(format!("sample {index} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    json::parse_json(last).map_err(|e| format!("sample {index} report: {e}"))
}

/// A metric as it goes into the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Totals of the operations a run attempted and the ones that failed,
/// with the first few reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn add_sample(&mut self, doc: &Json) {
        self.attempted += field(doc, "attempted") as u64;
        self.failed += field(doc, "failed") as u64;
        if let Some(Json::Arr(r)) = doc.get("failures") {
            self.reasons
                .extend(r.iter().filter_map(Json::as_str).map(String::from));
        }
    }

    /// One checked operation of the run itself.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.reasons.push(why());
        }
    }
}

/// Print the human-readable report, the environment record, and (last)
/// the result line.
fn finish(
    args: &Args,
    mode: &str,
    extra: Vec<(String, Json)>,
    metrics: &[Metric],
    unbounded: &[Metric],
    tally: &Tally,
) -> String {
    println!("# {} ({mode}), seed {}", args.workload.name(), args.seed);
    for m in metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in unbounded {
        println!("{:<36} {:>16.6} {} (unbounded)", m.name, m.value, m.unit);
    }
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("{:<36} {:>16.6} ratio", "failed_ratio", failed_ratio);
    for r in tally.reasons.iter().take(20) {
        println!("FAILED: {r}");
    }
    let mut record = vec![
        (
            "workload".to_string(),
            Json::Str(args.workload.name().into()),
        ),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("mode".into(), Json::Str(mode.into())),
        ("failed_ratio".into(), Json::Float(failed_ratio)),
        ("environment".into(), util::environment()),
    ];
    record.extend(extra);
    println!("{}", json::write_json_compact(&Json::Obj(record)));

    let metrics_json = metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Float(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    json::write_json_compact(&Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        ("attempted".into(), Json::Int(tally.attempted.max(1) as i64)),
        ("failed".into(), Json::Int(tally.failed as i64)),
        ("metrics".into(), Json::Obj(metrics_json)),
    ]))
}

/// `--trace 0`: at least [`MIN_SAMPLES`] cold samples and as many as
/// start within `--seconds`. Every bounded figure is taken per sample and
/// the run reports the median over samples, so one noisy sample cannot
/// set a run's value. On the sweeps, set-up-only children run before,
/// between and after the samples, so the `setup_s` values are drawn from
/// the whole span of the run.
fn measured_run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds).min(RUN_CAP);
    let mut samples = Vec::new();
    let mut setup_only = Vec::new();
    let mut setup_children = || -> Result<(), String> {
        if w != Workload::Service {
            for _ in 0..SETUP_CHILDREN {
                // Indices apart from the samples', for their own orders.
                let index = SETUP_INDEX_BASE + setup_only.len() as u64;
                setup_only.push(child(w, args.seed, index, ChildMode::SetupOnly)?);
            }
        }
        Ok(())
    };
    while samples.len() < MIN_SAMPLES || started.elapsed() < budget {
        setup_children()?;
        samples.push(child(
            w,
            args.seed,
            samples.len() as u64,
            ChildMode::Sample,
        )?);
    }
    setup_children()?;

    let mut tally = Tally::default();
    let per_sample = |f: &dyn Fn(&Json) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    for s in samples.iter().chain(&setup_only) {
        tally.add_sample(s);
    }
    // Service samples time their own set-ups; on the sweeps each
    // set-up-only child gives one value.
    let setup: Vec<f64> = if w == Workload::Service {
        samples.iter().flat_map(|s| list(s, "setup_s")).collect()
    } else {
        setup_only.iter().map(|s| field(s, "setup_s")).collect()
    };
    let sweep = per_sample(&|s| field(s, "sweep_s"));
    let p50 = |key: &'static str| median(&per_sample(&|s| quantile(&list(s, key), 0.5)));
    let metrics = [
        metric("setup_s", median(&setup), "s"),
        metric("sweep_s", median(&sweep), "s"),
        metric("cpu_s", median(&per_sample(&|s| field(s, "cpu_s"))), "s"),
        metric(
            "peak_rss_mb",
            median(&per_sample(&|s| field(s, "peak_rss_mb"))),
            "MiB",
        ),
        metric("job_latency_ms.p50", p50("job_ms"), "ms"),
        metric("fetch_ms.p50", p50("fetch_ms"), "ms"),
    ];
    // Printed, not bounded. Tails are pooled over the run and move with
    // the host's scheduling noise; each sample runs a fixed number of
    // jobs, so `jobs_per_s` is that number over `sweep_s`, which is
    // bounded already (README).
    let pooled =
        |key: &'static str| -> Vec<f64> { samples.iter().flat_map(|s| list(s, key)).collect() };
    let (job_ms, fetch_ms) = (pooled("job_ms"), pooled("fetch_ms"));
    let unbounded = [
        metric(
            "jobs_per_s",
            median(&per_sample(&|s| field(s, "jobs") / field(s, "sweep_s"))),
            "1/s",
        ),
        metric("job_latency_ms.p99", quantile(&job_ms, 0.99), "ms"),
        metric("fetch_ms.p99", quantile(&fetch_ms, 0.99), "ms"),
    ];
    let mut extra = vec![
        ("samples".to_string(), Json::Int(samples.len() as i64)),
        ("jobs".into(), Json::Int(job_ms.len() as i64)),
        ("fetches".into(), Json::Int(fetch_ms.len() as i64)),
        // A p99 has ten values beyond it only from 1000 values on.
        (
            "job_p99_valid".into(),
            Json::Bool(job_ms.len() >= P99_MIN_VALUES),
        ),
        (
            "fetch_p99_valid".into(),
            Json::Bool(fetch_ms.len() >= P99_MIN_VALUES),
        ),
        ("sweep_s_samples".into(), util::num_list(&sweep)),
        ("setup_s_samples".into(), util::num_list(&setup)),
    ];
    extra.extend(
        unbounded
            .iter()
            .map(|m| (m.name.to_string(), Json::Float(m.value))),
    );
    Ok(finish(
        args,
        "end-to-end",
        extra,
        &metrics,
        &unbounded,
        &tally,
    ))
}

/// `--trace 1`: one untraced sample, then the traced per-layer pass over
/// the same scenarios, the `clustersim` probe, and the identity checks.
fn traced_run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let base = child(w, args.seed, 0, ChildMode::Sample)?;
    tally.add_sample(&base);
    let untraced_s = field(&base, "sweep_s");

    // The traced pass. For `service` a traced batch (with per-request
    // spans) comes first; the layer pass then covers its scenario pool.
    let mut order = w.specs();
    util::Rng::new(args.seed).shuffle(&mut order);
    let service_doc = if w == Workload::Service {
        let doc = child(w, args.seed, 1, ChildMode::Traced)?;
        tally.add_sample(&doc);
        Some(doc)
    } else {
        None
    };
    let t = Instant::now();
    let totals = layers::layered_pass(&order, sweeps::SWEEP_WORKERS);
    let layer_pass_s = t.elapsed().as_secs_f64();
    // On `service` the traced counterpart of the untraced batch is the
    // traced batch; on the sweeps it is the layer pass.
    let traced_s = service_doc
        .as_ref()
        .map_or(layer_pass_s, |d| field(d, "sweep_s"));
    let host_us_per_msg = probe::host_us_per_msg();

    // Identity checks: the traced pass reproduces the reference rows and
    // counts, and the untraced sample's virtual time.
    let reference = Reference::load(w);
    for r in &totals.records {
        let why = reference.check_row(&r.spec.key(), &row_fields(r));
        tally.check(why.is_none(), || {
            format!("traced pass: {}", why.unwrap_or_default())
        });
    }
    tally.check(totals.records.len() == order.len(), || {
        format!(
            "traced pass produced {} of {} rows",
            totals.records.len(),
            order.len()
        )
    });
    tally.check(reference.counts == Some(totals.counts), || {
        format!(
            "clustersim counts {:?} differ from the reference {:?}",
            totals.counts, reference.counts
        )
    });
    let untraced_ns = field(&base, "virtual_ns") as u64;
    tally.check(untraced_ns == totals.counts.virtual_ns, || {
        format!(
            "virtual time {untraced_ns} untraced vs {} traced",
            totals.counts.virtual_ns
        )
    });
    tally.check(totals.diagnostics == 0, || {
        format!("analyzer: {} diagnostics", totals.diagnostics)
    });
    for f in &totals.failures {
        tally.check(false, || f.clone());
    }
    let host_us_per_msg = match host_us_per_msg {
        Ok(v) => v,
        Err(e) => {
            tally.check(false, || e);
            0.0
        }
    };

    let run_ms = totals.run_orig_ms + totals.run_prepush_ms;
    let virtual_us = totals.counts.virtual_ns as f64 / 1e3;
    let svc = |key: &str| service_doc.as_ref().map_or(0.0, |d| field(d, key));
    let render_ms = match &service_doc {
        Some(d) => field(d, "render_ms"),
        None => quantile(&list(&base, "fetch_ms"), 0.5),
    };
    let metrics = [
        metric("workloads.build_ms", totals.build_ms, "ms"),
        metric("fir.parse_ms", totals.parse_ms, "ms"),
        metric("compuniformer.scan_ms", totals.scan_ms, "ms"),
        metric("compuniformer.transform_ms", totals.transform_ms, "ms"),
        metric(
            "compuniformer.applied_ratio",
            totals.applied as f64 / totals.opportunities.max(1) as f64,
            "ratio",
        ),
        metric("analyzer.verify_ms", totals.verify_ms, "ms"),
        metric("analyzer.diagnostics", totals.diagnostics as f64, "count"),
        metric("interp.compile_ms", totals.compile_ms, "ms"),
        metric("interp.run_orig_ms", totals.run_orig_ms, "ms"),
        metric("interp.run_prepush_ms", totals.run_prepush_ms, "ms"),
        metric(
            "interp.host_ns_per_virtual_us",
            run_ms * 1e6 / virtual_us.max(1.0),
            "ns/us",
        ),
        metric("clustersim.msgs", totals.counts.msgs as f64, "count"),
        metric("clustersim.bytes", totals.counts.bytes as f64, "B"),
        metric(
            "clustersim.collectives",
            totals.counts.collectives as f64,
            "count",
        ),
        metric(
            "clustersim.virtual_ns",
            totals.counts.virtual_ns as f64,
            "ns",
        ),
        metric("clustersim.host_us_per_msg", host_us_per_msg, "us"),
        metric(
            "clustersim.pool.workers_high_water",
            field(&base, "pool_high_water"),
            "count",
        ),
        metric("driver.equiv_ms", totals.equiv_ms, "ms"),
        metric("driver.hash_ms", totals.hash_ms, "ms"),
        metric("driver.cache_hits", field(&base, "cache_hits"), "count"),
        metric("driver.cache_misses", field(&base, "cache_misses"), "count"),
        metric("driver.render_ms", render_ms, "ms"),
        metric("driver.job_wall_ms", svc("job_wall_ms"), "ms"),
        metric("service.connect_ms", svc("connect_ms"), "ms"),
        metric("service.submit_ms", svc("submit_ms"), "ms"),
        metric("service.queue_wait_ms", svc("queue_wait_ms"), "ms"),
        metric("service.stream_ms", svc("stream_ms"), "ms"),
        metric("service.overhead_ms", svc("overhead_ms"), "ms"),
        metric("service.rejected", svc("rejected"), "count"),
        metric("service.http_errors", svc("http_errors"), "count"),
        metric(
            "trace.overhead_ratio",
            traced_s / untraced_s.max(1e-9),
            "ratio",
        ),
    ];
    let extra = vec![
        ("untraced_s".to_string(), Json::Float(untraced_s)),
        ("traced_s".into(), Json::Float(traced_s)),
        (
            "layer_scenarios".into(),
            Json::Int(totals.records.len() as i64),
        ),
    ];
    Ok(finish(args, "per-layer", extra, &metrics, &[], &tally))
}

/// Regenerate `perfbench/reference/<workload>.tsv` from the program's own
/// rows (`driver::run_specs`) and the traced pass's counts, refusing if
/// the two disagree on any row.
fn write_reference(w: Workload) -> Result<(), String> {
    let specs = w.specs();
    let records = driver::run_specs(&specs, sweeps::SWEEP_WORKERS);
    let totals = layers::layered_pass(&specs, sweeps::SWEEP_WORKERS);
    if !totals.failures.is_empty() || totals.diagnostics != 0 {
        return Err(format!("traced pass failed: {:?}", totals.failures));
    }
    let mut rows = Vec::new();
    for r in &records {
        let fields = row_fields(r);
        let traced = totals.records.iter().find(|t| t.spec.key() == r.spec.key());
        if r.error().is_some() || traced.map(row_fields) != Some(fields.clone()) {
            return Err(format!(
                "{}: run_specs and the traced pass disagree",
                r.spec.key()
            ));
        }
        rows.push((r.spec.key(), fields));
    }
    let path = w.reference_path();
    std::fs::write(&path, Reference::render(w, totals.counts, &rows))
        .map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {path} ({} rows)", rows.len());
    Ok(())
}
