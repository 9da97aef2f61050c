//! The `service` workload: an in-process `service::Server` on
//! 127.0.0.1:0 under a closed loop of [`CLIENTS`] client threads, each
//! with at most one open connection. One sample is one fixed batch of
//! operations in a fresh child process (cold compile cache).

use crate::grids::{row_fields, Reference, Workload};
use crate::util::{cpu_seconds, median, ms_since, num_list, peak_rss_mb, Rng};
use driver::job::GridSource;
use driver::json::{self, Json};
use driver::{run_sweep, ScenarioSpec};
use service::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
/// How long a response may stall before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Servers bound (and answered once) per sample; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// POST a fresh one-scenario job, stream its events, fetch the artifact.
    Write,
    /// Re-POST the scenario of an earlier write with it as `baseline_job`.
    Resubmit,
    /// GET the artifact of an earlier write.
    ReadArtifact,
    /// GET the diff of an earlier write against another.
    ReadDiff,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    /// Index into the scenario pool.
    scenario: usize,
    /// Earlier write ops this op refers to: `(subject, diff baseline)`.
    of: usize,
    baseline: usize,
}

/// The batch's operations: an even share of each [`Kind`] (no traffic
/// record of the service exists to weight them, so none is favoured) in a
/// seed-chosen order, writes cycling through a seed-chosen permutation of
/// the scenario pool, and every read or resubmit naming an earlier write.
fn make_ops(rng: &mut Rng, n: usize, pool: usize) -> Vec<Op> {
    let mut kinds = Vec::with_capacity(n);
    for kind in [Kind::Resubmit, Kind::ReadArtifact, Kind::ReadDiff] {
        kinds.extend(std::iter::repeat_n(kind, n / 4));
    }
    kinds.resize(n, Kind::Write);
    rng.shuffle(&mut kinds);
    let mut order: Vec<usize> = (0..pool).collect();
    rng.shuffle(&mut order);

    let mut writes: Vec<usize> = Vec::new();
    let mut ops: Vec<Op> = Vec::with_capacity(n);
    for (i, mut kind) in kinds.into_iter().enumerate() {
        if writes.is_empty() {
            kind = Kind::Write;
        }
        let mut op = Op {
            kind,
            scenario: order[writes.len() % pool],
            of: i,
            baseline: i,
        };
        if kind == Kind::Write {
            writes.push(i);
        } else {
            op.of = writes[rng.below(writes.len())];
            op.scenario = ops[op.of].scenario;
            let same: Vec<usize> = writes
                .iter()
                .copied()
                .filter(|&w| w != op.of && ops[w].scenario == op.scenario)
                .collect();
            op.baseline = if same.is_empty() {
                writes[rng.below(writes.len())]
            } else {
                same[rng.below(same.len())]
            };
        }
        ops.push(op);
    }
    ops
}

/// One HTTP exchange over a fresh connection (`Connection: close`).
struct Reply {
    status: u16,
    body: Vec<u8>,
    /// Connect started → first response byte.
    connect_ms: f64,
    /// When `marker` first appeared in the response, if asked for.
    marker_at: Option<Instant>,
    done_at: Instant,
}

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    marker: &[u8],
) -> Result<Reply, String> {
    let t = Instant::now();
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("{method} {path}: connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    // A stuck server fails the request instead of hanging the run.
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("{method} {path}: write: {e}"))?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let mut first_byte = None;
    let mut marker_at = None;
    loop {
        let n = stream
            .read(&mut buf)
            .map_err(|e| format!("{method} {path}: read: {e}"))?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(Instant::now);
        raw.extend_from_slice(&buf[..n]);
        if marker_at.is_none()
            && !marker.is_empty()
            && raw.windows(marker.len()).any(|w| w == marker)
        {
            marker_at = Some(Instant::now());
        }
    }
    let done_at = Instant::now();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no response head"))?;
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let rest = &raw[split + 4..];
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(rest).ok_or_else(|| format!("{method} {path}: bad chunked framing"))?
    } else {
        rest.to_vec()
    };
    Ok(Reply {
        status,
        body,
        connect_ms: first_byte.map_or(0.0, |f| (f - t).as_secs_f64() * 1e3),
        marker_at,
        done_at,
    })
}

fn dechunk(mut raw: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let eol = raw.windows(2).position(|w| w == b"\r\n")?;
        let size = usize::from_str_radix(std::str::from_utf8(&raw[..eol]).ok()?.trim(), 16).ok()?;
        raw = &raw[eol + 2..];
        if size == 0 {
            return Some(out);
        }
        out.extend_from_slice(raw.get(..size)?);
        raw = raw.get(size + 2..)?;
    }
}

/// What one operation produced.
#[derive(Default)]
struct OpRecord {
    /// Writes and resubmits: POST sent → artifact bytes in hand.
    job_ms: Option<f64>,
    /// Reads: the GET's duration.
    fetch_ms: Option<f64>,
    failure: Option<String>,
    rejected: bool,
    http_error: bool,
    /// `(scenario, served artifact bytes)` to check against the reference.
    artifact: Option<(usize, Vec<u8>)>,
    connect_ms: Vec<f64>,
    submit_ms: Option<f64>,
    queue_wait_ms: Option<f64>,
    stream_ms: Option<f64>,
    job_wall_ms: Option<f64>,
}

impl OpRecord {
    /// Classify a non-2xx answer (or transport error) as this op's failure.
    fn fail(&mut self, what: &str, reply: Result<&Reply, &String>) {
        let why = match reply {
            Ok(r) => {
                if r.status == 503 {
                    self.rejected = true;
                } else {
                    self.http_error = true;
                }
                format!(
                    "{what}: HTTP {} {}",
                    r.status,
                    String::from_utf8_lossy(&r.body).trim()
                )
            }
            Err(e) => {
                self.http_error = true;
                e.clone()
            }
        };
        self.failure.get_or_insert(why);
    }
}

fn scenario_json(spec: &ScenarioSpec) -> String {
    json::write_json_compact(&Json::Obj(vec![
        ("workload".into(), Json::Str(spec.workload.clone())),
        ("size".into(), Json::Str(spec.size.id().into())),
        ("np".into(), Json::Int(spec.np as i64)),
        ("model".into(), Json::Str(spec.model.id())),
        ("variant".into(), Json::Str(spec.variant.id().into())),
    ]))
}

/// Job ids of finished writes, by op index; resubmits and reads of a
/// write still in flight on the other client wait for it here.
struct Finished {
    ids: Mutex<BTreeMap<usize, u64>>,
    cv: Condvar,
}

impl Finished {
    fn wait(&self, op: usize) -> Option<u64> {
        let mut ids = self.ids.lock().expect("no client panics holding it");
        loop {
            match ids.get(&op) {
                Some(&id) => return (id != u64::MAX).then_some(id),
                None => ids = self.cv.wait(ids).expect("no client panics holding it"),
            }
        }
    }

    /// Record a write's job id (`None`: it failed, so waiters give up).
    fn set(&self, op: usize, id: Option<u64>) {
        self.ids
            .lock()
            .expect("no client panics holding it")
            .insert(op, id.unwrap_or(u64::MAX));
        self.cv.notify_all();
    }
}

/// POST one job and follow it to its artifact.
fn run_job(
    addr: SocketAddr,
    spec: &ScenarioSpec,
    scenario: usize,
    baseline: Option<u64>,
    traced: bool,
) -> (OpRecord, Option<u64>) {
    let mut rec = OpRecord::default();
    let body = match baseline {
        None => format!("{{\"scenario\":{}}}", scenario_json(spec)),
        Some(b) => format!(
            "{{\"scenario\":{},\"baseline_job\":{b}}}",
            scenario_json(spec)
        ),
    };
    let t = Instant::now();
    let post = http(addr, "POST", "/jobs", &body, b"");
    let id = match &post {
        Ok(r) if r.status == 202 => json::parse_json_bytes(&r.body)
            .ok()
            .and_then(|d| d.get("id").and_then(Json::as_u64)),
        _ => None,
    };
    let Some(id) = id else {
        rec.fail("POST /jobs", post.as_ref());
        return (rec, None);
    };
    let post = post.expect("checked above");
    rec.connect_ms.push(post.connect_ms);
    rec.submit_ms = Some((post.done_at - t).as_secs_f64() * 1e3);

    let t_events = Instant::now();
    let events = http(
        addr,
        "GET",
        &format!("/jobs/{id}/events"),
        "",
        b"\"scenario-started\"",
    );
    match &events {
        Ok(r) if r.status == 200 => {
            rec.connect_ms.push(r.connect_ms);
            rec.stream_ms = Some(ms_since(t_events));
            rec.queue_wait_ms = r.marker_at.map(|m| (m - post.done_at).as_secs_f64() * 1e3);
            let text = String::from_utf8_lossy(&r.body);
            let end = text.lines().last().and_then(|l| json::parse_json(l).ok());
            let state = end
                .as_ref()
                .and_then(|e| e.get("state"))
                .and_then(Json::as_str);
            if state != Some("done") {
                rec.failure = Some(format!("job {id} ended `{}`", state.unwrap_or("?")));
                return (rec, None);
            }
        }
        _ => {
            rec.fail("GET events", events.as_ref());
            return (rec, None);
        }
    }
    let artifact = http(addr, "GET", &format!("/jobs/{id}/artifact"), "", b"");
    match artifact {
        Ok(r) if r.status == 200 => {
            rec.job_ms = Some(ms_since(t));
            rec.connect_ms.push(r.connect_ms);
            rec.artifact = Some((scenario, r.body));
        }
        other => {
            rec.fail("GET artifact", other.as_ref());
            return (rec, None);
        }
    }
    if traced {
        let status = http(addr, "GET", &format!("/jobs/{id}"), "", b"");
        match &status {
            Ok(r) if r.status == 200 => {
                rec.connect_ms.push(r.connect_ms);
                rec.job_wall_ms = json::parse_json_bytes(&r.body)
                    .ok()
                    .and_then(|d| d.get("wall_ms").and_then(Json::as_f64));
            }
            _ => rec.fail("GET job", status.as_ref()),
        }
    }
    (rec, Some(id))
}

fn run_op(
    addr: SocketAddr,
    pool: &[ScenarioSpec],
    ops: &[Op],
    i: usize,
    finished: &Finished,
    traced: bool,
) -> OpRecord {
    let op = ops[i];
    let spec = &pool[op.scenario];
    match op.kind {
        Kind::Write => {
            let (rec, id) = run_job(addr, spec, op.scenario, None, traced);
            finished.set(i, id);
            rec
        }
        Kind::Resubmit => match finished.wait(op.of) {
            Some(base) => run_job(addr, spec, op.scenario, Some(base), traced).0,
            None => OpRecord {
                failure: Some(format!("op {i}: its baseline write failed")),
                ..OpRecord::default()
            },
        },
        Kind::ReadArtifact | Kind::ReadDiff => {
            let (Some(id), Some(base)) = (finished.wait(op.of), finished.wait(op.baseline)) else {
                return OpRecord {
                    failure: Some(format!("op {i}: the write it reads failed")),
                    ..OpRecord::default()
                };
            };
            let path = if op.kind == Kind::ReadArtifact {
                format!("/jobs/{id}/artifact")
            } else {
                format!("/jobs/{id}/diff?baseline={base}")
            };
            let t = Instant::now();
            let mut rec = OpRecord::default();
            match http(addr, "GET", &path, "", b"") {
                Ok(r) if r.status == 200 => {
                    rec.fetch_ms = Some(ms_since(t));
                    rec.connect_ms.push(r.connect_ms);
                    if op.kind == Kind::ReadArtifact {
                        rec.artifact = Some((op.scenario, r.body));
                    } else {
                        let doc = json::parse_json_bytes(&r.body).ok();
                        let regressed = doc.as_ref().and_then(|d| d.get("has_regressions"));
                        let same = ops[op.baseline].scenario == op.scenario;
                        // Two runs of one scenario must diff clean.
                        if regressed.is_none() || (same && regressed != Some(&Json::Bool(false))) {
                            rec.failure = Some(format!("GET {path}: unexpected diff body"));
                        }
                    }
                }
                other => rec.fail(&format!("GET {path}"), other.as_ref()),
            }
            rec
        }
    }
}

/// The artifact `driver::json` renders for `spec` run in-process, and
/// how long the render took.
fn reference_artifact(spec: &ScenarioSpec) -> (String, f64) {
    let grid = GridSource::Scenario(Box::new(spec.clone()))
        .resolve()
        .expect("a one-scenario grid resolves");
    let result = run_sweep(&grid, 1).normalized();
    let t = Instant::now();
    let bytes = json::to_json_string(&result);
    (bytes, ms_since(t))
}

/// A server bound on an ephemeral port, its accept loop on a thread.
struct Running {
    addr: SocketAddr,
    handle: service::ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let server = Server::bind(&ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            handle,
            thread,
        })
    }

    /// Drain and stop the server; its accept loop's error, if any.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Check that a served artifact is the one row of `spec` and that the
/// row matches its reference; the row's virtual time (original plus
/// pre-push) if it does, why not if it does not.
fn check_artifact(reference: &Reference, spec: &ScenarioSpec, bytes: &[u8]) -> Result<u64, String> {
    let result = json::from_json_bytes(bytes)
        .map_err(|e| format!("artifact of `{}` does not parse: {e}", spec.key()))?;
    match &result.records[..] {
        [r] if r.spec.key() == spec.key() => match reference.check_row(&spec.key(), &row_fields(r))
        {
            None => Ok(r.orig_ns.unwrap_or(0) + r.prepush_ns.unwrap_or(0)),
            Some(why) => Err(why),
        },
        rows => Err(format!(
            "artifact of `{}` holds {} rows, not its one scenario",
            spec.key(),
            rows.len()
        )),
    }
}

/// One sample: set-up repetitions, then the closed-loop batch, then the
/// check of every served artifact against the committed reference rows
/// and, byte for byte, against the in-process render.
pub fn sample(seed: u64, index: u64, batch: usize, traced: bool) -> Json {
    let pool = Workload::Service.specs();
    let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(index));
    let ops = make_ops(&mut rng, batch, pool.len());
    let mut failures: Vec<String> = Vec::new();
    let cache_before = driver::cache::global().stats();

    // Set-up: bind → first job served (its artifact in hand), several
    // times. The first jobs are the same in every sample, whatever the
    // seed: scenarios spread evenly over the pool's canonical order, each
    // of another workload, so no set-up finds its shapes compiled. Each
    // runs to its end before the server stops, so compile-cache counts do
    // not depend on drain timing.
    let mut setup_s = Vec::new();
    let mut live = None;
    let firsts: Vec<usize> = (0..SETUP_REPS)
        .map(|i| i * pool.len() / SETUP_REPS)
        .collect();
    for (rep, &scenario) in firsts.iter().enumerate() {
        let t = Instant::now();
        let server = match Running::start() {
            Ok(s) => s,
            Err(e) => {
                failures.push(e);
                break;
            }
        };
        let (rec, _) = run_job(server.addr, &pool[scenario], scenario, None, false);
        match rec.failure {
            None => setup_s.push(t.elapsed().as_secs_f64()),
            Some(why) => failures.push(format!("set-up: {why}")),
        }
        if rep + 1 == SETUP_REPS {
            live = Some(server);
        } else if let Err(e) = server.stop() {
            failures.push(e);
        }
    }
    let Some(server) = live else {
        return Json::Obj(vec![
            ("attempted".into(), Json::Int(SETUP_REPS as i64)),
            ("failed".into(), Json::Int(failures.len() as i64)),
            (
                "failures".into(),
                Json::Arr(failures.into_iter().map(Json::Str).collect()),
            ),
        ]);
    };

    // The closed loop.
    let finished = Finished {
        ids: Mutex::new(BTreeMap::new()),
        cv: Condvar::new(),
    };
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<OpRecord>> = Mutex::new(Vec::with_capacity(ops.len()));
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ops.len() {
                    break;
                }
                let rec = run_op(server.addr, &pool, &ops, i, &finished, traced);
                records
                    .lock()
                    .expect("no client panics holding it")
                    .push(rec);
            });
        }
    });
    let batch_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    if let Err(e) = server.stop() {
        failures.push(e);
    }
    let cache = driver::cache::global().stats().since(&cache_before);
    let records = records.into_inner().expect("clients joined");
    // Every scenario of the pool is written, so a cold process compiles
    // each of its shapes exactly once.
    if cache.misses != Workload::Service.compile_shapes() {
        failures.push(format!(
            "cold-cache guard: the sample compiled {} shapes, want {}",
            cache.misses,
            Workload::Service.compile_shapes()
        ));
    }

    // Correctness: every served artifact holds its scenario's reference
    // row and equals the in-process render byte for byte.
    let reference = Reference::load(Workload::Service);
    let mut references: BTreeMap<usize, (String, f64)> = BTreeMap::new();
    let mut virtual_ns: BTreeMap<usize, u64> = BTreeMap::new();
    let mut failed = failures.len();
    for rec in &records {
        let mut why = rec.failure.clone();
        if let Some((scenario, bytes)) = &rec.artifact {
            let spec = &pool[*scenario];
            let (want, _) = references
                .entry(*scenario)
                .or_insert_with(|| reference_artifact(spec));
            if bytes != want.as_bytes() {
                why.get_or_insert(format!(
                    "artifact of `{}` differs from the in-process render",
                    spec.key()
                ));
            }
            match check_artifact(&reference, spec, bytes) {
                Ok(ns) => {
                    virtual_ns.insert(*scenario, ns);
                }
                Err(w) => {
                    why.get_or_insert(w);
                }
            }
        }
        if let Some(w) = why {
            failed += 1;
            failures.push(w);
        }
    }
    let render_ms: Vec<f64> = references.values().map(|(_, ms)| *ms).collect();

    let pick =
        |f: fn(&OpRecord) -> Option<f64>| -> Vec<f64> { records.iter().filter_map(f).collect() };
    let connect: Vec<f64> = records
        .iter()
        .flat_map(|r| r.connect_ms.iter().copied())
        .collect();
    let job_ms = pick(|r| r.job_ms);
    let overhead: Vec<f64> = records
        .iter()
        .filter_map(|r| Some(r.job_ms? - r.job_wall_ms?))
        .collect();
    let failures_json = Json::Arr(failures.iter().take(20).cloned().map(Json::Str).collect());
    Json::Obj(vec![
        ("setup_s".into(), num_list(&setup_s)),
        ("sweep_s".into(), Json::Float(batch_s)),
        ("cpu_s".into(), Json::Float(cpu_s)),
        ("peak_rss_mb".into(), Json::Float(peak_rss_mb())),
        ("jobs".into(), Json::Int(job_ms.len() as i64)),
        ("job_ms".into(), num_list(&job_ms)),
        ("fetch_ms".into(), num_list(&pick(|r| r.fetch_ms))),
        (
            // Operations, set-up jobs, server stops, and the cache guard.
            "attempted".into(),
            Json::Int((records.len() + 2 * SETUP_REPS + 1) as i64),
        ),
        ("failed".into(), Json::Int(failed as i64)),
        ("failures".into(), failures_json),
        ("cache_hits".into(), Json::Int(cache.hits as i64)),
        ("cache_misses".into(), Json::Int(cache.misses as i64)),
        (
            "pool_high_water".into(),
            Json::Int(clustersim::pool::stats().workers_high_water as i64),
        ),
        (
            "rejected".into(),
            Json::Int(records.iter().filter(|r| r.rejected).count() as i64),
        ),
        (
            "http_errors".into(),
            Json::Int(records.iter().filter(|r| r.http_error).count() as i64),
        ),
        ("render_ms".into(), Json::Float(median(&render_ms))),
        ("connect_ms".into(), Json::Float(median(&connect))),
        (
            "submit_ms".into(),
            Json::Float(median(&pick(|r| r.submit_ms))),
        ),
        (
            "queue_wait_ms".into(),
            Json::Float(median(&pick(|r| r.queue_wait_ms))),
        ),
        (
            "stream_ms".into(),
            Json::Float(median(&pick(|r| r.stream_ms))),
        ),
        (
            "job_wall_ms".into(),
            Json::Float(median(&pick(|r| r.job_wall_ms))),
        ),
        ("overhead_ms".into(), Json::Float(median(&overhead))),
        // Summed once per scenario served: with every scenario of the
        // pool written, the pool's total virtual time.
        (
            "virtual_ns".into(),
            Json::Int(virtual_ns.values().sum::<u64>() as i64),
        ),
    ])
}
