//! # service — sweeps over HTTP (`sweepd`)
//!
//! A dependency-free HTTP/1.1 front end over [`driver::JobCore`], built
//! on `std::net` and `driver::json`. Start it with
//! `cargo run --release -p overlap-service --bin sweepd`, then:
//!
//! | endpoint                        | meaning                                   |
//! |---------------------------------|-------------------------------------------|
//! | `POST /jobs`                    | submit a sweep (202, or 503 + Retry-After)|
//! | `GET /jobs/:id`                 | job state + live progress counters        |
//! | `GET /jobs/:id/events`          | chunked stream of progress events         |
//! | `GET /jobs/:id/artifact`        | the canonical `BENCH` JSON (when done)    |
//! | `GET /jobs/:id/diff?baseline=N` | virtual-time diff of two done jobs        |
//!
//! The request body of `POST /jobs` is a JSON object with exactly one
//! grid source — `"grid_file"` (a `scenarios/*.toml` path, resolved
//! server-side), `"grid_toml"` (inline scenario-file text), or
//! `"scenario"` (one explicit scenario object) — plus optional
//! `"threads"` and `"baseline_job"` (a completed job id whose rows an
//! incremental run may reuse).
//!
//! **The invariant this crate must never break:** serving sweeps can
//! change *wall-clock* numbers, never a *simulated* byte. The artifact
//! answered by `/jobs/:id/artifact` is the very string the job core
//! computed from the normalized result — the same bytes `harness quick`
//! writes to `BENCH_sweep.json` (enforced with `cmp` in
//! `scripts/verify.sh` and byte-equality in `tests/sweep_service.rs`).
//!
//! Shutdown ([`ServerHandle::shutdown`], or SIGTERM/SIGINT in `sweepd`)
//! drains: queued jobs are cancelled, the running job finishes, new
//! submissions get 503, event streams run to their terminal event, and
//! only then does [`Server::run`] return.
//!
//! The accept loop never polls: it blocks in `accept` and is woken by a
//! throwaway connection to its own address — once by
//! [`ServerHandle::shutdown`], and once more when the drain completes.
//! A request therefore waits for no timer between connect and dispatch.
//!
//! `grid_file` is confined to the `scenarios/` directory of the server's
//! working directory: a path that does not resolve to a file inside it
//! is refused with a 400 before anything reads it.

pub mod http;

use driver::job::{GridSource, JobCore, JobId, JobSpec, JobState, JobStatus, SubmitError};
use driver::json::{self, Json};
use driver::spec::{ModelSpec, ScenarioSpec, SizeClass, Variant};
use http::{HttpError, Request};
use std::io::{self, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection may take to deliver its request.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause after a failed `accept` (such as EMFILE) before retrying. The
/// accept loop's only sleep; a successful accept never waits.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);
/// `Retry-After` seconds for a connection refused because the OS would
/// not start its handler thread.
const SPAWN_RETRY_AFTER_S: u64 = 1;
/// The directory, relative to the server's working directory, that
/// every `grid_file` must lie under.
const SCENARIOS_DIR: &str = "scenarios";

#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Max *queued* jobs before `POST /jobs` answers 503.
    pub queue_capacity: usize,
    /// Default worker threads per job (0 = one per core).
    pub default_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 8,
            default_threads: 0,
        }
    }
}

/// A handle for asking a running [`Server`] to drain and stop, safe to
/// move into a signal-watcher thread.
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    /// Where a connection reaches the listener (see [`wake_addr`]).
    wake: SocketAddr,
}

impl ServerHandle {
    /// Ask the server to drain and stop. Sets the shutdown flag, then
    /// makes one throwaway connection to the listener so the accept loop,
    /// blocked in `accept`, wakes and sees the flag without waiting for
    /// client traffic. Returns at once; [`Server::run`] returns when the
    /// drain is complete.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake(self.wake);
    }
}

/// Unblock an `accept` on `addr`: connect and hang up at once. The
/// connection is dispatched like any other; its handler reads EOF and
/// returns.
fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// The address a connection to a listener bound at `bound` should use:
/// the bound address itself, except that an unspecified one (`0.0.0.0`,
/// `::`) becomes the loopback address of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// The bound-but-not-yet-serving server. [`Server::run`] consumes it
/// and blocks until a shutdown request has fully drained.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    wake: SocketAddr,
}

struct Service {
    core: JobCore,
    default_threads: usize,
}

impl Server {
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let wake = wake_addr(listener.local_addr()?);
        Ok(Server {
            listener,
            service: Arc::new(Service {
                core: JobCore::new(config.queue_capacity),
                default_threads: config.default_threads,
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
            wake,
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            wake: self.wake,
        }
    }

    /// Accept loop. Blocks in `accept` and hands each connection to its
    /// own handler thread. The first wake after [`ServerHandle::shutdown`]
    /// starts the job core's drain and a waiter thread that joins the
    /// core, then wakes the loop once more; that wake ends the loop.
    /// Until then the loop keeps accepting, so late submitters get an
    /// orderly 503 instead of a refused socket. Handlers (event streams
    /// included) are joined before `run` returns.
    pub fn run(self) -> io::Result<()> {
        let drained = Arc::new(AtomicBool::new(false));
        let mut waiter: Option<JoinHandle<()>> = None;
        let mut draining = false;
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted = self.listener.accept();
            if !draining && self.shutdown.load(Ordering::SeqCst) {
                draining = true;
                self.service.core.shutdown();
                let service = Arc::clone(&self.service);
                let done = Arc::clone(&drained);
                let addr = self.wake;
                let spawned = std::thread::Builder::new()
                    .name("sweepd-drain".into())
                    .spawn(move || {
                        service.core.join();
                        done.store(true, Ordering::SeqCst);
                        wake(addr);
                    });
                match spawned {
                    Ok(h) => waiter = Some(h),
                    // No thread to wait on: drain here instead (late
                    // submitters then sit in the backlog, not get a 503).
                    Err(_) => {
                        self.service.core.join();
                        drained.store(true, Ordering::SeqCst);
                    }
                }
            }
            match accepted {
                Ok((stream, _peer)) => {
                    handlers.extend(dispatch(stream, &self.service, spawn_handler));
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
            if drained.load(Ordering::SeqCst) {
                break;
            }
            // Dropping a finished handle just detaches an already-dead
            // thread; unfinished ones are joined after the loop.
            handlers.retain(|h| !h.is_finished());
        }
        if let Some(h) = waiter {
            let _ = h.join();
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// A connection's handler, as [`dispatch`] hands it to a thread spawner.
type Handler = Box<dyn FnOnce() + Send>;

fn spawn_handler(handler: Handler) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().spawn(handler)
}

/// Hand an accepted connection to a handler thread made by `spawn`. If
/// the OS refuses the thread, answer `503` with `Retry-After` from the
/// calling (accept) thread and drop the connection; the server keeps
/// serving. Returns the handler's join handle, if it started.
fn dispatch(
    stream: TcpStream,
    service: &Arc<Service>,
    spawn: impl FnOnce(Handler) -> io::Result<JoinHandle<()>>,
) -> Option<JoinHandle<()>> {
    // A second handle on the socket: a refused spawn drops the handler,
    // and the stream with it, before this thread could answer on it.
    let fallback = stream.try_clone();
    let service = Arc::clone(service);
    match spawn(Box::new(move || handle_connection(stream, &service))) {
        Ok(handle) => Some(handle),
        Err(e) => {
            if let Ok(mut stream) = fallback {
                respond_retry(
                    &mut stream,
                    &format!("cannot start a connection handler: {e}"),
                    SPAWN_RETRY_AFTER_S,
                );
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            None
        }
    }
}

fn error_body(message: &str) -> Vec<u8> {
    json::write_json(&Json::Obj(vec![(
        "error".into(),
        Json::Str(message.into()),
    )]))
    .into_bytes()
}

fn respond(stream: &mut TcpStream, status: u16, reason: &'static str, body: &Json) {
    let bytes = json::write_json(body).into_bytes();
    let _ = stream.write_all(&http::response(status, reason, "application/json", &[], &bytes));
}

/// A `503 Service Unavailable` whose `Retry-After` header and
/// `retry_after_s` body field tell the client when to try again.
fn respond_retry(stream: &mut TcpStream, message: &str, retry_after_s: u64) {
    let body = Json::Obj(vec![
        ("error".into(), Json::Str(message.into())),
        ("retry_after_s".into(), Json::Int(retry_after_s as i64)),
    ]);
    let bytes = json::write_json(&body).into_bytes();
    let _ = stream.write_all(&http::response(
        503,
        "Service Unavailable",
        "application/json",
        &[("Retry-After".to_string(), retry_after_s.to_string())],
        &bytes,
    ));
}

fn handle_connection(mut stream: TcpStream, service: &Service) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let parsed = http::parse_request(&mut BufReader::new(&stream));
    match parsed {
        Ok(req) => route(service, &req, &mut stream),
        Err(HttpError::Closed) => {}
        Err(e) => {
            let (status, reason) = e.status();
            let _ = stream.write_all(&http::response(
                status,
                reason,
                "application/json",
                &[],
                &error_body(&e.message()),
            ));
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// `/jobs/:id[/verb]` → `(id, verb)`.
fn job_route(path: &str) -> Option<(JobId, Option<&str>)> {
    let rest = path.strip_prefix("/jobs/")?;
    let (id_str, verb) = match rest.split_once('/') {
        Some((id, verb)) => (id, Some(verb)),
        None => (rest, None),
    };
    let id: JobId = id_str.parse().ok()?;
    Some((id, verb))
}

fn route(service: &Service, req: &Request, stream: &mut TcpStream) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => post_job(service, req, stream),
        (_, "/jobs") => {
            respond(stream, 405, "Method Not Allowed", &Json::Obj(vec![(
                "error".into(),
                Json::Str("use POST /jobs or GET /jobs/:id".into()),
            )]));
        }
        ("GET", _) => match job_route(&req.path) {
            Some((id, None)) => get_job(service, id, stream),
            Some((id, Some("events"))) => get_events(service, id, stream),
            Some((id, Some("artifact"))) => get_artifact(service, id, stream),
            Some((id, Some("diff"))) => get_diff(service, id, req, stream),
            _ => respond(stream, 404, "Not Found", &Json::Obj(vec![(
                "error".into(),
                Json::Str(format!("no route for GET {}", req.path)),
            )])),
        },
        (method, path) => respond(stream, 404, "Not Found", &Json::Obj(vec![(
            "error".into(),
            Json::Str(format!("no route for {method} {path}")),
        )])),
    }
}

/// Parse the `"scenario"` object of a submission.
fn scenario_from_json(v: &Json) -> Result<ScenarioSpec, String> {
    if !matches!(v, Json::Obj(_)) {
        return Err("`scenario` must be an object".into());
    }
    let workload = v
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("`scenario.workload` must be a string")?
        .to_string();
    let np = v
        .get("np")
        .and_then(Json::as_u64)
        .ok_or("`scenario.np` must be a non-negative integer")? as usize;
    if np < 2 {
        return Err("`scenario.np` must be at least 2".into());
    }
    let size = match v.get("size") {
        None => SizeClass::Small,
        Some(j) => {
            let s = j.as_str().ok_or("`scenario.size` must be a string")?;
            SizeClass::parse(s)
                .ok_or_else(|| format!("bad `scenario.size` `{s}` (small, medium, standard)"))?
        }
    };
    let model_str = v
        .get("model")
        .and_then(Json::as_str)
        .ok_or("`scenario.model` must be a string")?;
    let model = ModelSpec::parse(model_str).map_err(|e| format!("`scenario.model`: {e}"))?;
    let tile_size = match v.get("tile_size") {
        None | Some(Json::Null) => None,
        Some(j) => Some(
            j.as_u64()
                .ok_or("`scenario.tile_size` must be a positive integer or null")?
                as i64,
        ),
    };
    let variant = match v.get("variant") {
        None => Variant::Compare,
        Some(j) => {
            let s = j.as_str().ok_or("`scenario.variant` must be a string")?;
            Variant::parse(s)
                .ok_or_else(|| format!("bad `scenario.variant` `{s}` (compare, original, prepush)"))?
        }
    };
    Ok(ScenarioSpec {
        workload,
        size,
        np,
        model,
        tile_size,
        variant,
    })
}

/// Check that a submitted `grid_file` resolves, symlinks and `..`
/// included, to a file inside `root` (in the service, [`SCENARIOS_DIR`]
/// of the working directory). Nothing is read, so the error, which names
/// the rule and echoes only the submitted path, can carry no file
/// content; it is the same whether the path is missing or outside.
fn confine_grid_file(root: &Path, path: &str) -> Result<(), String> {
    let inside = match (std::fs::canonicalize(root), std::fs::canonicalize(path)) {
        (Ok(root), Ok(file)) => file.starts_with(&root) && file.is_file(),
        _ => false,
    };
    if inside {
        Ok(())
    } else {
        Err(format!(
            "`grid_file` must name an existing file under {}/ of the server's \
             working directory; `{path}` does not",
            root.display()
        ))
    }
}

fn post_job(service: &Service, req: &Request, stream: &mut TcpStream) {
    let doc = match json::parse_json_bytes(&req.body) {
        Ok(doc) => doc,
        Err(e) => {
            let _ = stream.write_all(&http::response(
                400,
                "Bad Request",
                "application/json",
                &[],
                &error_body(&format!("request body is not valid JSON: {e}")),
            ));
            return;
        }
    };
    let mut sources: Vec<GridSource> = Vec::new();
    if let Some(p) = doc.get("grid_file").and_then(Json::as_str) {
        if let Err(e) = confine_grid_file(Path::new(SCENARIOS_DIR), p) {
            let _ = stream.write_all(&http::response(
                400,
                "Bad Request",
                "application/json",
                &[],
                &error_body(&e),
            ));
            return;
        }
        sources.push(GridSource::GridFile(p.to_string()));
    }
    if let Some(t) = doc.get("grid_toml").and_then(Json::as_str) {
        sources.push(GridSource::GridToml(t.to_string()));
    }
    if let Some(s) = doc.get("scenario") {
        match scenario_from_json(s) {
            Ok(spec) => sources.push(GridSource::Scenario(Box::new(spec))),
            Err(e) => {
                let _ = stream.write_all(&http::response(
                    400,
                    "Bad Request",
                    "application/json",
                    &[],
                    &error_body(&e),
                ));
                return;
            }
        }
    }
    if sources.len() != 1 {
        let _ = stream.write_all(&http::response(
            400,
            "Bad Request",
            "application/json",
            &[],
            &error_body(
                "give exactly one of `grid_file`, `grid_toml`, or `scenario`",
            ),
        ));
        return;
    }
    let threads = match doc.get("threads") {
        None => service.default_threads,
        Some(j) => match j.as_u64() {
            Some(t) => t as usize,
            None => {
                let _ = stream.write_all(&http::response(
                    400,
                    "Bad Request",
                    "application/json",
                    &[],
                    &error_body("`threads` must be a non-negative integer"),
                ));
                return;
            }
        },
    };
    let mut spec = JobSpec::new(sources.into_iter().next().expect("checked len")).threads(threads);
    if let Some(j) = doc.get("baseline_job") {
        let Some(bid) = j.as_u64() else {
            let _ = stream.write_all(&http::response(
                400,
                "Bad Request",
                "application/json",
                &[],
                &error_body("`baseline_job` must be a job id"),
            ));
            return;
        };
        match service.core.result(bid) {
            Some(result) => spec = spec.baseline(result),
            None => {
                let _ = stream.write_all(&http::response(
                    409,
                    "Conflict",
                    "application/json",
                    &[],
                    &error_body(&format!(
                        "`baseline_job` {bid} has no completed result"
                    )),
                ));
                return;
            }
        }
    }
    match service.core.submit(spec) {
        Ok(id) => {
            let body = Json::Obj(vec![
                ("id".into(), Json::Int(id as i64)),
                ("state".into(), Json::Str("queued".into())),
            ]);
            respond(stream, 202, "Accepted", &body);
        }
        Err(SubmitError::QueueFull {
            capacity,
            retry_after_s,
        }) => respond_retry(
            stream,
            &format!("job queue full ({capacity} queued)"),
            retry_after_s,
        ),
        Err(SubmitError::ShuttingDown) => {
            let _ = stream.write_all(&http::response(
                503,
                "Service Unavailable",
                "application/json",
                &[],
                &error_body("shutting down; not accepting jobs"),
            ));
        }
        Err(SubmitError::Invalid(msg)) => {
            let _ = stream.write_all(&http::response(
                400,
                "Bad Request",
                "application/json",
                &[],
                &error_body(&msg),
            ));
        }
    }
}

fn status_json(s: &JobStatus) -> Json {
    let mut fields = vec![
        ("id".into(), Json::Int(s.id as i64)),
        ("state".into(), Json::Str(s.state.id().into())),
    ];
    if let JobState::Failed(msg) = &s.state {
        fields.push(("error".into(), Json::Str(msg.clone())));
    }
    fields.extend([
        ("scenarios".into(), Json::Int(s.scenarios as i64)),
        ("finished".into(), Json::Int(s.finished as i64)),
        ("ok".into(), Json::Int(s.ok as i64)),
        ("errors".into(), Json::Int(s.errors as i64)),
        ("reused".into(), Json::Int(s.reused as i64)),
        ("events".into(), Json::Int(s.events as i64)),
        ("wall_ms".into(), Json::Float(s.wall_ms)),
        ("cache_hits".into(), Json::Int(s.cache_hits as i64)),
        ("cache_misses".into(), Json::Int(s.cache_misses as i64)),
    ]);
    Json::Obj(fields)
}

fn get_job(service: &Service, id: JobId, stream: &mut TcpStream) {
    match service.core.status(id) {
        Some(status) => respond(stream, 200, "OK", &status_json(&status)),
        None => respond(stream, 404, "Not Found", &Json::Obj(vec![(
            "error".into(),
            Json::Str(format!("no such job {id}")),
        )])),
    }
}

/// Stream the job's event log as newline-delimited compact JSON in a
/// chunked response, following the live log until the job is terminal.
fn get_events(service: &Service, id: JobId, stream: &mut TcpStream) {
    if service.core.status(id).is_none() {
        respond(stream, 404, "Not Found", &Json::Obj(vec![(
            "error".into(),
            Json::Str(format!("no such job {id}")),
        )]));
        return;
    }
    if stream.write_all(&http::chunked_head(200, "OK", "application/x-ndjson")).is_err() {
        return;
    }
    let mut from = 0usize;
    while let Some((events, terminal)) =
        service.core.events_since(id, from, Duration::from_millis(250))
    {
        let mut payload = String::new();
        for ev in &events {
            payload.push_str(&json::write_json_compact(&ev.to_json()));
            payload.push('\n');
        }
        from += events.len();
        if http::write_chunk(stream, payload.as_bytes()).is_err() {
            return; // client went away; nothing to clean up
        }
        if terminal && events.is_empty() {
            let state = service
                .core
                .status(id)
                .map(|s| s.state.id().to_string())
                .unwrap_or_else(|| "unknown".into());
            let end = json::write_json_compact(&Json::Obj(vec![
                ("event".into(), Json::Str("end".into())),
                ("state".into(), Json::Str(state)),
            ])) + "\n";
            if http::write_chunk(stream, end.as_bytes()).is_err() {
                return;
            }
            let _ = http::finish_chunked(stream);
            return;
        }
    }
}

fn get_artifact(service: &Service, id: JobId, stream: &mut TcpStream) {
    let Some(status) = service.core.status(id) else {
        respond(stream, 404, "Not Found", &Json::Obj(vec![(
            "error".into(),
            Json::Str(format!("no such job {id}")),
        )]));
        return;
    };
    match service.core.artifact(id) {
        Some(artifact) => {
            // The exact bytes the job core computed — byte-identical to
            // the file `harness` would have written for the same grid.
            let _ = stream.write_all(&http::response(
                200,
                "OK",
                "application/json",
                &[],
                artifact.as_bytes(),
            ));
        }
        None => {
            let body = Json::Obj(vec![
                (
                    "error".into(),
                    Json::Str(format!("job {id} has no artifact (state: {})", status.state.id())),
                ),
                ("state".into(), Json::Str(status.state.id().into())),
            ]);
            respond(stream, 409, "Conflict", &body);
        }
    }
}

fn get_diff(service: &Service, id: JobId, req: &Request, stream: &mut TcpStream) {
    let Some(baseline_id) = req.query_param("baseline").and_then(|v| v.parse::<JobId>().ok())
    else {
        respond(stream, 400, "Bad Request", &Json::Obj(vec![(
            "error".into(),
            Json::Str("diff needs `?baseline=<job id>`".into()),
        )]));
        return;
    };
    let tolerance = match req.query_param("tol") {
        None => 0.0,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => t,
            _ => {
                respond(stream, 400, "Bad Request", &Json::Obj(vec![(
                    "error".into(),
                    Json::Str(format!("bad `tol` `{v}`")),
                )]));
                return;
            }
        },
    };
    let fetch = |jid: JobId| -> Result<Arc<driver::SweepResult>, (u16, &'static str, String)> {
        match service.core.status(jid) {
            None => Err((404, "Not Found", format!("no such job {jid}"))),
            Some(s) => service.core.result(jid).ok_or((
                409,
                "Conflict",
                format!("job {jid} is not done (state: {})", s.state.id()),
            )),
        }
    };
    let (baseline, candidate) = match (fetch(baseline_id), fetch(id)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err((status, reason, msg)), _) | (_, Err((status, reason, msg))) => {
            let _ = stream.write_all(&http::response(
                status,
                reason,
                "application/json",
                &[],
                &error_body(&msg),
            ));
            return;
        }
    };
    let report = driver::diff(&baseline, &candidate, tolerance);
    let body = Json::Obj(vec![
        ("baseline".into(), Json::Int(baseline_id as i64)),
        ("candidate".into(), Json::Int(id as i64)),
        ("tolerance".into(), Json::Float(tolerance)),
        ("has_regressions".into(), Json::Bool(report.has_regressions())),
        ("report".into(), Json::Str(report.render())),
    ]);
    respond(stream, 200, "OK", &body);
}

/// SIGTERM/SIGINT latching for `sweepd`, with no libc crate: `std`
/// already links the platform libc, so declaring `signal(2)` is enough.
/// The handler only stores an `AtomicBool` (async-signal-safe); a
/// watcher thread turns the latch into a graceful [`ServerHandle`]
/// shutdown.
#[cfg(unix)]
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn latch(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Install the latch for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        let handler = latch as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(2, handler);
            signal(15, handler);
        }
    }

    /// Has a latched signal arrived?
    pub fn signaled() -> bool {
        SIGNALED.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn wake_addr_maps_unspecified_to_loopback_of_the_same_family() {
        let cases = [
            ("0.0.0.0:7071", "127.0.0.1:7071"),
            ("[::]:7071", "[::1]:7071"),
            ("127.0.0.1:80", "127.0.0.1:80"),
            ("10.1.2.3:9", "10.1.2.3:9"),
            ("[fe80::1]:9", "[fe80::1]:9"),
        ];
        for (bound, want) in cases {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(
                wake_addr(bound),
                want.parse::<SocketAddr>().unwrap(),
                "{bound}"
            );
        }
    }

    /// A connected pair: the client end and the server's accepted end.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        (client, server)
    }

    fn inert_service() -> Arc<Service> {
        Arc::new(Service {
            core: JobCore::new_inert(1),
            default_threads: 1,
        })
    }

    #[test]
    fn refused_handler_thread_gets_503_with_retry_after() {
        let service = inert_service();
        let (mut client, server) = socket_pair();
        let handle = dispatch(server, &service, |_handler| {
            Err(io::Error::new(io::ErrorKind::WouldBlock, "no threads left"))
        });
        assert!(handle.is_none(), "a refused spawn leaves nothing to join");
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 503 "), "{response}");
        assert!(
            response.contains(&format!("Retry-After: {SPAWN_RETRY_AFTER_S}\r\n")),
            "{response}"
        );
        assert!(response.contains("no threads left"), "{response}");

        // The next connection is dispatched normally.
        let (mut client, server) = socket_pair();
        let handle = dispatch(server, &service, spawn_handler).expect("handler started");
        client.write_all(b"GET /jobs/1 HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404 "), "{response}");
        handle.join().unwrap();
    }

    #[test]
    fn grid_file_must_resolve_inside_the_root() {
        let base = std::env::temp_dir().join(format!("sweepd-confine-{}", std::process::id()));
        let root = base.join("scenarios");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("ok.toml"), "inside").unwrap();
        std::fs::write(base.join("secret.toml"), "outside").unwrap();
        #[cfg(unix)]
        std::os::unix::fs::symlink(base.join("secret.toml"), root.join("link.toml")).unwrap();

        let at = |rel: &str| base.join(rel).to_string_lossy().into_owned();
        assert_eq!(confine_grid_file(&root, &at("scenarios/ok.toml")), Ok(()));
        let mut refused = vec![
            at("secret.toml"),
            at("scenarios/../secret.toml"),
            at("scenarios/missing.toml"),
            at("scenarios"),
            "/".to_string(),
        ];
        if cfg!(unix) {
            refused.push(at("scenarios/link.toml"));
        }
        for path in refused {
            let err = confine_grid_file(&root, &path).unwrap_err();
            assert!(
                err.contains("must name an existing file under"),
                "{path}: {err}"
            );
            assert!(
                !err.contains("outside") && !err.contains("inside"),
                "{path}: {err}"
            );
        }
        std::fs::remove_dir_all(&base).unwrap();
    }
}
