//! Shutdown needs no client traffic. The accept loop blocks in `accept`,
//! so nothing but `ServerHandle::shutdown`'s own wake (and the wake when
//! the drain completes) may end it: these tests send nothing the server
//! could mistake for a wake-up and assert that `Server::run` still
//! returns. The bounds are generous: they catch a loop that never wakes,
//! not a slow one.

use driver::job::GridSource;
use service::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// How long `run` may take to return once nothing is left to drain.
const RETURN_BOUND: Duration = Duration::from_secs(10);

/// A multi-scenario grid that runs for a few hundred milliseconds in a
/// debug build, so shutdown lands while it is still running.
const GRID: &str = "schema = \"overlap-grid/v1\"\n\n[grid]\n\
workloads = [\"direct\", \"direct2d\", \"fft\", \"adi\"]\nsize = \"medium\"\n\
nps = [2, 4]\nmodels = [\"mpich\", \"mpich-gm\"]\ntile_sizes = [\"auto\"]\n\
variants = [\"compare\"]\n";

/// Bind `addr` and run the server on a thread; the receiver gets `run`'s
/// result when it returns.
fn start(
    addr: &str,
) -> (
    SocketAddr,
    ServerHandle,
    mpsc::Receiver<std::io::Result<()>>,
) {
    let server = Server::bind(&ServerConfig {
        addr: addr.into(),
        queue_capacity: 2,
        default_threads: 1,
    })
    .expect("bind ephemeral port");
    let port = server.local_addr().unwrap().port();
    let handle = server.handle();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    (SocketAddr::from(([127, 0, 0, 1], port)), handle, rx)
}

fn assert_returns(finished: &mpsc::Receiver<std::io::Result<()>>) {
    match finished.recv_timeout(RETURN_BOUND) {
        Ok(result) => result.expect("run returned an error"),
        Err(_) => panic!("Server::run did not return within {RETURN_BOUND:?} of the drain"),
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    s
}

/// One request, read to close.
fn talk(addr: SocketAddr, request: &str) -> String {
    let mut s = connect(addr);
    s.write_all(request.as_bytes()).expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

fn post(addr: SocketAddr, body: &str) -> String {
    talk(
        addr,
        &format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn assert_status(response: &str, status: u16) {
    assert!(
        response.starts_with(&format!("HTTP/1.1 {status} ")),
        "expected {status}: {response}"
    );
}

fn assert_idle_shutdown(addr: &str) {
    let (_, handle, finished) = start(addr);
    // No request is ever sent. Whether or not the loop has reached
    // `accept` yet, only the wake-ups can end it.
    handle.shutdown();
    assert_returns(&finished);
}

#[test]
fn idle_loopback_server_returns_on_shutdown() {
    assert_idle_shutdown("127.0.0.1:0");
}

#[test]
fn idle_unspecified_address_server_returns_on_shutdown() {
    // The wake connects to 127.0.0.1, not to the unroutable 0.0.0.0.
    assert_idle_shutdown("0.0.0.0:0");
}

#[test]
fn shutdown_mid_job_drains_and_returns_without_more_traffic() {
    let (addr, handle, finished) = start("127.0.0.1:0");
    let grid_toml = driver::json::write_json(&driver::json::Json::Str(GRID.into()));
    let submit = format!("{{\"grid_toml\": {grid_toml}}}");
    let resp = post(addr, &submit);
    assert_status(&resp, 202);
    assert!(resp.contains("\"id\": 1"), "{resp}");

    // An event stream opened (and being served) before shutdown.
    let mut events = connect(addr);
    events
        .write_all(b"GET /jobs/1/events HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut streamed = Vec::new();
    let mut buf = [0u8; 4096];
    while !String::from_utf8_lossy(&streamed).contains("job-accepted") {
        let n = events.read(&mut buf).expect("event stream");
        assert!(
            n > 0,
            "event stream closed early: {}",
            String::from_utf8_lossy(&streamed)
        );
        streamed.extend_from_slice(&buf[..n]);
    }
    // A connection made before shutdown that sends its request only once
    // the job is done: the way to read the artifact without opening a new
    // connection (which would wake the loop) after the drain.
    let mut late = connect(addr);

    handle.shutdown();

    // A submission during the drain is refused in order, not dropped.
    let resp = post(addr, &submit);
    assert_status(&resp, 503);
    assert!(resp.contains("shutting down"), "{resp}");
    let resp = talk(addr, "GET /jobs/1 HTTP/1.1\r\n\r\n");
    assert!(
        resp.contains("\"state\": \"running\""),
        "shutdown must land mid-job: {resp}"
    );

    // From here on no new connection is made. The stream runs to its
    // `end` record once the job is done.
    events.read_to_end(&mut streamed).expect("event stream");
    let streamed = String::from_utf8(streamed).unwrap();
    assert!(
        streamed.contains("\"event\": \"sweep-finished\""),
        "{streamed}"
    );
    assert!(
        streamed.contains("{\"event\": \"end\", \"state\": \"done\"}"),
        "{streamed}"
    );

    late.write_all(b"GET /jobs/1/artifact HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    late.read_to_string(&mut resp).expect("artifact");
    assert_status(&resp, 200);
    let (_, artifact) = resp.split_once("\r\n\r\n").expect("head/body split");
    let grid = GridSource::GridToml(GRID.into()).resolve().unwrap();
    let direct = driver::json::to_json_string(&driver::run_sweep(&grid, 1).normalized());
    assert_eq!(
        artifact, direct,
        "the drained job's artifact is not the full sweep"
    );

    assert_returns(&finished);
}
