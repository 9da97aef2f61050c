//! Hostile-input tests: raw TCP against a live server, no HTTP client
//! library to sand the edges off. Every malformed or oversized request
//! must come back as a clean 4xx (or a dropped connection) without
//! touching the job core — the server must stay up and serve a
//! well-formed request afterwards.

use service::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn start_server() -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 2,
        default_threads: 1,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle, join)
}

/// Send raw bytes, read the whole response (connection closes after).
fn talk(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(bytes).expect("write request");
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn status_line(response: &str) -> &str {
    response.lines().next().unwrap_or("")
}

#[test]
fn hostile_inputs_get_specific_4xx_and_the_server_survives() {
    let (addr, handle, join) = start_server();

    // NUL byte in the path.
    let resp = talk(addr, b"GET /jobs/\x001 HTTP/1.1\r\n\r\n");
    assert!(status_line(&resp).starts_with("HTTP/1.1 400"), "{resp}");

    // Garbage request line.
    let resp = talk(addr, b"!!!not http at all!!!\r\n\r\n");
    assert!(status_line(&resp).starts_with("HTTP/1.1 400"), "{resp}");

    // Overlong URL -> 414.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(5000));
    let resp = talk(addr, long.as_bytes());
    assert!(status_line(&resp).starts_with("HTTP/1.1 414"), "{resp}");

    // Giant header line -> 431.
    let bomb = format!("GET /jobs/1 HTTP/1.1\r\nX-Bomb: {}\r\n\r\n", "b".repeat(9000));
    let resp = talk(addr, bomb.as_bytes());
    assert!(status_line(&resp).starts_with("HTTP/1.1 431"), "{resp}");

    // Too many headers -> 431.
    let many = format!(
        "GET /jobs/1 HTTP/1.1\r\n{}\r\n",
        (0..100).map(|i| format!("X-H{i}: v\r\n")).collect::<String>()
    );
    let resp = talk(addr, many.as_bytes());
    assert!(status_line(&resp).starts_with("HTTP/1.1 431"), "{resp}");

    // Oversized declared body -> 413 (before the server reads a byte
    // of it).
    let resp = talk(
        addr,
        b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert!(status_line(&resp).starts_with("HTTP/1.1 413"), "{resp}");

    // Malformed chunked framing: chunk data not CRLF-terminated.
    let resp = talk(
        addr,
        b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhelloXX0\r\n\r\n",
    );
    assert!(status_line(&resp).starts_with("HTTP/1.1 400"), "{resp}");

    // Chunks that sum past the body cap -> 413.
    let resp = talk(
        addr,
        b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfffffff\r\n",
    );
    assert!(status_line(&resp).starts_with("HTTP/1.1 413"), "{resp}");

    // Unknown routes and bad methods are clean errors, not panics.
    let resp = talk(addr, b"GET /nope HTTP/1.1\r\n\r\n");
    assert!(status_line(&resp).starts_with("HTTP/1.1 404"), "{resp}");
    let resp = talk(addr, b"DELETE /jobs HTTP/1.1\r\n\r\n");
    assert!(status_line(&resp).starts_with("HTTP/1.1 405"), "{resp}");

    // A POST with a JSON body that is not a valid submission -> 400,
    // and the queue stays empty for the next test below.
    let body = b"{\"nothing\": true}";
    let req = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut full = req.into_bytes();
    full.extend_from_slice(body);
    let resp = talk(addr, &full);
    assert!(status_line(&resp).starts_with("HTTP/1.1 400"), "{resp}");

    // A scenario with more ranks than the simulator accepts -> 400 naming
    // the limit, before anything allocates np² mailboxes.
    let body = r#"{"scenario": {"workload": "direct2d", "np": 100000, "model": "mpich"}}"#;
    let req = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let resp = talk(addr, req.as_bytes());
    assert!(status_line(&resp).starts_with("HTTP/1.1 400"), "{resp}");
    assert!(
        resp.contains(&format!("limit of {} ranks", clustersim::MAX_NP)),
        "{resp}"
    );

    // After all that abuse, a well-formed request still works.
    let resp = talk(addr, b"GET /jobs/1 HTTP/1.1\r\n\r\n");
    assert!(
        status_line(&resp).starts_with("HTTP/1.1 404"),
        "expected 404 for unknown job on a healthy server: {resp}"
    );

    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

/// `grid_file` may only name a file under `scenarios/` of the server's
/// working directory (this test's is the crate root, which has none, so
/// here every path is outside). A path outside gets a 400 that names the
/// rule and carries none of the file's text, and the server stays up.
#[test]
fn grid_file_outside_scenarios_is_refused_without_its_content() {
    let (addr, handle, join) = start_server();
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let text = std::fs::read_to_string(manifest).expect("read the crate manifest");
    for path in [manifest, "scenarios/../Cargo.toml", "Cargo.toml"] {
        let body = format!(r#"{{"grid_file": "{path}"}}"#);
        let req = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let resp = talk(addr, req.as_bytes());
        assert!(
            status_line(&resp).starts_with("HTTP/1.1 400"),
            "{path}: {resp}"
        );
        assert!(
            resp.contains("must name an existing file under scenarios/"),
            "{path}: {resp}"
        );
        // Check the raw body and its decoded message (JSON escapes quotes).
        let (_, resp_body) = resp.split_once("\r\n\r\n").expect("head/body split");
        let doc = driver::json::parse_json_bytes(resp_body.as_bytes()).expect("JSON error body");
        let message = doc
            .get("error")
            .and_then(|e| e.as_str())
            .expect("error message");
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            assert!(
                !resp_body.contains(line) && !message.contains(line),
                "{path}: response echoes `{line}`: {resp}"
            );
        }

        let resp = talk(addr, b"GET /jobs/1 HTTP/1.1\r\n\r\n");
        assert!(
            status_line(&resp).starts_with("HTTP/1.1 404"),
            "{path}: {resp}"
        );
    }

    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}
