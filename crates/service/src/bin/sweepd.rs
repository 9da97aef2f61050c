//! `sweepd` — the sweep service daemon.
//!
//! ```text
//! cargo run --release -p overlap-service --bin sweepd -- \
//!     [--addr HOST:PORT] [--queue N] [--threads N]
//! ```
//!
//! Binds (port 0 = ephemeral), prints one `listening on http://ADDR`
//! line (scripts scrape the port from it), and serves until SIGTERM or
//! SIGINT, then drains: the running job finishes, queued jobs are
//! cancelled, new submissions get 503, and the process exits 0.

use service::{Server, ServerConfig};

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 8,
        default_threads: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |what: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--addr" => config.addr = grab("--addr").to_string(),
            "--queue" => {
                config.queue_capacity = grab("--queue").parse().unwrap_or_else(|e| {
                    eprintln!("bad --queue: {e}");
                    std::process::exit(2);
                })
            }
            "--threads" => {
                config.default_threads = grab("--threads").parse().unwrap_or_else(|e| {
                    eprintln!("bad --threads: {e}");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown flag `{other}` (accepts: --addr HOST:PORT, --queue N, --threads N)");
                std::process::exit(2);
            }
        }
    }

    let server = Server::bind(&config).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", config.addr);
        std::process::exit(1);
    });
    let addr = server.local_addr().expect("bound listener has an address");

    // The latch goes in before the address is printed, so a script that
    // signals as soon as it reads the address never kills the process
    // outright.
    let handle = server.handle();
    #[cfg(unix)]
    {
        service::signal::install();
        std::thread::spawn(move || loop {
            if service::signal::signaled() {
                eprintln!("signal received; draining");
                handle.shutdown();
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    #[cfg(not(unix))]
    let _ = handle;

    println!("listening on http://{addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();

    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
    println!("drained; exiting");
}
