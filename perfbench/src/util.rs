//! Small helpers shared by every workload: the seeded generator, order
//! statistics, process resource readings, and the run's environment
//! record.

use driver::json::Json;
use std::time::Instant;

/// SplitMix64: a tiny, well-mixed generator, so the same `--seed` gives
/// the same inputs on every platform without a dependency.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0f0b_e4c4)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted values; 0 for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// User + system CPU seconds this process has consumed.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches the LP64 Linux `struct rusage` layout
    // (two timevals then fourteen longs) and outlives the call.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&ru.utime) + tv(&ru.stime)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` in the working directory
/// (no `git` process, nothing read outside the checkout).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

/// What every result is recorded with: machine parallelism, source
/// revision, and compiler.
pub fn environment() -> Json {
    Json::Obj(vec![
        (
            "nproc".into(),
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("git_commit".into(), Json::Str(git_commit())),
        ("rustc".into(), Json::Str(env!("PERFBENCH_RUSTC").into())),
    ])
}

/// A number field of a child's JSON report.
pub fn field(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// A list-of-numbers field of a child's JSON report.
pub fn list(doc: &Json, key: &str) -> Vec<f64> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items.iter().filter_map(Json::as_f64).collect(),
        _ => Vec::new(),
    }
}

pub fn num_list(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Float(*v)).collect())
}
