//! Dependency-free JSON for the `BENCH_sweep.json` artifact: a minimal
//! value type, a recursive-descent parser, a pretty writer with stable
//! key order, and the mapping to/from [`SweepResult`].
//!
//! Schema (`overlap-sweep/v3`): one object with `schema`, `records` (one
//! object per scenario, in grid order), `summary`, and an *optional*
//! `timing` section (total/per-scenario host wall-clock plus rank-pool
//! and compile-cache figures). All virtual times are integer nanoseconds;
//! wall-clock fields are host time and are what `normalized()`
//! zeroes/drops so committed artifacts stay byte-deterministic. Each
//! record carries an `input_hash` — the deterministic content hash of its
//! simulation inputs ([`crate::cache::scenario_input_hash`], 16 hex
//! digits) that `harness sweep --incremental` keys row reuse on; it is
//! *not* host-dependent and survives normalization. The reader also
//! accepts the v2 schema (no `input_hash`, no cache timing fields — both
//! default to absent/0) and v1 (additionally no `timing`), so historical
//! baselines keep diffing. The writer is canonical:
//! `write(read(write(x)))` equals `write(x)` byte for byte.

use crate::cache::{hash_from_hex, hash_to_hex};
use crate::exec::{summarize, RunStatus, SweepRecord, SweepResult, SweepTiming};
use crate::spec::{ModelSpec, ScenarioSpec, SizeClass, Variant};
use std::fmt::Write as _;

/// The schema tag the writer emits.
pub const SCHEMA: &str = "overlap-sweep/v3";

/// Previous schemas, still accepted by the reader.
pub const SCHEMA_V2: &str = "overlap-sweep/v2";
pub const SCHEMA_V1: &str = "overlap-sweep/v1";

/// A JSON value. Objects keep insertion order (the writer's key order is
/// part of the artifact's byte-level stability).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------- writer

use crate::text::{consume_scalar, write_escaped};

fn write_value(out: &mut String, v: &Json, indent: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        // Rust's shortest-roundtrip Display keeps parse(write(f)) == f,
        // which is what makes re-serialization byte-stable.
        Json::Float(f) => {
            let _ = write!(out, "{f}");
        }
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(indent + 1));
                write_value(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(indent + 1));
                write_escaped(out, k);
                out.push_str(": ");
                write_value(out, v, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
    }
}

/// Pretty-print with two-space indent and a trailing newline.
pub fn write_json(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out.push('\n');
    out
}

fn write_value_compact(out: &mut String, v: &Json) {
    match v {
        Json::Null | Json::Bool(_) | Json::Int(_) | Json::Float(_) | Json::Str(_) => {
            write_value(out, v, 0)
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value_compact(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_escaped(out, k);
                out.push_str(": ");
                write_value_compact(out, v);
            }
            out.push('}');
        }
    }
}

/// Single-line form (no trailing newline): what the service streams as
/// one event per line. Parses back identically to the pretty form.
pub fn write_json_compact(v: &Json) -> String {
    let mut out = String::new();
    write_value_compact(&mut out, v);
    out
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Containers deeper than this are a parse error, not a stack overflow.
/// Real artifacts nest 4-5 levels; 128 is far beyond any legitimate
/// document while keeping recursion bounded on hostile input.
const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        format!("JSON parse error at byte {} (line {line}): {msg}", self.pos)
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!(
                "containers nested deeper than {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn consume_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("non-scalar \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The artifact may arrive as raw file bytes
                    // (`parse_json_bytes`), so a malformed sequence is a
                    // parse *error*, never a panic.
                    let (next, chunk) = consume_scalar(self.bytes, self.pos)
                        .map_err(|()| self.err("invalid UTF-8 in string"))?;
                    self.pos = next;
                    s.push_str(chunk);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The scan above only consumes ASCII bytes, but keep the error
        // path anyway: the artifact reader must never panic on input.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| self.err(&format!("bad number `{text}`: {e}")))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| self.err(&format!("bad number `{text}`: {e}")))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.consume_lit("null", Json::Null),
            Some(b't') => self.consume_lit("true", Json::Bool(true)),
            Some(b'f') => self.consume_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                self.enter()?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.enter()?;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(_) => self.parse_number(),
        }
    }
}

/// Parse a complete JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    parse_json_bytes(text.as_bytes())
}

/// Parse a complete JSON document from raw bytes (e.g. a file read with
/// `std::fs::read`). Malformed UTF-8 inside strings is a parse error
/// with a byte/line position, not a panic.
pub fn parse_json_bytes(bytes: &[u8]) -> Result<Json, String> {
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

// ------------------------------------------------- SweepResult <-> Json

fn opt_int(v: Option<u64>) -> Json {
    v.map_or(Json::Null, |n| Json::Int(n as i64))
}

fn opt_i64(v: Option<i64>) -> Json {
    v.map_or(Json::Null, Json::Int)
}

fn opt_str(v: &Option<String>) -> Json {
    v.as_ref().map_or(Json::Null, |s| Json::Str(s.clone()))
}

/// `{}`-formatted floats parse back as `Int` when integral; accept both.
fn float_field(v: f64) -> Json {
    Json::Float(v)
}

fn record_to_json(r: &SweepRecord) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(r.spec.workload.clone())),
        ("size".into(), Json::Str(r.spec.size.id().into())),
        ("np".into(), Json::Int(r.spec.np as i64)),
        ("model".into(), Json::Str(r.spec.model.id())),
        ("requested_tile_size".into(), opt_i64(r.spec.tile_size)),
        ("variant".into(), Json::Str(r.spec.variant.id().into())),
        (
            "status".into(),
            Json::Str(if r.is_ok() { "ok" } else { "error" }.into()),
        ),
        (
            "error".into(),
            r.error().map_or(Json::Null, |e| Json::Str(e.into())),
        ),
        ("tile_size".into(), opt_i64(r.tile_size)),
        ("strategy".into(), opt_str(&r.strategy)),
        ("orig_ns".into(), opt_int(r.orig_ns)),
        ("prepush_ns".into(), opt_int(r.prepush_ns)),
        ("orig_exposed_ns".into(), opt_int(r.orig_exposed_ns)),
        ("prepush_exposed_ns".into(), opt_int(r.prepush_exposed_ns)),
        (
            "speedup".into(),
            r.speedup.map_or(Json::Null, float_field),
        ),
        (
            "input_hash".into(),
            r.input_hash
                .map_or(Json::Null, |h| Json::Str(hash_to_hex(h))),
        ),
        ("wall_ms".into(), float_field(r.wall_ms)),
    ])
}

fn extreme_to_json(v: &Option<(String, f64)>) -> Json {
    match v {
        None => Json::Null,
        Some((key, s)) => Json::Obj(vec![
            ("scenario".into(), Json::Str(key.clone())),
            ("speedup".into(), float_field(*s)),
        ]),
    }
}

/// Serialize a sweep result to the canonical artifact text.
pub fn to_json_string(result: &SweepResult) -> String {
    let s = &result.summary;
    let summary = Json::Obj(vec![
        ("scenarios".into(), Json::Int(s.scenarios as i64)),
        ("ok".into(), Json::Int(s.ok as i64)),
        ("errors".into(), Json::Int(s.errors as i64)),
        (
            "geomean_speedup".into(),
            s.geomean_speedup.map_or(Json::Null, float_field),
        ),
        ("best".into(), extreme_to_json(&s.best)),
        ("worst".into(), extreme_to_json(&s.worst)),
        (
            "per_model".into(),
            Json::Arr(
                s.per_model
                    .iter()
                    .map(|(m, g)| {
                        Json::Obj(vec![
                            ("model".into(), Json::Str(m.clone())),
                            ("geomean_speedup".into(), float_field(*g)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("wall_ms".into(), float_field(s.wall_ms)),
    ]);
    let mut fields = vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        (
            "records".into(),
            Json::Arr(result.records.iter().map(record_to_json).collect()),
        ),
        ("summary".into(), summary),
    ];
    if let Some(t) = &result.timing {
        fields.push((
            "timing".into(),
            Json::Obj(vec![
                ("wall_ms_total".into(), float_field(t.wall_ms_total)),
                ("pool_capacity".into(), Json::Int(t.pool_capacity as i64)),
                (
                    "workers_high_water".into(),
                    Json::Int(t.workers_high_water as i64),
                ),
                ("cache_hits".into(), Json::Int(t.cache_hits as i64)),
                ("cache_misses".into(), Json::Int(t.cache_misses as i64)),
                ("reused_rows".into(), Json::Int(t.reused_rows as i64)),
                ("full_runs".into(), Json::Int(t.full_runs as i64)),
                ("replayed_runs".into(), Json::Int(t.replayed_runs as i64)),
                (
                    "per_scenario".into(),
                    Json::Arr(
                        t.per_scenario
                            .iter()
                            .map(|(key, ms)| {
                                Json::Obj(vec![
                                    ("scenario".into(), Json::Str(key.clone())),
                                    ("wall_ms".into(), float_field(*ms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    write_json(&Json::Obj(fields))
}

fn field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what}: missing field `{key}`"))
}

fn record_from_json(v: &Json, idx: usize) -> Result<SweepRecord, String> {
    let what = format!("record {idx}");
    let getstr = |key: &str| -> Result<String, String> {
        field(v, key, &what)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{what}: `{key}` must be a string"))
    };
    let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
        match field(v, key, &what)? {
            Json::Null => Ok(None),
            j => j
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("{what}: `{key}` must be a non-negative integer")),
        }
    };
    let workload = getstr("workload")?;
    let size = SizeClass::parse(&getstr("size")?)
        .ok_or_else(|| format!("{what}: bad size class"))?;
    let np = field(v, "np", &what)?
        .as_u64()
        .ok_or_else(|| format!("{what}: `np` must be an integer"))? as usize;
    let model = ModelSpec::parse(&getstr("model")?).map_err(|e| format!("{what}: {e}"))?;
    let requested = match field(v, "requested_tile_size", &what)? {
        Json::Null => None,
        Json::Int(i) => Some(*i),
        _ => return Err(format!("{what}: bad `requested_tile_size`")),
    };
    let variant = Variant::parse(&getstr("variant")?)
        .ok_or_else(|| format!("{what}: bad variant"))?;
    let status = match getstr("status")?.as_str() {
        "ok" => RunStatus::Ok,
        "error" => RunStatus::Error(match field(v, "error", &what)? {
            Json::Str(e) => e.clone(),
            _ => String::new(),
        }),
        other => return Err(format!("{what}: bad status `{other}`")),
    };
    let tile_size = match field(v, "tile_size", &what)? {
        Json::Null => None,
        Json::Int(i) => Some(*i),
        _ => return Err(format!("{what}: bad `tile_size`")),
    };
    let strategy = match field(v, "strategy", &what)? {
        Json::Null => None,
        Json::Str(s) => Some(s.clone()),
        _ => return Err(format!("{what}: bad `strategy`")),
    };
    let speedup = match field(v, "speedup", &what)? {
        Json::Null => None,
        j => Some(
            j.as_f64()
                .ok_or_else(|| format!("{what}: `speedup` must be a number"))?,
        ),
    };
    // Absent in v1/v2 artifacts (not just null): default to None.
    let input_hash = match v.get("input_hash") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(
            hash_from_hex(s)
                .ok_or_else(|| format!("{what}: `input_hash` must be 16 hex digits"))?,
        ),
        Some(_) => return Err(format!("{what}: bad `input_hash`")),
    };
    let wall_ms = field(v, "wall_ms", &what)?
        .as_f64()
        .ok_or_else(|| format!("{what}: `wall_ms` must be a number"))?;
    Ok(SweepRecord {
        spec: ScenarioSpec {
            workload,
            size,
            np,
            model,
            tile_size: requested,
            variant,
        },
        status,
        tile_size,
        strategy,
        orig_ns: opt_u64("orig_ns")?,
        prepush_ns: opt_u64("prepush_ns")?,
        orig_exposed_ns: opt_u64("orig_exposed_ns")?,
        prepush_exposed_ns: opt_u64("prepush_exposed_ns")?,
        speedup,
        input_hash,
        wall_ms,
    })
}

/// Parse an artifact back into a [`SweepResult`]. The summary is
/// recomputed from the records (it is derived data), except `wall_ms`,
/// which is taken from the file. Accepts the current `overlap-sweep/v3`
/// schema and the historical v2 (no `input_hash`/cache timing) and v1
/// (additionally no `timing`).
pub fn from_json_string(text: &str) -> Result<SweepResult, String> {
    from_json_bytes(text.as_bytes())
}

/// [`from_json_string`] over raw file bytes: what the harness feeds
/// `std::fs::read` results into, so a corrupted (even non-UTF-8)
/// artifact surfaces as a readable error instead of a panic.
pub fn from_json_bytes(bytes: &[u8]) -> Result<SweepResult, String> {
    let doc = parse_json_bytes(bytes)?;
    let schema = field(&doc, "schema", "document")?
        .as_str()
        .ok_or("document: `schema` must be a string")?;
    if schema != SCHEMA && schema != SCHEMA_V2 && schema != SCHEMA_V1 {
        return Err(format!(
            "unsupported schema `{schema}` (this reader understands `{SCHEMA}`, `{SCHEMA_V2}`, \
             and `{SCHEMA_V1}`)"
        ));
    }
    let records_json = match field(&doc, "records", "document")? {
        Json::Arr(items) => items,
        _ => return Err("document: `records` must be an array".into()),
    };
    let mut records = Vec::with_capacity(records_json.len());
    for (i, r) in records_json.iter().enumerate() {
        records.push(record_from_json(r, i)?);
    }
    let wall_ms = field(&doc, "summary", "document")?
        .get("wall_ms")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let summary = summarize(&records, wall_ms);
    let timing = match doc.get("timing") {
        None | Some(Json::Null) => None,
        Some(t) => Some(timing_from_json(t)?),
    };
    Ok(SweepResult {
        records,
        summary,
        timing,
    })
}

fn timing_from_json(t: &Json) -> Result<SweepTiming, String> {
    let what = "timing";
    let wall_ms_total = field(t, "wall_ms_total", what)?
        .as_f64()
        .ok_or("timing: `wall_ms_total` must be a number")?;
    let pool_capacity = field(t, "pool_capacity", what)?
        .as_u64()
        .ok_or("timing: `pool_capacity` must be an integer")? as usize;
    let workers_high_water = field(t, "workers_high_water", what)?
        .as_u64()
        .ok_or("timing: `workers_high_water` must be an integer")?
        as usize;
    // Absent before v3 (and the run counts before replay): zero, not an
    // error.
    let opt_count = |key: &str| -> Result<u64, String> {
        match t.get(key) {
            None | Some(Json::Null) => Ok(0),
            Some(j) => j
                .as_u64()
                .ok_or_else(|| format!("timing: `{key}` must be a non-negative integer")),
        }
    };
    let cache_hits = opt_count("cache_hits")?;
    let cache_misses = opt_count("cache_misses")?;
    let reused_rows = opt_count("reused_rows")? as usize;
    let full_runs = opt_count("full_runs")?;
    let replayed_runs = opt_count("replayed_runs")?;
    let per_scenario = match field(t, "per_scenario", what)? {
        Json::Arr(items) => items
            .iter()
            .map(|item| -> Result<(String, f64), String> {
                let key = field(item, "scenario", "timing row")?
                    .as_str()
                    .ok_or("timing row: `scenario` must be a string")?
                    .to_string();
                let ms = field(item, "wall_ms", "timing row")?
                    .as_f64()
                    .ok_or("timing row: `wall_ms` must be a number")?;
                Ok((key, ms))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("timing: `per_scenario` must be an array".into()),
    };
    Ok(SweepTiming {
        wall_ms_total,
        pool_capacity,
        workers_high_water,
        cache_hits,
        cache_misses,
        reused_rows,
        full_runs,
        replayed_runs,
        per_scenario,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Variant;

    #[test]
    fn hostile_bracket_nesting_is_an_error_not_an_overflow() {
        // Two megabytes of `[` must come back as a parse error with a
        // position, not abort the process.
        let hostile = "[".repeat(2_000_000);
        let err = parse_json(&hostile).unwrap_err();
        assert!(err.contains("nested deeper"), "unexpected error: {err}");
        let objs = "{\"k\":".repeat(2_000_000);
        let err = parse_json(&objs).unwrap_err();
        assert!(err.contains("nested deeper"), "unexpected error: {err}");
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        let doc = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        parse_json(&doc).unwrap();
    }

    fn sample_record(workload: &str, speedup: Option<f64>) -> SweepRecord {
        SweepRecord {
            spec: ScenarioSpec {
                workload: workload.into(),
                size: SizeClass::Small,
                np: 2,
                model: ModelSpec::MpichGm,
                tile_size: Some(8),
                variant: Variant::Compare,
            },
            status: RunStatus::Ok,
            tile_size: Some(8),
            strategy: Some("fig4-all-peers".into()),
            orig_ns: Some(1000),
            prepush_ns: Some(800),
            orig_exposed_ns: Some(100),
            prepush_exposed_ns: Some(50),
            speedup,
            input_hash: Some(0x0123_4567_89ab_cdef),
            wall_ms: 0.0,
        }
    }

    fn sample_result() -> SweepResult {
        let records = vec![
            sample_record("direct2d", Some(1.25)),
            SweepRecord {
                status: RunStatus::Error("boom \"quoted\"\nline2".into()),
                orig_ns: None,
                prepush_ns: None,
                orig_exposed_ns: None,
                prepush_exposed_ns: None,
                speedup: None,
                tile_size: None,
                strategy: None,
                ..sample_record("indirect", None)
            },
        ];
        let summary = summarize(&records, 0.0);
        SweepResult {
            records,
            summary,
            timing: None,
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let result = sample_result();
        let text = to_json_string(&result);
        let back = from_json_string(&text).unwrap();
        assert_eq!(back, result);
        assert_eq!(to_json_string(&back), text);
    }

    #[test]
    fn integral_floats_survive_the_int_detour() {
        // speedup 2.0 writes as `2`, reads back as Int, and must still
        // re-serialize identically.
        let mut result = sample_result();
        result.records[0].speedup = Some(2.0);
        result.summary = summarize(&result.records, 0.0);
        let text = to_json_string(&result);
        let back = from_json_string(&text).unwrap();
        assert_eq!(back.records[0].speedup, Some(2.0));
        assert_eq!(to_json_string(&back), text);
    }

    #[test]
    fn v2_artifacts_still_read_with_hashes_and_cache_stats_defaulted() {
        // A v3 artifact rewritten to v2 shape: no `input_hash` on records,
        // no cache fields in timing. The reader must accept it, defaulting
        // input_hash to None (so `--incremental` treats every row as a
        // miss) and the cache counters to 0.
        let mut result = sample_result();
        result.timing = Some(SweepTiming {
            wall_ms_total: 1.5,
            pool_capacity: 8,
            workers_high_water: 4,
            cache_hits: 3,
            cache_misses: 2,
            reused_rows: 1,
            full_runs: 4,
            replayed_runs: 2,
            per_scenario: vec![("k".into(), 1.5)],
        });
        let v3 = to_json_string(&result);
        let v2 = v3
            .replace(SCHEMA, SCHEMA_V2)
            .lines()
            .filter(|l| {
                !l.contains("\"input_hash\"")
                    && !l.contains("\"cache_hits\"")
                    && !l.contains("\"cache_misses\"")
                    && !l.contains("\"reused_rows\"")
                    && !l.contains("\"full_runs\"")
                    && !l.contains("\"replayed_runs\"")
            })
            .collect::<Vec<_>>()
            .join("\n");
        // Dropping lines leaves a trailing comma before `"wall_ms"`; the
        // writer always comma-terminates the dropped lines' predecessors,
        // so the filtered text is still valid JSON.
        let back = from_json_string(&v2).unwrap();
        assert!(back.records.iter().all(|r| r.input_hash.is_none()));
        let t = back.timing.unwrap();
        assert_eq!((t.cache_hits, t.cache_misses, t.reused_rows), (0, 0, 0));
        assert_eq!((t.full_runs, t.replayed_runs), (0, 0));

        // And a malformed hash is an error, not a silent None.
        let bad = v3.replace("0123456789abcdef", "not-hex-not-16");
        assert!(from_json_string(&bad)
            .unwrap_err()
            .contains("input_hash"));
    }

    #[test]
    fn timing_roundtrips_cache_stats() {
        let mut result = sample_result();
        result.timing = Some(SweepTiming {
            wall_ms_total: 2.0,
            pool_capacity: 16,
            workers_high_water: 9,
            cache_hits: 40,
            cache_misses: 14,
            reused_rows: 94,
            full_runs: 12,
            replayed_runs: 36,
            per_scenario: vec![],
        });
        let text = to_json_string(&result);
        let back = from_json_string(&text).unwrap();
        assert_eq!(back.timing, result.timing);
        assert_eq!(to_json_string(&back), text);
    }

    #[test]
    fn parser_reports_readable_errors() {
        assert!(parse_json("{\"a\": }").unwrap_err().contains("line 1"));
        assert!(parse_json("[1, 2").unwrap_err().contains("expected"));
        assert!(from_json_string("{\"schema\": \"other/v9\", \"records\": [], \"summary\": {}}")
            .unwrap_err()
            .contains("unsupported schema"));
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse_json(r#"{"s": "a\"b\\c\ndAé"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\ndAé");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_json("{} x").is_err());
    }

    #[test]
    fn malformed_non_utf8_bytes_error_instead_of_panicking() {
        // A lone 0xFF inside a string: not a continuation byte, not a
        // valid scalar — must be a parse error, not a panic.
        let e = parse_json_bytes(b"{\"s\": \"\xFF\"}").unwrap_err();
        assert!(e.contains("invalid UTF-8"), "{e}");
        // A truncated multi-byte sequence (0xC3 lead with no tail).
        let e = parse_json_bytes(b"[\"\xC3\"]").unwrap_err();
        assert!(e.contains("invalid UTF-8"), "{e}");
        // An overlong-style continuation run spliced mid-string.
        let e = parse_json_bytes(b"{\"k\": \"a\xE2\x28\xA1b\"}").unwrap_err();
        assert!(e.contains("invalid UTF-8"), "{e}");
        // The same corruption through the full artifact reader.
        let e = from_json_bytes(b"{\"schema\": \"overlap-sweep/v2\", \"records\": [\"\xFF\"]}")
            .unwrap_err();
        assert!(e.contains("invalid UTF-8"), "{e}");
    }

    #[test]
    fn arbitrary_byte_soup_never_panics() {
        // Fuzz-ish sweep: every 1- and 2-byte prefix of the byte range
        // plus a few structured corruptions. The only acceptable
        // outcomes are Ok or Err — a panic here is the bug this guards.
        for b in 0u8..=255 {
            let _ = parse_json_bytes(&[b]);
            let _ = parse_json_bytes(&[b'"', b]);
            let _ = parse_json_bytes(&[b'"', b'\\', b]);
            let _ = parse_json_bytes(&[b'[', b, b']']);
        }
        let valid = to_json_string(&sample_result());
        let bytes = valid.as_bytes();
        // Corrupt each position of a real artifact in turn (stride keeps
        // the test fast; corruption classes repeat long before that).
        for i in (0..bytes.len()).step_by(7) {
            let mut corrupted = bytes.to_vec();
            corrupted[i] = 0xFF;
            let _ = from_json_bytes(&corrupted);
            corrupted[i] = 0xC3;
            let _ = from_json_bytes(&corrupted);
        }
    }

    #[test]
    fn byte_and_str_entry_points_agree_on_valid_input() {
        let text = to_json_string(&sample_result());
        assert_eq!(
            parse_json(&text).unwrap(),
            parse_json_bytes(text.as_bytes()).unwrap()
        );
        assert_eq!(
            from_json_string(&text).unwrap(),
            from_json_bytes(text.as_bytes()).unwrap()
        );
    }
}
