//! A minimal JSON value type with a renderer and a strict parser.
//!
//! The workspace's `serde` is an offline no-op shim (see `vendor/serde`),
//! so machine-readable output is produced through this hand-rolled value
//! type instead of `serde_json`. The surface is deliberately small: build a
//! [`Json`] tree, [`Json::render`] it, and [`parse`] it back (the sweep
//! engine's round-trip tests and the CI smoke rely on the parser).

use pythia_sim::stats::SimReport;

use crate::metrics::Metrics;

/// Largest integer `f64` carries exactly (2^53).
const MAX_EXACT: u64 = 1 << 53;

/// A JSON value. Object keys keep insertion order so rendered output is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Inserts a key into an object (panics on non-objects — builder misuse
    /// is a programming error, not a data error).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an object's `(key, value)` fields, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is an integral number
    /// within `f64`'s exact range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value under `key` of an object.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or `self` is not an object. The
    /// typed `*_field` readers below fail the same way, or name the key and
    /// the type they expected.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    /// The string under `key`.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        (self.field(key)?.as_str()).ok_or_else(|| format!("key {key:?}: expected a string"))
    }

    /// The number under `key`.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        (self.field(key)?.as_f64()).ok_or_else(|| format!("key {key:?}: expected a number"))
    }

    /// The number under `key` as an `f32`: the payload must be an exact
    /// `f32` widening, so the narrowing is lossless.
    pub fn f32_field(&self, key: &str) -> Result<f32, String> {
        let wide = self.f64_field(key)?;
        let narrow = wide as f32;
        if f64::from(narrow) != wide {
            return Err(format!("key {key:?}: {wide} is not an exact f32"));
        }
        Ok(narrow)
    }

    /// The unsigned integer under `key`, in either [`u64_json`] form,
    /// narrowed to `T`.
    pub fn uint_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = u64_value(self.field(key)?).map_err(|e| format!("key {key:?}: {e}"))?;
        T::try_from(n).map_err(|_| format!("key {key:?}: {n} is out of range"))
    }

    /// The integral number under `key`, within `f64`'s exact range,
    /// narrowed to `T`.
    pub fn int_field<T: TryFrom<i64>>(&self, key: &str) -> Result<T, String> {
        let n = self.f64_field(key)?;
        if n.fract() != 0.0 || n.abs() > MAX_EXACT as f64 {
            return Err(format!("key {key:?}: expected an integer"));
        }
        T::try_from(n as i64).map_err(|_| format!("key {key:?}: {n} is out of range"))
    }

    /// The bool under `key`.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        (self.field(key)?.as_bool()).ok_or_else(|| format!("key {key:?}: expected a bool"))
    }

    /// The array under `key`.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        (self.field(key)?.as_arr()).ok_or_else(|| format!("key {key:?}: expected an array"))
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders human-readable JSON with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&render_number(*n)),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Arr(items)
    }
}

/// Renders an `f64` so that parsing the output recovers the exact value:
/// integers in `i64` range print without a fraction, everything else uses
/// Rust's shortest round-trippable representation.
fn render_number(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        return "null".to_string();
    }
    if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or of
/// trailing non-whitespace after the top-level value.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let high = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = match high {
                            // High surrogate: a low surrogate must follow
                            // (escaped non-BMP characters come in pairs).
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                    return Err(format!(
                                        "lone high surrogate \\u{high:04x} at byte {}",
                                        *pos
                                    ));
                                }
                                let low = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "expected low surrogate after \\u{high:04x}, got \\u{low:04x}"
                                    ));
                                }
                                *pos += 6;
                                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                            }
                            0xDC00..=0xDFFF => {
                                return Err(format!(
                                    "lone low surrogate \\u{high:04x} at byte {}",
                                    *pos
                                ))
                            }
                            bmp => bmp,
                        };
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next delimiter at once. Both
                // delimiters are ASCII and the input is a &str, so the run
                // begins and ends on char boundaries; validating the run
                // and nothing past it keeps `parse` linear.
                let rest = &bytes[*pos..];
                let run = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
                *pos += run;
            }
        }
    }
}

/// Serializes the Appendix A.6 [`Metrics`] as a JSON object.
pub fn metrics_json(m: &Metrics) -> Json {
    Json::obj()
        .set("speedup", m.speedup)
        .set("coverage", m.coverage)
        .set("overprediction", m.overprediction)
        .set("ipc", m.ipc)
        .set("baseline_mpki", m.baseline_mpki)
        .set("accuracy", m.accuracy)
}

/// Encodes a `u64` losslessly — the one convention every codec in the
/// workspace uses (campaign specs, sweep results, served sim reports): a
/// JSON number while `f64`-exact (up to 2^53), a decimal string beyond
/// that. Seeds are the only fields that get near the limit.
pub fn u64_json(n: u64) -> Json {
    if n <= MAX_EXACT {
        Json::Num(n as f64)
    } else {
        Json::Str(n.to_string())
    }
}

/// Decodes a [`u64_json`]-encoded value (exact number or decimal string).
///
/// # Errors
///
/// Returns a message for anything else: a negative, fractional or
/// beyond-2^53 number, a non-decimal string, any other JSON type.
pub fn u64_value(v: &Json) -> Result<u64, String> {
    match v {
        Json::Str(s) => s.parse().map_err(|_| format!("bad integer string {s:?}")),
        v => v
            .as_u64()
            .ok_or_else(|| "expected a non-negative integer".to_string()),
    }
}

fn cache_wire_json(c: &pythia_sim::stats::CacheStats) -> Json {
    Json::obj()
        .set("demand_loads", u64_json(c.demand_loads))
        .set("demand_load_hits", u64_json(c.demand_load_hits))
        .set("demand_load_misses", u64_json(c.demand_load_misses))
        .set("demand_stores", u64_json(c.demand_stores))
        .set("demand_store_hits", u64_json(c.demand_store_hits))
        .set("demand_store_misses", u64_json(c.demand_store_misses))
        .set("prefetch_fills", u64_json(c.prefetch_fills))
        .set("prefetch_redundant", u64_json(c.prefetch_redundant))
        .set("useful_prefetches", u64_json(c.useful_prefetches))
        .set("useless_prefetches", u64_json(c.useless_prefetches))
        .set("late_prefetch_hits", u64_json(c.late_prefetch_hits))
        .set("mshr_stall_cycles", u64_json(c.mshr_stall_cycles))
        .set("mshr_stalls", u64_json(c.mshr_stalls))
        .set("dirty_evictions", u64_json(c.dirty_evictions))
        .set("evictions", u64_json(c.evictions))
}

fn cache_from_wire(j: &Json) -> Result<pythia_sim::stats::CacheStats, String> {
    Ok(pythia_sim::stats::CacheStats {
        demand_loads: j.uint_field("demand_loads")?,
        demand_load_hits: j.uint_field("demand_load_hits")?,
        demand_load_misses: j.uint_field("demand_load_misses")?,
        demand_stores: j.uint_field("demand_stores")?,
        demand_store_hits: j.uint_field("demand_store_hits")?,
        demand_store_misses: j.uint_field("demand_store_misses")?,
        prefetch_fills: j.uint_field("prefetch_fills")?,
        prefetch_redundant: j.uint_field("prefetch_redundant")?,
        useful_prefetches: j.uint_field("useful_prefetches")?,
        useless_prefetches: j.uint_field("useless_prefetches")?,
        late_prefetch_hits: j.uint_field("late_prefetch_hits")?,
        mshr_stall_cycles: j.uint_field("mshr_stall_cycles")?,
        mshr_stalls: j.uint_field("mshr_stalls")?,
        dirty_evictions: j.uint_field("dirty_evictions")?,
        evictions: j.uint_field("evictions")?,
    })
}

/// Serializes a full [`SimReport`] **losslessly** — every counter of
/// every substructure, so [`sim_report_from_wire`] reconstructs a report
/// equal to the original. The one JSON form of a report: the journal, the
/// wire and the `--report-json` artifact all write it.
pub fn sim_report_wire_json(r: &SimReport) -> Json {
    let core = |c: &pythia_sim::stats::CoreStats| {
        Json::obj()
            .set("instructions", u64_json(c.instructions))
            .set("cycles", u64_json(c.cycles))
            .set("loads", u64_json(c.loads))
            .set("stores", u64_json(c.stores))
            .set("branches", u64_json(c.branches))
            .set("branch_mispredicts", u64_json(c.branch_mispredicts))
    };
    let pf = |p: &pythia_sim::stats::PrefetcherStats| {
        Json::obj()
            .set("issued", u64_json(p.issued))
            .set("redundant", u64_json(p.redundant))
            .set("useful", u64_json(p.useful))
            .set("useless", u64_json(p.useless))
    };
    Json::obj()
        .set("cores", Json::Arr(r.cores.iter().map(core).collect()))
        .set(
            "l1d",
            Json::Arr(r.l1d.iter().map(cache_wire_json).collect()),
        )
        .set("l2", Json::Arr(r.l2.iter().map(cache_wire_json).collect()))
        .set("llc", cache_wire_json(&r.llc))
        .set(
            "dram",
            Json::obj()
                .set("demand_reads", u64_json(r.dram.demand_reads))
                .set("prefetch_reads", u64_json(r.dram.prefetch_reads))
                .set("writes", u64_json(r.dram.writes))
                .set("row_hits", u64_json(r.dram.row_hits))
                .set("row_misses", u64_json(r.dram.row_misses))
                .set("bus_busy_cycles", u64_json(r.dram.bus_busy_cycles))
                .set(
                    "bw_bucket_windows",
                    Json::Arr(
                        r.dram
                            .bw_bucket_windows
                            .iter()
                            .map(|w| u64_json(*w))
                            .collect(),
                    ),
                ),
        )
        .set(
            "prefetchers",
            Json::Arr(r.prefetchers.iter().map(pf).collect()),
        )
}

/// Decodes the lossless wire form produced by [`sim_report_wire_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or ill-typed key.
pub fn sim_report_from_wire(j: &Json) -> Result<SimReport, String> {
    let cores = j
        .arr_field("cores")?
        .iter()
        .map(|c| {
            Ok(pythia_sim::stats::CoreStats {
                instructions: c.uint_field("instructions")?,
                cycles: c.uint_field("cycles")?,
                loads: c.uint_field("loads")?,
                stores: c.uint_field("stores")?,
                branches: c.uint_field("branches")?,
                branch_mispredicts: c.uint_field("branch_mispredicts")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let l1d = j
        .arr_field("l1d")?
        .iter()
        .map(cache_from_wire)
        .collect::<Result<Vec<_>, String>>()?;
    let l2 = j
        .arr_field("l2")?
        .iter()
        .map(cache_from_wire)
        .collect::<Result<Vec<_>, String>>()?;
    let llc = cache_from_wire(j.field("llc")?)?;
    let dram_j = j.field("dram")?;
    let buckets = dram_j.arr_field("bw_bucket_windows")?;
    if buckets.len() != 4 {
        return Err("sim report: bw_bucket_windows must have 4 entries".into());
    }
    let mut bw_bucket_windows = [0u64; 4];
    for (slot, b) in bw_bucket_windows.iter_mut().zip(buckets) {
        *slot = u64_value(b).map_err(|e| format!("sim report: bw_bucket_windows: {e}"))?;
    }
    let dram = pythia_sim::stats::DramStats {
        demand_reads: dram_j.uint_field("demand_reads")?,
        prefetch_reads: dram_j.uint_field("prefetch_reads")?,
        writes: dram_j.uint_field("writes")?,
        row_hits: dram_j.uint_field("row_hits")?,
        row_misses: dram_j.uint_field("row_misses")?,
        bus_busy_cycles: dram_j.uint_field("bus_busy_cycles")?,
        bw_bucket_windows,
    };
    let prefetchers = j
        .arr_field("prefetchers")?
        .iter()
        .map(|p| {
            Ok(pythia_sim::stats::PrefetcherStats {
                issued: p.uint_field("issued")?,
                redundant: p.uint_field("redundant")?,
                useful: p.uint_field("useful")?,
                useless: p.uint_field("useless")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SimReport {
        cores,
        l1d,
        l2,
        llc,
        dram,
        prefetchers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sim_report_wire_codec_round_trips_every_field() {
        use pythia_sim::stats::{CacheStats, CoreStats, DramStats, PrefetcherStats};
        // Distinct values everywhere so a swapped or dropped field fails,
        // plus one counter beyond f64's exact integer range.
        let mut n = 1u64;
        let mut next = || {
            n += 1;
            n
        };
        let cache = |next: &mut dyn FnMut() -> u64| CacheStats {
            demand_loads: next(),
            demand_load_hits: next(),
            demand_load_misses: next(),
            demand_stores: next(),
            demand_store_hits: next(),
            demand_store_misses: next(),
            prefetch_fills: next(),
            prefetch_redundant: next(),
            useful_prefetches: next(),
            useless_prefetches: next(),
            late_prefetch_hits: next(),
            mshr_stall_cycles: next(),
            mshr_stalls: next(),
            dirty_evictions: next(),
            evictions: next(),
        };
        let report = SimReport {
            cores: vec![
                CoreStats {
                    instructions: next(),
                    cycles: next(),
                    loads: next(),
                    stores: next(),
                    branches: next(),
                    branch_mispredicts: next(),
                },
                CoreStats {
                    instructions: u64::MAX,
                    cycles: (1 << 53) + 1,
                    ..Default::default()
                },
            ],
            l1d: vec![cache(&mut next), cache(&mut next)],
            l2: vec![cache(&mut next)],
            llc: cache(&mut next),
            dram: DramStats {
                demand_reads: next(),
                prefetch_reads: next(),
                writes: next(),
                row_hits: next(),
                row_misses: next(),
                bus_busy_cycles: next(),
                bw_bucket_windows: [next(), next(), next(), u64::MAX - 1],
            },
            prefetchers: vec![PrefetcherStats {
                issued: next(),
                redundant: next(),
                useful: next(),
                useless: next(),
            }],
        };
        let rendered = sim_report_wire_json(&report).render();
        let parsed = parse(&rendered).expect("valid json");
        let back = sim_report_from_wire(&parsed).expect("decodes");
        assert_eq!(back, report, "wire codec is lossless");
    }

    #[test]
    fn renders_and_parses_scalars() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Num(3.0), "3"),
            (Json::Num(-1.25), "-1.25"),
            (
                Json::Str("hi \"there\"\n".into()),
                "\"hi \\\"there\\\"\\n\"",
            ),
        ] {
            assert_eq!(v.render(), s);
            assert_eq!(parse(s).unwrap(), v);
        }
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = Json::obj()
            .set("name", "fig09")
            .set("cells", Json::Arr(vec![Json::Num(1.5), Json::Null]))
            .set("meta", Json::obj().set("threads", 4u64));
        let compact = v.render();
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = v.render_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for n in [0.0, 1.0, -7.0, 1.234567, 1e-9, 6.02e23, f64::MAX] {
            let rendered = render_number(n);
            let back = parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back, n, "{rendered}");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"abc"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        assert_eq!(parse("\"π\"").unwrap(), Json::Str("π".into()));
        // Non-BMP characters arrive as surrogate pairs.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
        assert_eq!(
            parse("\"x\\uD834\\uDD1Ey\"").unwrap(),
            Json::Str("x\u{1D11E}y".into())
        );
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [
            "\"\\ud83d\"",        // lone high
            "\"\\ude00\"",        // lone low
            "\"\\ud83d\\u0041\"", // high followed by non-surrogate
            "\"\\ud83dx\"",       // high followed by raw text
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// Arbitrary strings biased towards what the string reader branches
    /// on: both delimiters, every escape `write_escaped` emits, raw
    /// control characters, and 2-, 3- and 4-byte scalars.
    fn arbitrary_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u32>(), 0..48).prop_map(|draws| {
            draws
                .into_iter()
                .map(|x| match x % 8 {
                    0 => '"',
                    1 => '\\',
                    2 => ['\n', '\r', '\t', '/', '\u{8}', '\u{c}'][(x >> 8) as usize % 6],
                    3 => char::from_u32((x >> 8) % 0x20).expect("control character"),
                    4 => [
                        'é',
                        'å',
                        'π',
                        '€',
                        '😀',
                        '\u{1D11E}',
                        '\u{7f}',
                        '\u{10FFFF}',
                    ][(x >> 8) as usize % 8],
                    5 => char::from_u32((x >> 8) % 0x11_0000).unwrap_or('\u{FFFD}'),
                    _ => char::from_u32(0x20 + (x >> 8) % 0x5f).expect("printable ASCII"),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn any_string_round_trips_through_render_and_parse(s in arbitrary_string()) {
            let rendered = Json::Str(s.clone()).render();
            prop_assert_eq!(parse(&rendered), Ok(Json::Str(s.clone())), "{:?}", rendered);
            // Raw control characters inside a string are part of the
            // accepted language, not only their escaped forms.
            let raw = s.replace(['"', '\\'], "");
            prop_assert_eq!(parse(&format!("\"{raw}\"")), Ok(Json::Str(raw)));
        }
    }

    /// Message and byte offset are part of `parse`'s contract, so they
    /// are pinned as text (checked against the per-character reader the
    /// run-copying one replaced).
    #[test]
    fn error_strings_and_offsets_are_pinned() {
        for (bad, message) in [
            ("", "unexpected end of input"),
            ("{", "expected '\"' at byte 1"),
            ("[1,", "unexpected end of input"),
            ("{\"a\":}", "invalid number \"\" at byte 5"),
            ("tru", "invalid literal at byte 0"),
            ("1 2", "trailing data at byte 2"),
            ("\"abc", "unterminated string"),
            ("\"ab\u{e9}", "unterminated string"),
            ("\"ab\\n\u{1F600}", "unterminated string"),
            ("\"\\ud83d\"", "lone high surrogate \\ud83d at byte 6"),
            ("\"\\ude00\"", "lone low surrogate \\ude00 at byte 6"),
            (
                "\"\\ud83d\\u0041\"",
                "expected low surrogate after \\ud83d, got \\u0041",
            ),
            ("\"\\ud83dx\"", "lone high surrogate \\ud83d at byte 6"),
            ("\"\u{e9}\\q\"", "bad escape at byte 4"),
            ("\"\u{e9}\\u00\u{e9}\"", "bad \\u escape \"00\u{e9}\""),
            ("[\"\u{e9}\u{e9}\" 1]", "expected ',' or ']' at byte 8"),
        ] {
            assert_eq!(parse(bad), Err(message.to_string()), "{bad:?}");
        }
    }

    /// `parse` is linear. The bound cannot flake: a reader that
    /// revalidates the rest of the document per character needs minutes
    /// for this input, a linear one well under a second even unoptimized.
    #[test]
    fn string_heavy_document_parses_in_linear_time() {
        let item = Json::obj()
            .set("name", "459.GemsFDTD-765B \u{e5}lice \"quoted\"")
            .set("note", "x".repeat(96).as_str());
        let doc = Json::Arr(vec![item; 30_000]);
        let text = doc.render();
        assert!(text.len() >= 4 << 20, "{} bytes", text.len());
        let started = std::time::Instant::now();
        let back = parse(&text).expect("parses");
        let took = started.elapsed();
        assert!(
            took < std::time::Duration::from_secs(5),
            "{} bytes took {took:?}",
            text.len()
        );
        assert_eq!(back, doc);
    }

    #[test]
    fn lossless_u64_switches_to_a_string_past_2_pow_53() {
        let exact = 1u64 << 53;
        assert_eq!(u64_json(exact), Json::Num(exact as f64));
        assert_eq!(u64_json(exact + 1), Json::Str((exact + 1).to_string()));
        assert_eq!(u64_json(u64::MAX), Json::Str(u64::MAX.to_string()));
        for n in [0, exact, exact + 1, u64::MAX] {
            let wire = parse(&u64_json(n).render()).expect("parses");
            assert_eq!(u64_value(&wire), Ok(n));
        }
        for bad in ["-1", "1.5", "\"x\"", "null", "[1]"] {
            let v = parse(bad).expect("valid JSON");
            assert!(u64_value(&v).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = parse("{\"a\": 1, \"b\": [\"x\"]}").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("b").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("b").unwrap().as_str(), None);
        let fields = v.as_obj().expect("object");
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, "a");
        assert_eq!(v.get("b").unwrap().as_obj(), None);
    }

    #[test]
    fn field_readers_type_narrow_and_name_the_key() {
        let v = parse(
            "{\"s\": \"x\", \"n\": -3, \"big\": \"9007199254740993\", \"f\": 0.5, \
             \"t\": true, \"a\": [1], \"wide\": 0.1}",
        )
        .unwrap();
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(v.int_field::<i16>("n"), Ok(-3));
        assert_eq!(v.uint_field::<u64>("big"), Ok((1 << 53) + 1));
        assert_eq!(v.f32_field("f"), Ok(0.5));
        assert_eq!(v.bool_field("t"), Ok(true));
        assert_eq!(v.arr_field("a").map(<[Json]>::len), Ok(1));
        // Each failure names its key: missing, mistyped, out of range,
        // negative, fractional, or not an exact f32.
        for (key, err) in [
            ("gone", v.field("gone").err()),
            ("n", v.str_field("n").err()),
            ("big", v.uint_field::<u8>("big").err()),
            ("n", v.uint_field::<u64>("n").err()),
            ("f", v.int_field::<i64>("f").err()),
            ("wide", v.f32_field("wide").err()),
            ("t", v.arr_field("t").err()),
        ] {
            let err = err.unwrap_or_else(|| panic!("{key:?} must be rejected"));
            assert!(err.contains(&format!("{key:?}")), "{err}");
        }
    }
}
