//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, both single JSON
//! objects. The parser is hand-rolled (like the rest of the repo's JSON
//! handling in [`crate::obs`]) — no serde — with a recursion-depth bound
//! so a hostile line cannot blow the stack. Unknown fields are ignored
//! so the protocol can grow; unknown *ops* are errors.
//!
//! Requests:
//!
//! ```text
//! {"op":"load","config":"<scada config text>"}      load a model
//! {"op":"load","case_study":true}                   load the paper's 5-bus model
//! {"op":"verify","model":"<hex>","property":"obs","spec":{"k1":1,"k2":1}}
//! {"op":"maxres","model":"<hex>","property":"secured","axis":"total","r":1}
//! {"op":"enumerate","model":"<hex>","property":"obs","spec":{"k":2},"cap":50}
//! {"op":"security_index","model":"<hex>"}          per-measurement attack costs
//! {"op":"patch","model":"<hex>","patch":{"remove_device":7}}
//! {"op":"stats"}                                    service counters
//! {"op":"evict","model":"<hex>"}                    drop a warm session
//! {"op":"shutdown"}                                 drain and exit
//! ```
//!
//! The `patch` op mutates a warm session's model in place (delta
//! re-encode, no cold rebuild) and answers with the patched model's new
//! hash. Exactly one patch kind per request (device ids are 1-based,
//! matching the rest of the wire):
//!
//! ```text
//! {"patch":{"add_device":{"kind":"rtu","peers":[1,4]}}}
//! {"patch":{"remove_device":7}}
//! {"patch":{"set_profile":{"a":2,"b":9,"profiles":["rsa 2048"]}}}
//! {"patch":{"rewire_link":{"link":3,"a":2,"b":9}}}
//! ```
//!
//! Query requests accept an optional `"limits":{"timeout_ms":N,
//! "conflict_budget":N}` object, and any request may carry an `"id"`
//! (string or integer) that is echoed verbatim on the reply — the
//! correlation tag for pipelined connections that keep several requests
//! in flight. Responses are `{"ok":true,...}` with per-request
//! `elapsed_us` timing and, for queries, a `provenance` field
//! (`cold|warm|cached`); failures are `{"ok":false,"error":"..."}`.
//! Two failure shapes carry an explicit retry hint: `busy` (saturated,
//! `"retry":true` — try again shortly) and `draining` (shutting down,
//! `"retry":false` — this instance will never admit the request).

use std::time::Duration;

use scadasim::{CryptoProfile, DeviceId, DeviceKind};

use crate::encode::DeltaStats;
use crate::maxres::BudgetAxis;
use crate::obs::json_escape_into;
use crate::patch::ModelPatch;
use crate::spec::{Property, QueryLimits, ResiliencySpec, RetryPolicy};
use crate::threat::ThreatVector;
use crate::verify::Verdict;

use super::hash::ModelHash;

/// Maximum JSON nesting depth accepted from the wire.
const MAX_DEPTH: usize = 16;

/// Retry attempts granted to conflict-budgeted service queries (matches
/// the CLI's escalation default).
const SERVICE_RETRY_ATTEMPTS: u32 = 4;

// ---------------------------------------------------------------------------
// Minimal JSON value model + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Public so protocol clients (the `--connect`
/// CLI mode, tests, scripts) can pick responses apart without their own
/// parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON numbers are doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in wire order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field `key` of an object (first occurrence), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize` (see [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes this value back to wire form. Fails — rather than
    /// emitting `inf`/`NaN` tokens no JSON parser accepts — if any
    /// number in the tree is non-finite; such a value can only arise
    /// from local construction, never from [`parse_json`], and letting
    /// it onto the wire would poison the peer's whole line.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.render_into(&mut out)?;
        Ok(out)
    }

    fn render_into(&self, out: &mut String) -> Result<(), String> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    return Err(format!("cannot render non-finite number {n}"));
                }
                if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                json_escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out)?;
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    json_escape_into(key, out);
                    out.push_str("\":");
                    value.render_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("JSON nested deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err("bad low surrogate".to_string());
                                    }
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    return Err("lone high surrogate".to_string());
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code).ok_or_else(|| "bad codepoint".to_string())?,
                            );
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", char::from(other)));
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err("raw control byte in string".to_string()),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte at once, validating each byte once so
                    // long strings (inline configs) stay linear. Those
                    // bytes are ASCII, so the run ends on a char
                    // boundary of the (valid UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let s =
                        std::str::from_utf8(&rest[..run]).map_err(|_| "bad UTF-8".to_string())?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn digits(&mut self) -> usize {
        let mut count = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            count += 1;
        }
        count
    }

    /// Parses a number under the strict JSON grammar. `f64::parse` alone
    /// is too permissive — it tolerates `1.`, `01`, `+1`, `inf`, and
    /// similar forms no conforming peer emits — so the shape is checked
    /// here and the parse is only the final conversion. Values that
    /// overflow to ±infinity are rejected too: `Json::Num` must stay
    /// finite so responses echoing numbers remain renderable.
    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            // A leading zero stands alone: `0`, `0.5`, but never `01`.
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(format!("leading zero in number at byte {start}"));
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(format!("bad number at byte {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("missing digits after '.' at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("missing exponent digits at byte {start}"));
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let value = s
            .parse::<f64>()
            .map_err(|_| format!("bad number at byte {start}"))?;
        if !value.is_finite() {
            return Err(format!("number at byte {start} overflows f64"));
        }
        Ok(value)
    }
}

/// Parses one line into a JSON value, requiring the whole line to be a
/// single value.
pub fn parse_json(line: &str) -> Result<Json, String> {
    let mut p = Parser::new(line);
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Per-request resource limits from the wire, also part of the verdict
/// cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LimitsSpec {
    /// Wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Starting conflict budget (escalated ×2 on retry).
    pub conflict_budget: Option<u64>,
}

impl LimitsSpec {
    /// Whether any limit is set.
    pub fn is_bounded(&self) -> bool {
        self.timeout_ms.is_some() || self.conflict_budget.is_some()
    }

    /// Materializes the wire limits into [`QueryLimits`].
    pub fn to_limits(self) -> QueryLimits {
        let mut limits = QueryLimits::none();
        if let Some(ms) = self.timeout_ms {
            limits = limits.with_timeout(Duration::from_millis(ms));
        }
        if let Some(budget) = self.conflict_budget {
            limits = limits
                .with_conflict_budget(budget)
                .with_retry(RetryPolicy::escalating(SERVICE_RETRY_ATTEMPTS));
        }
        limits
    }
}

/// A decoded service request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Load (or re-touch) a model; exactly one source must be given.
    Load {
        /// Config text in the `scadasim` sectioned format.
        config: Option<String>,
        /// Load the paper's five-bus case study instead.
        case_study: bool,
    },
    /// Verify a property at a spec on a loaded model.
    Verify {
        /// Target model.
        model: ModelHash,
        /// Property to verify.
        property: Property,
        /// Resiliency spec.
        spec: ResiliencySpec,
        /// Per-request limits.
        limits: LimitsSpec,
    },
    /// Maximum resiliency search along one budget axis.
    MaxRes {
        /// Target model.
        model: ModelHash,
        /// Property to verify.
        property: Property,
        /// Budget axis swept.
        axis: BudgetAxis,
        /// Tolerated corrupted measurements (bad-data only).
        r: usize,
        /// Per-request limits.
        limits: LimitsSpec,
    },
    /// Enumerate minimal threat vectors up to a cap.
    Enumerate {
        /// Target model.
        model: ModelHash,
        /// Property to verify.
        property: Property,
        /// Resiliency spec.
        spec: ResiliencySpec,
        /// Maximum number of vectors to return.
        cap: usize,
        /// Per-request limits.
        limits: LimitsSpec,
    },
    /// Security-index distribution over a loaded model's measurements.
    SecurityIndex {
        /// Target model.
        model: ModelHash,
    },
    /// Apply a model delta to a warm session in place.
    Patch {
        /// Target model (the hash *before* the patch).
        model: ModelHash,
        /// The mutation to apply.
        patch: ModelPatch,
    },
    /// Service counters and cache statistics.
    Stats,
    /// Drop a warm session (and its cached verdicts).
    Evict {
        /// Target model.
        model: ModelHash,
    },
    /// Batch-audit a fleet directory of channel-directory configs: the
    /// engine scans, plans, and executes the portfolio internally
    /// (loads and patches go through the normal mutation path, so they
    /// are admission-controlled and journaled) and replies with one
    /// consolidated report.
    Batch {
        /// Fleet root directory (resolved on the server's filesystem).
        dir: String,
        /// Worker threads to spread independent clusters over.
        jobs: usize,
    },
    /// Liveness/readiness probe: serving state plus journal and
    /// recovery counters. Answered even while draining or recovering.
    Health,
    /// Drain in-flight queries and exit.
    Shutdown,
}

fn parse_model(obj: &Json) -> Result<ModelHash, String> {
    let s = obj
        .get("model")
        .and_then(Json::as_str)
        .ok_or("missing \"model\"")?;
    s.parse::<ModelHash>().map_err(|e| e.to_string())
}

fn parse_property(obj: &Json) -> Result<Property, String> {
    let s = obj
        .get("property")
        .and_then(Json::as_str)
        .ok_or("missing \"property\"")?;
    match s {
        "obs" | "observability" => Ok(Property::Observability),
        "secured" | "secured-observability" => Ok(Property::SecuredObservability),
        "baddata" | "bad-data-detectability" => Ok(Property::BadDataDetectability),
        other => Err(format!(
            "unknown property {other:?} (want obs|secured|baddata)"
        )),
    }
}

fn parse_spec(obj: &Json) -> Result<ResiliencySpec, String> {
    let spec = obj.get("spec").ok_or("missing \"spec\"")?;
    let k = spec.get("k").map(|v| v.as_usize().ok_or("bad \"k\""));
    let k1 = spec.get("k1").map(|v| v.as_usize().ok_or("bad \"k1\""));
    let k2 = spec.get("k2").map(|v| v.as_usize().ok_or("bad \"k2\""));
    let mut out = match (k, k1, k2) {
        (Some(k), None, None) => ResiliencySpec::total(k?),
        (None, Some(k1), Some(k2)) => ResiliencySpec::split(k1?, k2?),
        _ => return Err("spec needs either \"k\" or both \"k1\" and \"k2\"".to_string()),
    };
    if let Some(r) = spec.get("r") {
        out = out.with_corrupted(r.as_usize().ok_or("bad \"r\"")?);
    }
    if let Some(l) = spec.get("links") {
        out = out.with_link_failures(l.as_usize().ok_or("bad \"links\"")?);
    }
    Ok(out)
}

fn parse_axis(obj: &Json) -> Result<BudgetAxis, String> {
    match obj.get("axis").and_then(Json::as_str) {
        None | Some("total") => Ok(BudgetAxis::Total),
        Some("ieds") => Ok(BudgetAxis::IedsOnly),
        Some("rtus") => Ok(BudgetAxis::RtusOnly),
        Some(other) => Err(format!("unknown axis {other:?} (want ieds|rtus|total)")),
    }
}

fn parse_wire_device(v: &Json) -> Result<DeviceId, String> {
    let n = v.as_usize().ok_or("device ids must be positive integers")?;
    if n == 0 {
        return Err("device ids are 1-based".to_string());
    }
    Ok(DeviceId(n - 1))
}

fn parse_patch(obj: &Json) -> Result<ModelPatch, String> {
    let patch = obj.get("patch").ok_or("missing \"patch\"")?;
    parse_patch_value(patch)
}

/// Parses a bare patch object (the value of a request's `"patch"`
/// field, or a journal record's). Wire form round-trips through
/// [`render_patch`].
pub(crate) fn parse_patch_value(patch: &Json) -> Result<ModelPatch, String> {
    if !matches!(patch, Json::Obj(_)) {
        return Err("\"patch\" must be an object".to_string());
    }
    if let Some(v) = patch.get("add_device") {
        let kind = match v.get("kind").and_then(Json::as_str) {
            Some("ied") => DeviceKind::Ied,
            Some("rtu") => DeviceKind::Rtu,
            Some("router") => DeviceKind::Router,
            Some(other) => {
                return Err(format!(
                    "unknown device kind {other:?} (want ied|rtu|router)"
                ))
            }
            None => return Err("add_device needs \"kind\"".to_string()),
        };
        let peers = v
            .get("peers")
            .and_then(Json::as_arr)
            .ok_or("add_device needs a \"peers\" array")?
            .iter()
            .map(parse_wire_device)
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(ModelPatch::AddDevice { kind, peers });
    }
    if let Some(v) = patch.get("remove_device") {
        return Ok(ModelPatch::RemoveDevice {
            id: parse_wire_device(v)?,
        });
    }
    if let Some(v) = patch.get("set_profile") {
        let a = parse_wire_device(v.get("a").ok_or("set_profile needs \"a\"")?)?;
        let b = parse_wire_device(v.get("b").ok_or("set_profile needs \"b\"")?)?;
        let profiles = v
            .get("profiles")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|p| {
                let s = p.as_str().ok_or("profiles must be strings")?;
                s.parse::<CryptoProfile>().map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        return Ok(ModelPatch::SetProfile { a, b, profiles });
    }
    if let Some(v) = patch.get("rewire_link") {
        let link = v
            .get("link")
            .and_then(Json::as_usize)
            .ok_or("rewire_link needs a \"link\" index")?;
        let a = parse_wire_device(v.get("a").ok_or("rewire_link needs \"a\"")?)?;
        let b = parse_wire_device(v.get("b").ok_or("rewire_link needs \"b\"")?)?;
        return Ok(ModelPatch::RewireLink { link, a, b });
    }
    Err("patch needs one of add_device|remove_device|set_profile|rewire_link".to_string())
}

fn parse_limits(obj: &Json) -> Result<LimitsSpec, String> {
    let Some(limits) = obj.get("limits") else {
        return Ok(LimitsSpec::default());
    };
    if !matches!(limits, Json::Obj(_)) {
        return Err("\"limits\" must be an object".to_string());
    }
    let timeout_ms = match limits.get("timeout_ms") {
        Some(v) => Some(v.as_u64().ok_or("bad \"timeout_ms\"")?),
        None => None,
    };
    let conflict_budget = match limits.get("conflict_budget") {
        Some(v) => Some(v.as_u64().ok_or("bad \"conflict_budget\"")?),
        None => None,
    };
    Ok(LimitsSpec {
        timeout_ms,
        conflict_budget,
    })
}

/// Longest accepted rendering of a client request `id`, in bytes. The
/// id is echoed on every reply, so an unbounded id would let one
/// request inflate every pipelined response.
const MAX_ID_LEN: usize = 120;

/// Extracts the optional `"id"` correlation tag from a parsed request
/// object, pre-rendered exactly as it will be echoed on the reply.
fn render_id(obj: &Json) -> Result<Option<String>, String> {
    let Some(id) = obj.get("id") else {
        return Ok(None);
    };
    let rendered = match id {
        Json::Str(s) => {
            let mut out = String::from('"');
            json_escape_into(s, &mut out);
            out.push('"');
            out
        }
        // i64 holds every integer a JSON double can represent exactly.
        Json::Num(n) if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 => {
            format!("{}", *n as i64)
        }
        _ => return Err("\"id\" must be a string or an integer".to_string()),
    };
    if rendered.len() > MAX_ID_LEN {
        return Err(format!("\"id\" longer than {MAX_ID_LEN} bytes"));
    }
    Ok(Some(rendered))
}

/// Splices a pre-rendered request id into a finished response line, as
/// a trailing `"id"` field. Every renderer in this module emits a
/// single JSON object, so the line always ends in `}`.
pub(crate) fn attach_id(line: &mut String, id: &str) {
    debug_assert!(line.ends_with('}'));
    line.pop();
    line.push_str(",\"id\":");
    line.push_str(id);
    line.push('}');
}

/// Parses one request line into its optional `id` tag and the decoded
/// request. The id is returned even when the request itself is bad so
/// the error reply still correlates; it is `None` when the line is not
/// parseable JSON (nothing to correlate against) or the id itself is
/// invalid (the error explains why).
pub(crate) fn parse_line(line: &str) -> (Option<String>, Result<Request, String>) {
    let obj = match parse_json(line) {
        Ok(obj) => obj,
        Err(e) => return (None, Err(e)),
    };
    let id = match render_id(&obj) {
        Ok(id) => id,
        Err(e) => return (None, Err(e)),
    };
    (id, decode_request(&obj))
}

/// Parses one request line. Errors are human-readable strings destined
/// for the `error` field of a `{"ok":false}` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_line(line).1
}

/// Decodes a request from its parsed JSON object.
fn decode_request(obj: &Json) -> Result<Request, String> {
    if !matches!(obj, Json::Obj(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let op = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing \"op\"")?;
    match op {
        "load" => {
            let config = obj.get("config").map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or("\"config\" must be a string")
            });
            let config = config.transpose()?;
            let case_study = match obj.get("case_study") {
                Some(v) => v.as_bool().ok_or("\"case_study\" must be a bool")?,
                None => false,
            };
            if config.is_some() == case_study {
                return Err("load needs exactly one of \"config\" or \"case_study\"".to_string());
            }
            Ok(Request::Load { config, case_study })
        }
        "verify" => Ok(Request::Verify {
            model: parse_model(obj)?,
            property: parse_property(obj)?,
            spec: parse_spec(obj)?,
            limits: parse_limits(obj)?,
        }),
        "maxres" => {
            let r = match obj.get("r") {
                Some(v) => v.as_usize().ok_or("bad \"r\"")?,
                None => 1,
            };
            Ok(Request::MaxRes {
                model: parse_model(obj)?,
                property: parse_property(obj)?,
                axis: parse_axis(obj)?,
                r,
                limits: parse_limits(obj)?,
            })
        }
        "enumerate" => {
            let cap = match obj.get("cap") {
                Some(v) => v.as_usize().ok_or("bad \"cap\"")?,
                None => 100,
            };
            Ok(Request::Enumerate {
                model: parse_model(obj)?,
                property: parse_property(obj)?,
                spec: parse_spec(obj)?,
                cap,
                limits: parse_limits(obj)?,
            })
        }
        "security_index" => Ok(Request::SecurityIndex {
            model: parse_model(obj)?,
        }),
        "patch" => Ok(Request::Patch {
            model: parse_model(obj)?,
            patch: parse_patch(obj)?,
        }),
        "batch" => {
            let dir = obj
                .get("dir")
                .and_then(Json::as_str)
                .ok_or("batch needs \"dir\"")?
                .to_string();
            let jobs = match obj.get("jobs") {
                Some(v) => v.as_usize().ok_or("bad \"jobs\"")?,
                None => 1,
            };
            Ok(Request::Batch { dir, jobs })
        }
        "stats" => Ok(Request::Stats),
        "evict" => Ok(Request::Evict {
            model: parse_model(obj)?,
        }),
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

/// Outcome of an independent certification, summarized for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertStatus {
    /// Unsat verdict re-derived by proof replay.
    Proof,
    /// Sat verdict re-checked against model and budget.
    Threat,
    /// Certification was enabled but this verdict kind is unchecked.
    Unchecked,
    /// Certification FAILED — the verdict must not be trusted.
    Failed(String),
}

impl CertStatus {
    fn wire_name(&self) -> &'static str {
        match self {
            CertStatus::Proof => "proof",
            CertStatus::Threat => "threat",
            CertStatus::Unchecked => "unchecked",
            CertStatus::Failed(_) => "failed",
        }
    }
}

/// The cacheable payload of a query response (everything except
/// provenance and timing, which are per-request).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// Reply to `verify`.
    Verify {
        /// The verdict.
        verdict: Verdict,
        /// Solver conflicts spent.
        conflicts: u64,
        /// Solve attempts performed.
        attempts: u32,
        /// Certification outcome, when the service runs certified.
        certificate: Option<CertStatus>,
    },
    /// Reply to `maxres`.
    MaxRes {
        /// The maximum budget at which the property still holds; `None`
        /// when the property fails with nothing failed, or when the
        /// search was undecided at some step. Only the request's limits
        /// tell the two apart (see [`QueryReply::is_cacheable`]), so
        /// [`QueryReply::exit_hint`] reads every `None` as undecided.
        max: Option<usize>,
    },
    /// Reply to `enumerate`.
    Enumerate {
        /// Minimal threat vectors found.
        vectors: Vec<ThreatVector>,
        /// Whether the cap stopped the enumeration early.
        truncated: bool,
        /// Whether a resource limit left the space undecided.
        undecided: bool,
    },
    /// Reply to `security_index`.
    SecurityIndex {
        /// Per-measurement indices, in measurement order.
        indices: Vec<usize>,
        /// The system's security index (smallest per-measurement index).
        min: usize,
        /// The hardest measurement's index.
        max: usize,
        /// Max-flows run for the distribution (one per line some
        /// measurement depends on).
        solves: usize,
        /// Per-component certification failures (non-zero only when the
        /// service runs certified and a verdict fails to check).
        cert_failures: usize,
    },
    /// Reply to `patch` (never cached — the engine rekeys the session
    /// and renders it through `patch_line`, not `reply_line`).
    Patched {
        /// Delta statistics on success, a rejection reason otherwise
        /// (a rejected patch leaves the session's model untouched).
        result: Result<DeltaStats, String>,
    },
}

impl QueryReply {
    /// Whether this reply, answered under `limits`, is safe to cache:
    /// every sub-result decided. Undecided outcomes are retried on the
    /// next request instead of being replayed from the cache. A `maxres`
    /// null is decided when the sweep ran without limits: an unlimited
    /// sweep never ends on an `Unknown` rung, so its null means the
    /// property fails with nothing failed.
    pub fn is_cacheable(&self, limits: &LimitsSpec) -> bool {
        match self {
            QueryReply::Verify {
                verdict,
                certificate,
                ..
            } => !verdict.is_unknown() && !matches!(certificate, Some(CertStatus::Failed(_))),
            QueryReply::MaxRes { max } => max.is_some() || !limits.is_bounded(),
            QueryReply::Enumerate { undecided, .. } => !undecided,
            QueryReply::SecurityIndex { cert_failures, .. } => *cert_failures == 0,
            QueryReply::Patched { .. } => false,
        }
    }

    /// Whether the reply should map to a non-zero client exit code
    /// (mirrors the CLI: threat → 1, undecided → 3, cert failure → 4).
    pub fn exit_hint(&self) -> u8 {
        match self {
            QueryReply::Verify {
                certificate: Some(CertStatus::Failed(_)),
                ..
            } => 4,
            QueryReply::Verify { verdict, .. } => match verdict {
                Verdict::Resilient => 0,
                Verdict::Threat(_) => 1,
                Verdict::Unknown { .. } => 3,
            },
            QueryReply::MaxRes { max } => {
                if max.is_some() {
                    0
                } else {
                    3
                }
            }
            QueryReply::Enumerate {
                vectors, undecided, ..
            } => {
                if *undecided {
                    3
                } else if !vectors.is_empty() {
                    1
                } else {
                    0
                }
            }
            QueryReply::SecurityIndex { cert_failures, .. } => {
                if *cert_failures > 0 {
                    4
                } else {
                    0
                }
            }
            QueryReply::Patched { result } => {
                if result.is_ok() {
                    0
                } else {
                    2
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    json_escape_into(value, out);
    out.push('"');
}

fn push_ids(out: &mut String, ids: &[DeviceId]) {
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.one_based().to_string());
    }
    out.push(']');
}

fn push_threat(out: &mut String, vector: &ThreatVector) {
    out.push_str("{\"ieds\":");
    push_ids(out, &vector.ieds);
    out.push_str(",\"rtus\":");
    push_ids(out, &vector.rtus);
    out.push_str(",\"others\":");
    push_ids(out, &vector.others);
    out.push_str(",\"links\":[");
    for (i, (a, b)) in vector.links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{},{}]", a.one_based(), b.one_based()));
    }
    out.push_str("]}");
}

/// Renders an error response.
pub(crate) fn error_line(message: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":\"");
    json_escape_into(message, &mut out);
    out.push_str("\"}");
    out
}

/// Renders the saturation response; the client may retry after a delay.
pub(crate) fn busy_line() -> String {
    "{\"ok\":false,\"error\":\"busy\",\"retry\":true}".to_string()
}

/// Renders the drain rejection. Unlike `busy`, the retry hint is
/// `false`: once shutdown has been requested this instance will never
/// admit the request, so the client must fail over, not retry.
pub(crate) fn draining_line() -> String {
    "{\"ok\":false,\"error\":\"draining\",\"retry\":false}".to_string()
}

/// Renders the warm-up rejection sent while journal recovery is still
/// replaying. The retry hint is `true`: the same instance will accept
/// the request once the replay finishes.
pub(crate) fn warming_line() -> String {
    "{\"ok\":false,\"error\":\"warming\",\"retry\":true}".to_string()
}

/// The journal/recovery counters echoed on a `health` reply, in wire
/// order. Engines without a journal report them all as zero, so the
/// reply shape is identical across single, sharded, and journaled
/// deployments.
pub(crate) const HEALTH_COUNTERS: [&str; 9] = [
    "service_journal_appends",
    "service_journal_fsyncs",
    "service_journal_rotations",
    "service_journal_snapshots",
    "service_journal_bytes",
    "service_recovery_replayed",
    "service_recovery_sessions",
    "service_recovery_patches",
    "service_session_rebuilds",
];

/// Renders a `health` reply. `counter` resolves each name in
/// [`HEALTH_COUNTERS`]; the field key is the name with its
/// `service_` prefix dropped.
pub(crate) fn health_line(
    state: &str,
    journal: bool,
    sessions: usize,
    counter: &dyn Fn(&str) -> u64,
    elapsed_us: u128,
) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"health\"");
    push_str_field(&mut out, "state", state);
    out.push_str(&format!(",\"journal\":{journal},\"sessions\":{sessions}"));
    for name in HEALTH_COUNTERS {
        let key = name.strip_prefix("service_").unwrap_or(name);
        out.push_str(&format!(",\"{key}\":{}", counter(name)));
    }
    out.push_str(&format!(",\"elapsed_us\":{elapsed_us}}}"));
    out
}

/// Renders a patch in the exact wire form [`parse_patch`] accepts, for
/// journal records: `render_patch` then `parse_patch` round-trips.
pub(crate) fn render_patch(patch: &ModelPatch) -> String {
    match patch {
        ModelPatch::AddDevice { kind, peers } => {
            let kind = match kind {
                DeviceKind::Ied => "ied",
                DeviceKind::Rtu => "rtu",
                // The parser rejects "mtu" (one master per model); a
                // journaled patch can never contain it.
                DeviceKind::Mtu | DeviceKind::Router => "router",
            };
            let mut out = format!("{{\"add_device\":{{\"kind\":\"{kind}\",\"peers\":");
            push_ids(&mut out, peers);
            out.push_str("}}");
            out
        }
        ModelPatch::RemoveDevice { id } => {
            format!("{{\"remove_device\":{}}}", id.one_based())
        }
        ModelPatch::SetProfile { a, b, profiles } => {
            let mut out = format!(
                "{{\"set_profile\":{{\"a\":{},\"b\":{},\"profiles\":[",
                a.one_based(),
                b.one_based()
            );
            for (i, profile) in profiles.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape_into(&profile.to_string(), &mut out);
                out.push('"');
            }
            out.push_str("]}}");
            out
        }
        ModelPatch::RewireLink { link, a, b } => {
            format!(
                "{{\"rewire_link\":{{\"link\":{link},\"a\":{},\"b\":{}}}}}",
                a.one_based(),
                b.one_based()
            )
        }
    }
}

/// Renders a successful `load` response.
pub(crate) fn load_line(
    model: ModelHash,
    session: &str,
    devices: usize,
    measurements: usize,
    elapsed_us: u128,
) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"load\"");
    push_str_field(&mut out, "model", &model.to_string());
    push_str_field(&mut out, "session", session);
    out.push_str(&format!(
        ",\"devices\":{devices},\"measurements\":{measurements},\"elapsed_us\":{elapsed_us}}}"
    ));
    out
}

/// Renders a successful query response around its cacheable payload.
pub(crate) fn reply_line(
    model: ModelHash,
    reply: &QueryReply,
    provenance: &str,
    elapsed_us: u128,
) -> String {
    let mut out = String::from("{\"ok\":true");
    match reply {
        QueryReply::Verify {
            verdict,
            conflicts,
            attempts,
            certificate,
        } => {
            push_str_field(&mut out, "op", "verify");
            push_str_field(&mut out, "model", &model.to_string());
            let name = match verdict {
                Verdict::Resilient => "resilient",
                Verdict::Threat(_) => "threat",
                Verdict::Unknown { .. } => "unknown",
            };
            push_str_field(&mut out, "verdict", name);
            if let Verdict::Threat(vector) = verdict {
                out.push_str(",\"threat\":");
                push_threat(&mut out, vector);
            }
            out.push_str(&format!(
                ",\"conflicts\":{conflicts},\"attempts\":{attempts}"
            ));
            if let Some(cert) = certificate {
                push_str_field(&mut out, "certificate", cert.wire_name());
                if let CertStatus::Failed(reason) = cert {
                    push_str_field(&mut out, "certificate_error", reason);
                }
            }
        }
        QueryReply::MaxRes { max } => {
            push_str_field(&mut out, "op", "maxres");
            push_str_field(&mut out, "model", &model.to_string());
            match max {
                Some(k) => out.push_str(&format!(",\"max\":{k}")),
                None => out.push_str(",\"max\":null"),
            }
        }
        QueryReply::Enumerate {
            vectors,
            truncated,
            undecided,
        } => {
            push_str_field(&mut out, "op", "enumerate");
            push_str_field(&mut out, "model", &model.to_string());
            out.push_str(&format!(
                ",\"count\":{},\"truncated\":{truncated},\"undecided\":{undecided},\"vectors\":[",
                vectors.len()
            ));
            for (i, vector) in vectors.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_threat(&mut out, vector);
            }
            out.push(']');
        }
        QueryReply::SecurityIndex {
            indices,
            min,
            max,
            solves,
            cert_failures,
        } => {
            push_str_field(&mut out, "op", "security_index");
            push_str_field(&mut out, "model", &model.to_string());
            out.push_str(&format!(
                ",\"count\":{},\"min\":{min},\"max\":{max},\"solves\":{solves},\
                 \"cert_failures\":{cert_failures},\"indices\":[",
                indices.len()
            ));
            for (i, index) in indices.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&index.to_string());
            }
            out.push(']');
        }
        QueryReply::Patched { .. } => {
            unreachable!("patch replies are rendered by patch_line, never cached or replayed")
        }
    }
    push_str_field(&mut out, "provenance", provenance);
    out.push_str(&format!(",\"elapsed_us\":{elapsed_us}}}"));
    out
}

/// Renders a successful `patch` response. The `model` field names the
/// *patched* model — later requests must address it by this hash —
/// while `patched_from` records the lineage.
pub(crate) fn patch_line(
    model: ModelHash,
    patched_from: ModelHash,
    stats: &DeltaStats,
    cache_migrated: usize,
    elapsed_us: u128,
) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"patch\"");
    push_str_field(&mut out, "model", &model.to_string());
    push_str_field(&mut out, "patched_from", &patched_from.to_string());
    out.push_str(&format!(
        ",\"new_devices\":{},\"new_links\":{},\"newly_pinned\":{},\
         \"plain_dirty\":{},\"secured_dirty\":{},\"cache_migrated\":{cache_migrated}",
        stats.new_devices,
        stats.new_links,
        stats.newly_pinned,
        stats.plain_dirty,
        stats.secured_dirty,
    ));
    push_str_field(&mut out, "provenance", "delta");
    out.push_str(&format!(",\"elapsed_us\":{elapsed_us}}}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_requests() {
        assert_eq!(parse_request("{\"op\":\"stats\"}"), Ok(Request::Stats),);
        assert_eq!(
            parse_request(" {\"op\":\"shutdown\"} "),
            Ok(Request::Shutdown)
        );
        let req = parse_request(
            "{\"op\":\"verify\",\"model\":\"000102030405060708090a0b0c0d0e0f\",\
             \"property\":\"obs\",\"spec\":{\"k1\":1,\"k2\":2},\
             \"limits\":{\"conflict_budget\":100}}",
        )
        .unwrap();
        match req {
            Request::Verify {
                property,
                spec,
                limits,
                ..
            } => {
                assert_eq!(property, Property::Observability);
                assert_eq!(spec, ResiliencySpec::split(1, 2));
                assert_eq!(limits.conflict_budget, Some(100));
                assert_eq!(limits.timeout_ms, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("").is_err());
        assert!(parse_request("{").is_err());
        assert!(parse_request("42").is_err());
        assert!(parse_request("{\"op\":\"nope\"}").is_err());
        assert!(parse_request("{\"op\":\"verify\"}").is_err());
        assert!(parse_request("{\"op\":\"load\"}").is_err());
        assert!(parse_request("{\"op\":\"load\",\"config\":\"x\",\"case_study\":true}").is_err());
        // Spec must not mix total and split budgets.
        assert!(parse_request(
            "{\"op\":\"verify\",\"model\":\"000102030405060708090a0b0c0d0e0f\",\
             \"property\":\"obs\",\"spec\":{\"k\":1,\"k1\":1,\"k2\":1}}"
        )
        .is_err());
        // Trailing garbage after the object.
        assert!(parse_request("{\"op\":\"stats\"} {\"op\":\"stats\"}").is_err());
        // Negative and fractional counts.
        assert!(parse_request(
            "{\"op\":\"verify\",\"model\":\"000102030405060708090a0b0c0d0e0f\",\
             \"property\":\"obs\",\"spec\":{\"k\":-1}}"
        )
        .is_err());
        assert!(parse_request(
            "{\"op\":\"verify\",\"model\":\"000102030405060708090a0b0c0d0e0f\",\
             \"property\":\"obs\",\"spec\":{\"k\":1.5}}"
        )
        .is_err());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        // Forms `f64::parse` tolerates but JSON forbids.
        assert!(parse_json("1.").is_err());
        assert!(parse_json("01").is_err());
        assert!(parse_json("-01").is_err());
        assert!(parse_json("1e+").is_err());
        assert!(parse_json("1e").is_err());
        assert!(parse_json(".5").is_err());
        assert!(parse_json("+1").is_err());
        assert!(parse_json("1.e5").is_err());
        // Overflow to infinity is a parse error, not a silent `inf`.
        assert!(parse_json("1e999").is_err());
        assert!(parse_json("-1e999").is_err());
        // The same laxity must not leak in via request fields.
        assert!(parse_request(
            "{\"op\":\"verify\",\"model\":\"000102030405060708090a0b0c0d0e0f\",\
             \"property\":\"obs\",\"spec\":{\"k\":01}}"
        )
        .is_err());
        // Every valid JSON shape still parses.
        for (text, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5", -0.5),
            ("1e5", 1e5),
            ("1E5", 1e5),
            ("1e+5", 1e5),
            ("1e-5", 1e-5),
            ("12.25e2", 1225.0),
        ] {
            assert_eq!(parse_json(text), Ok(Json::Num(want)), "on {text:?}");
        }
    }

    #[test]
    fn render_rejects_non_finite_numbers() {
        assert!(Json::Num(f64::NAN).render().is_err());
        assert!(Json::Num(f64::INFINITY).render().is_err());
        assert!(
            Json::Arr(vec![Json::Num(1.0), Json::Num(f64::NEG_INFINITY)])
                .render()
                .is_err()
        );
        assert!(Json::Obj(vec![("x".to_string(), Json::Num(f64::NAN))])
            .render()
            .is_err());
        // Finite values round-trip through render → parse.
        let v = Json::Obj(vec![
            ("a".to_string(), Json::Num(1.5)),
            ("b".to_string(), Json::Arr(vec![Json::Num(3.0), Json::Null])),
            ("c".to_string(), Json::Str("q\"q".to_string())),
        ]);
        let line = v.render().unwrap();
        assert_eq!(parse_json(&line), Ok(v));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let mut deep = String::new();
        for _ in 0..64 {
            deep.push('[');
        }
        for _ in 0..64 {
            deep.push(']');
        }
        assert!(parse_json(&deep).is_err());
        // A sane nesting level parses fine.
        assert!(parse_json("{\"a\":{\"b\":[1,2,{\"c\":null}]}}").is_ok());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse_json("\"a\\\"b\\\\c\\n\\u0041\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA😀"));
        // Raw multi-byte runs between escapes copy through unchanged.
        let v = parse_json("\"héllo 😀\\tzß\\\"\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo 😀\tzß\""));
        assert!(parse_json("\"ab\u{1}c\"").is_err());
        assert!(parse_json("\"\\ud83d\"").is_err());
        assert!(parse_json("\"\\q\"").is_err());
    }

    #[test]
    fn replies_render_as_single_json_objects() {
        let model = ModelHash(0xdead_beef);
        let reply = QueryReply::Verify {
            verdict: Verdict::Resilient,
            conflicts: 7,
            attempts: 1,
            certificate: Some(CertStatus::Proof),
        };
        let line = reply_line(model, &reply, "warm", 1234);
        let parsed = parse_json(&line).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("provenance").and_then(Json::as_str),
            Some("warm")
        );
        assert_eq!(
            parsed.get("certificate").and_then(Json::as_str),
            Some("proof")
        );
        assert_eq!(parsed.get("conflicts").and_then(Json::as_u64), Some(7));

        let err = error_line("bad \"quote\"");
        let parsed = parse_json(&err).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("bad \"quote\"")
        );
    }

    #[test]
    fn security_index_request_and_reply_round_trip() {
        let req = parse_request(
            "{\"op\":\"security_index\",\"model\":\"000102030405060708090a0b0c0d0e0f\"}",
        )
        .unwrap();
        assert!(matches!(req, Request::SecurityIndex { .. }));
        assert!(parse_request("{\"op\":\"security_index\"}").is_err());

        let reply = QueryReply::SecurityIndex {
            indices: vec![2, 3, 2],
            min: 2,
            max: 3,
            solves: 9,
            cert_failures: 0,
        };
        assert!(reply.is_cacheable(&LimitsSpec::default()));
        assert_eq!(reply.exit_hint(), 0);
        let line = reply_line(ModelHash(1), &reply, "cached", 55);
        let parsed = parse_json(&line).unwrap();
        assert_eq!(
            parsed.get("op").and_then(Json::as_str),
            Some("security_index")
        );
        assert_eq!(parsed.get("min").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("max").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(
            parsed.get("provenance").and_then(Json::as_str),
            Some("cached")
        );
        assert_eq!(
            parsed.get("indices").and_then(Json::as_arr).map(<[_]>::len),
            Some(3)
        );

        let failed = QueryReply::SecurityIndex {
            indices: vec![2],
            min: 2,
            max: 2,
            solves: 4,
            cert_failures: 1,
        };
        assert!(!failed.is_cacheable(&LimitsSpec::default()));
        assert_eq!(failed.exit_hint(), 4);
    }

    #[test]
    fn cacheability_excludes_undecided_outcomes() {
        let unknown = QueryReply::Verify {
            verdict: Verdict::Unknown {
                conflicts: 5,
                elapsed: Duration::from_millis(1),
            },
            conflicts: 5,
            attempts: 1,
            certificate: None,
        };
        assert!(!unknown.is_cacheable(&LimitsSpec::default()));
        assert_eq!(unknown.exit_hint(), 3);
        let decided = QueryReply::MaxRes { max: Some(2) };
        assert!(decided.is_cacheable(&LimitsSpec::default()));
        assert_eq!(decided.exit_hint(), 0);
        let failed = QueryReply::Verify {
            verdict: Verdict::Resilient,
            conflicts: 0,
            attempts: 1,
            certificate: Some(CertStatus::Failed("mismatch".to_string())),
        };
        assert!(!failed.is_cacheable(&LimitsSpec::default()));
        assert_eq!(failed.exit_hint(), 4);
    }

    /// An unlimited sweep cannot end on an `Unknown` rung, so its null
    /// means "fails with nothing failed" and is as final as any number.
    #[test]
    fn unlimited_maxres_null_is_cacheable() {
        let null = QueryReply::MaxRes { max: None };
        assert!(null.is_cacheable(&LimitsSpec::default()));
        // The reply alone cannot tell it from an undecided null.
        assert_eq!(null.exit_hint(), 3);
    }

    /// A limited sweep's null may stand for an `Unknown` rung: it is
    /// retried on the next request, not replayed.
    #[test]
    fn limited_maxres_null_is_not_cacheable() {
        let null = QueryReply::MaxRes { max: None };
        let timeout = LimitsSpec {
            timeout_ms: Some(50),
            conflict_budget: None,
        };
        let budget = LimitsSpec {
            timeout_ms: None,
            conflict_budget: Some(100),
        };
        assert!(!null.is_cacheable(&timeout));
        assert!(!null.is_cacheable(&budget));
        assert!(QueryReply::MaxRes { max: Some(0) }.is_cacheable(&timeout));
        assert_eq!(null.exit_hint(), 3);
    }
}
