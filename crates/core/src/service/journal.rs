//! Crash-safe durability for the service: a write-ahead journal of
//! state-mutating ops and warm-state recovery on restart.
//!
//! # What is journaled
//!
//! Exactly the three ops that mutate service state — `load`, `patch`,
//! `evict` — in the canonical line-JSON wire format, one framed record
//! per acked op. Queries (`verify`, `maxres`, `enumerate`,
//! `security_index`) are *deliberately not journaled*: the verdict
//! cache is a pure function of the model set and is recomputed on
//! demand after recovery, so journaling it would buy latency on the
//! first post-restart query at the cost of journal bandwidth on every
//! query. Likewise the LRU *recency* imparted by queries is not
//! durable: recovery restores sessions in the order of their last
//! *mutating* touch.
//!
//! # Framing
//!
//! Every record is one line: an 8-hex-digit payload length, a
//! 16-hex-digit FNV-1a-64 checksum of the payload, the payload itself,
//! and a trailing newline. The first record of every file is a header
//! identifying the file kind; files are created atomically (write to
//! `*.tmp`, fsync, rename, fsync the directory), so a legitimate crash
//! can never produce an empty file or a torn header — on open those
//! fail closed as [`JournalError::Corrupt`]. A torn *tail* in the
//! newest WAL segment is the expected crash signature and is truncated.
//!
//! # Segments, snapshots, and bounded replay
//!
//! The WAL rotates once the active segment passes a size bound. Each
//! rotation first creates the next segment, then writes a *snapshot* of
//! the shadow state (every live model as `base + patch lineage`), then
//! deletes everything older — so replay cost is bounded by one segment
//! plus the live-model count, not by history length.
//!
//! # The ack/fsync contract
//!
//! Under `--durability strict` an op is acked only after its record is
//! fsynced: a failed fsync turns the ack into an error reply (the op
//! may have applied in memory — the client must treat the outcome as
//! unknown, exactly as it would a lost connection). `batch` fsyncs
//! every [`BATCH_SYNC_EVERY`] appends, `off` leaves flushing to the OS;
//! in both, a crash can lose the unsynced suffix of *acked* ops.
//!
//! # Shard-count independence
//!
//! The journal records model hashes, not shard assignments. Recovery
//! re-issues each model's `load` and patch chain through the router,
//! which re-routes by hash — so a restart with a different `--shards`
//! rebuilds the same sessions (byte-equivalent verdicts) on whatever
//! shard now owns them. After each replayed chain the materialized
//! lineage hash is checked against the recorded one; a mismatch fails
//! recovery rather than serving silently divergent state.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::obs::{json_escape_into, MetricsRegistry};
use crate::patch::ModelPatch;

use super::hash::{advance_model_hash, ModelHash};
use super::protocol::{
    self, attach_id, error_line, parse_json, parse_line, warming_line, Json, Request,
};
use super::server::{op_name, LineHandler, Response};
use super::sharded::ShardedEngine;

/// Appends between fsyncs under `--durability batch`.
pub const BATCH_SYNC_EVERY: u64 = 32;

/// Default segment-rotation bound, in bytes.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Hard sanity bound on one record's payload while scanning (a torn
/// length field must not make the scanner attempt a huge allocation).
const MAX_RECORD_PAYLOAD: u64 = 64 << 20;

/// Bytes of framing around every payload: 8 hex length digits, 16 hex
/// checksum digits, and the trailing newline.
const FRAME_OVERHEAD: usize = 25;

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// When an appended record is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Every append fsyncs before the op is acked (ack implies
    /// durable).
    Strict,
    /// Fsync every [`BATCH_SYNC_EVERY`] appends; a crash can lose the
    /// unsynced suffix of acked ops.
    Batch,
    /// Never fsync explicitly; flushing is the OS's business.
    Off,
}

impl std::str::FromStr for Durability {
    type Err = String;

    fn from_str(s: &str) -> Result<Durability, String> {
        match s {
            "strict" => Ok(Durability::Strict),
            "batch" => Ok(Durability::Batch),
            "off" => Ok(Durability::Off),
            other => Err(format!(
                "unknown durability {other:?} (want strict|batch|off)"
            )),
        }
    }
}

/// Configuration for [`Journal::open`].
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Journal directory (created if missing).
    pub dir: PathBuf,
    /// Fsync policy.
    pub durability: Durability,
    /// Rotate the active segment once it passes this many bytes.
    pub segment_bytes: u64,
    /// Most-recently-touched models retained in the shadow state (and
    /// therefore re-materialized on recovery). Should comfortably
    /// exceed the engine's session capacity: the engine's own LRU
    /// re-evicts the excess during replay, which is what keeps the
    /// recovered live set identical to a never-crashed engine's.
    pub retain_models: usize,
    /// Deterministic fault injection (tests only; [`FaultPlan::none`]
    /// in production).
    pub fault: FaultPlan,
}

impl JournalConfig {
    /// A config with production defaults.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            durability: Durability::Strict,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            retain_models: 24,
            fault: FaultPlan::none(),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// Where in the append path an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Abort before any byte of the record is written.
    CrashBeforeAppend,
    /// Write roughly half the record, flush it, then abort — the
    /// torn-record crash signature.
    CrashMidAppend,
    /// Write the whole record, abort before the fsync.
    CrashAfterWrite,
    /// Fsync the record, then abort (durable but never acked).
    CrashAfterSync,
    /// Make the strict-mode fsync fail without crashing; the op must
    /// be answered with an error, not an ack.
    FsyncError,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "crash_before_append" => FaultKind::CrashBeforeAppend,
            "crash_mid_append" => FaultKind::CrashMidAppend,
            "crash_after_write" => FaultKind::CrashAfterWrite,
            "crash_after_sync" => FaultKind::CrashAfterSync,
            "fsync_error" => FaultKind::FsyncError,
            _ => return None,
        })
    }
}

/// A deterministic fault schedule over the journal's append sequence:
/// each entry fires at one zero-based mutating-append index. The chaos
/// harness derives plans from a seed and passes them to a child
/// `scadad` through the `SCADAD_FAULT` environment variable
/// (`kind:index[,kind:index...]`).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    slots: Vec<(FaultKind, u64)>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// One fault at one append index.
    pub fn single(kind: FaultKind, index: u64) -> FaultPlan {
        FaultPlan {
            slots: vec![(kind, index)],
        }
    }

    /// Parses a `kind:index[,kind:index...]` spec.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut slots = Vec::new();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (kind, index) = part
                .split_once(':')
                .ok_or_else(|| format!("bad fault {part:?} (want kind:index)"))?;
            let kind =
                FaultKind::parse(kind).ok_or_else(|| format!("unknown fault kind {kind:?}"))?;
            let index = index
                .parse::<u64>()
                .map_err(|_| format!("bad fault index {index:?}"))?;
            slots.push((kind, index));
        }
        Ok(FaultPlan { slots })
    }

    /// The plan named by `SCADAD_FAULT`, or none. A malformed spec is a
    /// hard error: a chaos run with a silently dropped fault would
    /// assert nothing.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("SCADAD_FAULT") {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::none()),
        }
    }

    fn hits(&self, kind: FaultKind, index: u64) -> bool {
        self.slots.iter().any(|&(k, i)| k == kind && i == index)
    }
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// FNV-1a 64 over the payload bytes — cheap, dependency-free, and more
/// than strong enough to tell a torn record from a whole one.
fn crc64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn frame_record(payload: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(format!("{:08x}", payload.len()).as_bytes());
    out.extend_from_slice(format!("{:016x}", crc64(payload.as_bytes())).as_bytes());
    out.extend_from_slice(payload.as_bytes());
    out.push(b'\n');
    out
}

fn parse_hex(bytes: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(bytes).ok()?;
    u64::from_str_radix(s, 16).ok()
}

/// Scans framed records from the start of `data`. Returns the parsed
/// payloads, the byte length of the valid prefix, and `None` if the
/// whole buffer parsed cleanly — or `Some(reason)` describing the
/// first invalid record (the caller decides whether that is a torn
/// tail to truncate or corruption to fail on).
fn scan_records(data: &[u8]) -> (Vec<String>, usize, Option<String>) {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    loop {
        if offset == data.len() {
            return (payloads, offset, None);
        }
        let rest = &data[offset..];
        if rest.len() < FRAME_OVERHEAD - 1 {
            return (
                payloads,
                offset,
                Some("incomplete record frame".to_string()),
            );
        }
        let Some(len) = parse_hex(&rest[..8]) else {
            return (payloads, offset, Some("bad length field".to_string()));
        };
        let Some(crc) = parse_hex(&rest[8..24]) else {
            return (payloads, offset, Some("bad checksum field".to_string()));
        };
        if len > MAX_RECORD_PAYLOAD {
            return (
                payloads,
                offset,
                Some(format!("absurd record length {len}")),
            );
        }
        let len = len as usize;
        if rest.len() < 24 + len + 1 {
            return (
                payloads,
                offset,
                Some("incomplete record payload".to_string()),
            );
        }
        let payload = &rest[24..24 + len];
        if rest[24 + len] != b'\n' {
            return (
                payloads,
                offset,
                Some("missing record terminator".to_string()),
            );
        }
        if crc64(payload) != crc {
            return (payloads, offset, Some("checksum mismatch".to_string()));
        }
        let Ok(payload) = std::str::from_utf8(payload) else {
            return (payloads, offset, Some("payload is not UTF-8".to_string()));
        };
        payloads.push(payload.to_string());
        offset += 24 + len + 1;
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a journal failed to open or replay.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O failure.
    Io(io::Error),
    /// The on-disk journal is structurally invalid — an empty file, a
    /// torn or mismatched header, mid-file corruption. File creation is
    /// atomic, so a legitimate crash cannot produce these: the journal
    /// fails closed rather than recovering partial state.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { file, detail } => {
                write!(f, "corrupt journal file {}: {detail}", file.display())
            }
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

fn corrupt(file: &Path, detail: impl Into<String>) -> JournalError {
    JournalError::Corrupt {
        file: file.to_path_buf(),
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// WAL ops and the shadow state
// ---------------------------------------------------------------------------

/// Where a model's base input came from.
#[derive(Debug, Clone, PartialEq)]
enum LoadSource {
    CaseStudy,
    Config(String),
}

/// One journaled mutating op.
#[derive(Debug, Clone, PartialEq)]
enum WalOp {
    Load {
        model: ModelHash,
        source: LoadSource,
    },
    Patch {
        model: ModelHash,
        patch: ModelPatch,
    },
    Evict {
        model: ModelHash,
    },
}

impl WalOp {
    fn render(&self, seq: u64) -> String {
        match self {
            WalOp::Load { model, source } => {
                let mut out = format!("{{\"seq\":{seq},\"op\":\"load\",\"model\":\"{model}\"");
                match source {
                    LoadSource::CaseStudy => out.push_str(",\"case_study\":true"),
                    LoadSource::Config(text) => {
                        out.push_str(",\"config\":\"");
                        json_escape_into(text, &mut out);
                        out.push('"');
                    }
                }
                out.push('}');
                out
            }
            WalOp::Patch { model, patch } => format!(
                "{{\"seq\":{seq},\"op\":\"patch\",\"model\":\"{model}\",\"patch\":{}}}",
                protocol::render_patch(patch)
            ),
            WalOp::Evict { model } => {
                format!("{{\"seq\":{seq},\"op\":\"evict\",\"model\":\"{model}\"}}")
            }
        }
    }
}

fn record_model(v: &Json) -> Result<ModelHash, String> {
    v.get("model")
        .and_then(Json::as_str)
        .ok_or("missing \"model\"")?
        .parse::<ModelHash>()
        .map_err(|e| e.to_string())
}

fn record_source(v: &Json) -> Result<LoadSource, String> {
    if v.get("case_study").and_then(Json::as_bool) == Some(true) {
        return Ok(LoadSource::CaseStudy);
    }
    match v.get("config").and_then(Json::as_str) {
        Some(text) => Ok(LoadSource::Config(text.to_string())),
        None => Err("load record needs \"case_study\" or \"config\"".to_string()),
    }
}

fn parse_wal_record(payload: &str) -> Result<(u64, WalOp), String> {
    let v = parse_json(payload)?;
    let seq = v
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or("missing \"seq\"")?;
    let op = match v.get("op").and_then(Json::as_str).ok_or("missing \"op\"")? {
        "load" => WalOp::Load {
            model: record_model(&v)?,
            source: record_source(&v)?,
        },
        "patch" => WalOp::Patch {
            model: record_model(&v)?,
            patch: protocol::parse_patch_value(v.get("patch").ok_or("missing \"patch\"")?)?,
        },
        "evict" => WalOp::Evict {
            model: record_model(&v)?,
        },
        other => return Err(format!("unknown journal op {other:?}")),
    };
    Ok((seq, op))
}

/// One live model's rebuild recipe: its base input plus the patch
/// lineage applied since, keyed in [`ShadowState`] by the *current*
/// (post-lineage) hash.
#[derive(Debug, Clone, PartialEq)]
struct Recipe {
    source: LoadSource,
    patches: Vec<ModelPatch>,
    /// Mutating-op clock of the last touch; recovery materializes in
    /// ascending order so the engine's own LRU re-evicts the same
    /// victims it would have pre-crash.
    touched: u64,
}

/// A pure fold of the WAL: enough state to rebuild every live session,
/// independent of shard count.
#[derive(Debug, Default)]
struct ShadowState {
    models: BTreeMap<ModelHash, Recipe>,
    clock: u64,
    retain: usize,
}

impl ShadowState {
    fn new(retain: usize) -> ShadowState {
        ShadowState {
            models: BTreeMap::new(),
            clock: 0,
            retain: retain.max(1),
        }
    }

    fn apply(&mut self, op: &WalOp) {
        self.clock += 1;
        let clock = self.clock;
        match op {
            WalOp::Load { model, source } => {
                // A re-load of a live model only re-touches it; content
                // hashes and lineage hashes come from disjoint mixers,
                // so a load can never collide with a patched recipe.
                self.models
                    .entry(*model)
                    .and_modify(|r| r.touched = clock)
                    .or_insert_with(|| Recipe {
                        source: source.clone(),
                        patches: Vec::new(),
                        touched: clock,
                    });
            }
            WalOp::Patch { model, patch } => {
                // A patch on an unknown model was rejected by the
                // engine and never journaled; an unknown key here means
                // the recipe was pruned as long-cold — drop the patch
                // with it.
                if let Some(mut recipe) = self.models.remove(model) {
                    let next = advance_model_hash(*model, patch);
                    recipe.patches.push(patch.clone());
                    recipe.touched = clock;
                    self.models.insert(next, recipe);
                }
            }
            WalOp::Evict { model } => {
                self.models.remove(model);
            }
        }
        while self.models.len() > self.retain {
            let coldest = self
                .models
                .iter()
                .min_by_key(|(_, r)| r.touched)
                .map(|(m, _)| *m)
                .expect("non-empty map has a minimum");
            self.models.remove(&coldest);
        }
    }

    /// Recipes in materialization order (coldest first).
    fn plan(&self) -> Vec<(ModelHash, Recipe)> {
        let mut plan: Vec<_> = self.models.iter().map(|(m, r)| (*m, r.clone())).collect();
        plan.sort_by_key(|(_, r)| r.touched);
        plan
    }

    fn render_recipe(model: ModelHash, recipe: &Recipe) -> String {
        let mut out = format!("{{\"model\":\"{model}\",\"touched\":{}", recipe.touched);
        match &recipe.source {
            LoadSource::CaseStudy => out.push_str(",\"case_study\":true"),
            LoadSource::Config(text) => {
                out.push_str(",\"config\":\"");
                json_escape_into(text, &mut out);
                out.push('"');
            }
        }
        out.push_str(",\"patches\":[");
        for (i, patch) in recipe.patches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&protocol::render_patch(patch));
        }
        out.push_str("]}");
        out
    }

    fn parse_recipe(payload: &str) -> Result<(ModelHash, Recipe), String> {
        let v = parse_json(payload)?;
        let model = record_model(&v)?;
        let touched = v
            .get("touched")
            .and_then(Json::as_u64)
            .ok_or("missing \"touched\"")?;
        let source = record_source(&v)?;
        let patches = v
            .get("patches")
            .and_then(Json::as_arr)
            .ok_or("missing \"patches\"")?
            .iter()
            .map(protocol::parse_patch_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok((
            model,
            Recipe {
                source,
                patches,
                touched,
            },
        ))
    }
}

// ---------------------------------------------------------------------------
// The journal proper
// ---------------------------------------------------------------------------

fn wal_name(index: u64) -> String {
    format!("wal-{index:08}.log")
}

fn snap_name(index: u64) -> String {
    format!("snap-{index:08}.snap")
}

fn parse_file_index(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if rest.len() != 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync is what makes a rename durable on Linux; other
    // platforms may refuse to open a directory — best-effort there.
    match File::open(dir) {
        Ok(f) => f.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Atomically creates `dir/name` containing the framed records in
/// `payloads` (tmp + fsync + rename + dir fsync), returning the open
/// handle positioned for append and the byte length written.
fn create_atomic(dir: &Path, name: &str, payloads: &[String]) -> io::Result<(File, u64)> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = File::create(&tmp)?;
    let mut written = 0u64;
    for payload in payloads {
        let record = frame_record(payload);
        file.write_all(&record)?;
        written += record.len() as u64;
    }
    file.sync_all()?;
    fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)?;
    Ok((file, written))
}

fn wal_header(index: u64) -> String {
    format!("{{\"scadad_journal\":1,\"kind\":\"wal\",\"segment\":{index}}}")
}

fn snap_header(upto: u64) -> String {
    format!("{{\"scadad_journal\":1,\"kind\":\"snapshot\",\"upto\":{upto}}}")
}

/// Validates a file header payload, returning the `upto`/`segment`
/// figure for the expected kind.
fn check_header(payload: &str, kind: &str) -> Result<u64, String> {
    let v = parse_json(payload).map_err(|e| format!("bad header: {e}"))?;
    if v.get("scadad_journal").and_then(Json::as_u64) != Some(1) {
        return Err("not a scadad journal file".to_string());
    }
    match v.get("kind").and_then(Json::as_str) {
        Some(k) if k == kind => {}
        Some(k) => return Err(format!("expected a {kind} header, found {k:?}")),
        None => return Err("header missing \"kind\"".to_string()),
    }
    let field = if kind == "wal" { "segment" } else { "upto" };
    v.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("header missing {field:?}"))
}

/// What `Journal::open` found on disk, for the recovery counters and
/// the startup log line.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenStats {
    /// WAL records replayed into the shadow state (past any snapshot).
    pub replayed: u64,
    /// Whether a snapshot was loaded.
    pub snapshot: bool,
    /// Bytes of torn tail truncated from the newest segment.
    pub truncated: u64,
    /// Live models awaiting materialization.
    pub models: usize,
}

/// The append-only write-ahead journal. All methods take `&mut self`;
/// the engine wrapper serializes appends behind one mutex so journal
/// order is apply order.
pub struct Journal {
    config: JournalConfig,
    shadow: ShadowState,
    active: File,
    active_index: u64,
    active_len: u64,
    next_seq: u64,
    dirty: u64,
    appends: u64,
    open_stats: OpenStats,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.config.dir)
            .field("segment", &self.active_index)
            .field("next_seq", &self.next_seq)
            .field("models", &self.shadow.models.len())
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens (or initializes) the journal in `config.dir`: loads the
    /// newest snapshot, replays the WAL tail into the shadow state,
    /// truncates a torn tail on the newest segment, and fails closed on
    /// anything atomic file creation cannot explain.
    pub fn open(config: JournalConfig) -> Result<Journal, JournalError> {
        fs::create_dir_all(&config.dir)?;
        let mut wal_indexes: Vec<u64> = Vec::new();
        let mut snap_indexes: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&config.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                // An interrupted atomic create; the rename never
                // happened, so the file is invisible to recovery.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(index) = parse_file_index(name, "wal-", ".log") {
                wal_indexes.push(index);
            } else if let Some(index) = parse_file_index(name, "snap-", ".snap") {
                snap_indexes.push(index);
            }
        }
        wal_indexes.sort_unstable();
        snap_indexes.sort_unstable();

        let mut shadow = ShadowState::new(config.retain_models);
        let mut stats = OpenStats::default();
        let mut last_seq = 0u64;

        if wal_indexes.is_empty() && snap_indexes.is_empty() {
            // Fresh directory.
            let name = wal_name(0);
            let (active, active_len) = create_atomic(&config.dir, &name, &[wal_header(0)])?;
            return Ok(Journal {
                config,
                shadow,
                active,
                active_index: 0,
                active_len,
                next_seq: 1,
                dirty: 0,
                appends: 0,
                open_stats: stats,
                metrics: None,
            });
        }

        // Newest snapshot first (if any).
        let snap_floor = if let Some(&snap_index) = snap_indexes.last() {
            let path = config.dir.join(snap_name(snap_index));
            let mut data = Vec::new();
            File::open(&path)?.read_to_end(&mut data)?;
            let (payloads, _, torn) = scan_records(&data);
            if let Some(detail) = torn {
                // Snapshots are created atomically: any tear is
                // external damage.
                return Err(corrupt(&path, detail));
            }
            let Some(header) = payloads.first() else {
                return Err(corrupt(&path, "empty snapshot file"));
            };
            let upto = check_header(header, "snapshot").map_err(|detail| corrupt(&path, detail))?;
            for payload in &payloads[1..] {
                let (model, recipe) =
                    ShadowState::parse_recipe(payload).map_err(|detail| corrupt(&path, detail))?;
                shadow.clock = shadow.clock.max(recipe.touched);
                shadow.models.insert(model, recipe);
            }
            last_seq = upto;
            stats.snapshot = true;
            Some(snap_index)
        } else {
            None
        };

        // Replay WAL segments past the snapshot, oldest first.
        let replay: Vec<u64> = wal_indexes
            .iter()
            .copied()
            .filter(|&i| snap_floor.is_none_or(|floor| i >= floor))
            .collect();
        let Some(&last_index) = replay.last() else {
            // A snapshot exists but its paired segment is gone —
            // rotation creates the segment *before* the snapshot, so a
            // crash cannot explain this.
            let path = config.dir.join(snap_name(snap_floor.unwrap_or(0)));
            return Err(corrupt(&path, "snapshot without a WAL segment"));
        };
        let mut active_len = 0u64;
        for &index in &replay {
            let path = config.dir.join(wal_name(index));
            let mut data = Vec::new();
            File::open(&path)?.read_to_end(&mut data)?;
            let (payloads, valid_len, torn) = scan_records(&data);
            let is_last = index == last_index;
            if let Some(detail) = &torn {
                if !is_last || payloads.is_empty() {
                    // Tears are only legitimate at the very tail of the
                    // newest segment; a torn header or a tear in an
                    // older segment is external damage.
                    return Err(corrupt(&path, detail.clone()));
                }
            }
            let Some(header) = payloads.first() else {
                return Err(corrupt(&path, "empty journal file"));
            };
            let segment = check_header(header, "wal").map_err(|detail| corrupt(&path, detail))?;
            if segment != index {
                return Err(corrupt(
                    &path,
                    format!("header names segment {segment}, file name says {index}"),
                ));
            }
            for payload in &payloads[1..] {
                let (seq, op) =
                    parse_wal_record(payload).map_err(|detail| corrupt(&path, detail))?;
                if seq <= last_seq && stats.snapshot {
                    continue; // Already folded into the snapshot.
                }
                if seq <= last_seq {
                    return Err(corrupt(
                        &path,
                        format!("sequence regressed: {seq} after {last_seq}"),
                    ));
                }
                last_seq = seq;
                shadow.apply(&op);
                stats.replayed += 1;
            }
            if is_last {
                if torn.is_some() {
                    stats.truncated = (data.len() - valid_len) as u64;
                    let file = OpenOptions::new().write(true).open(&path)?;
                    file.set_len(valid_len as u64)?;
                    file.sync_all()?;
                }
                active_len = valid_len as u64;
            }
        }

        // Lazy cleanup for rotations interrupted before their deletes.
        for &index in wal_indexes.iter().filter(|&&i| !replay.contains(&i)) {
            let _ = fs::remove_file(config.dir.join(wal_name(index)));
        }
        for &index in snap_indexes.iter().filter(|&&i| Some(i) != snap_floor) {
            let _ = fs::remove_file(config.dir.join(snap_name(index)));
        }

        let active = OpenOptions::new()
            .append(true)
            .open(config.dir.join(wal_name(last_index)))?;
        stats.models = shadow.models.len();
        Ok(Journal {
            config,
            shadow,
            active,
            active_index: last_index,
            active_len,
            next_seq: last_seq + 1,
            dirty: 0,
            appends: 0,
            open_stats: stats,
            metrics: None,
        })
    }

    /// What `open` found (for counters and the startup log).
    pub fn open_stats(&self) -> OpenStats {
        self.open_stats
    }

    /// Whether recovery has sessions to materialize.
    pub fn needs_recovery(&self) -> bool {
        !self.shadow.models.is_empty()
    }

    fn attach_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        metrics.add("service_recovery_replayed", self.open_stats.replayed);
        self.metrics = Some(metrics);
    }

    fn count(&self, name: &'static str, delta: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.add(name, delta);
        }
    }

    /// Appends one op: shadow fold, framed write, fsync per policy,
    /// rotation past the segment bound. Injected faults fire at their
    /// scheduled append index. An `Err` means the record may not be
    /// durable — the caller must answer the client with an error, not
    /// an ack.
    fn append(&mut self, op: &WalOp) -> io::Result<()> {
        let index = self.appends;
        self.appends += 1;
        let payload = op.render(self.next_seq);
        self.next_seq += 1;
        // The engine has already applied the op; the shadow must follow
        // even when durability fails, so a later snapshot reflects the
        // engine's real state.
        self.shadow.apply(op);
        let record = frame_record(&payload);
        if self.config.fault.hits(FaultKind::CrashBeforeAppend, index) {
            std::process::abort();
        }
        if self.config.fault.hits(FaultKind::CrashMidAppend, index) {
            let half = record.len() / 2;
            let _ = self.active.write_all(&record[..half]);
            let _ = self.active.sync_all();
            std::process::abort();
        }
        self.active.write_all(&record)?;
        self.active_len += record.len() as u64;
        self.count("service_journal_appends", 1);
        self.count("service_journal_bytes", record.len() as u64);
        if self.config.fault.hits(FaultKind::CrashAfterWrite, index) {
            std::process::abort();
        }
        match self.config.durability {
            Durability::Strict => {
                if self.config.fault.hits(FaultKind::FsyncError, index) {
                    return Err(io::Error::other("injected fsync failure"));
                }
                self.sync()?;
                if self.config.fault.hits(FaultKind::CrashAfterSync, index) {
                    std::process::abort();
                }
            }
            Durability::Batch => {
                self.dirty += 1;
                if self.dirty >= BATCH_SYNC_EVERY {
                    self.sync()?;
                }
            }
            Durability::Off => {}
        }
        if self.active_len >= self.config.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.active.sync_all()?;
        self.dirty = 0;
        self.count("service_journal_fsyncs", 1);
        Ok(())
    }

    /// Rotation: open the next segment, snapshot the shadow into it,
    /// delete history. Each step is individually crash-safe; `open`
    /// tolerates any prefix of them having happened.
    fn rotate(&mut self) -> io::Result<()> {
        let next = self.active_index + 1;
        let (active, active_len) =
            create_atomic(&self.config.dir, &wal_name(next), &[wal_header(next)])?;
        self.active = active;
        let old_index = self.active_index;
        self.active_index = next;
        self.active_len = active_len;
        self.dirty = 0;

        let mut payloads = vec![snap_header(self.next_seq - 1)];
        for (model, recipe) in self.shadow.plan() {
            payloads.push(ShadowState::render_recipe(model, &recipe));
        }
        create_atomic(&self.config.dir, &snap_name(next), &payloads)?;
        self.count("service_journal_snapshots", 1);

        for index in 0..=old_index {
            let _ = fs::remove_file(self.config.dir.join(wal_name(index)));
            let _ = fs::remove_file(self.config.dir.join(snap_name(index)));
        }
        self.count("service_journal_rotations", 1);
        Ok(())
    }

    /// Flushes everything to disk (graceful-drain path).
    fn flush(&mut self) -> io::Result<()> {
        if self.config.durability != Durability::Strict || self.dirty > 0 {
            self.sync()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The journaled engine wrapper
// ---------------------------------------------------------------------------

/// Extracts the `"model"` hash from a rendered reply line.
fn reply_model(line: &str) -> Option<ModelHash> {
    let key = "\"model\":\"";
    let at = line.find(key)? + key.len();
    line.get(at..at + 32)?.parse().ok()
}

/// A [`LineHandler`] that journals every acked mutating op through to
/// a [`ShardedEngine`]. Transports serve it exactly like a bare
/// engine.
///
/// Mutating ops (`load`, `patch`, `evict`) are serialized behind the
/// journal mutex *around* the engine call, so WAL order is apply
/// order; queries run concurrently, untouched. While recovery is
/// materializing sessions every external request except `health`
/// answers `{"error":"warming","retry":true}`.
pub struct JournaledEngine {
    inner: Arc<ShardedEngine>,
    journal: Mutex<Journal>,
    recovering: AtomicBool,
}

impl std::fmt::Debug for JournaledEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournaledEngine")
            .field("recovering", &self.recovering.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl JournaledEngine {
    /// Opens the journal under `config` and wraps `inner` with it.
    /// When the journal holds live models, the wrapper starts in the
    /// `recovering` state — call [`JournaledEngine::recover`] (usually
    /// from a background thread) to materialize them and open the
    /// gate.
    pub fn open(
        inner: Arc<ShardedEngine>,
        config: JournalConfig,
    ) -> Result<JournaledEngine, JournalError> {
        let mut journal = Journal::open(config)?;
        journal.attach_metrics(inner.metrics_arc());
        let recovering = journal.needs_recovery();
        Ok(JournaledEngine {
            inner,
            journal: Mutex::new(journal),
            recovering: AtomicBool::new(recovering),
        })
    }

    /// What the journal found on disk at open.
    pub fn open_stats(&self) -> OpenStats {
        lock(&self.journal).open_stats()
    }

    /// Whether [`JournaledEngine::recover`] has sessions to rebuild.
    pub fn needs_recovery(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }

    /// Materializes every journaled session: re-issues each model's
    /// base `load` and patch lineage through the router (so routing
    /// follows the *current* shard count), checks the rebuilt lineage
    /// hash against the recorded one, then opens the request gate.
    ///
    /// An error means the journal and the engine disagree about model
    /// lineage — the caller should fail closed rather than serve
    /// divergent state. A drain racing recovery (SIGTERM during
    /// startup) aborts the replay cleanly with `Ok`.
    pub fn recover(&self) -> Result<(), String> {
        let plan = lock(&self.journal).shadow.plan();
        let metrics = self.inner.metrics_arc();
        for (expected, recipe) in plan {
            if self.inner.is_draining() {
                return Ok(());
            }
            let request = match &recipe.source {
                LoadSource::CaseStudy => Request::Load {
                    config: None,
                    case_study: true,
                },
                LoadSource::Config(text) => Request::Load {
                    config: Some(text.clone()),
                    case_study: false,
                },
            };
            let response = self.inner.handle_request(request, Instant::now());
            if !response.line.starts_with("{\"ok\":true") {
                if self.inner.is_draining() {
                    return Ok(());
                }
                return Err(format!("recovery load failed: {}", response.line));
            }
            let mut current = reply_model(&response.line)
                .ok_or_else(|| format!("recovery load reply has no model: {}", response.line))?;
            for patch in &recipe.patches {
                let next = advance_model_hash(current, patch);
                let request = Request::Patch {
                    model: current,
                    patch: patch.clone(),
                };
                let response = self.inner.handle_request(request, Instant::now());
                if !response.line.starts_with("{\"ok\":true") {
                    if self.inner.is_draining() {
                        return Ok(());
                    }
                    return Err(format!("recovery patch failed: {}", response.line));
                }
                current = next;
                metrics.add("service_recovery_patches", 1);
            }
            if current != expected {
                return Err(format!(
                    "lineage mismatch after replay: journal says {expected}, rebuilt {current}"
                ));
            }
            metrics.add("service_recovery_sessions", 1);
        }
        self.recovering.store(false, Ordering::SeqCst);
        Ok(())
    }

    /// Handles one request line (the journaled counterpart of
    /// [`ShardedEngine::handle_line`]).
    pub fn handle_line(&self, line: &str) -> Response {
        let start = Instant::now();
        let (id, parsed) = parse_line(line);
        let mut response = match parsed {
            Ok(request) => self.handle_request(request, start),
            Err(message) => self.inner.reply_invalid(&message, start),
        };
        if let Some(id) = id {
            attach_id(&mut response.line, &id);
        }
        response
    }

    fn handle_request(&self, request: Request, start: Instant) -> Response {
        if self.recovering.load(Ordering::SeqCst) {
            if request == Request::Health {
                return self.health(start);
            }
            self.inner
                .trace_request(op_name(&request), "warming", start);
            return Response::reply(warming_line());
        }
        match request {
            Request::Load { .. } | Request::Patch { .. } | Request::Evict { .. } => {
                self.handle_mutating(request, start)
            }
            Request::Health => self.health(start),
            Request::Batch { dir, jobs } => {
                // Route the executor's inner lines back through this
                // wrapper so every load/patch it issues is journaled —
                // a crash mid-batch recovers the warm state the audit
                // had built, like any other acked mutation.
                let submit = |line: &str| self.handle_line(line).line;
                let (line, status) =
                    super::server::batch_reply(self.inner.fleet_root(), &dir, jobs, &submit, start);
                self.inner.trace_request("batch", status, start);
                Response::reply(line)
            }
            other => self.inner.handle_request(other, start),
        }
    }

    fn health(&self, start: Instant) -> Response {
        let state = if self.recovering.load(Ordering::SeqCst) {
            "recovering"
        } else if self.inner.is_draining() {
            "draining"
        } else {
            "ready"
        };
        let line = protocol::health_line(
            state,
            true,
            self.inner.session_count(),
            &|name| self.inner.counter(name),
            start.elapsed().as_micros(),
        );
        self.inner.trace_request("health", "ok", start);
        Response::reply(line)
    }

    /// Runs a mutating op under the journal lock: engine first, then —
    /// only for acked outcomes — the WAL append. In `strict` mode a
    /// failed append converts the ack into an error (the op may have
    /// applied in memory; the client must treat the outcome as
    /// unknown, as it would a dropped connection).
    fn handle_mutating(&self, request: Request, start: Instant) -> Response {
        let mut journal = lock(&self.journal);
        let response = self.inner.handle_request(request.clone(), start);
        if !response.line.starts_with("{\"ok\":true") {
            return response;
        }
        let op = match request {
            Request::Load { config, case_study } => {
                let Some(model) = reply_model(&response.line) else {
                    return response;
                };
                let source = if case_study {
                    LoadSource::CaseStudy
                } else {
                    LoadSource::Config(config.unwrap_or_default())
                };
                WalOp::Load { model, source }
            }
            Request::Patch { model, patch } => WalOp::Patch { model, patch },
            Request::Evict { model } => {
                if !response.line.contains("\"evicted\":true") {
                    // Evicting an unknown model is acked but mutates
                    // nothing; keep it out of the WAL.
                    return response;
                }
                WalOp::Evict { model }
            }
            _ => unreachable!("only mutating ops reach handle_mutating"),
        };
        match journal.append(&op) {
            Ok(()) => response,
            Err(e) => Response {
                line: error_line(&format!("journal append failed: {e}")),
                shutdown: response.shutdown,
            },
        }
    }
}

impl LineHandler for JournaledEngine {
    fn handle_line(&self, line: &str) -> Response {
        JournaledEngine::handle_line(self, line)
    }

    fn try_cached(&self, line: &str) -> Option<Response> {
        // While recovering every request must answer `warming`, hit or
        // not; queries never touch the journal, so otherwise a hit is
        // the inner engine's.
        if self.recovering.load(Ordering::SeqCst) {
            return None;
        }
        self.inner.try_cached(line)
    }

    fn max_line(&self) -> usize {
        self.inner.max_line()
    }

    fn is_draining(&self) -> bool {
        self.inner.is_draining()
    }

    fn begin_drain(&self) {
        self.inner.begin_drain();
    }

    fn drain(&self) {
        self.inner.drain();
        // In-flight mutations have answered; make their records (and
        // any batched suffix) durable before the process exits.
        let _ = lock(&self.journal).flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::protocol::parse_request;
    use scadasim::DeviceId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scadad-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn test_config(dir: &Path) -> JournalConfig {
        JournalConfig {
            durability: Durability::Strict,
            ..JournalConfig::new(dir)
        }
    }

    fn sample_ops() -> Vec<WalOp> {
        let base = ModelHash(7);
        let patch = ModelPatch::AddDevice {
            kind: scadasim::DeviceKind::Rtu,
            peers: vec![DeviceId(4)],
        };
        let patched = advance_model_hash(base, &patch);
        vec![
            WalOp::Load {
                model: base,
                source: LoadSource::CaseStudy,
            },
            WalOp::Patch { model: base, patch },
            WalOp::Evict { model: patched },
        ]
    }

    #[test]
    fn framing_roundtrips() {
        let mut data = Vec::new();
        for payload in ["{}", "{\"seq\":1}", ""] {
            data.extend_from_slice(&frame_record(payload));
        }
        let (payloads, len, torn) = scan_records(&data);
        assert_eq!(payloads, vec!["{}", "{\"seq\":1}", ""]);
        assert_eq!(len, data.len());
        assert!(torn.is_none());
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut data = frame_record("{\"seq\":1}");
        let keep = data.len();
        let torn = frame_record("{\"seq\":2,\"op\":\"evict\"}");
        data.extend_from_slice(&torn[..torn.len() / 2]);
        let (payloads, len, reason) = scan_records(&data);
        assert_eq!(payloads.len(), 1);
        assert_eq!(len, keep);
        assert!(reason.is_some());
    }

    #[test]
    fn scan_rejects_flipped_bit() {
        let mut data = frame_record("{\"seq\":1,\"op\":\"evict\"}");
        let at = data.len() - 3;
        data[at] ^= 0x01;
        let (payloads, _, reason) = scan_records(&data);
        assert!(payloads.is_empty());
        assert_eq!(reason.as_deref(), Some("checksum mismatch"));
    }

    #[test]
    fn wal_ops_roundtrip_through_records() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let seq = i as u64 + 1;
            let (parsed_seq, parsed) = parse_wal_record(&op.render(seq)).unwrap();
            assert_eq!(parsed_seq, seq);
            assert_eq!(parsed, op);
        }
    }

    #[test]
    fn rendered_patch_is_wire_compatible() {
        let patch = ModelPatch::SetProfile {
            a: DeviceId(0),
            b: DeviceId(3),
            profiles: vec!["aes 128".parse().unwrap()],
        };
        let line = format!(
            "{{\"op\":\"patch\",\"model\":\"{}\",\"patch\":{}}}",
            ModelHash(1),
            protocol::render_patch(&patch)
        );
        match parse_request(&line).unwrap() {
            Request::Patch { patch: parsed, .. } => assert_eq!(parsed, patch),
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn shadow_folds_patch_lineage() {
        let mut shadow = ShadowState::new(8);
        let ops = sample_ops();
        shadow.apply(&ops[0]);
        shadow.apply(&ops[1]);
        assert_eq!(shadow.models.len(), 1);
        let (model, recipe) = shadow.plan().pop().unwrap();
        let WalOp::Patch { model: base, patch } = &ops[1] else {
            unreachable!()
        };
        assert_eq!(model, advance_model_hash(*base, patch));
        assert_eq!(recipe.patches.len(), 1);
        // Evict by the lineage hash drops the recipe.
        shadow.apply(&ops[2]);
        assert!(shadow.models.is_empty());
    }

    #[test]
    fn shadow_prunes_coldest_beyond_retain() {
        let mut shadow = ShadowState::new(2);
        for i in 0..4u128 {
            shadow.apply(&WalOp::Load {
                model: ModelHash(i),
                source: LoadSource::CaseStudy,
            });
        }
        assert_eq!(shadow.models.len(), 2);
        assert!(shadow.models.contains_key(&ModelHash(2)));
        assert!(shadow.models.contains_key(&ModelHash(3)));
    }

    #[test]
    fn recipe_roundtrips_through_snapshot_record() {
        let mut shadow = ShadowState::new(8);
        let ops = sample_ops();
        shadow.apply(&ops[0]);
        shadow.apply(&ops[1]);
        let (model, recipe) = shadow.plan().pop().unwrap();
        let rendered = ShadowState::render_recipe(model, &recipe);
        let (parsed_model, parsed) = ShadowState::parse_recipe(&rendered).unwrap();
        assert_eq!(parsed_model, model);
        assert_eq!(parsed, recipe);
    }

    #[test]
    fn journal_replays_appends_across_reopen() {
        let dir = temp_dir("reopen");
        let mut journal = Journal::open(test_config(&dir)).unwrap();
        assert!(!journal.needs_recovery());
        for op in sample_ops().iter().take(2) {
            journal.append(op).unwrap();
        }
        drop(journal);
        let journal = Journal::open(test_config(&dir)).unwrap();
        assert!(journal.needs_recovery());
        assert_eq!(journal.open_stats().replayed, 2);
        assert_eq!(journal.shadow.models.len(), 1);
        assert_eq!(journal.next_seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        let mut journal = Journal::open(test_config(&dir)).unwrap();
        for op in sample_ops().iter().take(2) {
            journal.append(op).unwrap();
        }
        drop(journal);
        // Tear the last record in half by hand.
        let path = dir.join(wal_name(0));
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 5]).unwrap();
        let journal = Journal::open(test_config(&dir)).unwrap();
        // The torn patch record is gone; only the load survives.
        assert_eq!(journal.open_stats().replayed, 1);
        let (_, valid, _) = scan_records(&data[..data.len() - 5]);
        assert_eq!(
            journal.open_stats().truncated,
            (data.len() - 5 - valid) as u64
        );
        assert_eq!(fs::metadata(&path).unwrap().len(), valid as u64);
        assert!(journal.needs_recovery());
        // Appends continue after the truncation point.
        let mut journal = journal;
        journal.append(&sample_ops()[1]).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_corrupt_headers_fail_closed() {
        let dir = temp_dir("corrupt");
        drop(Journal::open(test_config(&dir)).unwrap());
        // Empty segment file.
        fs::write(dir.join(wal_name(0)), b"").unwrap();
        match Journal::open(test_config(&dir)) {
            Err(JournalError::Corrupt { detail, .. }) => {
                assert!(detail.contains("empty"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Valid framing, wrong header kind.
        let mut data = Vec::new();
        data.extend_from_slice(&frame_record(&snap_header(0)));
        fs::write(dir.join(wal_name(0)), &data).unwrap();
        match Journal::open(test_config(&dir)) {
            Err(JournalError::Corrupt { detail, .. }) => {
                assert!(detail.contains("expected a wal header"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Garbage bytes where the header should be.
        fs::write(dir.join(wal_name(0)), b"not a journal at all\n").unwrap();
        assert!(matches!(
            Journal::open(test_config(&dir)),
            Err(JournalError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_snapshots_and_prunes_history() {
        let dir = temp_dir("rotate");
        let mut config = test_config(&dir);
        config.segment_bytes = 1; // Rotate after every append.
        let mut journal = Journal::open(config.clone()).unwrap();
        let ops = sample_ops();
        journal.append(&ops[0]).unwrap();
        journal.append(&ops[1]).unwrap();
        assert_eq!(journal.active_index, 2);
        // Only the newest segment + snapshot remain.
        assert!(dir.join(wal_name(2)).exists());
        assert!(dir.join(snap_name(2)).exists());
        assert!(!dir.join(wal_name(0)).exists());
        assert!(!dir.join(wal_name(1)).exists());
        drop(journal);
        // Reopen: the shadow comes back from the snapshot alone.
        let journal = Journal::open(config).unwrap();
        assert!(journal.open_stats().snapshot);
        assert_eq!(journal.open_stats().replayed, 0);
        assert_eq!(journal.shadow.models.len(), 1);
        assert_eq!(journal.next_seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_parses_specs() {
        let plan = FaultPlan::parse("crash_mid_append:3,fsync_error:5").unwrap();
        assert!(plan.hits(FaultKind::CrashMidAppend, 3));
        assert!(plan.hits(FaultKind::FsyncError, 5));
        assert!(!plan.hits(FaultKind::CrashMidAppend, 4));
        assert!(FaultPlan::parse("bogus:1").is_err());
        assert!(FaultPlan::parse("crash_mid_append@1").is_err());
        assert!(FaultPlan::parse("").unwrap().slots.is_empty());
    }

    #[test]
    fn injected_fsync_error_fails_the_append() {
        let dir = temp_dir("fsync");
        let mut config = test_config(&dir);
        config.fault = FaultPlan::single(FaultKind::FsyncError, 1);
        let mut journal = Journal::open(config).unwrap();
        let ops = sample_ops();
        journal.append(&ops[0]).unwrap();
        let err = journal.append(&ops[1]).unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"));
        // The record itself was written: a reopen still sees it.
        drop(journal);
        let journal = Journal::open(test_config(&dir)).unwrap();
        assert_eq!(journal.open_stats().replayed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_parses() {
        assert_eq!("strict".parse(), Ok(Durability::Strict));
        assert_eq!("batch".parse(), Ok(Durability::Batch));
        assert_eq!("off".parse(), Ok(Durability::Off));
        assert!("fsync".parse::<Durability>().is_err());
    }
}
