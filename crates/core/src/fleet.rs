//! Fleet planning and delta-deduplicated batch verification.
//!
//! A deployed analyzer meets a *portfolio*: hundreds to thousands of
//! near-duplicate substation configurations (the same grid rolled out
//! with site-local security profiles). Auditing them as independent
//! cold sessions repays the model-build cost once per config even
//! though most of each model is shared. This module plans around that:
//!
//! 1. [`scan_fleet`] imports every channel directory under a fleet
//!    root ([`crate::ingest`]), isolating malformed configs as
//!    per-config errors instead of aborting the sweep;
//! 2. [`plan_fleet`] clusters members by a *security-normalized*
//!    canonical model hash (the [`model_hash`] of the input with its
//!    pair-security table stripped) plus a cheap per-IED path-set
//!    fingerprint, then orders each cluster into a chain: the first
//!    member cold-loads, and every subsequent member is reached from
//!    its predecessor by a synthesized [`ModelPatch::SetProfile`]
//!    sequence (exact duplicates re-query the warm model and hit the
//!    verdict cache). Each synthesized chain is *self-validated* — the
//!    patches are applied locally and the resulting content hash must
//!    equal the variant's — with a cold-load fallback when the delta
//!    layer cannot express the difference (e.g. a removed security
//!    entry, which `set_profile` cannot un-declare);
//! 3. [`run_batch`] executes the plan through any service engine via a
//!    request-line `submit` closure — the same executor backs
//!    `scada-analyzer --batch` (in-process engine) and the `scadad`
//!    `batch` op (single, sharded, and journaled engines). Its `jobs`
//!    workers import and hash configs, then run clusters ([`par_map`]
//!    both times; [`scan_fleet`] is the 1-worker scan). It emits one
//!    consolidated report of per-config verdict, max resiliency,
//!    security-index floor and histogram, certificate status,
//!    provenance, and timing.
//!
//! Report rows are sorted by config name and deterministic apart from
//! the `elapsed_us` timing fields, so two engines auditing the same
//! fleet produce byte-equivalent verdicts (pinned across shard counts
//! in `tests/fleet.rs`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use scadasim::{write_config, CryptoProfile, DeviceId, Topology};

use crate::ingest::{import_dir, ImportedConfig, IngestError};
use crate::obs::{json_escape_into, Obs};
use crate::parallel::par_map;
use crate::service::hash::config_hashes;
use crate::service::{model_hash, parse_json, Json, ModelHash};
use crate::ModelPatch;

/// One successfully imported fleet member.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// The imported config (name, model, property).
    pub config: ImportedConfig,
    /// Canonical content hash of the lowered config
    /// ([`ImportedConfig::input`]).
    pub hash: ModelHash,
    /// Similarity cluster key (see [`ClusterKey`]).
    pub cluster: ClusterKey,
}

impl FleetMember {
    /// Computes an imported config's content hash and cluster key. Both
    /// digests come from one walk of the config itself, the values
    /// [`model_hash`] and [`security_normalized_hash`] give on its
    /// lowered input, so no lowered copy is made.
    ///
    /// [`security_normalized_hash`]: crate::service::security_normalized_hash
    pub fn new(config: ImportedConfig) -> FleetMember {
        let (hash, normalized) = config_hashes(&config.scada);
        FleetMember {
            hash,
            cluster: (normalized, path_fingerprint(&config.scada.topology)),
            config,
        }
    }
}

/// A similarity cluster key: the security-normalized model hash plus a
/// per-IED path-set fingerprint. Members sharing a key differ (at
/// most) in their pair-security tables — exactly the axis
/// [`ModelPatch::SetProfile`] chains can traverse.
pub type ClusterKey = (ModelHash, u64);

/// Result of importing every config directory under a fleet root.
#[derive(Debug, Clone)]
pub struct FleetScan {
    /// Successfully imported members, sorted by config name.
    pub members: Vec<FleetMember>,
    /// Malformed configs as `(name, error)`, sorted by config name.
    pub errors: Vec<(String, String)>,
}

/// A cheap per-IED path-set fingerprint: FNV-1a over every IED's hop
/// distance from the MTU and sorted neighbor set. Redundant with the
/// normalized hash in theory (both derive from the link set), it
/// guards clustering against accidental hash collisions — and
/// mis-clustering is only a performance hazard, never a correctness
/// one, because every synthesized chain is self-validated.
fn path_fingerprint(topology: &Topology) -> u64 {
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    };
    let n = topology.num_devices();
    let mut dist: Vec<u64> = vec![u64::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    let mtu = topology.mtu();
    dist[mtu.index()] = 0;
    queue.push_back(mtu);
    while let Some(d) = queue.pop_front() {
        for peer in topology.neighbors(d) {
            if dist[peer.index()] == u64::MAX {
                dist[peer.index()] = dist[d.index()] + 1;
                queue.push_back(peer);
            }
        }
    }
    for device in topology.ieds() {
        let id = device.id();
        mix(id.index() as u64);
        mix(dist[id.index()]);
        let mut neighbors: Vec<usize> = topology.neighbors(id).iter().map(|p| p.index()).collect();
        neighbors.sort_unstable();
        mix(neighbors.len() as u64);
        for peer in neighbors {
            mix(peer as u64);
        }
    }
    h
}

/// Imports every config directory directly under `dir`. Non-directory
/// entries and dot/README files are ignored; each malformed config
/// becomes an error entry rather than failing the scan.
///
/// # Errors
///
/// Only an unreadable fleet root fails the whole scan.
pub fn scan_fleet(dir: &Path) -> Result<FleetScan, IngestError> {
    scan(dir, 1)
}

/// [`scan_fleet`] with the per-config import, lowering, and hashing
/// spread over `jobs` workers ([`par_map`]). Members and errors keep
/// name order whatever `jobs` is.
fn scan(dir: &Path, jobs: usize) -> Result<FleetScan, IngestError> {
    let root_err = |e: std::io::Error| IngestError {
        file: dir.display().to_string(),
        line: 0,
        column: 0,
        message: format!("cannot read fleet root: {e}"),
    };
    let mut entries: Vec<std::fs::DirEntry> = std::fs::read_dir(dir)
        .map_err(root_err)?
        .collect::<Result<_, _>>()
        .map_err(root_err)?;
    entries.sort_by_key(|e| e.file_name());
    let configs: Vec<(String, PathBuf)> = entries
        .into_iter()
        .map(|entry| {
            (
                entry.file_name().to_string_lossy().into_owned(),
                entry.path(),
            )
        })
        .filter(|(name, path)| {
            !name.starts_with('.') && !name.starts_with("README") && path.is_dir()
        })
        .collect();
    let imported = par_map(&configs, jobs, &Obs::none(), |_, (name, path), _| {
        import_dir(path)
            .map(FleetMember::new)
            .map_err(|e| (name.clone(), e.to_string()))
    });
    let mut members = Vec::new();
    let mut errors = Vec::new();
    for result in imported {
        match result {
            Ok(member) => members.push(member),
            Err(error) => errors.push(error),
        }
    }
    Ok(FleetScan { members, errors })
}

/// One step of a cluster's execution chain.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// Cold-load this member's config text.
    Cold {
        /// Index into [`FleetScan::members`].
        member: usize,
    },
    /// Reach this member from the previous step's warm model by
    /// applying `patches` in order.
    Patch {
        /// Index into [`FleetScan::members`].
        member: usize,
        /// The synthesized, self-validated patch chain.
        patches: Vec<ModelPatch>,
    },
    /// This member's model is content-identical to the previous
    /// step's; re-query it (and hit the verdict cache).
    Dup {
        /// Index into [`FleetScan::members`].
        member: usize,
    },
}

impl PlanStep {
    /// The member this step verifies.
    pub fn member(&self) -> usize {
        match self {
            PlanStep::Cold { member }
            | PlanStep::Patch { member, .. }
            | PlanStep::Dup { member } => *member,
        }
    }

    /// The planner's route label for the report (`cold|patch|dup`).
    pub fn route(&self) -> &'static str {
        match self {
            PlanStep::Cold { .. } => "cold",
            PlanStep::Patch { .. } => "patch",
            PlanStep::Dup { .. } => "dup",
        }
    }
}

/// The full fleet execution plan: clusters of chained steps.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// The scan the plan was built from.
    pub scan: FleetScan,
    /// One step chain per cluster, clusters in key order, members
    /// within a cluster in name order.
    pub clusters: Vec<Vec<PlanStep>>,
}

impl FleetPlan {
    /// Counts of `(cold, patch, dup)` routes across all clusters.
    pub fn route_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for step in self.clusters.iter().flatten() {
            match step {
                PlanStep::Cold { .. } => counts.0 += 1,
                PlanStep::Patch { .. } => counts.1 += 1,
                PlanStep::Dup { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

/// The explicit pair-security table of a topology, keyed by normalized
/// endpoint pair.
fn security_map(topology: &Topology) -> BTreeMap<(usize, usize), &[CryptoProfile]> {
    topology
        .pair_security_entries()
        .map(|(a, b, profiles)| {
            (
                (a.index().min(b.index()), a.index().max(b.index())),
                profiles,
            )
        })
        .collect()
}

/// Synthesizes and self-validates a `SetProfile` chain from `prev` to
/// `cur`, or `None` when the delta layer cannot express the difference
/// (the executor then falls back to a cold load).
fn diff_security(prev: &FleetMember, cur: &FleetMember) -> Option<Vec<ModelPatch>> {
    let prev_map = security_map(&prev.config.scada.topology);
    let cur_map = security_map(&cur.config.scada.topology);
    // `set_profile` can add or replace an explicit entry but never
    // remove one (an empty profile list is still an explicit entry and
    // hashes differently from an absent one).
    if prev_map.keys().any(|k| !cur_map.contains_key(k)) {
        return None;
    }
    let mut patches = Vec::new();
    for (&(a, b), &profiles) in &cur_map {
        if prev_map.get(&(a, b)) != Some(&profiles) {
            patches.push(ModelPatch::SetProfile {
                a: DeviceId(a),
                b: DeviceId(b),
                profiles: profiles.to_vec(),
            });
        }
    }
    // Self-validate: apply the chain to one copy of the predecessor and
    // require the content hash of the result to equal the variant's.
    let mut shadow = prev.config.input();
    for patch in &patches {
        patch.apply_in_place(&mut shadow).ok()?;
    }
    (model_hash(&shadow) == cur.hash).then_some(patches)
}

/// Clusters a scan's members and synthesizes each cluster's chain.
pub fn plan_fleet(scan: FleetScan) -> FleetPlan {
    let mut by_cluster: BTreeMap<ClusterKey, Vec<usize>> = BTreeMap::new();
    for (index, member) in scan.members.iter().enumerate() {
        by_cluster.entry(member.cluster).or_default().push(index);
    }
    let mut clusters = Vec::with_capacity(by_cluster.len());
    for (_, indices) in by_cluster {
        let mut steps: Vec<PlanStep> = Vec::with_capacity(indices.len());
        let mut prev: Option<usize> = None;
        for index in indices {
            let step = match prev {
                None => PlanStep::Cold { member: index },
                Some(p) if scan.members[p].hash == scan.members[index].hash => {
                    PlanStep::Dup { member: index }
                }
                Some(p) => match diff_security(&scan.members[p], &scan.members[index]) {
                    Some(patches) => PlanStep::Patch {
                        member: index,
                        patches,
                    },
                    None => PlanStep::Cold { member: index },
                },
            };
            steps.push(step);
            prev = Some(index);
        }
        clusters.push(steps);
    }
    FleetPlan { scan, clusters }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// One consolidated-report row. Every field except `elapsed_us` is
/// deterministic for a given fleet and engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Config (directory) name.
    pub config: String,
    /// Import or execution failure; `None` for verified configs.
    pub error: Option<String>,
    /// The planner's route (`cold|patch|dup`); `None` on import errors.
    pub route: Option<&'static str>,
    /// Canonical model hash actually queried (a lineage hash on the
    /// patch route).
    pub model: Option<String>,
    /// Property verified (`obs|secured|baddata`).
    pub property: Option<String>,
    /// Verify verdict (`resilient|threat|unknown`).
    pub verdict: Option<String>,
    /// Certificate status when the engine certifies: the verdict's,
    /// or `failed` when a check of the sweep or the index failed.
    pub certificate: Option<String>,
    /// Max resiliency along the total axis (`None` inner = undecided).
    pub max: Option<Option<u64>>,
    /// Security-index floor (minimum per-measurement index).
    pub index_floor: Option<u64>,
    /// Security-index histogram as sorted `(index, count)` pairs.
    pub histogram: Vec<(u64, u64)>,
    /// Verify provenance reported by the engine
    /// (`cold|warm|delta|cached`).
    pub provenance: Option<String>,
    /// Wall-clock time spent on this config, microseconds.
    pub elapsed_us: u128,
}

impl ReportRow {
    fn error_row(config: &str, error: String, elapsed_us: u128) -> ReportRow {
        ReportRow {
            config: config.to_string(),
            error: Some(error),
            route: None,
            model: None,
            property: None,
            verdict: None,
            certificate: None,
            max: None,
            index_floor: None,
            histogram: Vec::new(),
            provenance: None,
            elapsed_us,
        }
    }

    /// Renders the row as one JSON object (the JSONL report line and
    /// the `batch` reply's array element).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"config\":\"");
        json_escape_into(&self.config, &mut out);
        out.push_str(&format!("\",\"ok\":{}", self.error.is_none()));
        if let Some(error) = &self.error {
            out.push_str(",\"error\":\"");
            json_escape_into(error, &mut out);
            out.push('"');
        }
        if let Some(route) = self.route {
            out.push_str(&format!(",\"route\":\"{route}\""));
        }
        if let Some(model) = &self.model {
            out.push_str(&format!(",\"model\":\"{model}\""));
        }
        if let Some(property) = &self.property {
            out.push_str(&format!(",\"property\":\"{property}\""));
        }
        if let Some(verdict) = &self.verdict {
            out.push_str(&format!(",\"verdict\":\"{verdict}\""));
        }
        if let Some(certificate) = &self.certificate {
            out.push_str(",\"certificate\":\"");
            json_escape_into(certificate, &mut out);
            out.push('"');
        }
        if let Some(max) = &self.max {
            match max {
                Some(k) => out.push_str(&format!(",\"max\":{k}")),
                None => out.push_str(",\"max\":null"),
            }
        }
        if let Some(floor) = self.index_floor {
            out.push_str(&format!(",\"index_floor\":{floor}"));
        }
        if !self.histogram.is_empty() {
            out.push_str(",\"histogram\":[");
            for (i, (index, count)) in self.histogram.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{index},{count}]"));
            }
            out.push(']');
        }
        if let Some(provenance) = &self.provenance {
            out.push_str(&format!(",\"provenance\":\"{provenance}\""));
        }
        out.push_str(&format!(",\"elapsed_us\":{}}}", self.elapsed_us));
        out
    }

    /// Rebuilds a row from its wire form (one element of the `batch`
    /// reply's `rows` array), so a remote client can re-render the
    /// report in any local format. Unknown or missing fields fall back
    /// to their empty defaults — the wire object is the one
    /// [`Self::render_json`] produced, but a newer server may add
    /// fields.
    pub fn from_wire(row: &Json) -> ReportRow {
        let text = |key: &str| row.get(key).and_then(Json::as_str).map(str::to_string);
        let route = match row.get("route").and_then(Json::as_str) {
            Some("cold") => Some("cold"),
            Some("patch") => Some("patch"),
            Some("dup") => Some("dup"),
            _ => None,
        };
        let max = match row.get("max") {
            None => None,
            Some(Json::Null) => Some(None),
            Some(value) => value.as_u64().map(Some),
        };
        let histogram = row
            .get("histogram")
            .and_then(Json::as_arr)
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|pair| {
                        let pair = pair.as_arr()?;
                        Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        ReportRow {
            config: text("config").unwrap_or_default(),
            error: text("error"),
            route,
            model: text("model"),
            property: text("property"),
            verdict: text("verdict"),
            certificate: text("certificate"),
            max,
            index_floor: row.get("index_floor").and_then(Json::as_u64),
            histogram,
            provenance: text("provenance"),
            elapsed_us: u128::from(row.get("elapsed_us").and_then(Json::as_u64).unwrap_or(0)),
        }
    }

    /// The CSV report header.
    pub const CSV_HEADER: &'static str =
        "config,ok,route,model,property,verdict,certificate,max,index_floor,histogram,\
         provenance,error,elapsed_us";

    /// Renders the row as one CSV record matching [`Self::CSV_HEADER`].
    pub fn render_csv(&self) -> String {
        let quote = |s: &str| {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let opt = |s: &Option<String>| quote(s.as_deref().unwrap_or(""));
        let histogram = self
            .histogram
            .iter()
            .map(|(i, c)| format!("{i}:{c}"))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            quote(&self.config),
            self.error.is_none(),
            self.route.unwrap_or(""),
            opt(&self.model),
            opt(&self.property),
            opt(&self.verdict),
            opt(&self.certificate),
            match &self.max {
                Some(Some(k)) => k.to_string(),
                Some(None) => "undecided".to_string(),
                None => String::new(),
            },
            self.index_floor.map(|f| f.to_string()).unwrap_or_default(),
            quote(&histogram),
            opt(&self.provenance),
            opt(&self.error),
            self.elapsed_us,
        )
    }
}

/// A consolidated batch report.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-config rows, sorted by config name.
    pub rows: Vec<ReportRow>,
}

impl BatchOutcome {
    /// Number of configs that failed to import or execute.
    pub fn failed(&self) -> usize {
        self.rows.iter().filter(|r| r.error.is_some()).count()
    }

    /// Number of verify replies with the given provenance.
    pub fn provenance_count(&self, provenance: &str) -> usize {
        self.rows
            .iter()
            .filter(|r| r.provenance.as_deref() == Some(provenance))
            .count()
    }

    /// Renders the consolidated `batch` reply line.
    pub fn render_line(&self, elapsed_us: u128) -> String {
        let mut out = String::from("{\"ok\":true,\"op\":\"batch\"");
        out.push_str(&format!(
            ",\"configs\":{},\"failed\":{}",
            self.rows.len(),
            self.failed()
        ));
        for provenance in ["cold", "warm", "delta", "cached"] {
            out.push_str(&format!(
                ",\"{provenance}\":{}",
                self.provenance_count(provenance)
            ));
        }
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&row.render_json());
        }
        out.push_str(&format!("],\"elapsed_us\":{elapsed_us}}}"));
        out
    }
}

/// Submits one request line, retrying bounded while the engine reports
/// transient backpressure (`"retry":true`).
fn send(submit: &(dyn Fn(&str) -> String + Sync), line: &str) -> Json {
    for _ in 0..600 {
        let reply = submit(line);
        let parsed = parse_json(&reply).unwrap_or(Json::Null);
        let retry = parsed.get("ok").and_then(Json::as_bool) == Some(false)
            && parsed.get("retry").and_then(Json::as_bool) == Some(true);
        if !retry {
            return parsed;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    Json::Null
}

fn reply_error(parsed: &Json, op: &str) -> Option<String> {
    if parsed.get("ok").and_then(Json::as_bool) == Some(true) {
        return None;
    }
    Some(match parsed.get("error").and_then(Json::as_str) {
        Some(message) => format!("{op}: {message}"),
        None => format!("{op}: no reply"),
    })
}

/// A row whose sweep or index failed a certification check reports a
/// failed certificate, whatever its verdict's certificate said.
fn mark_cert_failures(row: &mut ReportRow, reply: &Json) {
    if reply
        .get("cert_failures")
        .and_then(Json::as_u64)
        .unwrap_or(0)
        > 0
    {
        row.certificate = Some("failed".to_string());
    }
}

fn spec_json(member: &FleetMember) -> String {
    let scada = &member.config.scada;
    let mut spec = format!(
        "{{\"k1\":{},\"k2\":{},\"r\":{}",
        scada.resilience.0, scada.resilience.1, scada.corrupted
    );
    if scada.link_failures > 0 {
        spec.push_str(&format!(",\"links\":{}", scada.link_failures));
    }
    spec.push('}');
    spec
}

/// Cold-loads a member, returning its served model hash.
fn load_member(
    submit: &(dyn Fn(&str) -> String + Sync),
    member: &FleetMember,
) -> Result<String, String> {
    let mut line = String::from("{\"op\":\"load\",\"config\":\"");
    json_escape_into(&write_config(&member.config.scada), &mut line);
    line.push_str("\"}");
    let reply = send(submit, &line);
    if let Some(error) = reply_error(&reply, "load") {
        return Err(error);
    }
    reply
        .get("model")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "load: reply carried no model hash".to_string())
}

/// Applies a patch chain from `model`, returning the final (lineage)
/// model hash.
fn patch_member(
    submit: &(dyn Fn(&str) -> String + Sync),
    model: &str,
    patches: &[ModelPatch],
) -> Result<String, String> {
    let mut current = model.to_string();
    for patch in patches {
        let line = format!(
            "{{\"op\":\"patch\",\"model\":\"{current}\",\"patch\":{}}}",
            render_wire_patch(patch)
        );
        let reply = send(submit, &line);
        if let Some(error) = reply_error(&reply, "patch") {
            return Err(error);
        }
        current = reply
            .get("model")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "patch: reply carried no model hash".to_string())?;
    }
    Ok(current)
}

/// Renders a patch in the wire form `parse_patch` accepts. The planner
/// only synthesizes `set_profile` patches today, but render all
/// variants so the executor stays total.
fn render_wire_patch(patch: &ModelPatch) -> String {
    match patch {
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
        ModelPatch::RemoveDevice { id } => {
            format!("{{\"remove_device\":{}}}", id.one_based())
        }
        ModelPatch::AddDevice { kind, peers } => {
            let kind = match kind {
                scadasim::DeviceKind::Ied => "ied",
                scadasim::DeviceKind::Rtu => "rtu",
                scadasim::DeviceKind::Mtu | scadasim::DeviceKind::Router => "router",
            };
            let peers = peers
                .iter()
                .map(|p| p.one_based().to_string())
                .collect::<Vec<_>>()
                .join(",");
            format!("{{\"add_device\":{{\"kind\":\"{kind}\",\"peers\":[{peers}]}}}}")
        }
        ModelPatch::RewireLink { link, a, b } => format!(
            "{{\"rewire_link\":{{\"link\":{link},\"a\":{},\"b\":{}}}}}",
            a.one_based(),
            b.one_based()
        ),
    }
}

/// Runs the three audit queries for one member against its served
/// model, filling the row.
fn query_member(
    submit: &(dyn Fn(&str) -> String + Sync),
    member: &FleetMember,
    model: &str,
    row: &mut ReportRow,
) {
    row.model = Some(model.to_string());
    row.property = Some(member.config.property.clone());
    let spec = spec_json(member);
    let property = &member.config.property;

    let verify = send(
        submit,
        &format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"{property}\",\
             \"spec\":{spec}}}"
        ),
    );
    if let Some(error) = reply_error(&verify, "verify") {
        row.error = Some(error);
        return;
    }
    row.verdict = verify
        .get("verdict")
        .and_then(Json::as_str)
        .map(str::to_string);
    row.certificate = verify
        .get("certificate")
        .and_then(Json::as_str)
        .map(str::to_string);
    row.provenance = verify
        .get("provenance")
        .and_then(Json::as_str)
        .map(str::to_string);

    let scada = &member.config.scada;
    let maxres = send(
        submit,
        &format!(
            "{{\"op\":\"maxres\",\"model\":\"{model}\",\"property\":\"{property}\",\
             \"axis\":\"total\",\"r\":{}}}",
            scada.corrupted
        ),
    );
    if let Some(error) = reply_error(&maxres, "maxres") {
        row.error = Some(error);
        return;
    }
    row.max = Some(maxres.get("max").and_then(Json::as_u64));
    mark_cert_failures(row, &maxres);

    let index = send(
        submit,
        &format!("{{\"op\":\"security_index\",\"model\":\"{model}\"}}"),
    );
    if let Some(error) = reply_error(&index, "security_index") {
        row.error = Some(error);
        return;
    }
    row.index_floor = index.get("min").and_then(Json::as_u64);
    mark_cert_failures(row, &index);
    if let Some(indices) = index.get("indices").and_then(Json::as_arr) {
        let mut histogram: BTreeMap<u64, u64> = BTreeMap::new();
        for value in indices {
            if let Some(alpha) = value.as_u64() {
                *histogram.entry(alpha).or_insert(0) += 1;
            }
        }
        row.histogram = histogram.into_iter().collect();
    }
}

/// Executes one cluster's chain sequentially.
fn run_cluster(
    submit: &(dyn Fn(&str) -> String + Sync),
    members: &[FleetMember],
    steps: &[PlanStep],
) -> Vec<ReportRow> {
    let mut rows = Vec::with_capacity(steps.len());
    // The model hash the previous step left warm.
    let mut current: Option<String> = None;
    for step in steps {
        let member = &members[step.member()];
        let start = Instant::now();
        let mut row = ReportRow {
            config: member.config.name.clone(),
            error: None,
            route: Some(step.route()),
            model: None,
            property: None,
            verdict: None,
            certificate: None,
            max: None,
            index_floor: None,
            histogram: Vec::new(),
            provenance: None,
            elapsed_us: 0,
        };
        let served = match (step, current.as_deref()) {
            (PlanStep::Dup { .. }, Some(model)) => Ok(model.to_string()),
            (PlanStep::Patch { patches, .. }, Some(model)) => patch_member(submit, model, patches),
            // Cold steps — and any chained step whose predecessor was
            // lost to an error — load from the config text. A Patch/Dup
            // step re-anchored this way is reported as "cold" so the
            // route column matches the work actually done (and the
            // provenance the engine reports for it).
            _ => {
                row.route = Some("cold");
                load_member(submit, member)
            }
        };
        match served {
            Ok(model) => {
                query_member(submit, member, &model, &mut row);
                current = Some(model);
            }
            Err(error) => {
                row.error = Some(error);
                current = None;
            }
        }
        row.elapsed_us = start.elapsed().as_micros();
        rows.push(row);
    }
    rows
}

/// Executes a fleet plan through `submit`, spreading clusters over up
/// to `jobs` worker threads (chains stay sequential within a cluster).
/// Rows are merged and sorted by config name, so the report is
/// independent of `jobs`.
pub fn run_plan(
    plan: &FleetPlan,
    jobs: usize,
    submit: &(dyn Fn(&str) -> String + Sync),
) -> BatchOutcome {
    let members = &plan.scan.members;
    let mut rows: Vec<ReportRow> = par_map(&plan.clusters, jobs, &Obs::none(), |_, steps, _| {
        run_cluster(submit, members, steps)
    })
    .into_iter()
    .flatten()
    .collect();
    for (name, error) in &plan.scan.errors {
        rows.push(ReportRow::error_row(name, error.clone(), 0));
    }
    rows.sort_by(|a, b| a.config.cmp(&b.config));
    BatchOutcome { rows }
}

/// Scans, plans, and executes a whole fleet directory: the one-call
/// entry point shared by `scada-analyzer --batch` and the service
/// `batch` op. The scan and the run use `jobs` workers (`0` = all
/// available parallelism, never more than there is work for); planning
/// is serial. The report does not depend on `jobs`.
///
/// # Errors
///
/// Only an unreadable fleet root fails; per-config problems become
/// error rows in the report.
pub fn run_batch(
    dir: &Path,
    jobs: usize,
    submit: &(dyn Fn(&str) -> String + Sync),
) -> Result<BatchOutcome, IngestError> {
    let plan = plan_fleet(scan(dir, jobs)?);
    Ok(run_plan(&plan, jobs, submit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::from_scada;
    use scadasim::{generate, ScadaGenConfig};

    fn ieee14_member(secure_fraction: f64, name: &str) -> FleetMember {
        let system = powergrid::synthetic::ieee_sized(14, 0);
        let scada = generate(
            system,
            &ScadaGenConfig {
                measurement_density: 0.7,
                hierarchy_level: 1,
                secure_fraction,
                seed: 0,
                ..Default::default()
            },
        );
        let scada = scadasim::ScadaConfig {
            measurements: scada.measurements,
            topology: scada.topology,
            ied_measurements: scada.ied_measurements,
            resilience: (1, 1),
            corrupted: 1,
            link_failures: 0,
        };
        FleetMember::new(from_scada(name, &scada, "secured").unwrap())
    }

    #[test]
    fn variants_cluster_and_chain_via_patches() {
        let base = ieee14_member(0.8, "a-base");
        let mut variant = base.clone();
        variant.config.name = "b-variant".to_string();
        // Rotate one existing pair's profiles: reachable via set_profile.
        let (a, b, _) = variant
            .config
            .scada
            .topology
            .pair_security_entries()
            .next()
            .expect("generated fleet has security entries");
        variant
            .config
            .scada
            .topology
            .set_pair_security(a, b, vec!["aes 256".parse().unwrap()]);
        let variant = FleetMember::new(variant.config);
        assert_eq!(
            base.cluster, variant.cluster,
            "profiles must not affect the cluster key"
        );
        assert_ne!(base.hash, variant.hash);

        let scan = FleetScan {
            members: vec![base.clone(), variant.clone()],
            errors: Vec::new(),
        };
        let plan = plan_fleet(scan);
        assert_eq!(plan.clusters.len(), 1);
        assert_eq!(plan.route_counts(), (1, 1, 0));
        let PlanStep::Patch { patches, .. } = &plan.clusters[0][1] else {
            panic!("expected a patch step, got {:?}", plan.clusters[0][1]);
        };
        assert_eq!(patches.len(), 1);
    }

    #[test]
    fn removed_entries_fall_back_to_cold() {
        let base = ieee14_member(0.8, "a-base");
        // A member whose security table *lost* an entry relative to the
        // base: set_profile cannot un-declare it, so the planner must
        // fall back to a cold load.
        let system = powergrid::synthetic::ieee_sized(14, 0);
        let scada = generate(
            system,
            &ScadaGenConfig {
                measurement_density: 0.7,
                hierarchy_level: 1,
                secure_fraction: 0.8,
                seed: 0,
                ..Default::default()
            },
        );
        let mut stripped_topology = scadasim::Topology::new(
            scada.topology.devices().to_vec(),
            scada.topology.links().to_vec(),
        );
        let mut entries: Vec<_> = scada
            .topology
            .pair_security_entries()
            .map(|(a, b, p)| (a, b, p.to_vec()))
            .collect();
        entries.sort_by_key(|&(a, b, _)| (a, b));
        assert!(entries.len() >= 2, "need at least two entries to drop one");
        for (a, b, profiles) in entries.iter().skip(1) {
            stripped_topology.set_pair_security(*a, *b, profiles.clone());
        }
        let reduced = scadasim::ScadaConfig {
            measurements: scada.measurements,
            topology: stripped_topology,
            ied_measurements: scada.ied_measurements,
            resilience: (1, 1),
            corrupted: 1,
            link_failures: 0,
        };
        let reduced = FleetMember::new(from_scada("b-reduced", &reduced, "secured").unwrap());
        assert_eq!(base.cluster, reduced.cluster);

        let plan = plan_fleet(FleetScan {
            members: vec![base, reduced],
            errors: Vec::new(),
        });
        assert_eq!(plan.route_counts(), (2, 0, 0));
    }

    #[test]
    fn exact_duplicates_become_dups() {
        let base = ieee14_member(0.8, "a-base");
        let mut dup = base.clone();
        dup.config.name = "b-dup".to_string();
        let plan = plan_fleet(FleetScan {
            members: vec![base, dup],
            errors: Vec::new(),
        });
        assert_eq!(plan.route_counts(), (1, 0, 1));
    }

    #[test]
    fn report_rows_render_deterministically() {
        let row = ReportRow {
            config: "sub-01".to_string(),
            error: None,
            route: Some("patch"),
            model: Some("ab".repeat(16)),
            property: Some("secured".to_string()),
            verdict: Some("resilient".to_string()),
            certificate: Some("proof".to_string()),
            max: Some(Some(2)),
            index_floor: Some(1),
            histogram: vec![(1, 3), (4, 2)],
            provenance: Some("delta".to_string()),
            elapsed_us: 42,
        };
        let json = row.render_json();
        assert!(json.contains("\"route\":\"patch\""), "{json}");
        assert!(json.contains("\"histogram\":[[1,3],[4,2]]"), "{json}");
        assert!(parse_json(&json).is_ok(), "row must be valid JSON: {json}");
        let csv = row.render_csv();
        assert_eq!(
            csv.split(',').count(),
            ReportRow::CSV_HEADER.split(',').count(),
        );
        let err = ReportRow::error_row("bad", "channels.csv:1:2: nope".to_string(), 7);
        let outcome = BatchOutcome {
            rows: vec![row, err],
        };
        assert_eq!(outcome.failed(), 1);
        assert!(parse_json(&outcome.render_line(1)).is_ok());
    }

    /// `from_wire` inverts `render_json`, so a remote client re-renders
    /// byte-identical CSV from the `batch` reply's rows.
    #[test]
    fn wire_roundtrip_preserves_csv_rendering() {
        let rows = [
            ReportRow {
                config: "sub-01".to_string(),
                error: None,
                route: Some("patch"),
                model: Some("ab".repeat(16)),
                property: Some("secured".to_string()),
                verdict: Some("resilient".to_string()),
                certificate: Some("proof".to_string()),
                max: Some(Some(2)),
                index_floor: Some(1),
                histogram: vec![(1, 3), (4, 2)],
                provenance: Some("delta".to_string()),
                elapsed_us: 42,
            },
            ReportRow {
                config: "sub-02".to_string(),
                error: None,
                route: Some("dup"),
                model: None,
                property: Some("obs".to_string()),
                verdict: Some("unknown".to_string()),
                certificate: None,
                max: Some(None),
                index_floor: None,
                histogram: Vec::new(),
                provenance: Some("cached".to_string()),
                elapsed_us: 7,
            },
            ReportRow::error_row("bad, config", "channels.csv:1:2: \"nope\"".to_string(), 9),
        ];
        for row in rows {
            let wire = parse_json(&row.render_json()).unwrap();
            let rebuilt = ReportRow::from_wire(&wire);
            assert_eq!(rebuilt.render_csv(), row.render_csv());
            assert_eq!(rebuilt.render_json(), row.render_json());
        }
    }
}
