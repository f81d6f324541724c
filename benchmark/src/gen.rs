//! Seeded input generation. Everything the program under test receives
//! (config text, request streams, channel-directory portfolios) is
//! derived here from the workload seed, so one seed always yields
//! byte-identical inputs. Generation is the benchmark's own work and
//! never falls inside a timed window or `setup_s`.

use std::collections::BTreeMap;

use scada_analyzer::ingest::{export_files, from_scada};
use scada_analyzer::service::Json;
use scadasim::paths::{forwarding_paths, path_secured, ForwardingPath};
use scadasim::{
    generate, write_config, CryptoProfile, DeviceId, ScadaConfig, ScadaGenConfig, SecurityPolicy,
};

/// SplitMix64: a tiny deterministic generator, independent of any
/// crate's RNG so the streams cannot drift when a dependency changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on the named sub-stream.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for byte in stream.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        let mut rng = Rng(state);
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Shape of one generated SCADA model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// IEEE-sized bus count (14, 30, 57).
    pub buses: usize,
    /// Measurement density.
    pub density: f64,
    /// RTU hierarchy level.
    pub hierarchy: usize,
    /// Share of secured hops.
    pub secure: f64,
}

/// Generates one model. The grid is the fixed IEEE-sized system
/// (`ieee_sized(buses, 0)`); `seed` drives the SCADA generator, so
/// models of one shape differ in devices, wiring and security only.
pub fn scada(shape: Shape, seed: u64) -> ScadaConfig {
    let system = powergrid::synthetic::ieee_sized(shape.buses, 0);
    let generated = generate(
        system,
        &ScadaGenConfig {
            measurement_density: shape.density,
            hierarchy_level: shape.hierarchy,
            secure_fraction: shape.secure,
            seed,
            ..Default::default()
        },
    );
    ScadaConfig {
        measurements: generated.measurements,
        topology: generated.topology,
        ied_measurements: generated.ied_measurements,
        resilience: (1, 1),
        corrupted: 1,
        link_failures: 0,
    }
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    Json::Str(text.to_string())
        .render()
        .expect("strings always render")
}

/// The `load` request line for a config.
pub fn load_line(config: &ScadaConfig) -> String {
    format!(
        "{{\"op\":\"load\",\"config\":{}}}",
        quote(&write_config(config))
    )
}

/// Explicit pair-security entries in sorted pair order.
pub fn security_pairs(config: &ScadaConfig) -> Vec<(DeviceId, DeviceId)> {
    let mut pairs: Vec<_> = config
        .topology
        .pair_security_entries()
        .map(|(a, b, _)| (a, b))
        .collect();
    pairs.sort();
    pairs
}

/// Seed of the set-up warm-up inputs of `operator_mix` and
/// `certify_large`. The warm-up is the same for every workload seed, so
/// `setup_s` measures the program and not how hard one seed's warm-up
/// model is: with seeded warm-up models, `certify_large`'s set-up took
/// 50 % longer on one seed than on another.
pub const WARMUP_SEED: u64 = 0;

/// Profile lists the variants and patches rotate through.
pub const PALETTE: [&str; 5] = [
    "aes 256",
    "hmac 128 sha2 128",
    "rsa 2048",
    "md5 64",
    "aes 128 hmac 256",
];

/// Parses one palette entry into its profiles.
pub fn profiles(spec: &str) -> Vec<CryptoProfile> {
    let tokens: Vec<&str> = spec.split_whitespace().collect();
    tokens
        .chunks(2)
        .map(|pair| {
            format!("{} {}", pair[0], pair[1])
                .parse()
                .expect("palette entries parse")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// hot_read
// ---------------------------------------------------------------------------

/// Models per bus size in the hot set.
pub const HOT_PER_SIZE: usize = 8;

/// The 24 hot models: 8 each of IEEE-14/30/57 (density 0.7, hierarchy 1).
pub fn hot_models(seed: u64) -> Vec<ScadaConfig> {
    let mut rng = Rng::new(seed, "hot_read/models");
    [14, 30, 57]
        .iter()
        .flat_map(|&buses| {
            let shape = Shape {
                buses,
                density: 0.7,
                hierarchy: 1,
                secure: 0.8,
            };
            (0..HOT_PER_SIZE)
                .map(|_| scada(shape, rng.next_u64() % 1_000_000))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The request line of hot query `kind` on `model`.
pub fn hot_query_line(model: &str, kind: usize) -> String {
    match kind {
        0 => format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\"spec\":{{\"k\":1}}}}"
        ),
        1 => format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"secured\",\"spec\":{{\"k\":1}}}}"
        ),
        2 => format!(
            "{{\"op\":\"maxres\",\"model\":\"{model}\",\"property\":\"obs\",\"axis\":\"total\"}}"
        ),
        _ => format!("{{\"op\":\"security_index\",\"model\":\"{model}\"}}"),
    }
}

/// The popularity ranking of the 96 hot queries as `(model, kind)`.
///
/// Rank `r` always maps to kind `r % 4` and bus size `(r / 4) % 3`;
/// the seed only picks which model of that size holds the rank. Reply
/// sizes differ by kind and size by up to 10x, so fixing that pattern
/// keeps the cost of the Zipf mix the same on every seed while the
/// seed still decides which sessions and cache entries are hot.
pub fn hot_ranking(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, "hot_read/ranking");
    let perms: Vec<Vec<usize>> = (0..3)
        .map(|_| {
            let mut p: Vec<usize> = (0..HOT_PER_SIZE).collect();
            rng.shuffle(&mut p);
            p
        })
        .collect();
    (0..HOT_PER_SIZE * 12)
        .map(|r| {
            let kind = r % 4;
            let size = (r / 4) % 3;
            let j = r / 12;
            (size * HOT_PER_SIZE + perms[size][j], kind)
        })
        .collect()
}

/// An endless Zipf(s = 1) stream of ranks over `n` items.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    rng: Rng,
}

impl Zipf {
    /// A stream over `n` ranks drawn from `rng`.
    pub fn new(n: usize, rng: Rng) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / (r + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf, rng }
    }

    /// The next rank.
    pub fn next_rank(&mut self) -> usize {
        let u = self.rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------------------------
// operator_mix
// ---------------------------------------------------------------------------

/// One step of an operator script.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Cold-load the cycle's config.
    Load,
    /// Verify `property` at total budget `k`.
    Verify(&'static str, usize),
    /// Apply a patch (wire JSON of the patch object).
    Patch(String),
    /// Max resiliency of observability along the total axis.
    MaxRes,
    /// Security-index distribution.
    SecurityIndex,
    /// Repeat the first verify of the cycle (a verdict-cache hit).
    Repeat,
    /// Drop the session.
    Evict,
}

impl Step {
    /// The request line of this step against `model`; `config` is the
    /// cycle's load line.
    pub fn line(&self, model: &str, load: &str) -> String {
        match self {
            Step::Load => load.to_string(),
            Step::Verify(property, k) => format!(
                "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"{property}\",\"spec\":{{\"k\":{k}}}}}"
            ),
            Step::Patch(patch) => {
                format!("{{\"op\":\"patch\",\"model\":\"{model}\",\"patch\":{patch}}}")
            }
            Step::MaxRes => format!(
                "{{\"op\":\"maxres\",\"model\":\"{model}\",\"property\":\"obs\",\"axis\":\"total\"}}"
            ),
            Step::SecurityIndex => format!("{{\"op\":\"security_index\",\"model\":\"{model}\"}}"),
            Step::Repeat => Step::Verify("obs", 1).line(model, load),
            Step::Evict => format!("{{\"op\":\"evict\",\"model\":\"{model}\"}}"),
        }
    }

    /// Whether the step mutates the model (and so changes its hash).
    pub fn is_patch(&self) -> bool {
        matches!(self, Step::Patch(_))
    }
}

/// One operator cycle: a fresh model and the script run against it.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// The model.
    pub config: ScadaConfig,
    /// Its `load` line.
    pub load: String,
    /// The script, starting with `Load` and ending with `Evict`.
    pub steps: Vec<Step>,
}

/// Renders a `set_profile` patch object.
pub fn set_profile_patch(a: DeviceId, b: DeviceId, spec: &str) -> String {
    let list: Vec<String> = profiles(spec)
        .iter()
        .map(|p| quote(&p.to_string()))
        .collect();
    format!(
        "{{\"set_profile\":{{\"a\":{},\"b\":{},\"profiles\":[{}]}}}}",
        a.one_based(),
        b.one_based(),
        list.join(",")
    )
}

/// Cycles of one operator connection, each on a fresh model with its
/// own generator seed, so every load is cold. Operator 0 works on
/// IEEE-57 models and the others on IEEE-30: with one of each in flight
/// at all times, the working set does not depend on how the two
/// operators' scripts happen to line up.
pub fn operator_cycles(seed: u64, conn: usize, count: usize) -> Vec<Cycle> {
    let mut rng = Rng::new(seed, &format!("operator_mix/conn{conn}"));
    (0..count)
        .map(|_| {
            let shape = Shape {
                buses: if conn == 0 { 57 } else { 30 },
                density: 0.7,
                hierarchy: 1,
                secure: 0.8,
            };
            let config = scada(shape, rng.next_u64() % 1_000_000);
            let pairs = security_pairs(&config);
            let mut steps = vec![Step::Load];
            steps.extend((1..=3).map(|k| Step::Verify("obs", k)));
            steps.extend((1..=2).map(|k| Step::Verify("secured", k)));
            for _ in 0..3 {
                let (a, b) = pairs[rng.below(pairs.len())];
                let spec = PALETTE[rng.below(PALETTE.len())];
                steps.push(Step::Patch(set_profile_patch(a, b, spec)));
                steps.push(Step::Verify("secured", 1));
            }
            let ieds: Vec<DeviceId> = config.topology.ieds().map(|d| d.id()).collect();
            let victim = ieds[rng.below(ieds.len())];
            steps.push(Step::Patch(format!(
                "{{\"remove_device\":{}}}",
                victim.one_based()
            )));
            steps.push(Step::Verify("obs", 1));
            steps.push(Step::MaxRes);
            steps.push(Step::SecurityIndex);
            steps.push(Step::Repeat);
            steps.push(Step::Evict);
            Cycle {
                load: load_line(&config),
                config,
                steps,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// fleet_audit
// ---------------------------------------------------------------------------

/// Number of planted malformed configs in every portfolio.
pub const PLANTED: usize = 2;

/// Clusters in a portfolio.
pub const CLUSTERS: usize = 8;
/// Configs per cluster: a base, one exact duplicate, three variants.
pub const CLUSTER_SIZE: usize = 5;
/// Profile rotations drawn for one base before it is replaced by the
/// next generated model.
const VARIANT_DRAWS: usize = 64;

/// Which forwarding paths of each IED are secured: what the engine
/// compares after a profile patch to decide whether the secured
/// encoding and its cached verdicts survive the patch.
fn secured_signature(
    config: &ScadaConfig,
    policy: &SecurityPolicy,
    paths: &[Vec<ForwardingPath>],
) -> Vec<Vec<bool>> {
    paths
        .iter()
        .map(|ied| {
            ied.iter()
                .map(|path| path_secured(&config.topology, policy, path))
                .collect()
        })
        .collect()
}

/// The `CLUSTER_SIZE - 2` variants of `base`: distinct configs that
/// each re-profile one or two of its explicit pairs and leave the
/// secured paths of every IED as they are. `None` when the draws find
/// too few.
///
/// The engine answers a patch that keeps the secured paths from the
/// verdicts it migrates, and re-encodes and re-solves after one that
/// changes them. Drawn freely, that split changed from cluster to
/// cluster and so from seed to seed, and with it the work of a pass and
/// the heap: one cluster's sessions held 4.5 MiB or 8.5 MiB, and
/// `peak_heap_mb` spread 9 % over seeds. Patches that keep the secured
/// paths make every patch hop a migration, on every seed.
fn draw_variants(base: &ScadaConfig, rng: &mut Rng) -> Option<Vec<ScadaConfig>> {
    let input = from_scada("base", base, "secured")
        .expect("generated configs canonicalize")
        .input();
    let paths: Vec<Vec<ForwardingPath>> = base
        .topology
        .ieds()
        .map(|ied| forwarding_paths(&base.topology, ied.id(), &input.path_limits))
        .collect();
    let signature = secured_signature(base, &input.policy, &paths);
    let pairs = security_pairs(base);
    let mut texts = vec![write_config(base)];
    let mut variants = Vec::new();
    for _ in 0..VARIANT_DRAWS {
        let mut config = base.clone();
        for _ in 0..1 + rng.below(2) {
            let (a, b) = pairs[rng.below(pairs.len())];
            let spec = PALETTE[rng.below(PALETTE.len())];
            config.topology.set_pair_security(a, b, profiles(spec));
        }
        let text = write_config(&config);
        if secured_signature(&config, &input.policy, &paths) == signature && !texts.contains(&text)
        {
            texts.push(text);
            variants.push(config);
            if variants.len() == CLUSTER_SIZE - 2 {
                return Some(variants);
            }
        }
    }
    None
}

/// The portfolio as `(config name, relative path -> file text)`:
/// [`CLUSTERS`] clusters of IEEE-57 models, each a base, an exact
/// duplicate and three profile-rotation variants (see [`draw_variants`]),
/// plus the planted malformed configs, sorted by name.
///
/// All clusters share one size so that the executor's assignment of
/// clusters to its two workers — which follows the clusters' hash order
/// and so changes with the seed — never unbalances a pass.
pub fn portfolio(seed: u64) -> Vec<(String, BTreeMap<String, String>)> {
    let mut rng = Rng::new(seed, "fleet_audit/portfolio");
    let mut fleet = Vec::new();
    let mut first_files = None;
    let shape = Shape {
        buses: 57,
        density: 0.7,
        hierarchy: 1,
        secure: 0.8,
    };
    for cluster in 0..CLUSTERS {
        let (base, variants) = loop {
            let base = scada(shape, rng.next_u64() % 1_000_000);
            if let Some(variants) = draw_variants(&base, &mut rng) {
                break (base, variants);
            }
        };
        let members = [base.clone(), base].into_iter().chain(variants);
        for (member, config) in members.enumerate() {
            let name = format!("c{cluster}-{member:02}");
            let imported =
                from_scada(&name, &config, "secured").expect("generated configs canonicalize");
            let files = export_files(&imported);
            if first_files.is_none() {
                first_files = Some(files.clone());
            }
            fleet.push((name, files));
        }
    }
    // Planted errors: an unbalanced quote in the manifest, and a ragged
    // row in an otherwise valid config's grid table.
    let mut quote_error = BTreeMap::new();
    quote_error.insert(
        "channels.csv".to_string(),
        "channel,kind,uplink,transport,bandwidth_kbps\n\"mtu001,master,,ethernet,10000\n"
            .to_string(),
    );
    fleet.push(("zz-bad-quote".to_string(), quote_error));
    let mut ragged = first_files.expect("portfolio has members");
    let grid = ragged
        .get_mut("grid.csv")
        .expect("exported configs carry a grid");
    let mut lines: Vec<String> = grid.lines().map(str::to_string).collect();
    let row = 1 + rng.below(lines.len() - 1);
    let cut = lines[row]
        .rfind(',')
        .expect("grid rows have several fields");
    lines[row].truncate(cut);
    *grid = lines.join("\n") + "\n";
    fleet.push(("zz-bad-ragged".to_string(), ragged));
    fleet.sort_by(|a, b| a.0.cmp(&b.0));
    fleet
}

// ---------------------------------------------------------------------------
// certify_large
// ---------------------------------------------------------------------------

/// Models audited per certify_large run (cycled when the window allows).
pub const CERTIFY_MODELS: usize = 24;

/// The certified audit battery: `(property, k)` verifies, then the
/// security index. Observability at k=3 is left out: on these models it
/// flips between a certified proof (0.4-0.6 s) and a threat found in
/// milliseconds, which made one seed's audits up to 40% slower than
/// another's.
pub const CERTIFY_BATTERY: [(&str, usize); 4] =
    [("obs", 1), ("obs", 2), ("secured", 1), ("secured", 2)];

/// The shape of every certify_large model.
const CERTIFY_SHAPE: Shape = Shape {
    buses: 57,
    density: 1.0,
    hierarchy: 1,
    secure: 0.9,
};

/// The certify_large models: IEEE-57, density 1.0, hierarchy 1, secure
/// fraction 0.9.
pub fn certify_models(seed: u64, count: usize) -> Vec<ScadaConfig> {
    let mut rng = Rng::new(seed, "certify_large/models");
    (0..count)
        .map(|_| scada(CERTIFY_SHAPE, rng.next_u64() % 1_000_000))
        .collect()
}

/// The model certify_large's set-up audits: of the same shape, on a
/// stream of its own so it is never one of the measured models.
pub fn certify_warmup() -> ScadaConfig {
    let mut rng = Rng::new(WARMUP_SEED, "certify_large/warmup");
    scada(CERTIFY_SHAPE, rng.next_u64() % 1_000_000)
}
