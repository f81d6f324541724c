//! Canonical content hashing of analysis inputs.
//!
//! The service keys warm sessions and cached verdicts by *model
//! content*, not by file name or load order: two [`AnalysisInput`]s that
//! describe the same system must collide on purpose, and any semantic
//! difference must separate them. [`model_hash`] therefore hashes a
//! *canonical* serialization of the input:
//!
//! * collections whose order is semantic (the measurement list — ids are
//!   positional; branches — measurement kinds reference them by index;
//!   devices — ids are positional) are hashed in order;
//! * collections whose order is incidental (IED→measurement association
//!   entries and their inner id lists, explicit pair-security entries and
//!   their profile lists, policy rules, the link set) are folded with a
//!   commutative combiner, so re-ordering them cannot change the hash;
//! * link endpoints and security pairs are normalized `(min, max)`.
//!
//! The digest is 128 bits (two independently seeded FNV-1a streams with
//! a final avalanche), rendered as 32 lowercase hex characters on the
//! wire. This is a *content key*, not a cryptographic commitment — the
//! threat model is accidental collision between configurations, not an
//! adversary crafting one.

use std::fmt::{self, Write as _};
use std::str::FromStr;
use std::sync::LazyLock;

use powergrid::{MeasurementId, MeasurementSet};
use scadasim::paths::PathLimits;
use scadasim::{DeviceId, ScadaConfig, SecurityPolicy, Topology};

use crate::input::AnalysisInput;
use crate::patch::ModelPatch;

/// A 128-bit canonical content hash of an [`AnalysisInput`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelHash(pub u128);

impl fmt::Display for ModelHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Error from parsing a [`ModelHash`] from its hex rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelHashError;

impl fmt::Display for ParseModelHashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("model hash must be 32 lowercase hex characters")
    }
}

impl std::error::Error for ParseModelHashError {}

impl FromStr for ModelHash {
    type Err = ParseModelHashError;

    fn from_str(s: &str) -> Result<ModelHash, ParseModelHashError> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(ParseModelHashError);
        }
        u128::from_str_radix(s, 16)
            .map(ModelHash)
            .map_err(|_| ParseModelHashError)
    }
}

const FNV_PRIME: u64 = 0x100000001b3;
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// Seed separating the second stream from the first (golden-ratio bits).
const STREAM_TWEAK: u64 = 0x9e37_79b9_7f4a_7c15;

/// Two independently seeded FNV-1a streams over one canonical byte
/// sequence.
#[derive(Clone, Copy)]
struct Mix {
    a: u64,
    b: u64,
}

impl Mix {
    fn new() -> Mix {
        Mix {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ STREAM_TWEAK,
        }
    }

    fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        // The second stream sees the complement, so the two states never
        // track each other even from related seeds.
        self.b = (self.b ^ u64::from(!x)).wrapping_mul(FNV_PRIME);
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.byte(byte);
        }
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn bool(&mut self, x: bool) {
        self.byte(u8::from(x));
    }

    /// A value's `Debug` rendering as a string, formatted into `scratch`.
    fn debug(&mut self, scratch: &mut String, x: &impl fmt::Debug) {
        scratch.clear();
        let _ = write!(scratch, "{x:?}");
        self.str(scratch);
    }

    /// A length-prefixed string (prefixing keeps `("ab","c")` distinct
    /// from `("a","bc")`).
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for byte in s.bytes() {
            self.byte(byte);
        }
    }

    /// A section tag, separating the canonical stream's fields.
    fn tag(&mut self, tag: &str) {
        self.str(tag);
    }

    /// Folds an unordered collection: each item is hashed in a fresh
    /// sub-stream and the finalized sub-digests are combined with a
    /// commutative sum, so item order cannot influence the result. The
    /// item count is mixed in ordinarily.
    fn unordered<T>(&mut self, items: impl IntoIterator<Item = T>, item: impl Fn(&mut Mix, T)) {
        let mut count: u64 = 0;
        let (mut sum_a, mut sum_b) = (0u64, 0u64);
        for it in items {
            let mut sub = Mix::new();
            item(&mut sub, it);
            let (fa, fb) = sub.finish_raw();
            sum_a = sum_a.wrapping_add(fa);
            sum_b = sum_b.wrapping_add(fb);
            count += 1;
        }
        self.u64(count);
        self.u64(sum_a);
        self.u64(sum_b);
    }

    fn finish_raw(&self) -> (u64, u64) {
        (avalanche(self.a), avalanche(self.b))
    }

    fn finish(&self) -> u128 {
        let (a, b) = self.finish_raw();
        (u128::from(a) << 64) | u128::from(b)
    }
}

/// SplitMix64-style finalizer: FNV's low bits mix poorly on short
/// inputs; this spreads every input bit across the whole word.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Computes the canonical content hash of an analysis input.
///
/// Semantically identical inputs — same system, topology, association,
/// security, policy, and limits, in any representation order — hash
/// equal; any single-field change separates them (property-tested in
/// `tests/service.rs`).
pub fn model_hash(input: &AnalysisInput) -> ModelHash {
    hash_input(input, true)
}

/// The canonical hash of an input with its explicit pair-security table
/// read as empty: equal to the [`model_hash`] of the same input with
/// that table stripped. Inputs that differ only in pair security — the
/// axis [`ModelPatch::SetProfile`] chains traverse — share it (the
/// fleet planner's cluster key).
pub fn security_normalized_hash(input: &AnalysisInput) -> ModelHash {
    hash_input(input, false)
}

/// The canonical serialization behind [`model_hash`]; `security: false`
/// hashes the pair-security section as an empty table.
fn hash_input(input: &AnalysisInput, security: bool) -> ModelHash {
    let model = Hashed::of(input);
    let mut mix = model.head();
    hash_security(&mut mix, model.topology, security);
    model.tail(&mut mix);
    ModelHash(mix.finish())
}

/// The [`model_hash`] and [`security_normalized_hash`] of a config
/// lowered the default way (`AnalysisInput::from`: the DSN'16 policy,
/// default path limits, routers pinned), from one walk of the config:
/// the hash state forks at the pair-security section.
pub(crate) fn config_hashes(config: &ScadaConfig) -> (ModelHash, ModelHash) {
    static POLICY: LazyLock<SecurityPolicy> = LazyLock::new(SecurityPolicy::dsn16);
    let model = Hashed {
        measurements: &config.measurements,
        topology: &config.topology,
        ied_measurements: &config.ied_measurements,
        policy: &POLICY,
        path_limits: PathLimits::default(),
        routers_can_fail: false,
    };
    let mut full = model.head();
    let mut normalized = full;
    hash_security(&mut full, model.topology, true);
    hash_security(&mut normalized, model.topology, false);
    model.tail(&mut full);
    model.tail(&mut normalized);
    (ModelHash(full.finish()), ModelHash(normalized.finish()))
}

/// The parts of a model its canonical hash reads.
struct Hashed<'a> {
    measurements: &'a MeasurementSet,
    topology: &'a Topology,
    ied_measurements: &'a [(DeviceId, Vec<MeasurementId>)],
    policy: &'a SecurityPolicy,
    path_limits: PathLimits,
    routers_can_fail: bool,
}

impl<'a> Hashed<'a> {
    fn of(input: &'a AnalysisInput) -> Hashed<'a> {
        Hashed {
            measurements: &input.measurements,
            topology: &input.topology,
            ied_measurements: &input.ied_measurements,
            policy: &input.policy,
            path_limits: input.path_limits,
            routers_can_fail: input.routers_can_fail,
        }
    }

    /// Every section before pair security.
    fn head(&self) -> Mix {
        let mut mix = Mix::new();
        let mut scratch = String::new();

        // Power system: bus count and branch list (branch order is
        // semantic — measurement kinds reference branches positionally).
        let system = self.measurements.system();
        mix.tag("system");
        mix.usize(system.num_buses());
        mix.usize(system.branches().len());
        for branch in system.branches() {
            mix.usize(branch.from.index());
            mix.usize(branch.to.index());
            mix.f64(branch.susceptance);
        }

        // Measurements, in order (ids are positional).
        mix.tag("measurements");
        mix.usize(self.measurements.len());
        for kind in self.measurements.kinds() {
            mix.debug(&mut scratch, kind);
        }

        // Devices, in id order (ids are positional), with their own
        // security attributes (pair security falls back to device
        // suites).
        mix.tag("devices");
        mix.usize(self.topology.num_devices());
        for device in self.topology.devices() {
            mix.debug(&mut scratch, &device.kind());
            mix.bool(device.retired());
            mix.bool(device.requires_crypto());
            mix.unordered(device.crypto_suites(), |m, p| m.str(&p.to_string()));
            mix.unordered(device.protocols(), |m, p| m.str(&format!("{p:?}")));
        }

        // Links: a set of normalized endpoint pairs.
        mix.tag("links");
        mix.unordered(self.topology.links(), |m, l| {
            m.usize(l.a.index().min(l.b.index()));
            m.usize(l.a.index().max(l.b.index()));
        });

        // IED→measurement association: entry order and inner list order
        // are both incidental.
        mix.tag("ied-measurements");
        mix.unordered(self.ied_measurements, |m, (ied, ms)| {
            m.usize(ied.index());
            let mut sorted: Vec<usize> = ms.iter().map(|id| id.index()).collect();
            sorted.sort_unstable();
            m.usize(sorted.len());
            for id in sorted {
                m.usize(id);
            }
        });
        mix
    }

    /// Every section after pair security.
    fn tail(&self, mix: &mut Mix) {
        // Policy: rule order is incidental (a hop needs *any* accepted
        // profile).
        mix.tag("policy");
        mix.unordered(self.policy.authentication_rules(), |m, r| {
            m.str(&format!("{r:?}"));
        });
        mix.unordered(self.policy.integrity_rules(), |m, r| {
            m.str(&format!("{r:?}"));
        });

        // Analysis parameters.
        mix.tag("limits");
        mix.usize(self.path_limits.max_paths);
        mix.usize(self.path_limits.max_hops);
        mix.bool(self.routers_can_fail);
    }
}

/// Explicit pair security: an unordered map of normalized pairs to
/// unordered profile sets, hashed as empty when `security` is false.
fn hash_security(mix: &mut Mix, topology: &Topology, security: bool) {
    mix.tag("security");
    mix.unordered(
        topology.pair_security_entries().filter(|_| security),
        |m, (a, b, profiles)| {
            m.usize(a.index().min(b.index()));
            m.usize(a.index().max(b.index()));
            m.unordered(profiles, |mm, p| mm.str(&p.to_string()));
        },
    );
}

/// Advances a model hash across a patch: the *lineage* hash of the
/// patched model.
///
/// A patched session's identity is `advance(base, p1, p2, …)` — the
/// base content hash folded with the canonical bytes of each applied
/// patch, in order — not a re-computed content hash of the mutated
/// input. This is deliberate: the advance is O(patch) instead of
/// O(model), it is deterministic for a given `(base, patch sequence)`
/// so every client that applies the same deltas derives the same key,
/// and it can never collide with a content hash that still keys the
/// *old* model's cached verdicts (patch bytes always shift the digest).
pub fn advance_model_hash(base: ModelHash, patch: &ModelPatch) -> ModelHash {
    let mut mix = Mix::new();
    mix.tag("lineage");
    mix.u64((base.0 >> 64) as u64);
    mix.u64(base.0 as u64);
    match patch {
        ModelPatch::AddDevice { kind, peers } => {
            mix.tag("add_device");
            mix.str(&format!("{kind:?}"));
            mix.usize(peers.len());
            for p in peers {
                mix.usize(p.index());
            }
        }
        ModelPatch::RemoveDevice { id } => {
            mix.tag("remove_device");
            mix.usize(id.index());
        }
        ModelPatch::SetProfile { a, b, profiles } => {
            mix.tag("set_profile");
            mix.usize(a.index().min(b.index()));
            mix.usize(a.index().max(b.index()));
            mix.unordered(profiles, |m, p| m.str(&p.to_string()));
        }
        ModelPatch::RewireLink { link, a, b } => {
            mix.tag("rewire_link");
            mix.usize(*link);
            mix.usize(a.index().min(b.index()));
            mix.usize(a.index().max(b.index()));
        }
    }
    ModelHash(mix.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::five_bus_case_study;

    #[test]
    fn hash_is_stable_and_roundtrips_hex() {
        let input = five_bus_case_study();
        let h1 = model_hash(&input);
        let h2 = model_hash(&input);
        assert_eq!(h1, h2);
        let rendered = h1.to_string();
        assert_eq!(rendered.len(), 32);
        assert_eq!(rendered.parse::<ModelHash>().unwrap(), h1);
        assert!("xyz".parse::<ModelHash>().is_err());
        assert!("00".parse::<ModelHash>().is_err());
    }

    #[test]
    fn config_hashes_fork_model_and_normalized_hashes() {
        let system = powergrid::synthetic::synthetic_system("hash", 9, 12, 7);
        let scada = scadasim::generate(
            system,
            &scadasim::ScadaGenConfig {
                secure_fraction: 0.8,
                seed: 7,
                ..Default::default()
            },
        );
        let config = ScadaConfig {
            measurements: scada.measurements,
            topology: scada.topology,
            ied_measurements: scada.ied_measurements,
            resilience: (1, 1),
            corrupted: 1,
            link_failures: 0,
        };
        assert!(config.topology.pair_security_entries().next().is_some());
        let input = AnalysisInput::from(config.clone());
        assert_eq!(
            config_hashes(&config),
            (model_hash(&input), security_normalized_hash(&input))
        );
    }

    #[test]
    fn association_order_is_canonicalized() {
        let base = five_bus_case_study();
        let mut shuffled = base.clone();
        shuffled.ied_measurements.reverse();
        for (_, ms) in &mut shuffled.ied_measurements {
            ms.reverse();
        }
        assert_eq!(model_hash(&base), model_hash(&shuffled));
    }

    #[test]
    fn lineage_advance_is_deterministic_and_separating() {
        use crate::patch::ModelPatch;
        use scadasim::DeviceId;
        let base = model_hash(&five_bus_case_study());
        let p1 = ModelPatch::RemoveDevice { id: DeviceId(0) };
        let p2 = ModelPatch::RemoveDevice { id: DeviceId(1) };
        assert_eq!(advance_model_hash(base, &p1), advance_model_hash(base, &p1));
        assert_ne!(advance_model_hash(base, &p1), advance_model_hash(base, &p2));
        assert_ne!(advance_model_hash(base, &p1), base);
        // Order matters: lineage is a chain, not a set.
        let ab = advance_model_hash(advance_model_hash(base, &p1), &p2);
        let ba = advance_model_hash(advance_model_hash(base, &p2), &p1);
        assert_ne!(ab, ba);
    }

    #[test]
    fn retirement_separates_content_hashes() {
        let base = five_bus_case_study();
        let mut retired = base.clone();
        let ied = retired.topology.ieds().next().unwrap().id();
        retired.topology.retire_device(ied);
        assert_ne!(model_hash(&base), model_hash(&retired));
    }

    #[test]
    fn parameter_mutations_separate() {
        let base = five_bus_case_study();
        let h = model_hash(&base);
        let mut flipped = base.clone();
        flipped.routers_can_fail = true;
        assert_ne!(model_hash(&flipped), h);
        let mut limited = base.clone();
        limited.path_limits.max_hops += 1;
        assert_ne!(model_hash(&limited), h);
        let mut no_policy = base.clone();
        no_policy.policy = scadasim::SecurityPolicy::empty();
        assert_ne!(model_hash(&no_policy), h);
    }
}
