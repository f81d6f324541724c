//! Textual configuration format.
//!
//! A line-based, sectioned format mirroring the paper's Table II input:
//! the bus system, the measurement list, the SCADA devices and links,
//! the IED→measurement association, per-pair security profiles, and the
//! resiliency specification. See `parse_config` for the grammar and
//! [`write_config`] for the inverse.
//!
//! ```text
//! # the 2-bus smallest example
//! [buses]
//! 2
//! [lines]
//! 1 2 16.9
//! [measurements]
//! flow 1 2
//! injection 2
//! [devices]
//! ied 1
//! rtu 2
//! mtu 3
//! [links]
//! 1 2
//! 2 3
//! [ied-measurements]
//! 1 1 2
//! [security]
//! 1 2 chap 64 sha2 128
//! [spec]
//! resilience 1 0
//! corrupted 1
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use powergrid::{Branch, BusId, MeasurementId, MeasurementKind, MeasurementSet, PowerSystem};

use crate::crypto::CryptoProfile;
use crate::device::{Device, DeviceId, DeviceKind};
use crate::topology::{Link, Topology};

/// The largest bus count a configuration may declare. A bus needs no
/// text of its own, so the count is bounded by this constant rather
/// than by the input: the power system allocates per bus.
pub const MAX_BUSES: usize = 1 << 20;

/// A parsed configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScadaConfig {
    /// The measurements (owning the power system).
    pub measurements: MeasurementSet,
    /// The SCADA topology with pair security installed.
    pub topology: Topology,
    /// Which measurements each IED records.
    pub ied_measurements: Vec<(DeviceId, Vec<MeasurementId>)>,
    /// Resiliency specification `(k1, k2)`: tolerated IED and RTU
    /// failures.
    pub resilience: (usize, usize),
    /// Tolerated corrupted measurements (`r` of the paper).
    pub corrupted: usize,
    /// Additional tolerated link failures (extension; 0 = paper
    /// semantics).
    pub link_failures: usize,
}

/// Error from [`parse_config`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseConfigError {}

fn err(line: usize, message: impl Into<String>) -> ParseConfigError {
    ParseConfigError {
        line,
        message: message.into(),
    }
}

/// Parses the sectioned text format.
///
/// # Errors
///
/// Returns [`ParseConfigError`] on unknown sections/keywords, dangling
/// references (measurement or device numbers out of range), or missing
/// mandatory sections.
pub fn parse_config(text: &str) -> Result<ScadaConfig, ParseConfigError> {
    #[derive(PartialEq, Clone, Copy)]
    enum Section {
        None,
        Buses,
        Lines,
        Measurements,
        Devices,
        Links,
        IedMeasurements,
        Security,
        Spec,
    }
    let mut section = Section::None;
    let mut n_buses: Option<usize> = None;
    let mut lines_raw: Vec<(usize, usize, usize, f64)> = Vec::new();
    let mut meas_raw: Vec<(usize, Vec<String>)> = Vec::new();
    let mut devices_raw: Vec<(usize, DeviceKind, usize)> = Vec::new();
    let mut links_raw: Vec<(usize, usize, usize)> = Vec::new();
    let mut ied_meas_raw: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    let mut security_raw: Vec<(usize, usize, usize, Vec<CryptoProfile>)> = Vec::new();
    let mut resilience = (0usize, 0usize);
    let mut corrupted = 0usize;
    let mut link_failures = 0usize;

    for (lineno, raw) in text.lines().enumerate() {
        let ln = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| err(ln, "unclosed section"))?;
            section = match name {
                "buses" => Section::Buses,
                "lines" => Section::Lines,
                "measurements" => Section::Measurements,
                "devices" => Section::Devices,
                "links" => Section::Links,
                "ied-measurements" => Section::IedMeasurements,
                "security" => Section::Security,
                "spec" => Section::Spec,
                other => return Err(err(ln, format!("unknown section `{other}`"))),
            };
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match section {
            Section::None => return Err(err(ln, "content before first section")),
            Section::Buses => {
                let count: usize = tokens[0].parse().map_err(|_| err(ln, "bad bus count"))?;
                if count > MAX_BUSES {
                    return Err(err(
                        ln,
                        format!("bus count {count} exceeds the limit of {MAX_BUSES}"),
                    ));
                }
                n_buses = Some(count);
            }
            Section::Lines => {
                if tokens.len() != 3 {
                    return Err(err(ln, "expected `from to susceptance`"));
                }
                let f = tokens[0].parse().map_err(|_| err(ln, "bad bus"))?;
                let t = tokens[1].parse().map_err(|_| err(ln, "bad bus"))?;
                let s: f64 = tokens[2].parse().map_err(|_| err(ln, "bad susceptance"))?;
                if f == t {
                    return Err(err(ln, "line endpoints must differ"));
                }
                if !(s.is_finite() && s > 0.0) {
                    return Err(err(ln, "susceptance must be a positive finite number"));
                }
                lines_raw.push((ln, f, t, s));
            }
            Section::Measurements => {
                meas_raw.push((ln, tokens.iter().map(|s| s.to_string()).collect()));
            }
            Section::Devices => {
                if tokens.len() != 2 {
                    return Err(err(ln, "expected `kind number`"));
                }
                let kind = match tokens[0] {
                    "ied" => DeviceKind::Ied,
                    "rtu" => DeviceKind::Rtu,
                    "mtu" => DeviceKind::Mtu,
                    "router" => DeviceKind::Router,
                    other => return Err(err(ln, format!("unknown device kind `{other}`"))),
                };
                let num = tokens[1]
                    .parse()
                    .map_err(|_| err(ln, "bad device number"))?;
                devices_raw.push((ln, kind, num));
            }
            Section::Links => {
                if tokens.len() != 2 {
                    return Err(err(ln, "expected `device device`"));
                }
                let a = tokens[0].parse().map_err(|_| err(ln, "bad device"))?;
                let b = tokens[1].parse().map_err(|_| err(ln, "bad device"))?;
                links_raw.push((ln, a, b));
            }
            Section::IedMeasurements => {
                if tokens.len() < 2 {
                    return Err(err(ln, "expected `ied meas...`"));
                }
                let ied = tokens[0].parse().map_err(|_| err(ln, "bad device"))?;
                let ms: Result<Vec<usize>, _> = tokens[1..].iter().map(|t| t.parse()).collect();
                ied_meas_raw.push((ln, ied, ms.map_err(|_| err(ln, "bad measurement id"))?));
            }
            Section::Security => {
                if tokens.len() < 4 || !tokens.len().is_multiple_of(2) {
                    return Err(err(ln, "expected `dev dev (algo bits)+`"));
                }
                let a = tokens[0].parse().map_err(|_| err(ln, "bad device"))?;
                let b = tokens[1].parse().map_err(|_| err(ln, "bad device"))?;
                let mut profiles = Vec::new();
                for pair in tokens[2..].chunks(2) {
                    let profile: CryptoProfile = format!("{} {}", pair[0], pair[1])
                        .parse()
                        .map_err(|e| err(ln, format!("{e}")))?;
                    profiles.push(profile);
                }
                security_raw.push((ln, a, b, profiles));
            }
            Section::Spec => match tokens[0] {
                "resilience" => {
                    if tokens.len() != 3 {
                        return Err(err(ln, "expected `resilience k1 k2`"));
                    }
                    resilience = (
                        tokens[1].parse().map_err(|_| err(ln, "bad k1"))?,
                        tokens[2].parse().map_err(|_| err(ln, "bad k2"))?,
                    );
                }
                "corrupted" => {
                    let value = tokens
                        .get(1)
                        .ok_or_else(|| err(ln, "expected `corrupted r`"))?;
                    corrupted = value.parse().map_err(|_| err(ln, "bad r"))?;
                }
                "links" => {
                    let value = tokens.get(1).ok_or_else(|| err(ln, "expected `links n`"))?;
                    link_failures = value.parse().map_err(|_| err(ln, "bad link budget"))?;
                }
                other => return Err(err(ln, format!("unknown spec `{other}`"))),
            },
        }
    }

    let n_buses = n_buses.ok_or_else(|| err(0, "missing [buses] section"))?;
    // A bus number is checked against the count once every section is
    // read: `[buses]` may come after `[lines]`.
    let bus = |ln: usize, number: usize| -> Result<BusId, ParseConfigError> {
        if number == 0 || number > n_buses {
            return Err(err(ln, format!("bus {number} out of range 1..={n_buses}")));
        }
        Ok(BusId::from_one_based(number))
    };
    let mut branches: Vec<Branch> = Vec::with_capacity(lines_raw.len());
    let mut line_pairs = HashSet::with_capacity(lines_raw.len());
    for &(ln, f, t, s) in &lines_raw {
        let (from, to) = (bus(ln, f)?, bus(ln, t)?);
        if !line_pairs.insert((f.min(t), f.max(t))) {
            return Err(err(
                ln,
                format!("duplicate line between bus {f} and bus {t}"),
            ));
        }
        branches.push(Branch::new(from, to, s));
    }
    let system = PowerSystem::new("config", n_buses, branches);

    // Measurements.
    let mut kinds = Vec::new();
    let mut seen_kinds = HashSet::with_capacity(meas_raw.len());
    for (ln, tokens) in &meas_raw {
        let kind = match tokens[0].as_str() {
            "flow" | "flowback" => {
                if tokens.len() != 3 {
                    return Err(err(*ln, "expected `flow from to`"));
                }
                let f: usize = tokens[1].parse().map_err(|_| err(*ln, "bad bus"))?;
                let t: usize = tokens[2].parse().map_err(|_| err(*ln, "bad bus"))?;
                // A far end past the bus count is just not joined to
                // `a` by a line.
                let a = bus(*ln, f)?;
                let b = match t {
                    0 => bus(*ln, t)?,
                    _ => BusId::from_one_based(t),
                };
                let branch = system
                    .branch_between(a, b)
                    .ok_or_else(|| err(*ln, format!("no line between bus{f} and bus{t}")))?;
                // `flow a b` measures at the `a` end: forward if the line
                // is stored as a→b, backward otherwise.
                let stored = system.branch(branch);
                let forward = stored.from == a;
                if tokens[0] == "flow" {
                    if forward {
                        MeasurementKind::FlowForward(branch)
                    } else {
                        MeasurementKind::FlowBackward(branch)
                    }
                } else if forward {
                    MeasurementKind::FlowBackward(branch)
                } else {
                    MeasurementKind::FlowForward(branch)
                }
            }
            "injection" => {
                if tokens.len() != 2 {
                    return Err(err(*ln, "expected `injection bus`"));
                }
                let b: usize = tokens[1].parse().map_err(|_| err(*ln, "bad bus"))?;
                MeasurementKind::Injection(bus(*ln, b)?)
            }
            other => return Err(err(*ln, format!("unknown measurement kind `{other}`"))),
        };
        if !seen_kinds.insert(kind) {
            return Err(err(
                *ln,
                format!("duplicate measurement `{}`", tokens.join(" ")),
            ));
        }
        kinds.push(kind);
    }
    let measurements = MeasurementSet::new(system, kinds);

    // Devices: numbers must be dense 1..=n but may appear in any order,
    // so no number can exceed the count of device lines.
    let max_dev = devices_raw.iter().map(|&(_, _, n)| n).max().unwrap_or(0);
    if let Some(&(ln, _, num)) = devices_raw.iter().find(|d| d.2 > devices_raw.len()) {
        return Err(err(
            ln,
            format!(
                "device {num} exceeds the {} devices declared (numbers are dense from 1)",
                devices_raw.len()
            ),
        ));
    }
    let mut kinds_by_num: Vec<Option<DeviceKind>> = vec![None; max_dev];
    for &(ln, kind, num) in &devices_raw {
        if num == 0 || num > max_dev {
            return Err(err(ln, "device numbers are 1-based"));
        }
        if kinds_by_num[num - 1].replace(kind).is_some() {
            return Err(err(ln, format!("duplicate device {num}")));
        }
    }
    let mut devices = Vec::with_capacity(max_dev);
    for (i, k) in kinds_by_num.iter().enumerate() {
        let kind = k.ok_or_else(|| err(0, format!("device {} missing", i + 1)))?;
        devices.push(Device::new(DeviceId(i), kind));
    }
    for &(ln, a, b) in &links_raw {
        if a == 0 || a > max_dev || b == 0 || b > max_dev {
            return Err(err(ln, "link references unknown device"));
        }
    }
    let links: Vec<Link> = links_raw
        .iter()
        .map(|&(_, a, b)| Link::new(DeviceId::from_one_based(a), DeviceId::from_one_based(b)))
        .collect();
    let mut topology = Topology::new(devices, links);
    for (ln, a, b, profiles) in security_raw {
        if a == 0 || a > max_dev || b == 0 || b > max_dev {
            return Err(err(ln, "security entry references unknown device"));
        }
        topology.set_pair_security(
            DeviceId::from_one_based(a),
            DeviceId::from_one_based(b),
            profiles,
        );
    }

    // IED measurement association.
    let mut ied_measurements = Vec::new();
    let mut claimed: HashMap<usize, usize> = HashMap::new();
    for (ln, ied, ms) in ied_meas_raw {
        if ied == 0 || ied > max_dev {
            return Err(err(ln, "unknown IED"));
        }
        let id = DeviceId::from_one_based(ied);
        if topology.device(id).kind() != DeviceKind::Ied {
            return Err(err(ln, format!("device {ied} is not an IED")));
        }
        let mut mids = Vec::new();
        for m in ms {
            if m == 0 || m > measurements.len() {
                return Err(err(ln, format!("unknown measurement {m}")));
            }
            if let Some(prev) = claimed.insert(m, ied) {
                return Err(err(
                    ln,
                    format!("measurement {m} already recorded by IED {prev}"),
                ));
            }
            mids.push(MeasurementId(m - 1));
        }
        ied_measurements.push((id, mids));
    }

    Ok(ScadaConfig {
        measurements,
        topology,
        ied_measurements,
        resilience,
        corrupted,
        link_failures,
    })
}

/// Serializes a configuration back to the text format.
pub fn write_config(config: &ScadaConfig) -> String {
    let mut out = String::new();
    let sys = config.measurements.system();
    out.push_str("[buses]\n");
    let _ = writeln!(out, "{}", sys.num_buses());
    out.push_str("[lines]\n");
    for b in sys.branches() {
        let _ = writeln!(
            out,
            "{} {} {:.4}",
            b.from.index() + 1,
            b.to.index() + 1,
            b.susceptance
        );
    }
    out.push_str("[measurements]\n");
    for id in config.measurements.ids() {
        match config.measurements.kind(id) {
            MeasurementKind::FlowForward(br) => {
                let b = sys.branch(br);
                let _ = writeln!(out, "flow {} {}", b.from.index() + 1, b.to.index() + 1);
            }
            MeasurementKind::FlowBackward(br) => {
                let b = sys.branch(br);
                let _ = writeln!(out, "flow {} {}", b.to.index() + 1, b.from.index() + 1);
            }
            MeasurementKind::Injection(b) => {
                let _ = writeln!(out, "injection {}", b.index() + 1);
            }
        }
    }
    out.push_str("[devices]\n");
    for d in config.topology.devices() {
        let kind = match d.kind() {
            DeviceKind::Ied => "ied",
            DeviceKind::Rtu => "rtu",
            DeviceKind::Mtu => "mtu",
            DeviceKind::Router => "router",
        };
        let _ = writeln!(out, "{} {}", kind, d.id().one_based());
    }
    out.push_str("[links]\n");
    for l in config.topology.links() {
        let _ = writeln!(out, "{} {}", l.a.one_based(), l.b.one_based());
    }
    out.push_str("[ied-measurements]\n");
    for (ied, ms) in &config.ied_measurements {
        let list: Vec<String> = ms.iter().map(|m| (m.index() + 1).to_string()).collect();
        let _ = writeln!(out, "{} {}", ied.one_based(), list.join(" "));
    }
    out.push_str("[security]\n");
    let mut entries: Vec<_> = config.topology.pair_security_entries().collect();
    entries.sort_by_key(|&(a, b, _)| (a, b));
    for (a, b, profiles) in entries {
        let ps: Vec<String> = profiles.iter().map(|p| p.to_string()).collect();
        let _ = writeln!(out, "{} {} {}", a.one_based(), b.one_based(), ps.join(" "));
    }
    out.push_str("[spec]\n");
    let _ = writeln!(
        out,
        "resilience {} {}",
        config.resilience.0, config.resilience.1
    );
    let _ = writeln!(out, "corrupted {}", config.corrupted);
    if config.link_failures > 0 {
        let _ = writeln!(out, "links {}", config.link_failures);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "
# smallest useful system
[buses]
2
[lines]
1 2 16.9
[measurements]
flow 1 2
flow 2 1
injection 2
[devices]
ied 1
rtu 2
mtu 3
[links]
1 2
2 3
[ied-measurements]
1 1 2
[security]
1 2 chap 64 sha2 128
[spec]
resilience 1 0
corrupted 1
";

    #[test]
    fn parses_small_config() {
        let c = parse_config(SMALL).unwrap();
        assert_eq!(c.measurements.system().num_buses(), 2);
        assert_eq!(c.measurements.len(), 3);
        assert_eq!(c.topology.num_devices(), 3);
        assert_eq!(c.resilience, (1, 0));
        assert_eq!(c.corrupted, 1);
        assert_eq!(c.ied_measurements.len(), 1);
        assert_eq!(c.ied_measurements[0].1.len(), 2);
        // `flow 2 1` on a line stored 1→2 is a backward flow.
        assert!(matches!(
            c.measurements.kind(MeasurementId(1)),
            MeasurementKind::FlowBackward(_)
        ));
        assert!(c.topology.validate().is_empty());
    }

    #[test]
    fn round_trip() {
        let c = parse_config(SMALL).unwrap();
        let text = write_config(&c);
        let again = parse_config(&text).unwrap();
        assert_eq!(c, again);
    }

    #[test]
    fn rejects_unknown_section() {
        assert!(parse_config("[nope]\n1\n").is_err());
    }

    #[test]
    fn rejects_unknown_line_reference() {
        let bad = SMALL.replace("flow 1 2", "flow 1 3");
        let e = parse_config(&bad).unwrap_err();
        assert!(e.message.contains("no line"), "{e}");
    }

    #[test]
    fn rejects_doubly_recorded_measurement() {
        let bad = SMALL.replace("1 1 2", "1 1 2\n1 2");
        // Second entry re-claims measurement 2 — but it's also not dense;
        // either way it must fail.
        assert!(parse_config(&bad).is_err());
    }

    #[test]
    fn rejects_non_ied_recording() {
        let bad = SMALL.replace("[ied-measurements]\n1 1 2", "[ied-measurements]\n2 1 2");
        let e = parse_config(&bad).unwrap_err();
        assert!(e.message.contains("not an IED"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let commented = SMALL.replace("[buses]", "# leading comment\n\n[buses] # trailing");
        assert!(parse_config(&commented).is_ok());
    }

    /// `SMALL` with one edit must fail at `line` with a message holding
    /// `needle`, and must not panic.
    fn rejects_at(from: &str, to: &str, line: usize, needle: &str) {
        assert_eq!(SMALL.matches(from).count(), 1, "edit `{from}` is ambiguous");
        let e = parse_config(&SMALL.replace(from, to)).unwrap_err();
        assert_eq!(e.line, line, "{e}");
        assert!(e.message.contains(needle), "{e}");
    }

    #[test]
    fn rejects_self_loop_line() {
        rejects_at("1 2 16.9", "1 1 16.9", 6, "endpoints must differ");
    }

    #[test]
    fn rejects_bus_zero_in_line() {
        rejects_at("1 2 16.9", "0 1 16.9", 6, "bus 0 out of range");
    }

    #[test]
    fn rejects_line_bus_out_of_range() {
        rejects_at("1 2 16.9", "1 3 16.9", 6, "bus 3 out of range 1..=2");
    }

    #[test]
    fn rejects_non_positive_susceptance() {
        for bad in ["0", "-16.9", "nan", "inf"] {
            rejects_at("1 2 16.9", &format!("1 2 {bad}"), 6, "susceptance");
        }
    }

    #[test]
    fn rejects_parallel_lines() {
        rejects_at("1 2 16.9", "1 2 16.9\n2 1 3.0", 7, "duplicate line");
    }

    #[test]
    fn rejects_injection_at_bus_zero() {
        rejects_at("injection 2", "injection 0", 10, "bus 0 out of range");
    }

    #[test]
    fn rejects_duplicate_measurement() {
        rejects_at(
            "flow 2 1",
            "flow 1 2",
            9,
            "duplicate measurement `flow 1 2`",
        );
    }

    #[test]
    fn rejects_link_to_device_zero() {
        rejects_at("[links]\n1 2", "[links]\n0 2", 16, "unknown device");
    }

    #[test]
    fn rejects_spec_keys_without_values() {
        rejects_at("corrupted 1", "corrupted", 24, "expected `corrupted r`");
        rejects_at(
            "corrupted 1",
            "corrupted 1\nlinks",
            25,
            "expected `links n`",
        );
    }

    #[test]
    fn rejects_bus_count_over_the_limit() {
        let huge = format!("[buses]\n{}", MAX_BUSES + 1);
        rejects_at("[buses]\n2", &huge, 4, "exceeds the limit");
    }

    #[test]
    fn rejects_device_number_past_the_declared_devices() {
        // Checked before anything is sized by the number.
        rejects_at(
            "mtu 3",
            "mtu 99999999999",
            14,
            "exceeds the 3 devices declared",
        );
    }

    #[test]
    fn missing_device_number_detected() {
        let bad = SMALL.replace("ied 1", "ied 4");
        assert!(parse_config(&bad).is_err());
    }
}
