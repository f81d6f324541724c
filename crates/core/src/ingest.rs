//! Channel-directory fleet ingestion.
//!
//! Real EMS deployments do not ship one hand-written model file per
//! substation: they ship *convention-driven config trees* — a directory
//! per communication channel holding CSV point tables and protocol
//! mapping tables, plus a top-level channel manifest with transport
//! parameters. This module parses that shape with strict,
//! line/column-addressed validation errors and lowers it into the
//! analyzer's native [`ScadaConfig`], deterministically: re-importing
//! the same tree always yields the same model, so the canonical
//! [`model_hash`](crate::model_hash) is stable across re-imports.
//!
//! # Directory layout
//!
//! ```text
//! substation-a/
//!   channels.csv            # channel,kind,uplink,transport,bandwidth_kbps
//!   grid.csv                # element,a,b,susceptance  (bus count + lines)
//!   spec.csv                # key,value                (resiliency spec)
//!   security.csv            # a,b,profiles             (per-pair crypto)
//!   ied003/                 # one directory per IED channel
//!     telemetry.csv         # point,description
//!     mapping_telemetry.csv # point,kind,a,b           (point → measurement)
//!     signal.csv            # point,description        (optional, validated)
//!     control.csv           # point,description        (optional, validated)
//! ```
//!
//! * `channels.csv` rows declare devices in id order (row 1 = device 1).
//!   `kind` is `master|rtu|ied|router` (exactly one master). `uplink`
//!   lists space-separated names of *earlier* channels this channel
//!   links to; `transport` (`ethernet|wireless|serial|fiber`) and
//!   `bandwidth_kbps` describe those declared links.
//! * `grid.csv` holds one `bus,<count>,,` row and one
//!   `line,<from>,<to>,<susceptance>` row per transmission line, in
//!   branch order.
//! * `spec.csv` keys: `resilience_ieds`, `resilience_rtus`, `corrupted`
//!   (required), `link_failures` (default 0), `property`
//!   (`obs|secured|baddata`, default `secured`).
//! * Each IED channel directory maps every telemetry point to exactly
//!   one measurement (`flow,<a>,<b>` measured at the `a` end, or
//!   `injection,<bus>,`). Global measurement ids follow (channel order,
//!   telemetry row order). `signal.csv`/`control.csv` are validated for
//!   shape but not lowered (the analysis models telemetry delivery).
//!
//! CSV parsing is zero-dependency and strict, in the spirit of the
//! service protocol's JSON grammar: UTF-8 BOM tolerated, CRLF
//! tolerated, quoted fields with `""` escapes, and hard errors (with
//! file/line/column) on unbalanced quotes, stray characters after a
//! closing quote, or quotes inside unquoted fields.
//!
//! # Zero-copy parsing
//!
//! Each file is parsed once, by a byte scanner whose fields borrow the
//! file text ([`CsvField::value`] is a `Cow`): only a quoted field with
//! `""` escapes owns its unescaped copy. Columns count characters, not
//! bytes, so an error after non-ASCII text points where an editor
//! does. The importer works on a borrowed view of a config's files and
//! looks tables, points and channel names up as `&str`; the model it
//! builds owns everything, so the texts are dropped once a config is
//! imported ([`import_dir`] reads them into one buffer per config).
//!
//! # Canonical form and fixed points
//!
//! [`export_files`] writes an [`ImportedConfig`] back out as a
//! canonical tree (generated channel/point names, declared links listed
//! on their higher-numbered endpoint). Import is a fixed point over it:
//! `import(export(import(t))) == import(t)`, property-tested in
//! `tests/fleet.rs`. [`from_scada`] canonicalizes an arbitrary
//! [`ScadaConfig`] into that form (reorienting links, renumbering
//! measurements into channel order) — it is how the checked-in example
//! fleet is generated. Like the textual config format, the
//! channel-directory form expresses device *kinds* but not per-device
//! crypto attributes; models that need those are out of its scope.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::io::Read;
use std::ops::Range;
use std::path::Path;

use powergrid::{Branch, BusId, MeasurementId, MeasurementKind, MeasurementSet, PowerSystem};
use scadasim::{
    CryptoProfile, Device, DeviceId, DeviceKind, Link, LinkMedium, ScadaConfig, Topology, MAX_BUSES,
};

/// The property names a fleet config may request (`spec.csv`'s
/// `property` key), matching the service protocol's wire names.
pub const PROPERTIES: [&str; 3] = ["obs", "secured", "baddata"];

/// A strict, source-addressed ingestion error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError {
    /// Relative path of the offending file within the config directory.
    pub file: String,
    /// 1-based line number; 0 for whole-file errors.
    pub line: usize,
    /// 1-based column number; 0 for whole-line errors.
    pub column: usize,
    /// Description of what was rejected.
    pub message: String,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", self.file, self.message)
        } else if self.column == 0 {
            write!(f, "{}:{}: {}", self.file, self.line, self.message)
        } else {
            write!(
                f,
                "{}:{}:{}: {}",
                self.file, self.line, self.column, self.message
            )
        }
    }
}

impl std::error::Error for IngestError {}

fn err(file: &str, line: usize, column: usize, message: impl Into<String>) -> IngestError {
    IngestError {
        file: file.to_string(),
        line,
        column,
        message: message.into(),
    }
}

/// One CSV field with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvField<'t> {
    /// 1-based line the field starts on.
    pub line: usize,
    /// 1-based column (in characters) the field starts at.
    pub column: usize,
    /// Decoded field value (quotes removed, `""` unescaped). It borrows
    /// the file text; only a quoted field with `""` escapes owns a copy.
    pub value: Cow<'t, str>,
}

/// One CSV record (a non-blank line, or several lines when a quoted
/// field spans newlines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvRecord<'t> {
    /// 1-based line the record starts on.
    pub line: usize,
    /// The record's fields, left to right.
    pub fields: Vec<CsvField<'t>>,
}

/// A byte cursor over CSV text that tracks the 1-based line and
/// character column of the next byte.
struct Cursor<'t> {
    text: &'t str,
    pos: usize,
    line: usize,
    column: usize,
}

impl<'t> Cursor<'t> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn here(&self) -> (usize, usize) {
        (self.line, self.column)
    }

    /// Steps over one byte. A UTF-8 continuation byte does not start a
    /// character, so it leaves the column where it is.
    fn bump(&mut self) {
        let byte = self.text.as_bytes()[self.pos];
        self.pos += 1;
        if byte == b'\n' {
            self.line += 1;
            self.column = 1;
        } else if byte & 0xC0 != 0x80 {
            self.column += 1;
        }
    }

    /// Steps over bytes up to the next one `stop` accepts, or the end.
    fn skip_until(&mut self, stop: impl Fn(u8) -> bool) {
        while let Some(byte) = self.peek() {
            if stop(byte) {
                return;
            }
            self.bump();
        }
    }

    /// Steps over a record terminator: `\n` or `\r\n`.
    fn terminator(&mut self, file: &str) -> Result<(), IngestError> {
        if self.peek() == Some(b'\r') {
            if self.text.as_bytes().get(self.pos + 1) != Some(&b'\n') {
                return Err(err(file, self.line, self.column, "bare carriage return"));
            }
            self.bump();
        }
        self.bump();
        Ok(())
    }

    /// Reads a quoted field, the cursor on its opening quote, and
    /// checks that a separator, terminator or the end follows it.
    fn quoted(&mut self, file: &str) -> Result<Cow<'t, str>, IngestError> {
        let text = self.text;
        let (open_line, open_column) = self.here();
        self.bump();
        let mut unescaped: Option<String> = None;
        let mut start = self.pos;
        loop {
            self.skip_until(|b| b == b'"');
            if self.peek().is_none() {
                return Err(err(file, open_line, open_column, "unbalanced quote"));
            }
            let segment = &text[start..self.pos];
            self.bump();
            if self.peek() == Some(b'"') {
                let buf = unescaped.get_or_insert_with(String::new);
                buf.push_str(segment);
                buf.push('"');
                self.bump();
                start = self.pos;
                continue;
            }
            if !matches!(self.peek(), None | Some(b',' | b'\r' | b'\n')) {
                return Err(err(
                    file,
                    self.line,
                    self.column,
                    "unexpected character after closing quote",
                ));
            }
            return Ok(match unescaped {
                Some(mut buf) => {
                    buf.push_str(segment);
                    Cow::Owned(buf)
                }
                None => Cow::Borrowed(segment),
            });
        }
    }
}

/// Parses strict CSV: UTF-8 BOM and CRLF line endings are tolerated,
/// blank lines are skipped, quoted fields may contain commas, quotes
/// (escaped `""`), and newlines. Fields borrow `text`.
///
/// # Errors
///
/// Rejects, with file/line/column: unbalanced quotes, any character
/// between a closing quote and the next separator, quotes inside
/// unquoted fields, and bare carriage returns.
pub fn parse_csv<'t>(file: &str, text: &'t str) -> Result<Vec<CsvRecord<'t>>, IngestError> {
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let mut cur = Cursor {
        text,
        pos: 0,
        line: 1,
        column: 1,
    };
    let mut records = Vec::new();
    let mut fields: Vec<CsvField<'t>> = Vec::new();
    loop {
        let (line, column) = cur.here();
        let value = match cur.peek() {
            // Only a record's first field may be missing: the text ends
            // or the line is blank.
            None if fields.is_empty() => break,
            Some(b'\r' | b'\n') if fields.is_empty() => {
                cur.terminator(file)?;
                continue;
            }
            Some(b'"') => cur.quoted(file)?,
            None | Some(b',' | b'\r' | b'\n') => Cow::Borrowed(""),
            Some(_) => {
                let start = cur.pos;
                cur.skip_until(|b| matches!(b, b',' | b'\r' | b'\n' | b'"'));
                if cur.peek() == Some(b'"') {
                    return Err(err(
                        file,
                        cur.line,
                        cur.column,
                        "quote inside unquoted field",
                    ));
                }
                Cow::Borrowed(&text[start..cur.pos])
            }
        };
        fields.push(CsvField {
            line,
            column,
            value,
        });
        if cur.peek() == Some(b',') {
            cur.bump();
            continue;
        }
        let at_end = cur.peek().is_none();
        if !at_end {
            cur.terminator(file)?;
        }
        let width = fields.len();
        records.push(CsvRecord {
            line: fields[0].line,
            fields: std::mem::replace(&mut fields, Vec::with_capacity(width)),
        });
        if at_end {
            break;
        }
    }
    Ok(records)
}

/// Parses a CSV table: validates the header row and that every data
/// row has exactly the header's arity, returning the data rows.
fn table<'t>(
    file: &str,
    text: &'t str,
    header: &[&str],
) -> Result<Vec<CsvRecord<'t>>, IngestError> {
    let mut records = parse_csv(file, text)?;
    if records.is_empty() {
        return Err(err(
            file,
            0,
            0,
            format!("missing header `{}`", header.join(",")),
        ));
    }
    let head = records.remove(0);
    let matches = head.fields.len() == header.len()
        && head.fields.iter().zip(header).all(|(f, h)| f.value == *h);
    if !matches {
        return Err(err(
            file,
            head.line,
            head.fields[0].column,
            format!("expected header `{}`", header.join(",")),
        ));
    }
    for row in &records {
        if row.fields.len() != header.len() {
            return Err(err(
                file,
                row.line,
                row.fields[0].column,
                format!(
                    "expected {} fields, found {}",
                    header.len(),
                    row.fields.len()
                ),
            ));
        }
    }
    Ok(records)
}

/// Strict unsigned integer: decimal digits only, no sign, no leading
/// zeros (matching the protocol's JSON number grammar).
fn parse_count(file: &str, field: &CsvField, what: &str) -> Result<usize, IngestError> {
    let v = &field.value;
    let ok =
        !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) && (v == "0" || !v.starts_with('0'));
    if !ok {
        return Err(err(
            file,
            field.line,
            field.column,
            format!("bad {what} `{v}` (expected a decimal integer)"),
        ));
    }
    v.parse().map_err(|_| {
        err(
            file,
            field.line,
            field.column,
            format!("{what} `{v}` out of range"),
        )
    })
}

/// Strict finite float, JSON number grammar:
/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
fn parse_float(file: &str, field: &CsvField, what: &str) -> Result<f64, IngestError> {
    let v = &field.value;
    let fail = || {
        err(
            file,
            field.line,
            field.column,
            format!("bad {what} `{v}` (expected a JSON-grammar number)"),
        )
    };
    let mut s: &str = v;
    s = s.strip_prefix('-').unwrap_or(s);
    let int_len = s.bytes().take_while(|b| b.is_ascii_digit()).count();
    if int_len == 0 || (int_len > 1 && s.starts_with('0')) {
        return Err(fail());
    }
    s = &s[int_len..];
    if let Some(rest) = s.strip_prefix('.') {
        let frac_len = rest.bytes().take_while(|b| b.is_ascii_digit()).count();
        if frac_len == 0 {
            return Err(fail());
        }
        s = &rest[frac_len..];
    }
    if let Some(rest) = s.strip_prefix(['e', 'E']) {
        let rest = rest.strip_prefix(['+', '-']).unwrap_or(rest);
        let exp_len = rest.bytes().take_while(|b| b.is_ascii_digit()).count();
        if exp_len == 0 {
            return Err(fail());
        }
        s = &rest[exp_len..];
    }
    if !s.is_empty() {
        return Err(fail());
    }
    let parsed: f64 = v.parse().map_err(|_| fail())?;
    if !parsed.is_finite() {
        return Err(fail());
    }
    Ok(parsed)
}

/// A fleet configuration imported from (or exportable to) a channel
/// directory.
///
/// Invariant (established by [`import_files`] / [`from_scada`],
/// assumed by [`export_files`] and [`ImportedConfig::input`]): the
/// model is in *canonical channel-directory form* — global measurement
/// ids follow (IED id order, per-IED recording order), every
/// measurement is recorded by exactly one IED, every link's `a`
/// endpoint is the higher-numbered device — and its topology passes
/// [`Topology::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ImportedConfig {
    /// Config name (the directory name).
    pub name: String,
    /// The lowered analyzer model.
    pub scada: ScadaConfig,
    /// Requested property (`obs|secured|baddata`).
    pub property: String,
}

impl ImportedConfig {
    /// The analysis input for this config: what
    /// `AnalysisInput::from(self.scada.clone())` gives, without checking
    /// the topology and association again (the invariant above covers
    /// them).
    pub fn input(&self) -> crate::AnalysisInput {
        let scada = self.scada.clone();
        crate::AnalysisInput::from_valid(scada.measurements, scada.topology, scada.ied_measurements)
    }
}

const CHANNELS: &str = "channels.csv";
const GRID: &str = "grid.csv";
const SPEC: &str = "spec.csv";
const SECURITY: &str = "security.csv";
const TELEMETRY: &str = "telemetry.csv";
const MAPPING: &str = "mapping_telemetry.csv";
/// Point tables validated for shape but not lowered into the model.
const SHAPE_ONLY: [&str; 2] = ["signal.csv", "control.csv"];

/// Whether a directory entry is documentation/noise the importer
/// ignores rather than rejects.
fn ignored(name: &str) -> bool {
    name.starts_with('.') || name.starts_with("README")
}

fn parse_kind(file: &str, field: &CsvField) -> Result<DeviceKind, IngestError> {
    match &*field.value {
        "master" => Ok(DeviceKind::Mtu),
        "rtu" => Ok(DeviceKind::Rtu),
        "ied" => Ok(DeviceKind::Ied),
        "router" => Ok(DeviceKind::Router),
        other => Err(err(
            file,
            field.line,
            field.column,
            format!("unknown channel kind `{other}` (expected master|rtu|ied|router)"),
        )),
    }
}

fn parse_medium(file: &str, field: &CsvField) -> Result<LinkMedium, IngestError> {
    match &*field.value {
        "ethernet" => Ok(LinkMedium::Ethernet),
        "wireless" => Ok(LinkMedium::Wireless),
        "serial" => Ok(LinkMedium::Serial),
        "fiber" => Ok(LinkMedium::Fiber),
        other => Err(err(
            file,
            field.line,
            field.column,
            format!("unknown transport `{other}` (expected ethernet|wireless|serial|fiber)"),
        )),
    }
}

/// One parsed manifest row.
struct ChannelRow<'r> {
    name: &'r str,
    kind: DeviceKind,
}

/// A config's files as borrowed `(relative path, text)` pairs, sorted
/// by path.
struct Files<'a> {
    entries: Vec<(&'a str, &'a str)>,
}

impl<'a> Files<'a> {
    fn get(&self, path: &str) -> Option<&'a str> {
        self.entries
            .binary_search_by(|&(p, _)| p.cmp(path))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// The file `leaf` of channel directory `dir`, as `(path, text)`.
    fn get_in(&self, dir: &str, leaf: &str) -> Option<(&'a str, &'a str)> {
        let key = || dir.bytes().chain(Some(b'/')).chain(leaf.bytes());
        self.entries
            .binary_search_by(|&(p, _)| p.bytes().cmp(key()))
            .ok()
            .map(|i| self.entries[i])
    }

    fn paths(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.entries.iter().map(|&(p, _)| p)
    }
}

/// Imports one config from an abstract file map (relative `/`-separated
/// path → contents). Filesystem-free so determinism and fixed-point
/// properties can be tested without touching disk; [`import_dir`] is
/// the directory-backed wrapper.
///
/// # Errors
///
/// Returns the first [`IngestError`] encountered, addressed to the
/// offending file/line/column.
pub fn import_files(
    name: &str,
    files: &BTreeMap<String, String>,
) -> Result<ImportedConfig, IngestError> {
    let entries = files.iter().map(|(p, t)| (p.as_str(), t.as_str()));
    import_view(
        name,
        &Files {
            entries: entries.collect(),
        },
    )
}

/// [`import_files`] over a borrowed file view.
fn import_view(name: &str, files: &Files<'_>) -> Result<ImportedConfig, IngestError> {
    // --- channels.csv: devices and links -----------------------------
    let manifest = files
        .get(CHANNELS)
        .ok_or_else(|| err(CHANNELS, 0, 0, "missing channel manifest"))?;
    let channel_rows = table(
        CHANNELS,
        manifest,
        &["channel", "kind", "uplink", "transport", "bandwidth_kbps"],
    )?;
    if channel_rows.is_empty() {
        return Err(err(CHANNELS, 0, 0, "no channels declared"));
    }
    let mut channels: Vec<ChannelRow> = Vec::with_capacity(channel_rows.len());
    let mut by_name: HashMap<&str, usize> = HashMap::with_capacity(channel_rows.len());
    let mut links: Vec<Link> = Vec::new();
    let mut link_pairs: HashSet<(usize, usize)> = HashSet::new();
    for (index, row) in channel_rows.iter().enumerate() {
        let [name_f, kind_f, uplink_f, transport_f, bandwidth_f] = &row.fields[..] else {
            unreachable!("table checked arity");
        };
        let cname: &str = &name_f.value;
        if cname.is_empty()
            || !cname
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(err(
                CHANNELS,
                name_f.line,
                name_f.column,
                format!("bad channel name `{cname}` (use [A-Za-z0-9_-]+)"),
            ));
        }
        if by_name.insert(cname, index).is_some() {
            return Err(err(
                CHANNELS,
                name_f.line,
                name_f.column,
                format!("duplicate channel `{cname}`"),
            ));
        }
        let kind = parse_kind(CHANNELS, kind_f)?;
        let medium = parse_medium(CHANNELS, transport_f)?;
        let bandwidth = parse_count(CHANNELS, bandwidth_f, "bandwidth")?;
        if bandwidth == 0 || bandwidth > u32::MAX as usize {
            return Err(err(
                CHANNELS,
                bandwidth_f.line,
                bandwidth_f.column,
                "bandwidth_kbps must be positive and fit in 32 bits",
            ));
        }
        for peer in uplink_f.value.split_whitespace() {
            let Some(&peer_index) = by_name.get(peer) else {
                return Err(err(
                    CHANNELS,
                    uplink_f.line,
                    uplink_f.column,
                    format!("uplink `{peer}` must name an earlier channel"),
                ));
            };
            if peer_index == index {
                return Err(err(
                    CHANNELS,
                    uplink_f.line,
                    uplink_f.column,
                    format!("channel `{cname}` links to itself"),
                ));
            }
            if !link_pairs.insert((peer_index.min(index), peer_index.max(index))) {
                return Err(err(
                    CHANNELS,
                    uplink_f.line,
                    uplink_f.column,
                    format!("duplicate link between `{peer}` and `{cname}`"),
                ));
            }
            links.push(
                Link::new(DeviceId(index), DeviceId(peer_index))
                    .with_medium(medium)
                    .with_bandwidth_kbps(bandwidth as u32),
            );
        }
        channels.push(ChannelRow { name: cname, kind });
    }
    let masters = channels
        .iter()
        .filter(|c| c.kind == DeviceKind::Mtu)
        .count();
    if masters != 1 {
        return Err(err(
            CHANNELS,
            0,
            0,
            format!("expected exactly one master channel, found {masters}"),
        ));
    }

    // --- grid.csv: buses and lines -----------------------------------
    let grid = files
        .get(GRID)
        .ok_or_else(|| err(GRID, 0, 0, "missing grid table"))?;
    let grid_rows = table(GRID, grid, &["element", "a", "b", "susceptance"])?;
    let mut n_buses: Option<usize> = None;
    let mut line_rows: Vec<(&CsvRecord, usize, usize, f64)> = Vec::new();
    for row in &grid_rows {
        let [element_f, a_f, b_f, s_f] = &row.fields[..] else {
            unreachable!("table checked arity");
        };
        match &*element_f.value {
            "bus" => {
                if n_buses.is_some() {
                    return Err(err(GRID, row.line, element_f.column, "duplicate bus row"));
                }
                if !b_f.value.is_empty() || !s_f.value.is_empty() {
                    return Err(err(
                        GRID,
                        row.line,
                        b_f.column,
                        "bus rows take only a count: `bus,<n>,,`",
                    ));
                }
                let count = parse_count(GRID, a_f, "bus count")?;
                if count == 0 {
                    return Err(err(
                        GRID,
                        a_f.line,
                        a_f.column,
                        "bus count must be positive",
                    ));
                }
                if count > MAX_BUSES {
                    return Err(err(
                        GRID,
                        a_f.line,
                        a_f.column,
                        format!("bus count {count} exceeds the limit of {MAX_BUSES}"),
                    ));
                }
                n_buses = Some(count);
            }
            "line" => {
                let a = parse_count(GRID, a_f, "bus")?;
                let b = parse_count(GRID, b_f, "bus")?;
                if a == b {
                    return Err(err(
                        GRID,
                        a_f.line,
                        a_f.column,
                        "line endpoints must differ",
                    ));
                }
                let susceptance = parse_float(GRID, s_f, "susceptance")?;
                if !(susceptance.is_finite() && susceptance > 0.0) {
                    return Err(err(
                        GRID,
                        s_f.line,
                        s_f.column,
                        format!(
                            "susceptance must be a positive finite number, got `{}`",
                            s_f.value
                        ),
                    ));
                }
                line_rows.push((row, a, b, susceptance));
            }
            other => {
                return Err(err(
                    GRID,
                    row.line,
                    element_f.column,
                    format!("unknown element `{other}` (expected bus|line)"),
                ));
            }
        }
    }
    let n_buses = n_buses.ok_or_else(|| err(GRID, 0, 0, "missing `bus,<n>,,` row"))?;
    let mut seen_lines: HashSet<(usize, usize)> = HashSet::with_capacity(line_rows.len());
    // Branches are constructed only after every row has been validated
    // against the (possibly later-declared) bus count: `Branch::new`
    // asserts, and an assert on config input would abort a fleet scan
    // instead of producing an error row.
    let mut branches: Vec<Branch> = Vec::with_capacity(line_rows.len());
    for (row, a, b, susceptance) in &line_rows {
        for &bus in &[*a, *b] {
            if bus == 0 || bus > n_buses {
                return Err(err(
                    GRID,
                    row.line,
                    row.fields[1].column,
                    format!("bus {bus} out of range 1..={n_buses}"),
                ));
            }
        }
        if !seen_lines.insert(((*a).min(*b), (*a).max(*b))) {
            return Err(err(
                GRID,
                row.line,
                row.fields[0].column,
                format!("duplicate line between bus {a} and bus {b}"),
            ));
        }
        branches.push(Branch::new(
            BusId::from_one_based(*a),
            BusId::from_one_based(*b),
            *susceptance,
        ));
    }
    let system = PowerSystem::new("config", n_buses, branches);

    // --- spec.csv ----------------------------------------------------
    let spec = files
        .get(SPEC)
        .ok_or_else(|| err(SPEC, 0, 0, "missing spec table"))?;
    let spec_rows = table(SPEC, spec, &["key", "value"])?;
    let mut seen: HashSet<&str> = HashSet::new();
    let mut resilience = (None::<usize>, None::<usize>);
    let mut corrupted: Option<usize> = None;
    let mut link_failures = 0usize;
    let mut property = "secured";
    for row in &spec_rows {
        let [key_f, value_f] = &row.fields[..] else {
            unreachable!("table checked arity");
        };
        if !seen.insert(&key_f.value) {
            return Err(err(
                SPEC,
                key_f.line,
                key_f.column,
                format!("duplicate key `{}`", key_f.value),
            ));
        }
        match &*key_f.value {
            "resilience_ieds" => resilience.0 = Some(parse_count(SPEC, value_f, "count")?),
            "resilience_rtus" => resilience.1 = Some(parse_count(SPEC, value_f, "count")?),
            "corrupted" => corrupted = Some(parse_count(SPEC, value_f, "count")?),
            "link_failures" => link_failures = parse_count(SPEC, value_f, "count")?,
            "property" => {
                if !PROPERTIES.contains(&&*value_f.value) {
                    return Err(err(
                        SPEC,
                        value_f.line,
                        value_f.column,
                        format!(
                            "unknown property `{}` (expected obs|secured|baddata)",
                            value_f.value
                        ),
                    ));
                }
                property = &value_f.value;
            }
            other => {
                return Err(err(
                    SPEC,
                    key_f.line,
                    key_f.column,
                    format!("unknown key `{other}`"),
                ));
            }
        }
    }
    let (Some(k1), Some(k2)) = resilience else {
        return Err(err(
            SPEC,
            0,
            0,
            "missing `resilience_ieds` / `resilience_rtus`",
        ));
    };
    let corrupted = corrupted.ok_or_else(|| err(SPEC, 0, 0, "missing `corrupted`"))?;

    // --- per-IED channel directories ---------------------------------
    let mut kinds: Vec<MeasurementKind> = Vec::new();
    let mut ied_measurements: Vec<(DeviceId, Vec<MeasurementId>)> = Vec::new();
    // Every lowered measurement across all mapping tables, so a point
    // duplicating another point's measurement — within one IED or
    // across IEDs — fails here with an addressed error instead of
    // tripping `MeasurementSet::new`'s duplicate assert.
    let mut seen_kinds: HashMap<MeasurementKind, (&str, usize)> = HashMap::new();
    // Every directory holding a file that is not ignored: each `/` in
    // a key ends a candidate channel name.
    let dirs_with_files: BTreeSet<&str> = files
        .paths()
        .flat_map(|k| {
            k.match_indices('/')
                .filter(|&(i, _)| !ignored(&k[i + 1..]))
                .map(|(i, _)| &k[..i])
        })
        .collect();
    for (index, channel) in channels.iter().enumerate() {
        if channel.kind != DeviceKind::Ied {
            if dirs_with_files.contains(channel.name) {
                return Err(err(
                    CHANNELS,
                    0,
                    0,
                    format!(
                        "channel `{0}` is not an IED but has point tables under `{0}/`",
                        channel.name
                    ),
                ));
            }
            continue;
        }
        let missing = |leaf: &str, what: &str| err(&format!("{}/{leaf}", channel.name), 0, 0, what);
        let (tele_path, telemetry) = files
            .get_in(channel.name, TELEMETRY)
            .ok_or_else(|| missing(TELEMETRY, "missing telemetry point table"))?;
        let (map_path, mapping) = files
            .get_in(channel.name, MAPPING)
            .ok_or_else(|| missing(MAPPING, "missing telemetry mapping table"))?;
        let tele_rows = table(tele_path, telemetry, &["point", "description"])?;
        let mut points: Vec<&str> = Vec::with_capacity(tele_rows.len());
        let mut point_index: HashMap<&str, usize> = HashMap::with_capacity(tele_rows.len());
        for row in &tele_rows {
            let point = &row.fields[0];
            if point.value.is_empty() {
                return Err(err(tele_path, point.line, point.column, "empty point name"));
            }
            if point_index.insert(&point.value, points.len()).is_some() {
                return Err(err(
                    tele_path,
                    point.line,
                    point.column,
                    format!("duplicate point `{}`", point.value),
                ));
            }
            points.push(&point.value);
        }
        let map_rows = table(map_path, mapping, &["point", "kind", "a", "b"])?;
        let mut mapped: Vec<Option<MeasurementKind>> = vec![None; points.len()];
        for row in &map_rows {
            let [point_f, kind_f, a_f, b_f] = &row.fields[..] else {
                unreachable!("table checked arity");
            };
            let Some(&pi) = point_index.get(&*point_f.value) else {
                return Err(err(
                    map_path,
                    point_f.line,
                    point_f.column,
                    format!("unknown point `{}` (not in {TELEMETRY})", point_f.value),
                ));
            };
            let kind = match &*kind_f.value {
                "flow" => {
                    let a = parse_count(map_path, a_f, "bus")?;
                    let b = parse_count(map_path, b_f, "bus")?;
                    if a == 0 || a > n_buses || b == 0 || b > n_buses {
                        return Err(err(
                            map_path,
                            a_f.line,
                            a_f.column,
                            format!("bus out of range 1..={n_buses}"),
                        ));
                    }
                    let from = BusId::from_one_based(a);
                    let to = BusId::from_one_based(b);
                    let branch = system.branch_between(from, to).ok_or_else(|| {
                        err(
                            map_path,
                            a_f.line,
                            a_f.column,
                            format!("no line between bus {a} and bus {b}"),
                        )
                    })?;
                    // `flow a b` measures at the `a` end, like the text
                    // config format.
                    if system.branch(branch).from == from {
                        MeasurementKind::FlowForward(branch)
                    } else {
                        MeasurementKind::FlowBackward(branch)
                    }
                }
                "injection" => {
                    let a = parse_count(map_path, a_f, "bus")?;
                    if a == 0 || a > n_buses {
                        return Err(err(
                            map_path,
                            a_f.line,
                            a_f.column,
                            format!("bus out of range 1..={n_buses}"),
                        ));
                    }
                    if !b_f.value.is_empty() {
                        return Err(err(
                            map_path,
                            b_f.line,
                            b_f.column,
                            "injection rows take one bus: `point,injection,<bus>,`",
                        ));
                    }
                    MeasurementKind::Injection(BusId::from_one_based(a))
                }
                other => {
                    return Err(err(
                        map_path,
                        kind_f.line,
                        kind_f.column,
                        format!("unknown measurement kind `{other}` (expected flow|injection)"),
                    ));
                }
            };
            if mapped[pi].replace(kind).is_some() {
                return Err(err(
                    map_path,
                    point_f.line,
                    point_f.column,
                    format!("point `{}` mapped twice", point_f.value),
                ));
            }
            if let Some((first_file, first_line)) = seen_kinds.insert(kind, (map_path, row.line)) {
                return Err(err(
                    map_path,
                    point_f.line,
                    point_f.column,
                    format!(
                        "point `{}` duplicates measurement `{kind}` \
                         (first mapped at {first_file}:{first_line})",
                        point_f.value
                    ),
                ));
            }
        }
        let mut ids = Vec::with_capacity(points.len());
        for (pi, kind) in mapped.into_iter().enumerate() {
            let kind = kind.ok_or_else(|| {
                err(
                    map_path,
                    0,
                    0,
                    format!("point `{}` has no mapping row", points[pi]),
                )
            })?;
            ids.push(MeasurementId(kinds.len()));
            kinds.push(kind);
        }
        if !ids.is_empty() {
            ied_measurements.push((DeviceId(index), ids));
        }
        for shape in SHAPE_ONLY {
            if let Some((path, text)) = files.get_in(channel.name, shape) {
                let rows = table(path, text, &["point", "description"])?;
                let mut names: HashSet<&str> = HashSet::with_capacity(rows.len());
                for row in &rows {
                    let point = &row.fields[0];
                    if point.value.is_empty() {
                        return Err(err(path, point.line, point.column, "empty point name"));
                    }
                    if !names.insert(&point.value) {
                        return Err(err(
                            path,
                            point.line,
                            point.column,
                            format!("duplicate point `{}`", point.value),
                        ));
                    }
                }
            }
        }
    }
    let measurements = MeasurementSet::new(system, kinds);

    // --- security.csv ------------------------------------------------
    let devices: Vec<Device> = channels
        .iter()
        .enumerate()
        .map(|(i, c)| Device::new(DeviceId(i), c.kind))
        .collect();
    let mut topology = Topology::new(devices, links);
    if let Some(text) = files.get(SECURITY) {
        let rows = table(SECURITY, text, &["a", "b", "profiles"])?;
        let mut pairs: HashSet<(usize, usize)> = HashSet::with_capacity(rows.len());
        for row in &rows {
            let [a_f, b_f, profiles_f] = &row.fields[..] else {
                unreachable!("table checked arity");
            };
            let resolve = |f: &CsvField| -> Result<usize, IngestError> {
                by_name.get(&*f.value).copied().ok_or_else(|| {
                    err(
                        SECURITY,
                        f.line,
                        f.column,
                        format!("unknown channel `{}`", f.value),
                    )
                })
            };
            let a = resolve(a_f)?;
            let b = resolve(b_f)?;
            if a == b {
                return Err(err(
                    SECURITY,
                    a_f.line,
                    a_f.column,
                    "security pair endpoints must differ",
                ));
            }
            if !pairs.insert((a.min(b), a.max(b))) {
                return Err(err(
                    SECURITY,
                    a_f.line,
                    a_f.column,
                    format!("duplicate security pair `{}`/`{}`", a_f.value, b_f.value),
                ));
            }
            let tokens: Vec<&str> = profiles_f.value.split_whitespace().collect();
            if tokens.is_empty() || !tokens.len().is_multiple_of(2) {
                return Err(err(
                    SECURITY,
                    profiles_f.line,
                    profiles_f.column,
                    "profiles must be one or more `algo bits` pairs",
                ));
            }
            let mut profiles = Vec::with_capacity(tokens.len() / 2);
            for pair in tokens.chunks(2) {
                let profile: CryptoProfile =
                    format!("{} {}", pair[0], pair[1]).parse().map_err(|e| {
                        err(SECURITY, profiles_f.line, profiles_f.column, format!("{e}"))
                    })?;
                profiles.push(profile);
            }
            topology.set_pair_security(DeviceId(a), DeviceId(b), profiles);
        }
    }

    // --- unexpected files --------------------------------------------
    for path in files.paths() {
        let mut parts = path.split('/');
        let (first, second, rest) = (parts.next().unwrap_or(""), parts.next(), parts.next());
        if rest.is_some() {
            return Err(err(
                path,
                0,
                0,
                "unexpected nesting (configs are one level deep)",
            ));
        }
        match second {
            None => {
                if !matches!(first, CHANNELS | GRID | SPEC | SECURITY) && !ignored(first) {
                    return Err(err(path, 0, 0, "unexpected file"));
                }
            }
            Some(leaf) => {
                let known_channel = by_name.contains_key(first);
                let known_leaf = leaf == TELEMETRY || leaf == MAPPING || SHAPE_ONLY.contains(&leaf);
                if ignored(leaf) {
                    continue;
                }
                if !known_channel {
                    return Err(err(
                        path,
                        0,
                        0,
                        format!("directory `{first}` is not a channel"),
                    ));
                }
                if !known_leaf {
                    return Err(err(path, 0, 0, "unexpected file"));
                }
            }
        }
    }

    // --- final topology validation (never panic in AnalysisInput) ----
    let problems = topology.validate();
    if let Some(problem) = problems.first() {
        return Err(err(
            CHANNELS,
            0,
            0,
            format!("invalid topology: {problem:?}"),
        ));
    }

    Ok(ImportedConfig {
        name: name.to_string(),
        scada: ScadaConfig {
            measurements,
            topology,
            ied_measurements,
            resilience: (k1, k2),
            corrupted,
            link_failures,
        },
        property: property.to_string(),
    })
}

/// Whether a directory entry is a directory, following symlinks as
/// `Path::is_dir` does; only symlinks cost a `stat`.
fn is_dir(entry: &std::fs::DirEntry) -> bool {
    match entry.file_type() {
        Ok(kind) if !kind.is_symlink() => kind.is_dir(),
        _ => entry.path().is_dir(),
    }
}

/// The entries of a directory the importer does not ignore, as
/// `(name, is_dir)` sorted by name.
fn list_dir(dir: &Path) -> std::io::Result<Vec<(String, bool)>> {
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry
            .file_name()
            .into_string()
            .unwrap_or_else(|raw| raw.to_string_lossy().into_owned());
        if !ignored(&name) {
            let dir = is_dir(&entry);
            entries.push((name, dir));
        }
    }
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Ok(entries)
}

/// Spare capacity reserved before each read: config files are small,
/// so one `read` call fills it and a second confirms the end.
const READ_RESERVE: usize = 8 * 1024;

/// Appends a file's text to `buf` and returns its byte range there.
fn read_into(path: &Path, buf: &mut String) -> std::io::Result<Range<usize>> {
    let start = buf.len();
    buf.reserve(READ_RESERVE);
    // `take` hides the size hint that `File::read_to_string` would
    // spend an `fstat` and an `lseek` on; the reserve makes it moot.
    std::fs::File::open(path)?
        .take(u64::MAX)
        .read_to_string(buf)?;
    Ok(start..buf.len())
}

/// Imports one config directory from disk. The config name is the
/// directory's file name.
///
/// # Errors
///
/// I/O and UTF-8 failures are reported as whole-file [`IngestError`]s;
/// everything else is [`import_files`].
pub fn import_dir(dir: &Path) -> Result<ImportedConfig, IngestError> {
    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "config".to_string());
    let read_err = |path: &str, e: std::io::Error| err(path, 0, 0, format!("cannot read: {e}"));
    let top = list_dir(dir).map_err(|e| read_err(&name, e))?;
    // Every file's relative path, and every file's text, back to back
    // in one buffer each; `spans` holds the two ranges per file.
    let mut paths = String::new();
    let mut texts = String::new();
    let mut spans: Vec<(Range<usize>, Range<usize>)> = Vec::new();
    let mut path = dir.to_path_buf();
    for (entry, entry_is_dir) in &top {
        path.push(entry);
        if *entry_is_dir {
            for (leaf, leaf_is_dir) in list_dir(&path).map_err(|e| read_err(entry, e))? {
                let start = paths.len();
                paths.push_str(entry);
                paths.push('/');
                paths.push_str(&leaf);
                let rel = start..paths.len();
                if leaf_is_dir {
                    return Err(err(
                        &paths[rel],
                        0,
                        0,
                        "unexpected nesting (configs are one level deep)",
                    ));
                }
                path.push(&leaf);
                let text = read_into(&path, &mut texts);
                path.pop();
                spans.push((rel.clone(), text.map_err(|e| read_err(&paths[rel], e))?));
            }
        } else {
            let start = paths.len();
            paths.push_str(entry);
            let text = read_into(&path, &mut texts).map_err(|e| read_err(entry, e))?;
            spans.push((start..paths.len(), text));
        }
        path.pop();
    }
    let mut entries: Vec<(&str, &str)> = spans
        .into_iter()
        .map(|(p, t)| (&paths[p], &texts[t]))
        .collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    import_view(&name, &Files { entries })
}

/// Quotes a CSV field if it needs quoting.
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// The canonical channel name for a device.
fn channel_name(device: &Device) -> String {
    let prefix = match device.kind() {
        DeviceKind::Ied => "ied",
        DeviceKind::Rtu => "rtu",
        DeviceKind::Mtu => "mtu",
        DeviceKind::Router => "rtr",
    };
    format!("{prefix}{:03}", device.id().one_based())
}

/// Exports a config to its canonical channel-directory file map (the
/// inverse of [`import_files`] up to generated channel/point names).
pub fn export_files(config: &ImportedConfig) -> BTreeMap<String, String> {
    let mut files = BTreeMap::new();
    let scada = &config.scada;
    let topology = &scada.topology;
    let names: Vec<String> = topology.devices().iter().map(channel_name).collect();

    let mut manifest = String::from("channel,kind,uplink,transport,bandwidth_kbps\n");
    for device in topology.devices() {
        let kind = match device.kind() {
            DeviceKind::Ied => "ied",
            DeviceKind::Rtu => "rtu",
            DeviceKind::Mtu => "master",
            DeviceKind::Router => "router",
        };
        let declared: Vec<&Link> = topology
            .links()
            .iter()
            .filter(|l| l.a == device.id())
            .collect();
        let uplinks: Vec<&str> = declared
            .iter()
            .map(|l| names[l.b.index()].as_str())
            .collect();
        let (medium, bandwidth) = declared
            .first()
            .map(|l| (l.medium, l.bandwidth_kbps))
            .unwrap_or((LinkMedium::Ethernet, 10_000));
        manifest.push_str(&format!(
            "{},{},{},{},{}\n",
            names[device.id().index()],
            kind,
            csv_field(&uplinks.join(" ")),
            medium,
            bandwidth,
        ));
    }
    files.insert(CHANNELS.to_string(), manifest);

    let system = scada.measurements.system();
    let mut grid = String::from("element,a,b,susceptance\n");
    grid.push_str(&format!("bus,{},,\n", system.num_buses()));
    for branch in system.branches() {
        grid.push_str(&format!(
            "line,{},{},{}\n",
            branch.from.index() + 1,
            branch.to.index() + 1,
            branch.susceptance,
        ));
    }
    files.insert(GRID.to_string(), grid);

    let mut spec = String::from("key,value\n");
    spec.push_str(&format!("resilience_ieds,{}\n", scada.resilience.0));
    spec.push_str(&format!("resilience_rtus,{}\n", scada.resilience.1));
    spec.push_str(&format!("corrupted,{}\n", scada.corrupted));
    spec.push_str(&format!("link_failures,{}\n", scada.link_failures));
    spec.push_str(&format!("property,{}\n", config.property));
    files.insert(SPEC.to_string(), spec);

    let mut security = String::from("a,b,profiles\n");
    let mut entries: Vec<_> = topology.pair_security_entries().collect();
    entries.sort_by_key(|&(a, b, _)| (a, b));
    for (a, b, profiles) in entries {
        let rendered: Vec<String> = profiles.iter().map(|p| p.to_string()).collect();
        security.push_str(&format!(
            "{},{},{}\n",
            names[a.index()],
            names[b.index()],
            csv_field(&rendered.join(" ")),
        ));
    }
    files.insert(SECURITY.to_string(), security);

    let mut recorded: BTreeMap<usize, &[MeasurementId]> = BTreeMap::new();
    for (ied, ids) in &scada.ied_measurements {
        recorded.insert(ied.index(), ids);
    }
    for device in topology.devices() {
        if device.kind() != DeviceKind::Ied {
            continue;
        }
        let ids = recorded.get(&device.id().index()).copied().unwrap_or(&[]);
        let mut telemetry = String::from("point,description\n");
        let mut mapping = String::from("point,kind,a,b\n");
        for (i, id) in ids.iter().enumerate() {
            let point = format!("p{:03}", i + 1);
            let (kind, a, b, desc) = match scada.measurements.kind(*id) {
                MeasurementKind::FlowForward(br) => {
                    let branch = system.branch(br);
                    let (a, b) = (branch.from.index() + 1, branch.to.index() + 1);
                    (
                        "flow",
                        a.to_string(),
                        b.to_string(),
                        format!("flow bus {a} to bus {b}"),
                    )
                }
                MeasurementKind::FlowBackward(br) => {
                    let branch = system.branch(br);
                    let (a, b) = (branch.to.index() + 1, branch.from.index() + 1);
                    (
                        "flow",
                        a.to_string(),
                        b.to_string(),
                        format!("flow bus {a} to bus {b}"),
                    )
                }
                MeasurementKind::Injection(bus) => {
                    let a = bus.index() + 1;
                    (
                        "injection",
                        a.to_string(),
                        String::new(),
                        format!("injection at bus {a}"),
                    )
                }
            };
            telemetry.push_str(&format!("{point},{}\n", csv_field(&desc)));
            mapping.push_str(&format!("{point},{kind},{a},{b}\n"));
        }
        let dir = &names[device.id().index()];
        files.insert(format!("{dir}/{TELEMETRY}"), telemetry);
        files.insert(format!("{dir}/{MAPPING}"), mapping);
    }
    files
}

/// Writes a config's canonical file map under `dir` (creating it).
///
/// # Errors
///
/// I/O failures are reported as whole-file [`IngestError`]s.
pub fn export_dir(config: &ImportedConfig, dir: &Path) -> Result<(), IngestError> {
    for (rel, text) in export_files(config) {
        let path = dir.join(&rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| err(&rel, 0, 0, format!("cannot create directory: {e}")))?;
        }
        std::fs::write(&path, text).map_err(|e| err(&rel, 0, 0, format!("cannot write: {e}")))?;
    }
    Ok(())
}

/// Canonicalizes an arbitrary [`ScadaConfig`] into channel-directory
/// form: links reoriented onto their higher-numbered endpoint and
/// sorted, measurements renumbered into (IED id order, recording
/// order), pair-security entries re-inserted in normalized order.
///
/// The resulting model is semantically equivalent but *not* hash-equal
/// to the input (measurement ids are positional); it is the identity on
/// configs already in canonical form, and
/// `import_files(name, &export_files(&from_scada(..)?))` reproduces it
/// exactly.
///
/// # Errors
///
/// Rejects models the channel-directory form cannot express: no or
/// multiple MTUs, retired devices or per-device crypto attributes,
/// self/duplicate links, heterogeneous transports among one device's
/// declared links, measurements recorded by no IED, by a non-IED or
/// more than once, and topologies [`Topology::validate`] rejects.
pub fn from_scada(
    name: &str,
    scada: &ScadaConfig,
    property: &str,
) -> Result<ImportedConfig, IngestError> {
    let reject = |message: String| err(name, 0, 0, message);
    if !PROPERTIES.contains(&property) {
        return Err(reject(format!("unknown property `{property}`")));
    }
    let topology = &scada.topology;
    let masters = topology
        .devices()
        .iter()
        .filter(|d| d.kind() == DeviceKind::Mtu)
        .count();
    if masters != 1 {
        return Err(reject(format!("expected exactly one MTU, found {masters}")));
    }
    let mut devices = Vec::with_capacity(topology.num_devices());
    for device in topology.devices() {
        if device.retired() {
            return Err(reject(format!(
                "device {} is retired (not expressible as a channel directory)",
                device.id().one_based()
            )));
        }
        devices.push(Device::new(device.id(), device.kind()));
    }

    // Links: reorient so `a` is the higher-numbered endpoint (the
    // declaring channel), sort, and require per-channel uniform
    // transport.
    let mut links: Vec<Link> = Vec::with_capacity(topology.links().len());
    let mut pairs: BTreeMap<(usize, usize), ()> = BTreeMap::new();
    for link in topology.links() {
        let (hi, lo) = if link.a.index() >= link.b.index() {
            (link.a, link.b)
        } else {
            (link.b, link.a)
        };
        if hi == lo {
            return Err(reject(format!("self-link at device {}", hi.one_based())));
        }
        if pairs.insert((lo.index(), hi.index()), ()).is_some() {
            return Err(reject(format!(
                "duplicate link between devices {} and {}",
                lo.one_based(),
                hi.one_based()
            )));
        }
        links.push(
            Link::new(hi, lo)
                .with_medium(link.medium)
                .with_bandwidth_kbps(link.bandwidth_kbps),
        );
    }
    links.sort_by_key(|l| (l.a.index(), l.b.index()));
    for window in links.windows(2) {
        if window[0].a == window[1].a
            && (window[0].medium != window[1].medium
                || window[0].bandwidth_kbps != window[1].bandwidth_kbps)
        {
            return Err(reject(format!(
                "device {} declares links with mixed transports",
                window[0].a.one_based()
            )));
        }
    }

    // Measurements: every one recorded exactly once; renumber into
    // (IED id order, recording order).
    let mut entries: Vec<(DeviceId, Vec<MeasurementId>)> = scada
        .ied_measurements
        .iter()
        .filter(|(_, ids)| !ids.is_empty())
        .cloned()
        .collect();
    entries.sort_by_key(|(ied, _)| ied.index());
    let total = scada.measurements.len();
    let mut new_id: Vec<Option<usize>> = vec![None; total];
    let mut order: Vec<MeasurementId> = Vec::with_capacity(total);
    for (ied, ids) in &entries {
        if topology.devices().get(ied.index()).map(Device::kind) != Some(DeviceKind::Ied) {
            return Err(reject(format!(
                "device {} records measurements but is not an IED",
                ied.one_based()
            )));
        }
        for id in ids {
            if id.index() >= total {
                return Err(reject(format!(
                    "measurement {} out of range",
                    id.index() + 1
                )));
            }
            if new_id[id.index()].replace(order.len()).is_some() {
                return Err(reject(format!(
                    "measurement {} recorded twice (IED {})",
                    id.index() + 1,
                    ied.one_based()
                )));
            }
            order.push(*id);
        }
    }
    if order.len() != total {
        let missing = (0..total).find(|i| new_id[*i].is_none()).unwrap_or(0);
        return Err(reject(format!(
            "measurement {} is recorded by no IED",
            missing + 1
        )));
    }
    let system = scada.measurements.system();
    let new_system = PowerSystem::new("config", system.num_buses(), system.branches().to_vec());
    let new_kinds: Vec<MeasurementKind> = order
        .iter()
        .map(|id| scada.measurements.kind(*id))
        .collect();
    let measurements = MeasurementSet::new(new_system, new_kinds);
    let ied_measurements: Vec<(DeviceId, Vec<MeasurementId>)> = entries
        .iter()
        .map(|(ied, ids)| {
            (
                *ied,
                ids.iter()
                    .map(|id| MeasurementId(new_id[id.index()].expect("renumbered above")))
                    .collect(),
            )
        })
        .collect();

    let mut new_topology = Topology::new(devices, links);
    let mut security: Vec<_> = topology.pair_security_entries().collect();
    security.sort_by_key(|&(a, b, _)| (a, b));
    for (a, b, profiles) in security {
        if profiles.is_empty() {
            return Err(reject(format!(
                "empty security entry {}/{} (not expressible as a channel directory)",
                a.one_based(),
                b.one_based()
            )));
        }
        new_topology.set_pair_security(a, b, profiles.to_vec());
    }
    if let Some(problem) = new_topology.validate().first() {
        return Err(reject(format!("invalid topology: {problem:?}")));
    }

    Ok(ImportedConfig {
        name: name.to_string(),
        scada: ScadaConfig {
            measurements,
            topology: new_topology,
            ied_measurements,
            resilience: scada.resilience,
            corrupted: scada.corrupted,
            link_failures: scada.link_failures,
        },
        property: property.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields<'r>(record: &'r CsvRecord) -> Vec<&'r str> {
        record.fields.iter().map(|f| &*f.value).collect()
    }

    #[test]
    fn csv_basic_quoting_and_escapes() {
        let rows = parse_csv("t.csv", "a,\"b,c\",\"say \"\"hi\"\"\"\nd,,f\n").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(fields(&rows[0]), ["a", "b,c", "say \"hi\""]);
        assert_eq!(fields(&rows[1]), ["d", "", "f"]);
    }

    #[test]
    fn csv_crlf_bom_and_blank_lines() {
        let rows = parse_csv("t.csv", "\u{feff}a,b\r\n\r\n\nc,d\r\n").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(fields(&rows[0]), ["a", "b"]);
        assert_eq!(fields(&rows[1]), ["c", "d"]);
        assert_eq!(rows[1].line, 4);
    }

    #[test]
    fn csv_quoted_newline_spans_lines() {
        let rows = parse_csv("t.csv", "a,\"x\ny\"\nb,c\n").unwrap();
        assert_eq!(fields(&rows[0]), ["a", "x\ny"]);
        assert_eq!(rows[1].line, 3);
    }

    #[test]
    fn csv_trailing_field_and_missing_final_newline() {
        let rows = parse_csv("t.csv", "a,b,\nc,").unwrap();
        assert_eq!(fields(&rows[0]), ["a", "b", ""]);
        assert_eq!(fields(&rows[1]), ["c", ""]);
    }

    #[test]
    fn csv_rejects_unbalanced_quote() {
        let e = parse_csv("t.csv", "a,\"oops\n").unwrap_err();
        assert!(e.message.contains("unbalanced"), "{e}");
        assert_eq!((e.line, e.column), (1, 3));
    }

    #[test]
    fn csv_rejects_stray_after_closing_quote() {
        let e = parse_csv("t.csv", "\"a\"b,c\n").unwrap_err();
        assert!(e.message.contains("after closing quote"), "{e}");
        assert_eq!((e.line, e.column), (1, 4));
    }

    #[test]
    fn csv_rejects_quote_inside_unquoted_field() {
        let e = parse_csv("t.csv", "ab\"c,d\n").unwrap_err();
        assert!(e.message.contains("unquoted"), "{e}");
        assert_eq!((e.line, e.column), (1, 3));
    }

    #[test]
    fn csv_rejects_bare_carriage_return() {
        let e = parse_csv("t.csv", "a\rb\n").unwrap_err();
        assert!(e.message.contains("carriage return"), "{e}");
    }

    #[test]
    fn numbers_are_strict() {
        let f = |v: &'static str| CsvField {
            line: 1,
            column: 1,
            value: v.into(),
        };
        assert_eq!(parse_count("t", &f("42"), "n").unwrap(), 42);
        assert!(parse_count("t", &f("042"), "n").is_err());
        assert!(parse_count("t", &f("+4"), "n").is_err());
        assert!(parse_count("t", &f(""), "n").is_err());
        assert_eq!(parse_float("t", &f("-5.1169"), "s").unwrap(), -5.1169);
        assert_eq!(parse_float("t", &f("1e3"), "s").unwrap(), 1000.0);
        for bad in ["01", "1.", ".5", "1e", "nan", "inf", "0x1", "1 "] {
            assert!(parse_float("t", &f(bad), "s").is_err(), "accepted `{bad}`");
        }
    }

    fn tiny_files() -> BTreeMap<String, String> {
        let mut files = BTreeMap::new();
        files.insert(
            "channels.csv".to_string(),
            "channel,kind,uplink,transport,bandwidth_kbps\n\
             mtu001,master,,ethernet,10000\n\
             rtu002,rtu,mtu001,ethernet,10000\n\
             ied003,ied,rtu002,serial,1200\n"
                .to_string(),
        );
        files.insert(
            "grid.csv".to_string(),
            "element,a,b,susceptance\nbus,2,,\nline,1,2,16.9\n".to_string(),
        );
        files.insert(
            "spec.csv".to_string(),
            "key,value\nresilience_ieds,1\nresilience_rtus,0\ncorrupted,1\nproperty,secured\n"
                .to_string(),
        );
        files.insert(
            "security.csv".to_string(),
            "a,b,profiles\nied003,rtu002,chap 64 sha2 128\n".to_string(),
        );
        files.insert(
            "ied003/telemetry.csv".to_string(),
            "point,description\np001,\"flow, 1 to 2\"\np002,reverse flow\np003,injection\n"
                .to_string(),
        );
        files.insert(
            "ied003/mapping_telemetry.csv".to_string(),
            "point,kind,a,b\np001,flow,1,2\np002,flow,2,1\np003,injection,2,\n".to_string(),
        );
        files
    }

    #[test]
    fn imports_tiny_config() {
        let config = import_files("tiny", &tiny_files()).unwrap();
        let scada = &config.scada;
        assert_eq!(scada.measurements.len(), 3);
        assert_eq!(scada.topology.num_devices(), 3);
        assert_eq!(scada.topology.links().len(), 2);
        assert_eq!(scada.resilience, (1, 0));
        assert_eq!(scada.corrupted, 1);
        assert_eq!(config.property, "secured");
        assert!(matches!(
            scada.measurements.kind(MeasurementId(1)),
            MeasurementKind::FlowBackward(_)
        ));
        assert_eq!(
            scada.ied_measurements,
            vec![(
                DeviceId(2),
                vec![MeasurementId(0), MeasurementId(1), MeasurementId(2)]
            )]
        );
        assert_eq!(
            scada.topology.pair_security(DeviceId(2), DeviceId(1)).len(),
            2
        );
        // The link transports follow the declaring channel's manifest row.
        assert_eq!(scada.topology.links()[1].medium, LinkMedium::Serial);
        assert_eq!(scada.topology.links()[1].bandwidth_kbps, 1200);
    }

    #[test]
    fn export_import_is_a_fixed_point() {
        let config = import_files("tiny", &tiny_files()).unwrap();
        let again = import_files("tiny", &export_files(&config)).unwrap();
        assert_eq!(config, again);
        let third = import_files("tiny", &export_files(&again)).unwrap();
        assert_eq!(again, third);
    }

    #[test]
    fn from_scada_is_identity_on_canonical_configs() {
        let config = import_files("tiny", &tiny_files()).unwrap();
        let canonical = from_scada("tiny", &config.scada, &config.property).unwrap();
        assert_eq!(config, canonical);
    }

    #[test]
    fn error_positions_are_addressed() {
        let mut files = tiny_files();
        files.insert(
            "grid.csv".to_string(),
            "element,a,b,susceptance\nbus,2,,\nline,1,2,16.9\nline,1,9,1.0\n".to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert_eq!(e.file, "grid.csv");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("out of range"), "{e}");

        let mut files = tiny_files();
        files.insert(
            "ied003/mapping_telemetry.csv".to_string(),
            "point,kind,a,b\np001,flow,1,2\np002,flow,2,1\n".to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert_eq!(e.file, "ied003/mapping_telemetry.csv");
        assert!(e.message.contains("no mapping row"), "{e}");
    }

    #[test]
    fn malformed_grid_is_an_error_not_a_panic() {
        // Zero susceptance must not reach Branch::new's assert.
        let mut files = tiny_files();
        files.insert(
            "grid.csv".to_string(),
            "element,a,b,susceptance\nbus,2,,\nline,1,2,0\n".to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert_eq!((e.file.as_str(), e.line), ("grid.csv", 3));
        assert!(e.message.contains("susceptance"), "{e}");

        // Negative susceptance likewise.
        let mut files = tiny_files();
        files.insert(
            "grid.csv".to_string(),
            "element,a,b,susceptance\nbus,2,,\nline,1,2,-16.9\n".to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert!(e.message.contains("susceptance"), "{e}");

        // An overflowing literal parses to +inf; parse_float already
        // rejects it as outside the JSON number grammar.
        let mut files = tiny_files();
        files.insert(
            "grid.csv".to_string(),
            "element,a,b,susceptance\nbus,2,,\nline,1,2,1e999\n".to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert!(e.message.contains("susceptance"), "{e}");

        // Bus 0 must be a range error, not clamped into a self-loop.
        let mut files = tiny_files();
        files.insert(
            "grid.csv".to_string(),
            "element,a,b,susceptance\nbus,2,,\nline,0,1,16.9\n".to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert_eq!((e.file.as_str(), e.line), ("grid.csv", 3));
        assert!(e.message.contains("out of range"), "{e}");
    }

    #[test]
    fn duplicate_measurements_are_an_error_not_a_panic() {
        // Two points lowering to the same measurement within one IED
        // must not reach MeasurementSet::new's duplicate assert.
        let mut files = tiny_files();
        files.insert(
            "ied003/mapping_telemetry.csv".to_string(),
            "point,kind,a,b\np001,flow,1,2\np002,flow,1,2\np003,injection,2,\n".to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert_eq!(e.file, "ied003/mapping_telemetry.csv");
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicates measurement"), "{e}");
        assert!(e.message.contains("mapping_telemetry.csv:2"), "{e}");

        // The same collision across two IEDs is caught the same way.
        let mut files = tiny_files();
        files.insert(
            "channels.csv".to_string(),
            "channel,kind,uplink,transport,bandwidth_kbps\n\
             mtu001,master,,ethernet,10000\n\
             rtu002,rtu,mtu001,ethernet,10000\n\
             ied003,ied,rtu002,serial,1200\n\
             ied004,ied,rtu002,serial,1200\n"
                .to_string(),
        );
        files.insert(
            "ied004/telemetry.csv".to_string(),
            "point,description\nq001,same flow\n".to_string(),
        );
        files.insert(
            "ied004/mapping_telemetry.csv".to_string(),
            "point,kind,a,b\nq001,flow,1,2\n".to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert_eq!(e.file, "ied004/mapping_telemetry.csv");
        assert!(
            e.message.contains("ied003/mapping_telemetry.csv:2"),
            "duplicate must name the first site: {e}"
        );
    }

    #[test]
    fn rejects_forward_uplinks_and_duplicate_links() {
        let mut files = tiny_files();
        files.insert(
            "channels.csv".to_string(),
            "channel,kind,uplink,transport,bandwidth_kbps\n\
             mtu001,master,rtu002,ethernet,10000\n\
             rtu002,rtu,,ethernet,10000\n\
             ied003,ied,rtu002,serial,1200\n"
                .to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert!(e.message.contains("earlier channel"), "{e}");
    }

    #[test]
    fn rejects_unexpected_files_but_ignores_readmes() {
        let mut files = tiny_files();
        files.insert("README.md".to_string(), "docs\n".to_string());
        files.insert("ied003/.hidden".to_string(), "x\n".to_string());
        assert!(import_files("tiny", &files).is_ok());
        files.insert("notes.txt".to_string(), "x\n".to_string());
        let e = import_files("tiny", &files).unwrap_err();
        assert_eq!(e.file, "notes.txt");
    }

    #[test]
    fn rejects_point_tables_on_non_ied_channels() {
        let mut files = tiny_files();
        files.insert(
            "rtu002/telemetry.csv".to_string(),
            "point,description\np001,x\n".to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert!(e.message.contains("not an IED"), "{e}");
    }

    #[cfg(unix)]
    #[test]
    fn symlinked_directories_import_like_real_ones() {
        let base = std::env::temp_dir().join(format!("scada-ingest-link-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dir = base.join("tiny");
        let config = import_files("tiny", &tiny_files()).unwrap();
        export_dir(&config, &dir).unwrap();
        // Move the IED channel out of the config and link it back in.
        let real = base.join("ied003-real");
        std::fs::rename(dir.join("ied003"), &real).unwrap();
        std::os::unix::fs::symlink(&real, dir.join("ied003")).unwrap();
        assert_eq!(import_dir(&dir).unwrap(), config);
        // A linked directory one level further down is still nesting.
        std::os::unix::fs::symlink(&base, real.join("nested")).unwrap();
        let e = import_dir(&dir).unwrap_err();
        assert_eq!(e.file, "ied003/nested");
        assert!(e.message.contains("unexpected nesting"), "{e}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn missing_spec_keys_are_reported() {
        let mut files = tiny_files();
        files.insert(
            "spec.csv".to_string(),
            "key,value\ncorrupted,1\n".to_string(),
        );
        let e = import_files("tiny", &files).unwrap_err();
        assert_eq!(e.file, "spec.csv");
        assert!(e.message.contains("resilience"), "{e}");
    }
}
