//! Importer oracles.
//!
//! * `parse_csv` (a byte scanner whose fields borrow the file text) is
//!   checked against a char-at-a-time reference state machine on random
//!   CSV text: the same records, field values and positions, and the
//!   same errors at the same `file:line:column`.
//! * `import_files` is fed mutations of the checked-in example fleet —
//!   byte flips, truncation, duplicated rows, oversized numbers — and
//!   must answer `Ok` or an addressed error, never panic.
//!
//! Both scale with `PROPTEST_CASES`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use scada_analyzer::ingest::{import_files, parse_csv, IngestError};

// ---------------------------------------------------------------------------
// Reference CSV parser
// ---------------------------------------------------------------------------

/// One reference record: its line and `(line, column, value)` per field.
type RefRecord = (usize, Vec<(usize, usize, String)>);

fn ref_err(file: &str, line: usize, column: usize, message: &str) -> IngestError {
    IngestError {
        file: file.to_string(),
        line,
        column,
        message: message.to_string(),
    }
}

/// The strict CSV grammar as a char-level state machine, the importer's
/// parser before fields borrowed the text: one `char` at a time, every
/// field value built in an owned `String`.
fn reference_csv(file: &str, text: &str) -> Result<Vec<RefRecord>, IngestError> {
    #[derive(PartialEq, Clone, Copy)]
    enum State {
        Start,
        Unquoted,
        Quoted,
        AfterQuote,
    }
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let mut records = Vec::new();
    let mut fields: Vec<(usize, usize, String)> = Vec::new();
    let mut value = String::new();
    let mut state = State::Start;
    let (mut line, mut col) = (1usize, 1usize);
    let mut field_pos: Option<(usize, usize)> = None;
    let mut open_pos = (1usize, 1usize);
    // True once the current record has seen any content (so `a,` keeps
    // its trailing empty field while a fully blank line is skipped).
    let mut pending = false;

    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        let here = (line, col);
        // A CRLF pair is one record terminator; a bare CR is an error
        // outside quotes.
        let terminator = if c == '\r' && state != State::Quoted {
            if chars.peek() != Some(&'\n') {
                return Err(ref_err(file, here.0, here.1, "bare carriage return"));
            }
            chars.next();
            line += 1;
            col = 1;
            true
        } else if c == '\n' && state != State::Quoted {
            line += 1;
            col = 1;
            true
        } else {
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            false
        };

        if terminator {
            match state {
                State::Quoted => unreachable!("terminators are literal inside quotes"),
                State::Start if fields.is_empty() && !pending => continue, // blank line
                State::Start | State::Unquoted | State::AfterQuote => {
                    let (fl, fc) = field_pos.unwrap_or(here);
                    fields.push((fl, fc, std::mem::take(&mut value)));
                    records.push((fields[0].0, std::mem::take(&mut fields)));
                    state = State::Start;
                    field_pos = None;
                    pending = false;
                }
            }
            continue;
        }

        match state {
            State::Start => match c {
                '"' => {
                    state = State::Quoted;
                    field_pos = Some(here);
                    open_pos = here;
                    pending = true;
                }
                ',' => {
                    let (fl, fc) = field_pos.unwrap_or(here);
                    fields.push((fl, fc, String::new()));
                    field_pos = None;
                    pending = true;
                }
                _ => {
                    state = State::Unquoted;
                    field_pos = Some(here);
                    value.push(c);
                    pending = true;
                }
            },
            State::Unquoted => match c {
                ',' => {
                    let (fl, fc) = field_pos.take().unwrap_or(here);
                    fields.push((fl, fc, std::mem::take(&mut value)));
                    state = State::Start;
                }
                '"' => {
                    return Err(ref_err(file, here.0, here.1, "quote inside unquoted field"));
                }
                _ => value.push(c),
            },
            State::Quoted => match c {
                '"' => state = State::AfterQuote,
                _ => value.push(c),
            },
            State::AfterQuote => match c {
                '"' => {
                    value.push('"');
                    state = State::Quoted;
                }
                ',' => {
                    let (fl, fc) = field_pos.take().unwrap_or(here);
                    fields.push((fl, fc, std::mem::take(&mut value)));
                    state = State::Start;
                }
                _ => {
                    return Err(ref_err(
                        file,
                        here.0,
                        here.1,
                        "unexpected character after closing quote",
                    ));
                }
            },
        }
    }

    match state {
        State::Quoted => {
            return Err(ref_err(file, open_pos.0, open_pos.1, "unbalanced quote"));
        }
        State::Start if fields.is_empty() && !pending => {}
        State::Start | State::Unquoted | State::AfterQuote => {
            let (fl, fc) = field_pos.unwrap_or((line, col));
            fields.push((fl, fc, value));
            records.push((fields[0].0, fields));
        }
    }
    Ok(records)
}

/// Runs `parse_csv` and converts its borrowed records to the reference
/// shape.
fn scanned_csv(file: &str, text: &str) -> Result<Vec<RefRecord>, IngestError> {
    Ok(parse_csv(file, text)?
        .into_iter()
        .map(|record| {
            let fields = record
                .fields
                .into_iter()
                .map(|f| (f.line, f.column, f.value.into_owned()))
                .collect();
            (record.line, fields)
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Random CSV text
// ---------------------------------------------------------------------------

/// Pieces random CSV text is built from: separators, both line endings
/// and a bare CR, quotes and `""` escapes, blank-ish space, and text of
/// one to four UTF-8 bytes per character.
const PIECES: [&str; 14] = [
    "a", "bc", "7", " ", ",", "\"", "\"\"", "\n", "\r\n", "\r", "é", "日本", "🙂", "x,y",
];

/// One field of well-formed CSV: plain, or quoted around text that may
/// hold separators, escaped quotes and newlines.
fn field() -> impl Strategy<Value = String> {
    let plain = collection::vec(0usize..5, 0..4).prop_map(|ix| {
        ix.iter()
            .map(|&i| ["a", "42", "é", "日", " x"][i])
            .collect::<String>()
    });
    let quoted = collection::vec(0usize..7, 0..5).prop_map(|ix| {
        let inner: String = ix
            .iter()
            .map(|&i| ["b", ",", "\"\"", "\n", "\r\n", "🙂", "\r"][i])
            .collect();
        format!("\"{inner}\"")
    });
    prop_oneof![plain, quoted]
}

/// Random CSV text: half token soup (mostly malformed), half
/// well-formed records (mostly valid), with or without a BOM.
fn csv_text() -> impl Strategy<Value = String> {
    let soup = collection::vec(0usize..PIECES.len(), 0..40)
        .prop_map(|ix| ix.iter().map(|&i| PIECES[i]).collect::<String>());
    let records = collection::vec(
        (collection::vec(field(), 1..5), any::<bool>(), any::<bool>()),
        0..6,
    )
    .prop_map(|rows| {
        let mut text = String::new();
        for (fields, crlf, blank) in rows {
            text.push_str(&fields.join(","));
            text.push_str(if crlf { "\r\n" } else { "\n" });
            if blank {
                text.push('\n');
            }
        }
        text
    });
    (prop_oneof![soup, records], any::<bool>()).prop_map(|(text, bom)| {
        if bom {
            format!("\u{feff}{text}")
        } else {
            text
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parse_csv_matches_the_char_level_reference(text in csv_text()) {
        prop_assert_eq!(scanned_csv("t.csv", &text), reference_csv("t.csv", &text), "{:?}", text);
    }
}

#[test]
fn reference_agrees_on_hand_picked_edge_cases() {
    for text in [
        "",
        "\u{feff}",
        "\n\n",
        "a",
        "a,",
        ",",
        "\"\"",
        "\"a\"\"b\"",
        "é,\"日\nx\",🙂\r\n",
        "é\"",
        "\"a\"é",
        "日本,\r",
        "a\r\nb\rc",
        "\"open",
        "x,\"\r\"\n",
    ] {
        assert_eq!(
            scanned_csv("t.csv", text),
            reference_csv("t.csv", text),
            "{text:?}"
        );
    }
    // Columns count characters: the field after `日本,` starts at column 4.
    let records = parse_csv("t.csv", "日本,x\n").unwrap();
    assert_eq!(records[0].fields[1].column, 4);
}

// ---------------------------------------------------------------------------
// Mutated example configs
// ---------------------------------------------------------------------------

fn fleet_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fleet")
}

/// The files of one example config as a relative-path map.
fn read_config(dir: &Path) -> BTreeMap<String, String> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("config dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            for leaf in std::fs::read_dir(&path).expect("channel dir") {
                let leaf = leaf.expect("entry").path();
                let rel = format!("{name}/{}", leaf.file_name().unwrap().to_string_lossy());
                files.insert(rel, std::fs::read_to_string(&leaf).expect("utf-8 file"));
            }
        } else {
            files.insert(name, std::fs::read_to_string(&path).expect("utf-8 file"));
        }
    }
    files
}

/// Two example configs (IEEE-14 and IEEE-30 sized) the mutations start
/// from.
fn seeds() -> &'static [BTreeMap<String, String>] {
    static SEEDS: OnceLock<Vec<BTreeMap<String, String>>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        ["sub14-01", "sub30-02"]
            .iter()
            .map(|name| read_config(&fleet_dir().join(name)))
            .collect()
    })
}

/// Numbers far past every count and range the importer accepts.
const OVERSIZED: [&str; 4] = [
    "99999999999999999999999",
    "1048577",
    "18446744073709551615",
    "1e308",
];

/// Applies one mutation to `text`, chosen by `kind` and placed by `at`.
fn mutate(text: &str, kind: usize, at: usize, byte: u8) -> String {
    let bytes = text.as_bytes();
    let at = if bytes.is_empty() {
        0
    } else {
        at % bytes.len()
    };
    match kind {
        // Byte flip: XOR one byte, then keep the text UTF-8.
        0 => {
            let mut flipped = bytes.to_vec();
            if let Some(b) = flipped.get_mut(at) {
                *b ^= byte.max(1);
            }
            String::from_utf8_lossy(&flipped).into_owned()
        }
        // Truncation.
        1 => String::from_utf8_lossy(&bytes[..at]).into_owned(),
        // A duplicated row.
        2 => {
            let rows: Vec<&str> = text.split_inclusive('\n').collect();
            let mut out: Vec<&str> = rows.clone();
            if !rows.is_empty() {
                out.insert(at % rows.len(), rows[at % rows.len()]);
            }
            out.concat()
        }
        // An oversized number in place of the first digit run at or
        // after `at`.
        _ => {
            let start = (at..bytes.len())
                .find(|&i| bytes[i].is_ascii_digit())
                .unwrap_or(bytes.len());
            let end = (start..bytes.len())
                .find(|&i| !bytes[i].is_ascii_digit())
                .unwrap_or(bytes.len());
            let big = OVERSIZED[usize::from(byte) % OVERSIZED.len()];
            format!("{}{big}{}", &text[..start], &text[end..])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_configs_import_or_fail_addressed(
        seed in 0usize..2,
        file in any::<usize>(),
        kind in 0usize..4,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut files = seeds()[seed].clone();
        let path = files.keys().nth(file % files.len()).unwrap().clone();
        let mutated = mutate(&files[&path], kind, at, byte);
        files.insert(path.clone(), mutated);
        if let Err(e) = import_files("mutant", &files) {
            let shown = e.to_string();
            prop_assert!(!e.file.is_empty() && !e.message.is_empty(), "{}", shown);
            prop_assert!(shown.starts_with(&e.file), "{}", shown);
            prop_assert!(e.line > 0 || e.column == 0, "{}", shown);
        }
    }
}
