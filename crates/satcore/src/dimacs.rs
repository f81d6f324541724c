//! DIMACS CNF reading and writing.
//!
//! The interchange format lets instances produced by the analyzer be
//! cross-checked against external solvers, and external benchmarks be
//! fed to [`crate::Solver`].

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::lit::{Lit, Var};
use crate::solver::CnfSink;

/// Error parsing a DIMACS file.
#[derive(Debug)]
pub enum ParseDimacsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed content.
    Syntax {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDimacsError::Io(e) => write!(f, "i/o error reading dimacs: {e}"),
            ParseDimacsError::Syntax { line, message } => {
                write!(f, "dimacs syntax error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseDimacsError {}

impl From<io::Error> for ParseDimacsError {
    fn from(e: io::Error) -> Self {
        ParseDimacsError::Io(e)
    }
}

/// A CNF formula as plain data (for tests and I/O).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables.
    pub num_vars: usize,
    /// Clauses over variables `0..num_vars`.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Loads the formula into a sink (e.g. a solver), creating its
    /// variables `0..num_vars` in order.
    pub fn load_into<S: CnfSink>(&self, sink: &mut S) -> Vec<Var> {
        let vars: Vec<Var> = (0..self.num_vars).map(|_| sink.new_var()).collect();
        for c in &self.clauses {
            sink.add_clause(c);
        }
        vars
    }

    /// Evaluates the formula under a total assignment
    /// (`assignment[v] == true` means variable `v` is true).
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().index()] == l.is_positive())
        })
    }
}

impl CnfSink for Cnf {
    fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }

    fn num_vars(&self) -> usize {
        self.num_vars
    }
}

/// Parses DIMACS CNF text.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on I/O failure, a missing/duplicate
/// `p cnf` header, or malformed literals.
pub fn parse_dimacs<R: BufRead>(reader: R) -> Result<Cnf, ParseDimacsError> {
    let mut cnf = Cnf::new();
    let mut declared_vars: Option<usize> = None;
    let mut current: Vec<Lit> = Vec::new();
    let mut last_line = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line_num = lineno + 1;
        last_line = line_num;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
            continue;
        }
        if trimmed.starts_with('p') {
            if declared_vars.is_some() {
                return Err(ParseDimacsError::Syntax {
                    line: line_num,
                    message: "duplicate problem line".into(),
                });
            }
            let mut parts = trimmed.split_whitespace();
            parts.next(); // "p"
            if parts.next() != Some("cnf") {
                return Err(ParseDimacsError::Syntax {
                    line: line_num,
                    message: "expected `p cnf <vars> <clauses>`".into(),
                });
            }
            let nv: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| {
                ParseDimacsError::Syntax {
                    line: line_num,
                    message: "bad variable count".into(),
                }
            })?;
            // Literals pack the variable index into 31 bits; a larger
            // count would alias high variables onto low ones.
            if nv > Var::MAX_INDEX + 1 {
                return Err(ParseDimacsError::Syntax {
                    line: line_num,
                    message: format!(
                        "variable count {nv} exceeds the maximum {}",
                        Var::MAX_INDEX + 1
                    ),
                });
            }
            // The clause count is required by the format. It is not used
            // to cross-check the body (solvers traditionally don't), but
            // a header without it is a different formula family and must
            // not parse.
            parts
                .next()
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| ParseDimacsError::Syntax {
                    line: line_num,
                    message: "bad or missing clause count (expected `p cnf <vars> <clauses>`)"
                        .into(),
                })?;
            declared_vars = Some(nv);
            cnf.num_vars = nv;
            continue;
        }
        if declared_vars.is_none() {
            return Err(ParseDimacsError::Syntax {
                line: line_num,
                message: "clause before problem line".into(),
            });
        }
        for tok in trimmed.split_whitespace() {
            let x: i64 = tok.parse().map_err(|_| ParseDimacsError::Syntax {
                line: line_num,
                message: format!("bad literal `{tok}`"),
            })?;
            if x == 0 {
                cnf.clauses.push(std::mem::take(&mut current));
            } else {
                let idx = (x.unsigned_abs() - 1) as usize;
                if idx >= cnf.num_vars {
                    return Err(ParseDimacsError::Syntax {
                        line: line_num,
                        message: format!("literal {x} exceeds declared variable count"),
                    });
                }
                current.push(Var::from_index(idx).lit(x > 0));
            }
        }
    }
    if !current.is_empty() {
        // A trailing clause with no terminating `0` is a truncated file;
        // silently keeping it would parse a different formula.
        return Err(ParseDimacsError::Syntax {
            line: last_line,
            message: "unterminated clause at end of input (missing `0`)".into(),
        });
    }
    Ok(cnf)
}

/// Writes a formula as DIMACS CNF.
///
/// # Errors
///
/// Propagates I/O failures of the writer.
pub fn write_dimacs<W: Write>(cnf: &Cnf, mut writer: W) -> io::Result<()> {
    writeln!(writer, "p cnf {} {}", cnf.num_vars, cnf.clauses.len())?;
    for c in &cnf.clauses {
        for &l in c {
            let x = l.var().index() as i64 + 1;
            write!(writer, "{} ", if l.is_negative() { -x } else { x })?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
        let cnf = parse_dimacs(text.as_bytes()).unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        assert_eq!(cnf.clauses[0].len(), 2);
        assert!(cnf.clauses[0][1].is_negative());
    }

    #[test]
    fn parse_multiline_clause() {
        let text = "p cnf 2 1\n1\n-2\n0\n";
        let cnf = parse_dimacs(text.as_bytes()).unwrap();
        assert_eq!(cnf.clauses.len(), 1);
        assert_eq!(cnf.clauses[0].len(), 2);
    }

    #[test]
    fn parse_rejects_missing_header() {
        let text = "1 2 0\n";
        assert!(parse_dimacs(text.as_bytes()).is_err());
    }

    #[test]
    fn parse_rejects_out_of_range_literal() {
        let text = "p cnf 1 1\n2 0\n";
        assert!(parse_dimacs(text.as_bytes()).is_err());
    }

    #[test]
    fn parse_rejects_header_without_clause_count() {
        let err = parse_dimacs("p cnf 3\n1 2 0\n".as_bytes()).unwrap_err();
        match err {
            ParseDimacsError::Syntax { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("clause count"), "{message}");
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
        assert!(parse_dimacs("p cnf 3 x\n1 2 0\n".as_bytes()).is_err());
    }

    #[test]
    fn parse_rejects_unterminated_trailing_clause() {
        let err = parse_dimacs("p cnf 2 2\n1 0\n-1 2\n".as_bytes()).unwrap_err();
        match err {
            ParseDimacsError::Syntax { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("unterminated"), "{message}");
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_unrepresentable_variables() {
        // Satisfiable as written; truncating variable 2147483649 to 32
        // bits would alias it onto x1 and read (x1)(¬x1).
        let text = "p cnf 2147483650 2\n2147483649 0\n-1 0\n";
        match parse_dimacs(text.as_bytes()).unwrap_err() {
            ParseDimacsError::Syntax { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("exceeds the maximum"), "{message}");
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
        // The largest representable variable still parses.
        let max = Var::MAX_INDEX + 1;
        let cnf = parse_dimacs(format!("p cnf {max} 1\n-{max} 0\n").as_bytes()).unwrap();
        assert_eq!(
            cnf.clauses[0][0],
            Var::from_index(Var::MAX_INDEX).negative()
        );
    }

    #[test]
    fn round_trip() {
        let text = "p cnf 4 3\n1 -2 0\n3 4 0\n-1 -3 0\n";
        let cnf = parse_dimacs(text.as_bytes()).unwrap();
        let mut out = Vec::new();
        write_dimacs(&cnf, &mut out).unwrap();
        let again = parse_dimacs(out.as_slice()).unwrap();
        assert_eq!(cnf, again);
    }

    #[test]
    fn eval_checks_all_clauses() {
        let text = "p cnf 2 2\n1 0\n-1 2 0\n";
        let cnf = parse_dimacs(text.as_bytes()).unwrap();
        assert!(cnf.eval(&[true, true]));
        assert!(!cnf.eval(&[true, false]));
        assert!(!cnf.eval(&[false, true]));
    }
}
