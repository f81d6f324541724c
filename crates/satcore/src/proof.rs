//! DRAT proof logging.
//!
//! A CDCL solver's `unsat` answer is only as trustworthy as the solver
//! itself. DRAT proof logging makes the answer *checkable*: every
//! clause the solver learns (and every clause it deletes) is recorded,
//! and an independent checker can replay the derivation with nothing
//! but unit propagation. The format emitted here is standard textual
//! DRAT — one clause per line, literals as signed DIMACS integers,
//! `0`-terminated, deletions prefixed with `d` — so proofs are also
//! consumable by external tools such as `drat-trim`.
//!
//! Three sinks are provided: [`DratWriter`] streams the proof to a file
//! (buffered at line boundaries, synced on flush, so an interrupted or
//! deadline-bounded solve never leaves a torn line behind),
//! [`ProofBuffer`] accumulates [`ProofStep`]s in memory for in-process
//! checking with [`crate::check`], and [`ChunkSink`] hands axioms and
//! steps to a checker on another thread in flat [`ProofChunk`]s while
//! the solver runs. The solver hands every original clause to
//! [`ProofSink::add_axiom`] as it arrives; the file sink drops it, and
//! the in-memory sinks keep it flat, so an in-process checker learns
//! the formula from the sink instead of from a second copy inside the
//! solver.
//!
//! The solver also names each addition's *antecedents*: the proof ids of
//! the clauses its conflict analysis resolved, in propagation order (the
//! LRAT idea). An axiom's id is its arrival ordinal among the clauses
//! handed to the solver; a lemma's id is its ordinal among the emitted
//! additions, tagged with [`LEMMA_ID_TAG`]. Hints never reach the DRAT
//! text — only [`ProofBuffer`] keeps them, in a [`HintedProof`], so the
//! in-process checker can validate a lemma by scanning those clauses
//! alone.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::lit::{Lit, Var};

/// One step of a DRAT proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// A clause addition (a learned or simplified clause; the empty
    /// clause terminates an unconditional refutation).
    Add(Vec<Lit>),
    /// A clause deletion (`d` line).
    Delete(Vec<Lit>),
}

/// Marks a proof id as a lemma id: the low 31 bits are then the lemma's
/// ordinal among the proof's additions. Untagged ids are axiom indices.
pub const LEMMA_ID_TAG: u32 = 1 << 31;

/// A sink for proof steps, hooked into the CDCL loop.
///
/// Implementations must tolerate any interleaving of additions and
/// deletions, and must make the proof durable when [`flush_proof`] is
/// called — the solver flushes at *every* exit from a solve call,
/// including deadline/interrupt-bounded `Unknown` exits, so a bounded
/// run leaves a clean (if incomplete) proof behind.
///
/// [`flush_proof`]: ProofSink::flush_proof
pub trait ProofSink: Send {
    /// Receives an original clause, verbatim, as the solver is handed
    /// it. Axioms are not proof steps, so the default drops them and
    /// file sinks stay plain DRAT.
    fn add_axiom(&mut self, lits: &[Lit]) {
        let _ = lits;
    }
    /// Records the addition of `lits` (empty slice = the empty clause).
    fn add_clause(&mut self, lits: &[Lit]);
    /// Records the addition of `lits` together with the proof ids of
    /// its antecedents. Hints are advisory; the default drops them, so
    /// file sinks stay plain DRAT.
    fn add_clause_hinted(&mut self, lits: &[Lit], hints: &[u32]) {
        let _ = hints;
        self.add_clause(lits);
    }
    /// Records the deletion of `lits`.
    fn delete_clause(&mut self, lits: &[Lit]);
    /// Marks the start of a solve call: no axiom arrives until it
    /// returns, so the steps it emits follow from the clauses handed
    /// over so far.
    fn begin_solve(&mut self) {}
    /// Makes everything recorded so far durable.
    fn flush_proof(&mut self) {}
}

/// An output target for [`DratWriter`]: a writer that can also be
/// synced to durable storage.
pub trait ProofOut: Write + Send {
    /// Forces buffered bytes to durable storage (no-op by default).
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl ProofOut for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

impl ProofOut for Vec<u8> {}

/// Formats one DRAT line (without the `d` prefix) into `buf`.
fn push_line(buf: &mut String, lits: &[Lit]) {
    for &l in lits {
        let v = (l.var().index() + 1) as i64;
        let _ = write!(buf, "{} ", if l.is_negative() { -v } else { v });
    }
    buf.push_str("0\n");
}

/// Streams a DRAT proof to a writer, buffering whole lines.
///
/// Bytes are handed to the underlying writer only at line boundaries,
/// so even if the process dies mid-solve the proof file contains only
/// complete lines. [`flush_proof`](ProofSink::flush_proof) drains the
/// buffer and syncs the target; the solver calls it on every solve
/// exit, including bounded `Unknown` ones.
///
/// I/O errors are sticky: the first one is kept and reported by
/// [`DratWriter::take_error`]; later writes become no-ops.
#[derive(Debug)]
pub struct DratWriter<W: ProofOut> {
    out: W,
    buf: String,
    error: Option<io::Error>,
}

/// Buffer this many bytes of complete lines before writing through.
const FLUSH_THRESHOLD: usize = 64 * 1024;

impl DratWriter<File> {
    /// Creates a proof writer over a freshly created file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<DratWriter<File>> {
        Ok(DratWriter::new(File::create(path)?))
    }
}

impl<W: ProofOut> DratWriter<W> {
    /// Wraps an output target.
    pub fn new(out: W) -> DratWriter<W> {
        DratWriter {
            out,
            buf: String::new(),
            error: None,
        }
    }

    fn drain(&mut self, sync: bool) {
        if self.error.is_some() {
            self.buf.clear();
            return;
        }
        let result = (|| {
            if !self.buf.is_empty() {
                self.out.write_all(self.buf.as_bytes())?;
                self.buf.clear();
            }
            self.out.flush()?;
            if sync {
                self.out.sync()?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            self.buf.clear();
            self.error = Some(e);
        }
    }

    /// Takes the first I/O error encountered, if any.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Consumes the writer, flushing and returning the target (or the
    /// first error).
    pub fn into_inner(mut self) -> io::Result<W> {
        self.drain(true);
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }
}

impl<W: ProofOut> ProofSink for DratWriter<W> {
    fn add_clause(&mut self, lits: &[Lit]) {
        push_line(&mut self.buf, lits);
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.drain(false);
        }
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.buf.push_str("d ");
        push_line(&mut self.buf, lits);
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.drain(false);
        }
    }

    fn flush_proof(&mut self) {
        self.drain(true);
    }
}

/// Proof steps together with the antecedent hints of each addition.
///
/// Hints are stored flat (one `u32` per id), so a drained proof costs
/// one allocation for all its hints rather than one per step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HintedProof {
    steps: Vec<ProofStep>,
    /// Per step, the end of its hints in `hints`.
    ends: Vec<u32>,
    hints: Vec<u32>,
}

impl HintedProof {
    /// Appends a step with its hints (deletions carry none).
    fn push(&mut self, step: ProofStep, hints: &[u32]) {
        self.hints.extend_from_slice(hints);
        self.steps.push(step);
        self.ends.push(self.hints.len() as u32);
    }

    /// Inserts a step without hints before position `index`.
    pub fn insert_unhinted(&mut self, index: usize, step: ProofStep) {
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        self.steps.insert(index, step);
        self.ends.insert(index, start);
    }

    /// The steps, in emission order: plain DRAT.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// The hints of step `index` (empty when it has none or is out of
    /// range).
    pub fn hints(&self, index: usize) -> &[u32] {
        let Some(&end) = self.ends.get(index) else {
            return &[];
        };
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        &self.hints[start as usize..end as usize]
    }

    /// The number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether there are no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Original clauses in arrival order, stored flat: one literal buffer
/// for all of them, so a drained batch costs two allocations however
/// many clauses it holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Axioms {
    lits: Vec<Lit>,
    /// Per clause, the end of its literals in `lits`.
    ends: Vec<u32>,
}

impl Axioms {
    fn push(&mut self, lits: &[Lit]) {
        self.lits.extend_from_slice(lits);
        let end = u32::try_from(self.lits.len()).expect("an axiom batch holds under 4G literals");
        self.ends.push(end);
    }

    /// The clauses, in arrival order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        (0..self.ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            &self.lits[start as usize..self.ends[i] as usize]
        })
    }

    /// The number of clauses.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no clauses.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// What a [`ProofBuffer`] holds between drains.
#[derive(Debug, Default)]
struct Pending {
    proof: HintedProof,
    axioms: Axioms,
}

/// An in-memory proof sink shared between the solver and a checker.
///
/// Cloning is cheap (the proof is behind an `Arc<Mutex<..>>`), so the
/// caller can keep one handle and install the other on the solver, then
/// drain it after each solve to feed an incremental
/// [`crate::check::RupChecker`]: [`take_axioms`](ProofBuffer::take_axioms)
/// for the clauses the solver was handed (add them before replaying, so
/// hints naming them resolve), [`take_hinted`](ProofBuffer::take_hinted)
/// for hinted replay, [`take_steps`](ProofBuffer::take_steps) for the
/// plain DRAT steps.
#[derive(Debug, Clone, Default)]
pub struct ProofBuffer {
    pending: Arc<Mutex<Pending>>,
}

impl ProofBuffer {
    /// Creates an empty buffer.
    pub fn new() -> ProofBuffer {
        ProofBuffer::default()
    }

    /// Drains and returns all steps recorded since the last call,
    /// dropping their hints.
    pub fn take_steps(&self) -> Vec<ProofStep> {
        self.take_hinted().steps
    }

    /// Drains and returns all steps recorded since the last call, with
    /// their hints.
    pub fn take_hinted(&self) -> HintedProof {
        std::mem::take(&mut self.pending.lock().unwrap().proof)
    }

    /// Drains and returns all axioms received since the last call, in
    /// arrival order.
    pub fn take_axioms(&self) -> Axioms {
        std::mem::take(&mut self.pending.lock().unwrap().axioms)
    }

    /// The number of steps currently buffered.
    pub fn len(&self) -> usize {
        self.pending.lock().unwrap().proof.len()
    }

    /// Whether no steps are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ProofSink for ProofBuffer {
    fn add_axiom(&mut self, lits: &[Lit]) {
        self.pending.lock().unwrap().axioms.push(lits);
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.add_clause_hinted(lits, &[]);
    }

    fn add_clause_hinted(&mut self, lits: &[Lit], hints: &[u32]) {
        let step = ProofStep::Add(lits.to_vec());
        self.pending.lock().unwrap().proof.push(step, hints);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        let step = ProofStep::Delete(lits.to_vec());
        self.pending.lock().unwrap().proof.push(step, &[]);
    }
}

/// What a [`ProofChunk`] record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordKind {
    Axiom,
    Add,
    Delete,
}

/// Where one [`ProofChunk`] record's literals and hints end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    kind: RecordKind,
    lits_end: u32,
    hints_end: u32,
}

/// One record of a [`ProofChunk`], borrowing its storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkRecord<'a> {
    /// An original clause, verbatim.
    Axiom(&'a [Lit]),
    /// A clause addition and the proof ids of its antecedents.
    Add(&'a [Lit], &'a [u32]),
    /// A clause deletion.
    Delete(&'a [Lit]),
}

/// Axioms and proof steps in the order a checker applies them, stored
/// flat: one literal buffer, one hint buffer and one small record per
/// clause, so a chunk costs a few allocations however many records it
/// holds, and none per record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProofChunk {
    lits: Vec<Lit>,
    hints: Vec<u32>,
    records: Vec<Record>,
}

impl ProofChunk {
    fn push(&mut self, kind: RecordKind, lits: &[Lit], hints: &[u32]) {
        self.lits.extend_from_slice(lits);
        self.hints.extend_from_slice(hints);
        let end = |len: usize| u32::try_from(len).expect("a proof chunk holds under 4G entries");
        self.records.push(Record {
            kind,
            lits_end: end(self.lits.len()),
            hints_end: end(self.hints.len()),
        });
    }

    /// The records, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ChunkRecord<'_>> + '_ {
        (0..self.records.len()).map(|i| {
            let (lits_start, hints_start) = match i.checked_sub(1) {
                Some(p) => (self.records[p].lits_end, self.records[p].hints_end),
                None => (0, 0),
            };
            let r = self.records[i];
            let lits = &self.lits[lits_start as usize..r.lits_end as usize];
            match r.kind {
                RecordKind::Axiom => ChunkRecord::Axiom(lits),
                RecordKind::Add => ChunkRecord::Add(
                    lits,
                    &self.hints[hints_start as usize..r.hints_end as usize],
                ),
                RecordKind::Delete => ChunkRecord::Delete(lits),
            }
        })
    }

    /// Whether any record is a proof step rather than an axiom.
    pub fn has_steps(&self) -> bool {
        self.records.iter().any(|r| r.kind != RecordKind::Axiom)
    }

    /// Appends the chunk's proof steps (axioms skipped) to `buf` as
    /// textual DRAT, byte for byte what [`write_drat`] writes for them.
    pub fn write_drat_steps(&self, buf: &mut String) {
        for record in self.iter() {
            match record {
                ChunkRecord::Axiom(_) => {}
                ChunkRecord::Add(lits, _) => push_line(buf, lits),
                ChunkRecord::Delete(lits) => {
                    buf.push_str("d ");
                    push_line(buf, lits);
                }
            }
        }
    }

    /// The number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// The chunk's size in entries: one per record, literal and hint.
    pub fn entries(&self) -> usize {
        self.records.len() + self.lits.len() + self.hints.len()
    }

    /// Whether the chunk holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The chunk emptied, its buffers kept for reuse.
    pub fn cleared(mut self) -> ProofChunk {
        self.lits.clear();
        self.hints.clear();
        self.records.clear();
        self
    }
}

/// A proof sink that hands axioms and hinted steps to a consumer — a
/// checker on another thread — in [`ProofChunk`]s, with no lock and no
/// allocation per record on the solver's side.
///
/// The consumer sees the order a checker that drains a [`ProofBuffer`]
/// after each solve sees: the axioms a solve call follows from, then
/// its steps. Outside a solve, axioms are handed on whenever their chunk
/// fills, while steps (add-time simplifications) are held back, since
/// more axioms may still come; [`begin_solve`](ProofSink::begin_solve)
/// hands on both, in that order. Inside a solve no axiom arrives, so
/// steps are handed on whenever their chunk fills.
/// [`flush_proof`](ProofSink::flush_proof) hands on everything held.
pub struct ChunkSink {
    axioms: ProofChunk,
    steps: ProofChunk,
    /// Inside a solve call: steps are handed on as soon as a chunk fills.
    solving: bool,
    /// Entries ([`ProofChunk::entries`]) that fill a chunk.
    capacity: usize,
    ship: Box<dyn FnMut(ProofChunk) -> ProofChunk + Send>,
}

impl std::fmt::Debug for ChunkSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkSink")
            .field("axioms", &self.axioms.len())
            .field("steps", &self.steps.len())
            .field("solving", &self.solving)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl ChunkSink {
    /// A sink handing `ship` a chunk as soon as it holds `capacity`
    /// entries (one record always fills a chunk of capacity 1); held
    /// add-time steps are handed on in one chunk. `ship` returns the
    /// chunk to fill next: a consumer that hands its spent chunks back
    /// spares the solver an allocation per chunk (the sink clears it). Sizing by entries
    /// rather than records keeps hinted lemmas — long and costly to
    /// check — moving to the consumer while the solver runs, and
    /// axioms — short and cheap — in few hand-offs.
    pub fn new(
        capacity: usize,
        ship: impl FnMut(ProofChunk) -> ProofChunk + Send + 'static,
    ) -> ChunkSink {
        ChunkSink {
            axioms: ProofChunk::default(),
            steps: ProofChunk::default(),
            solving: false,
            capacity: capacity.max(1),
            ship: Box::new(ship),
        }
    }

    fn ship_axioms(&mut self) {
        if !self.axioms.is_empty() {
            let next = (self.ship)(std::mem::take(&mut self.axioms));
            self.axioms = next.cleared();
        }
    }

    fn ship_steps(&mut self) {
        if !self.steps.is_empty() {
            let next = (self.ship)(std::mem::take(&mut self.steps));
            self.steps = next.cleared();
        }
    }

    fn push_step(&mut self, kind: RecordKind, lits: &[Lit], hints: &[u32]) {
        self.steps.push(kind, lits, hints);
        if self.solving && self.steps.entries() >= self.capacity {
            self.ship_steps();
        }
    }
}

impl ProofSink for ChunkSink {
    fn add_axiom(&mut self, lits: &[Lit]) {
        self.axioms.push(RecordKind::Axiom, lits, &[]);
        if self.axioms.entries() >= self.capacity {
            self.ship_axioms();
        }
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.add_clause_hinted(lits, &[]);
    }

    fn add_clause_hinted(&mut self, lits: &[Lit], hints: &[u32]) {
        self.push_step(RecordKind::Add, lits, hints);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.push_step(RecordKind::Delete, lits, &[]);
    }

    fn begin_solve(&mut self) {
        self.ship_axioms();
        self.ship_steps();
        self.solving = true;
    }

    fn flush_proof(&mut self) {
        self.ship_axioms();
        self.ship_steps();
        self.solving = false;
    }
}

/// Serializes proof steps as textual DRAT.
pub fn write_drat<W: Write>(steps: &[ProofStep], w: &mut W) -> io::Result<()> {
    let mut buf = String::new();
    for step in steps {
        match step {
            ProofStep::Add(lits) => push_line(&mut buf, lits),
            ProofStep::Delete(lits) => {
                buf.push_str("d ");
                push_line(&mut buf, lits);
            }
        }
    }
    w.write_all(buf.as_bytes())
}

/// Parses a textual DRAT proof.
///
/// Strict by design: every line must be a `0`-terminated clause
/// (optionally `d`-prefixed), and the final line must end in a
/// newline — an unterminated trailing line means the proof was torn
/// mid-write and is rejected, which is exactly the signal the
/// clean-truncation guarantee of [`DratWriter`] is tested against.
pub fn parse_drat(text: &str) -> Result<Vec<ProofStep>, String> {
    let mut steps = Vec::new();
    if !text.is_empty() && !text.ends_with('\n') {
        return Err("unterminated final line (torn proof?)".into());
    }
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (is_delete, rest) = match line.strip_prefix('d') {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in rest.split_whitespace() {
            if terminated {
                return Err(format!("line {}: literals after 0", lineno + 1));
            }
            let n: i64 = tok
                .parse()
                .map_err(|_| format!("line {}: bad literal {tok:?}", lineno + 1))?;
            if n.unsigned_abs() > Var::MAX_INDEX as u64 + 1 {
                return Err(format!(
                    "line {}: literal {n} exceeds the maximum variable {}",
                    lineno + 1,
                    Var::MAX_INDEX + 1
                ));
            }
            if n == 0 {
                terminated = true;
            } else {
                let var = Var::from_index((n.unsigned_abs() - 1) as usize);
                lits.push(var.lit(n > 0));
            }
        }
        if !terminated {
            return Err(format!("line {}: clause not 0-terminated", lineno + 1));
        }
        steps.push(if is_delete {
            ProofStep::Delete(lits)
        } else {
            ProofStep::Add(lits)
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Var::from_index((n.unsigned_abs() - 1) as usize).lit(n > 0)
    }

    #[test]
    fn writer_emits_standard_drat() {
        let mut w = DratWriter::new(Vec::new());
        w.add_clause(&[lit(1), lit(-2)]);
        w.delete_clause(&[lit(3)]);
        w.add_clause(&[]);
        let bytes = w.into_inner().expect("no io error");
        assert_eq!(String::from_utf8(bytes).unwrap(), "1 -2 0\nd 3 0\n0\n");
    }

    #[test]
    fn round_trip_through_text() {
        let steps = vec![
            ProofStep::Add(vec![lit(1), lit(-2), lit(3)]),
            ProofStep::Delete(vec![lit(-1), lit(2)]),
            ProofStep::Add(vec![]),
        ];
        let mut text = Vec::new();
        write_drat(&steps, &mut text).unwrap();
        let parsed = parse_drat(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(parsed, steps);
    }

    #[test]
    fn parse_rejects_torn_proofs() {
        assert!(parse_drat("1 2 0\n-1 ").is_err(), "unterminated line");
        assert!(parse_drat("1 2\n").is_err(), "missing 0 terminator");
        assert!(parse_drat("1 0 2 0\n").is_err(), "literals after 0");
        assert!(parse_drat("1 x 0\n").is_err(), "non-numeric literal");
    }

    #[test]
    fn parse_rejects_unrepresentable_variables() {
        // Truncating 2147483649 to 32 bits would alias it onto x1.
        let err = parse_drat("1 0\n2147483649 0\n").unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("exceeds"),
            "{err}"
        );
        assert!(parse_drat("d -2147483649 0\n").is_err());
        let max = Var::MAX_INDEX as i64 + 1;
        let steps = parse_drat(&format!("-{max} 0\n")).unwrap();
        assert_eq!(
            steps,
            vec![ProofStep::Add(vec![
                Var::from_index(Var::MAX_INDEX).negative()
            ])]
        );
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let steps = parse_drat("c a comment\n\n1 0\n").unwrap();
        assert_eq!(steps, vec![ProofStep::Add(vec![lit(1)])]);
    }

    #[test]
    fn buffer_drains_incrementally() {
        let buf = ProofBuffer::new();
        let mut handle = buf.clone();
        handle.add_clause(&[lit(1)]);
        handle.delete_clause(&[lit(1)]);
        assert_eq!(buf.len(), 2);
        let steps = buf.take_steps();
        assert_eq!(
            steps,
            vec![
                ProofStep::Add(vec![lit(1)]),
                ProofStep::Delete(vec![lit(1)]),
            ]
        );
        assert!(buf.is_empty());
        handle.add_clause(&[]);
        assert_eq!(buf.take_steps(), vec![ProofStep::Add(vec![])]);
    }

    #[test]
    fn buffer_keeps_axioms_apart_from_steps() {
        let buf = ProofBuffer::new();
        let mut handle = buf.clone();
        handle.add_axiom(&[lit(1), lit(-2)]);
        handle.add_clause(&[lit(1)]);
        handle.add_axiom(&[]);
        handle.add_axiom(&[lit(3)]);
        assert_eq!(buf.len(), 1, "axioms are not proof steps");
        let axioms = buf.take_axioms();
        let clauses: Vec<&[Lit]> = axioms.iter().collect();
        assert_eq!(clauses, [&[lit(1), lit(-2)][..], &[], &[lit(3)]]);
        assert!(buf.take_axioms().is_empty());
        assert_eq!(buf.take_steps(), vec![ProofStep::Add(vec![lit(1)])]);
        // File sinks drop axioms: DRAT text holds proof steps only.
        let mut w = DratWriter::new(Vec::new());
        w.add_axiom(&[lit(5)]);
        assert!(w.into_inner().unwrap().is_empty());
    }

    #[test]
    fn buffer_keeps_hints_beside_steps() {
        let buf = ProofBuffer::new();
        let mut handle = buf.clone();
        handle.add_clause_hinted(&[lit(1)], &[0, 2]);
        handle.delete_clause(&[lit(2)]);
        handle.add_clause(&[lit(-3)]);
        handle.add_clause_hinted(&[], &[LEMMA_ID_TAG, 1]);
        let mut proof = buf.take_hinted();
        assert!(buf.is_empty());
        assert_eq!(proof.len(), 4);
        assert_eq!(proof.hints(0), &[0, 2]);
        assert!(proof.hints(1).is_empty() && proof.hints(2).is_empty());
        assert_eq!(proof.hints(3), &[LEMMA_ID_TAG, 1]);
        assert!(proof.hints(4).is_empty(), "out of range reads empty");
        proof.insert_unhinted(0, ProofStep::Add(vec![]));
        assert_eq!(proof.steps()[0], ProofStep::Add(vec![]));
        assert!(proof.hints(0).is_empty());
        assert_eq!(proof.hints(1), &[0, 2]);
        assert_eq!(proof.hints(4), &[LEMMA_ID_TAG, 1]);
        // The default sink method drops hints: DRAT text is unchanged.
        let mut w = DratWriter::new(Vec::new());
        w.add_clause_hinted(&[lit(1)], &[7, 8]);
        assert_eq!(w.into_inner().unwrap(), b"1 0\n");
    }

    #[test]
    fn chunk_sink_holds_steps_until_a_solve_starts() {
        let shipped = Arc::new(Mutex::new(Vec::new()));
        let out = shipped.clone();
        let mut sink = ChunkSink::new(1, move |chunk| {
            out.lock().unwrap().push(chunk);
            ProofChunk::default()
        });
        let lens = |shipped: &Mutex<Vec<ProofChunk>>| -> Vec<usize> {
            shipped
                .lock()
                .unwrap()
                .iter()
                .map(ProofChunk::len)
                .collect()
        };
        sink.add_axiom(&[lit(1)]);
        sink.add_clause(&[lit(2)]);
        sink.add_axiom(&[lit(3)]);
        // Outside a solve, full axiom chunks move on; the step waits,
        // since more axioms may follow.
        assert_eq!(lens(&shipped), [1, 1]);
        sink.begin_solve();
        assert_eq!(lens(&shipped), [1, 1, 1]);
        // Inside a solve, each full chunk moves on at once.
        sink.add_clause_hinted(&[lit(4), lit(-1)], &[0, LEMMA_ID_TAG]);
        sink.delete_clause(&[lit(2)]);
        assert_eq!(lens(&shipped), [1, 1, 1, 1, 1]);
        sink.flush_proof();
        sink.add_clause(&[lit(5)]);
        assert_eq!(lens(&shipped).len(), 5, "held again after the solve");
        sink.flush_proof();
        let chunks = shipped.lock().unwrap();
        let records: Vec<ChunkRecord<'_>> = chunks.iter().flat_map(ProofChunk::iter).collect();
        assert_eq!(
            records,
            [
                ChunkRecord::Axiom(&[lit(1)]),
                ChunkRecord::Axiom(&[lit(3)]),
                ChunkRecord::Add(&[lit(2)], &[]),
                ChunkRecord::Add(&[lit(4), lit(-1)], &[0, LEMMA_ID_TAG]),
                ChunkRecord::Delete(&[lit(2)]),
                ChunkRecord::Add(&[lit(5)], &[]),
            ]
        );
        assert_eq!(chunks[3].entries(), 5, "a record, two literals, two hints");
        // DRAT text of a chunk is what `write_drat` writes for its steps.
        let mut text = String::new();
        chunks.iter().for_each(|c| c.write_drat_steps(&mut text));
        let steps = [
            ProofStep::Add(vec![lit(2)]),
            ProofStep::Add(vec![lit(4), lit(-1)]),
            ProofStep::Delete(vec![lit(2)]),
            ProofStep::Add(vec![lit(5)]),
        ];
        let mut drat = Vec::new();
        write_drat(&steps, &mut drat).unwrap();
        assert_eq!(text.as_bytes(), drat);
    }

    #[test]
    fn chunk_sink_fills_chunks_by_entries() {
        let shipped = Arc::new(Mutex::new(Vec::new()));
        let out = shipped.clone();
        let mut sink = ChunkSink::new(8, move |chunk| {
            out.lock().unwrap().push(chunk);
            ProofChunk::default()
        });
        for v in 1..=6 {
            sink.add_axiom(&[lit(v), lit(-v - 1)]);
        }
        // Three entries per axiom: the third one fills the chunk.
        assert_eq!(shipped.lock().unwrap().len(), 2);
        assert!(shipped.lock().unwrap().iter().all(|c| c.len() == 3));
        sink.begin_solve();
        sink.add_clause_hinted(&[lit(1)], &[0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(shipped.lock().unwrap().len(), 3, "one long lemma fills one");
        assert!(!shipped.lock().unwrap()[1].has_steps());
        assert!(shipped.lock().unwrap()[2].has_steps());
    }

    #[test]
    fn writer_buffers_at_line_boundaries() {
        // Below the threshold nothing reaches the target; after a flush
        // everything does, in complete lines.
        let mut w = DratWriter::new(Vec::new());
        w.add_clause(&[lit(7)]);
        assert!(w.buf.ends_with('\n'));
        w.flush_proof();
        assert!(w.buf.is_empty());
        let bytes = w.into_inner().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), "7 0\n");
    }
}
