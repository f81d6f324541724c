//! # satcore — a from-scratch CDCL SAT solver
//!
//! `satcore` is the decision engine underneath the SCADA resiliency
//! analyzer (a reproduction of Rahman et al., *Formal Analysis for
//! Dependable Supervisory Control and Data Acquisition in Smart Grids*,
//! DSN 2016). The paper encodes its resiliency-threat verification into
//! SMT and solves with Z3; every constraint in that model is propositional
//! except cardinality sums, so a CDCL SAT solver plus cardinality
//! encodings (see the `boolexpr` crate) decides exactly the same fragment.
//!
//! The solver implements the standard modern architecture:
//!
//! * two-watched-literal unit propagation with blocker literals,
//! * first-UIP conflict analysis with self-subsumption minimization,
//! * VSIDS variable activities, phase saving, and an indexed heap,
//! * Luby restarts,
//! * learnt-clause deletion driven by literal block distance and activity,
//! * incremental solving with assumptions and unsat-core extraction.
//!
//! # Examples
//!
//! ```
//! use satcore::{Solver, SolveResult, CnfSink};
//!
//! // (a ∨ b) ∧ (¬a ∨ b) ∧ (¬b ∨ c)
//! let mut solver = Solver::new();
//! let a = solver.new_var().positive();
//! let b = solver.new_var().positive();
//! let c = solver.new_var().positive();
//! solver.add_clause(&[a, b]);
//! solver.add_clause(&[!a, b]);
//! solver.add_clause(&[!b, c]);
//!
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value_of(b.var()), Some(true));
//! assert_eq!(solver.value_of(c.var()), Some(true));
//!
//! // Incremental: ask again under the assumption ¬c.
//! assert_eq!(solver.solve_with_assumptions(&[!c]), SolveResult::Unsat);
//! assert_eq!(solver.unsat_core(), &[!c]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clause;
mod heap;
mod lit;
mod solver;

pub mod bruteforce;
pub mod check;
pub mod dimacs;
pub mod luby;
pub mod proof;

pub use check::{
    check_hinted_proof, check_model, check_unsat_proof, CheckError, CheckStats, RupChecker,
};
pub use dimacs::{parse_dimacs, write_dimacs, Cnf, ParseDimacsError};
pub use lit::{LBool, Lit, Var};
pub use luby::luby;
pub use proof::{
    parse_drat, write_drat, Axioms, ChunkRecord, ChunkSink, DratWriter, HintedProof, ProofBuffer,
    ProofChunk, ProofSink, ProofStep, LEMMA_ID_TAG,
};
pub use solver::{CnfSink, SolveResult, Solver, SolverStats};
