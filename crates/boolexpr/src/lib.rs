//! # boolexpr — formulas, Tseitin transformation, cardinality counters
//!
//! This crate is the "SMT-lite" layer of the SCADA resiliency analyzer:
//! it turns the DSN'16 paper's logical model — arbitrary Boolean structure
//! plus cardinality sums — into CNF for the [`satcore`] CDCL solver.
//!
//! * [`ExprPool`] builds hash-consed Boolean expressions with light
//!   simplification,
//! * [`Encoder`] performs the Tseitin transformation, defining every
//!   derived term as a full biconditional,
//! * [`cardinality`] provides the reified [`UnaryCounter`] (totalizer)
//!   used for failure budgets and measurement-count thresholds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cardinality;
mod expr;
mod tseitin;

pub use cardinality::UnaryCounter;
pub use expr::{ExprPool, Node, NodeRef};
pub use tseitin::Encoder;
