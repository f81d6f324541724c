//! A seeded benchmark for the SCADA analyzer's serving paths: `scadad`
//! under cached and mixed operator traffic, local fleet audits, and
//! certified audits of large models. See `README.md` for the workloads,
//! metrics and how to run, trace and compare.
//!
//! Everything is measured from outside the program, through its `pub`
//! items: the service engines behind the TCP event loop, the fleet
//! executor, and — in traced runs — the public layer calls a request
//! decomposes into.

#![deny(unsafe_code)]

pub mod gen;
pub mod heap;
pub mod layers;
pub mod net;
pub mod report;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;
