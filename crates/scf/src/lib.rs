//! # dstreams-scf — the paper's benchmark application
//!
//! "We developed a simple benchmark that contains the I/O skeleton from a
//! Grand Challenge Computational Cosmology application written in pC++,
//! the Self Consistent Field (SCF) code." (paper §4.3)
//!
//! This crate reproduces that skeleton:
//!
//! * [`Segment`] — the 1-D collection's element: per-particle x/y/z,
//!   vx/vy/vz, mass arrays;
//! * [`ScfConfig`] — deterministic Plummer-like workload generation at the
//!   paper's sizes (256 → 20 000 segments ≈ 1.4 → 112 MB);
//! * the three I/O implementations the paper times
//!   ([`methods`]): unbuffered OS calls, manual buffering, pC++/streams;
//! * the benchmark [`driver`] and the paper's table definitions
//!   ([`tables`]) with published values embedded for comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod methods;
pub mod overlap;
pub mod physics;
pub mod segment;
pub mod solver;
pub mod tables;
pub mod workload;

pub use driver::{
    out_and_in, profile_dstreams_phases, run_cell, run_cell_traced, run_sizes, run_sizes_traced,
    CellSpec, PhaseBreakdown, Platform, SizeResult,
};
pub use methods::IoMethod;
pub use overlap::{calibrate_compute, run_checkpoint, run_checkpoint_traced, OverlapSpec};
pub use segment::Segment;
pub use solver::{gegenbauer, Field, ScfSolver};
pub use tables::{all_tables, run_table, run_table_traced, TableResult, TableSpec};
pub use workload::ScfConfig;

use std::fmt;

/// Errors raised by the SCF benchmark.
#[derive(Debug)]
pub enum ScfError {
    /// The manual-buffering baseline found a segment of unexpected size
    /// (it stores no metadata, so sizes must be known a priori).
    ManualSizeMismatch {
        /// Particles per segment the caller claimed.
        expected: usize,
        /// Particles found in the file.
        found: usize,
    },
    /// A benchmark roundtrip failed validation.
    Validation(String),
    /// Underlying d/streams failure.
    Stream(dstreams_core::StreamError),
}

impl fmt::Display for ScfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScfError::ManualSizeMismatch { expected, found } => write!(
                f,
                "manual buffering expected {expected} particles per segment, file holds {found}"
            ),
            ScfError::Validation(msg) => write!(f, "benchmark validation failed: {msg}"),
            ScfError::Stream(e) => write!(f, "stream error: {e}"),
        }
    }
}

impl std::error::Error for ScfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScfError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dstreams_core::StreamError> for ScfError {
    fn from(e: dstreams_core::StreamError) -> Self {
        ScfError::Stream(e)
    }
}

impl From<dstreams_pfs::PfsError> for ScfError {
    fn from(e: dstreams_pfs::PfsError) -> Self {
        ScfError::Stream(e.into())
    }
}

impl From<dstreams_collections::CollectionError> for ScfError {
    fn from(e: dstreams_collections::CollectionError) -> Self {
        ScfError::Stream(e.into())
    }
}

impl From<dstreams_machine::MachineError> for ScfError {
    fn from(e: dstreams_machine::MachineError) -> Self {
        ScfError::Stream(e.into())
    }
}

/// Look up a table spec by CLI name (`table1` … `table4`).
pub fn table_by_name(name: &str) -> Option<TableSpec> {
    match name {
        "table1" | "1" => Some(tables::table1()),
        "table2" | "2" => Some(tables::table2()),
        "table3" | "3" => Some(tables::table3()),
        "table4" | "4" => Some(tables::table4()),
        _ => None,
    }
}
