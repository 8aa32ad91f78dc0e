//! Shared helpers for the Criterion benches and the bench bins.
//!
//! The benches in this crate measure **virtual time**: the Criterion
//! benches under `benches/` use `iter_custom` to report *simulated
//! platform seconds* from the calibrated cost models, regenerating the
//! paper's tables and the ablations of its design choices
//! deterministically, and the bins under `src/bin` write the
//! `BENCH_*.json` files from the same clocks. The one host-timed bin is
//! `verify_throughput` (dsverify events per second). The host time of
//! the library's own I/O path is measured by the separate `perfbench`
//! crate (`python3 perfbench/run.py`).

#![forbid(unsafe_code)]

pub mod percentile;

use std::time::Duration;

use dstreams_machine::{Machine, MachineConfig, VTime};
use dstreams_scf::{run_cell, CellSpec, IoMethod, Platform};

/// Run one benchmark cell and convert its simulated seconds into a
/// `Duration` for Criterion's `iter_custom`.
pub fn cell_virtual_duration(
    platform: Platform,
    nprocs: usize,
    n_segments: usize,
    method: IoMethod,
) -> Duration {
    let secs = run_cell(CellSpec {
        platform,
        nprocs,
        n_segments,
        method,
    })
    .expect("benchmark cell");
    Duration::from_nanos((secs * 1e9) as u64)
}

/// Run an SPMD closure on a machine and return the slowest rank's virtual
/// time as a `Duration` — used by ablations that assemble their own
/// pipelines.
pub fn machine_virtual_duration<F>(config: MachineConfig, f: F) -> Duration
where
    F: Fn(&dstreams_machine::NodeCtx) -> VTime + Sync,
{
    let times = Machine::run(config, |ctx| f(ctx)).expect("machine run");
    let worst = times.into_iter().fold(VTime::ZERO, VTime::max);
    Duration::from_nanos(worst.as_nanos())
}
