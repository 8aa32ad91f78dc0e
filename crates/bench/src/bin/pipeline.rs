//! Benchmark the asynchronous split-collective pipeline end-to-end: an
//! SCF checkpointing loop run synchronously and with write-behind, on
//! the Paragon preset, reporting virtual time per configuration and the
//! measured `overlap_efficiency` from the event trace.
//!
//! Usage:
//!   pipeline [--smoke] [--out PATH]
//!
//! Writes machine-readable results (default `BENCH_pipeline.json`) and
//! exits nonzero if any configuration's pipelined run fails to beat the
//! synchronous run by at least 1.5× — the overlap claim this repo's CI
//! holds the subsystem to.

use dstreams_bench::percentile::Percentiles;
use dstreams_bench::Cli;
use dstreams_scf::{calibrate_compute, run_checkpoint, run_checkpoint_traced, OverlapSpec};
use dstreams_trace::json::Value;
use dstreams_trace::EventKind;

/// The speedup every full-size configuration must clear.
const SPEEDUP_FLOOR: f64 = 1.5;

struct Row {
    nprocs: usize,
    n_segments: usize,
    iterations: usize,
    depth: usize,
    compute_ns: u64,
    sync_s: f64,
    pipelined_s: f64,
    overlap_efficiency: f64,
    stall_p50_ns: u64,
    stall_p99_ns: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.sync_s / self.pipelined_s
    }

    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("platform".into(), Value::Str("paragon".into())),
            ("nprocs".into(), Value::Int(self.nprocs as i64)),
            ("n_segments".into(), Value::Int(self.n_segments as i64)),
            ("iterations".into(), Value::Int(self.iterations as i64)),
            ("depth".into(), Value::Int(self.depth as i64)),
            ("compute_ns".into(), Value::Int(self.compute_ns as i64)),
            ("sync_s".into(), Value::Num(self.sync_s)),
            ("pipelined_s".into(), Value::Num(self.pipelined_s)),
            ("speedup".into(), Value::Num(self.speedup())),
            (
                "overlap_efficiency".into(),
                Value::Num(self.overlap_efficiency),
            ),
            ("stall_p50_ns".into(), Value::Int(self.stall_p50_ns as i64)),
            ("stall_p99_ns".into(), Value::Int(self.stall_p99_ns as i64)),
        ])
    }
}

fn run_config(nprocs: usize, n_segments: usize, iterations: usize) -> Row {
    let mut spec = OverlapSpec::paragon(nprocs, n_segments, iterations);
    spec.compute = calibrate_compute(spec).expect("calibration");
    let sync_s = run_checkpoint(spec).expect("synchronous run");
    spec.pipelined = true;
    let (pipelined_s, trace) = run_checkpoint_traced(spec).expect("pipelined run");
    // Distribution of how long ranks actually blocked waiting for async
    // write-behind to retire — the tail is what the speedup hides.
    let mut stalls = Percentiles::new();
    stalls.extend(trace.events.iter().filter_map(|e| match e.kind {
        EventKind::AsyncComplete { stall_ns, .. } => Some(stall_ns),
        _ => None,
    }));
    Row {
        nprocs,
        n_segments,
        iterations,
        depth: spec.depth,
        compute_ns: spec.compute.as_nanos(),
        sync_s,
        pipelined_s,
        overlap_efficiency: trace.op_counts().overlap_efficiency(),
        stall_p50_ns: stalls.p50().unwrap_or(0),
        stall_p99_ns: stalls.p99().unwrap_or(0),
    }
}

fn main() {
    let cli = Cli::parse("BENCH_pipeline.json");

    // (nprocs, segments, iterations): paper-scale checkpoint loops on the
    // Paragon preset; cli.smoke keeps CI fast.
    let configs: &[(usize, usize, usize)] = if cli.smoke {
        &[(2, 64, 6)]
    } else {
        &[(4, 256, 8), (4, 1000, 8), (8, 1000, 8)]
    };

    println!("SCF checkpoint loop, Intel Paragon preset, simulated seconds:\n");
    println!(
        "{:<8}{:>10}{:>8}{:>12}{:>12}{:>10}{:>10}{:>12}{:>12}",
        "procs",
        "segments",
        "iters",
        "sync",
        "pipelined",
        "speedup",
        "overlap",
        "stall p50",
        "stall p99"
    );
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for &(nprocs, n_segments, iterations) in configs {
        let row = run_config(nprocs, n_segments, iterations);
        println!(
            "{:<8}{:>10}{:>8}{:>12.3}{:>12.3}{:>9.2}x{:>9.1}%{:>10.1}us{:>10.1}us",
            row.nprocs,
            row.n_segments,
            row.iterations,
            row.sync_s,
            row.pipelined_s,
            row.speedup(),
            100.0 * row.overlap_efficiency,
            row.stall_p50_ns as f64 / 1e3,
            row.stall_p99_ns as f64 / 1e3
        );
        if row.speedup() < SPEEDUP_FLOOR {
            violations.push(format!(
                "paragon np={nprocs} segs={n_segments}: speedup {:.2} < {SPEEDUP_FLOOR}",
                row.speedup()
            ));
        }
        rows.push(row);
    }

    cli.finish(
        "scf_checkpoint_overlap",
        vec![
            ("speedup_floor".into(), Value::Num(SPEEDUP_FLOOR)),
            (
                "results".into(),
                Value::Arr(rows.iter().map(Row::to_json).collect()),
            ),
        ],
        &violations,
        &format!("overlap claim holds: every configuration >= {SPEEDUP_FLOOR}x"),
    );
}
