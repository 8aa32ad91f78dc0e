//! Throughput smoke for the `dsverify` analyzer: the happens-before
//! engine (vector clocks, interval race detection, HB coherence) plus
//! the ten protocol rules must stay effectively linear in trace length.
//!
//! The guard generates a service-style trace in-process (the same
//! multi-tenant workload the service bench traces for CI), times
//! [`dstreams_verify::analyze`] over the full trace and over its first
//! half, and enforces two claims:
//!
//! * **anti-quadratic** — analyzing the full trace may cost at most
//!   [`QUADRATIC_CEILING`] times the half-trace analysis. A linear
//!   engine doubles (~2x); a quadratic one quadruples (~4x). The
//!   ceiling sits between, with slack for timer noise.
//! * **throughput floor** — the full analysis must sustain at least
//!   [`FLOOR_EVENTS_PER_SEC`] events/second. The floor is deliberately
//!   lenient (release builds sustain far more); it exists to catch an
//!   accidental order-of-magnitude regression, not to benchmark.
//!
//! Usage:
//!   verify_throughput [--smoke] [--out PATH]
//!
//! Writes machine-readable results (default `BENCH_dsverify.json`) and
//! exits nonzero if a claim is violated.

use std::time::Instant;

use dstreams_bench::Cli;
use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{Backend, DiskModel, Pfs};
use dstreams_serve::{
    generate, run_service, OpMix, QosLevel, ServiceConfig, TenantProfile, TrafficSpec,
};
use dstreams_trace::json::Value;
use dstreams_trace::{Trace, TraceSink};
use dstreams_verify::analyze;

/// Seed for the workload schedule; the trace is deterministic.
const SEED: u64 = 0xD5_7EAD;

/// Full-trace analysis may cost at most this multiple of the
/// half-trace analysis (linear ~2x, quadratic ~4x).
const QUADRATIC_CEILING: f64 = 3.0;

/// Minimum sustained full-trace analysis rate, events per second.
const FLOOR_EVENTS_PER_SEC: f64 = 50_000.0;

/// Timing repetitions; the best (least-interfered) run is kept.
const REPS: usize = 3;

/// Generate the service-style trace the analyzer is timed against.
fn service_trace(smoke: bool) -> Trace {
    let nprocs = 4;
    let sessions = if smoke { 160 } else { 640 };
    let tenants: Vec<TenantProfile> = [
        (1, QosLevel::Premium),
        (2, QosLevel::Standard),
        (3, QosLevel::BestEffort),
    ]
    .into_iter()
    .map(|(tenant, class)| TenantProfile {
        tenant,
        class,
        elements: 8,
    })
    .collect();
    let arrivals = generate(
        &TrafficSpec {
            seed: SEED,
            sessions,
            ops_per_session: 4,
            mean_session_gap_ns: 200,
            mean_interarrival_ns: 2_000_000,
            zipf_s: 0.6,
            mix: OpMix::read_mostly(),
        },
        &tenants,
    );
    let pfs = Pfs::new(nprocs, DiskModel::paragon_pfs(), Backend::Memory);
    let cfg = ServiceConfig::for_model(pfs.model());
    let sink = TraceSink::new(nprocs);
    let config = MachineConfig::paragon(nprocs).traced(sink.clone());
    Machine::run(config, |ctx| {
        run_service(ctx, &pfs, &cfg, &tenants, &arrivals).expect("service loop")
    })
    .expect("service run");
    sink.take()
}

/// The first `n` events of a trace, as a standalone trace. Orphaned
/// receives and partial collective rounds at the cut are legal inputs
/// to the analyzer; only the wall-clock cost matters here.
fn prefix(trace: &Trace, n: usize) -> Trace {
    Trace {
        nprocs: trace.nprocs,
        events: trace.events[..n].to_vec(),
    }
}

/// Best-of-[`REPS`] wall-clock seconds to analyze `trace`.
fn time_analyze(trace: &Trace) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        let report = analyze(trace);
        let dt = start.elapsed().as_secs_f64();
        // Keep the report observable so the work cannot be elided.
        assert!(report.hazards.len() < usize::MAX);
        best = best.min(dt);
    }
    best
}

fn main() {
    let cli = Cli::parse("BENCH_dsverify.json");

    let trace = service_trace(cli.smoke);
    let total = trace.events.len();
    let half = prefix(&trace, total / 2);

    let t_half = time_analyze(&half);
    let t_full = time_analyze(&trace);
    let ratio = t_full / t_half.max(1e-9);
    let events_per_sec = total as f64 / t_full.max(1e-9);

    println!(
        "dsverify throughput: {total} events analyzed in {:.1} ms \
         ({:.0}k events/s); half-trace {:.1} ms -> full/half x{ratio:.2}",
        t_full * 1e3,
        events_per_sec / 1e3,
        t_half * 1e3,
    );

    let mut violations = Vec::new();
    if total < 1_000 {
        violations.push(format!(
            "workload produced only {total} events — the timing is vacuous"
        ));
    }
    if ratio > QUADRATIC_CEILING {
        violations.push(format!(
            "full/half analysis cost x{ratio:.2} exceeds the x{QUADRATIC_CEILING} \
             anti-quadratic ceiling — the HB engine is superlinear"
        ));
    }
    if events_per_sec < FLOOR_EVENTS_PER_SEC {
        violations.push(format!(
            "analysis sustained {events_per_sec:.0} events/s, below the \
             {FLOOR_EVENTS_PER_SEC:.0} floor"
        ));
    }

    cli.finish(
        "dsverify_throughput",
        vec![
            ("events".into(), Value::Int(total as i64)),
            ("nprocs".into(), Value::Int(trace.nprocs as i64)),
            ("full_ms".into(), Value::Num(t_full * 1e3)),
            ("half_ms".into(), Value::Num(t_half * 1e3)),
            ("full_over_half".into(), Value::Num(ratio)),
            ("events_per_sec".into(), Value::Num(events_per_sec)),
            ("quadratic_ceiling".into(), Value::Num(QUADRATIC_CEILING)),
            (
                "floor_events_per_sec".into(),
                Value::Num(FLOOR_EVENTS_PER_SEC),
            ),
        ],
        &violations,
        &format!(
            "dsverify throughput claims hold: sub-quadratic scaling and >= \
             {FLOOR_EVENTS_PER_SEC:.0} events/s"
        ),
    );
}
