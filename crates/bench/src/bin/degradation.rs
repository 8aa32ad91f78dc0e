//! Benchmark graceful degradation on an unreliable transport: the
//! aggregated checkpoint workload on the Paragon preset, swept across
//! message-drop rates, with duplicate / delay / reorder noise held
//! constant. Two claims are enforced:
//!
//! * **zero-fault overhead** — attaching an *inert* message-fault plan
//!   engages the whole reliability stack (sequence stamping, dedup
//!   gate, fate hashing, aggregator-failover settlement rounds) but may
//!   cost at most 10% modeled time over the plan-free baseline;
//! * **bounded degradation** — every swept drop rate completes with
//!   byte-exact data (asserted inside the workload) in bounded virtual
//!   time, and the trace accounts for the recovery work (retransmits
//!   observed whenever messages were actually dropped).
//!
//! Usage:
//!   degradation [--smoke] [--out PATH]
//!
//! Writes machine-readable results (default `BENCH_degradation.json`)
//! and exits nonzero if a claim is violated.

use dstreams_bench::percentile::Percentiles;
use dstreams_bench::Cli;
use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::CheckpointManager;
use dstreams_machine::{CollectiveConfig, FaultPlan, Machine, MachineConfig, MsgFaultPlan};
use dstreams_pfs::{Backend, DiskModel, Pfs};
use dstreams_trace::json::Value;
use dstreams_trace::TraceSink;

/// Ceiling on the inert-plan overhead vs the plan-free baseline.
const OVERHEAD_CEILING: f64 = 0.10;

/// Fate-hash seed for the sweep (fixed: the bench is a claim, not a
/// soak; the CI chaos-soak job owns the seed matrix).
const SEED: u64 = 0xD06F_00D5;

struct Run {
    vtime_s: f64,
    retransmits: u64,
    dup_dropped: u64,
    suspected_peers: u64,
    save_p50_s: f64,
    save_p99_s: f64,
}

/// Multi-generation aggregated checkpoint write; returns the slowest
/// rank's modeled time, the reliability counters from the trace, and the
/// distribution of per-record save durations across all ranks — chaos
/// should widen the tail, not just shift the mean.
fn workload(nprocs: usize, elements: usize, records: u64, msg: Option<MsgFaultPlan>) -> Run {
    let pfs = Pfs::new(nprocs, DiskModel::paragon_pfs(), Backend::Memory);
    let sink = TraceSink::new(nprocs);
    let mut config = MachineConfig::paragon(nprocs)
        .traced(sink.clone())
        .with_collective(CollectiveConfig {
            aggregators: (nprocs / 2).max(1),
            stripe_align: true,
        });
    if let Some(msg) = msg {
        config = config.with_faults(FaultPlan::default().with_msg(msg));
    }
    let per_rank = Machine::run(config, |ctx| {
        let layout = Layout::dense(elements, nprocs, DistKind::Block).unwrap();
        let mgr = CheckpointManager::new("deg", 2);
        let mut g = Collection::new(ctx, layout.clone(), |i| i as u64).unwrap();
        let mut save_ns = Vec::with_capacity(records as usize);
        for step in 1..=records {
            g.apply(|v| *v += 1000);
            let before = ctx.now();
            mgr.save(ctx, &pfs, &g, step).unwrap();
            save_ns.push(ctx.now().as_nanos() - before.as_nanos());
        }
        (ctx.now().as_nanos(), save_ns)
    })
    .expect("degradation workload");
    let vtime_ns = per_rank.iter().map(|(t, _)| *t).max().unwrap();
    let mut saves = Percentiles::new();
    for (_, durations) in &per_rank {
        saves.extend(durations.iter().copied());
    }
    let counts = sink.take().op_counts();
    Run {
        vtime_s: vtime_ns as f64 / 1e9,
        retransmits: counts.retransmits,
        dup_dropped: counts.dup_dropped,
        suspected_peers: counts.suspected_peers,
        save_p50_s: saves.p50().unwrap_or(0) as f64 / 1e9,
        save_p99_s: saves.p99().unwrap_or(0) as f64 / 1e9,
    }
}

fn row_json(label: &str, drop_ppm: u32, run: &Run, overhead: f64) -> Value {
    Value::Obj(vec![
        ("config".into(), Value::Str(label.into())),
        ("drop_ppm".into(), Value::Int(i64::from(drop_ppm))),
        ("vtime_s".into(), Value::Num(run.vtime_s)),
        ("overhead_vs_baseline".into(), Value::Num(overhead)),
        ("retransmits".into(), Value::Int(run.retransmits as i64)),
        ("dup_dropped".into(), Value::Int(run.dup_dropped as i64)),
        (
            "suspected_peers".into(),
            Value::Int(run.suspected_peers as i64),
        ),
        ("save_p50_s".into(), Value::Num(run.save_p50_s)),
        ("save_p99_s".into(), Value::Num(run.save_p99_s)),
    ])
}

fn main() {
    let cli = Cli::parse("BENCH_degradation.json");

    let (nprocs, elements, records) = if cli.smoke {
        (4, 4096, 2)
    } else {
        (8, 32768, 3)
    };
    let drop_rates: &[u32] = if cli.smoke {
        &[50_000, 150_000]
    } else {
        &[10_000, 50_000, 100_000, 150_000, 200_000]
    };

    println!(
        "Graceful degradation, aggregated checkpoint write, Intel Paragon preset \
         ({nprocs} ranks, {elements} elements, {records} records):\n"
    );
    println!(
        "{:<22}{:>10}{:>12}{:>12}{:>12}{:>10}",
        "config", "drop", "vtime s", "retransmit", "dup_drop", "overhead"
    );

    let baseline = workload(nprocs, elements, records, None);
    println!(
        "{:<22}{:>10}{:>12.4}{:>12}{:>12}{:>10}",
        "baseline (no plan)",
        "-",
        baseline.vtime_s,
        baseline.retransmits,
        baseline.dup_dropped,
        "-"
    );

    let zero_fault = workload(nprocs, elements, records, Some(MsgFaultPlan::seeded(SEED)));
    let zero_overhead = zero_fault.vtime_s / baseline.vtime_s - 1.0;
    println!(
        "{:<22}{:>10}{:>12.4}{:>12}{:>12}{:>9.2}%",
        "reliable, zero-fault",
        0,
        zero_fault.vtime_s,
        zero_fault.retransmits,
        zero_fault.dup_dropped,
        zero_overhead * 100.0
    );

    let mut rows = vec![
        row_json("baseline", 0, &baseline, 0.0),
        row_json("reliable-zero-fault", 0, &zero_fault, zero_overhead),
    ];
    let mut violations = Vec::new();
    if zero_overhead > OVERHEAD_CEILING {
        violations.push(format!(
            "zero-fault reliability overhead {:.2}% exceeds the {:.0}% ceiling",
            zero_overhead * 100.0,
            OVERHEAD_CEILING * 100.0
        ));
    }
    if zero_fault.retransmits != 0 || zero_fault.dup_dropped != 0 || zero_fault.suspected_peers != 0
    {
        violations.push("the inert plan fired recovery machinery".into());
    }

    for &drop in drop_rates {
        let msg = MsgFaultPlan::seeded(SEED)
            .drop_ppm(drop)
            .dup_ppm(50_000)
            .delay_ppm(50_000)
            .reorder_ppm(50_000);
        let run = workload(nprocs, elements, records, Some(msg));
        let overhead = run.vtime_s / baseline.vtime_s - 1.0;
        println!(
            "{:<22}{:>9.1}%{:>12.4}{:>12}{:>12}{:>9.2}%",
            "chaos",
            drop as f64 / 10_000.0,
            run.vtime_s,
            run.retransmits,
            run.dup_dropped,
            overhead * 100.0
        );
        if run.retransmits == 0 {
            violations.push(format!(
                "drop rate {drop} ppm produced no retransmits — the sweep is vacuous"
            ));
        }
        rows.push(row_json("chaos", drop, &run, overhead));
    }

    cli.finish(
        "degradation",
        vec![
            ("overhead_ceiling".into(), Value::Num(OVERHEAD_CEILING)),
            ("seed".into(), Value::Int(SEED as i64)),
            ("results".into(), Value::Arr(rows)),
        ],
        &violations,
        &format!(
            "degradation claim holds: zero-fault reliability costs <= {:.0}% and every \
             drop rate completes byte-exact in bounded virtual time",
            OVERHEAD_CEILING * 100.0
        ),
    );
}
