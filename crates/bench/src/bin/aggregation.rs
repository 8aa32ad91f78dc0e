//! Benchmark stripe-aware collective buffering: the same node-order
//! collective write issued directly (one PFS operation per rank) and
//! through aggregator ranks (`CollectiveConfig`), on the Paragon preset.
//! Reports modeled virtual time plus the physical-I/O op counts from the
//! event trace — PFS collective ops, stripes touched, and the shuttle
//! traffic the aggregation layer moved over the message network.
//!
//! Usage:
//!   aggregation [--smoke] [--out PATH]
//!
//! Writes machine-readable results (default `BENCH_aggregation.json`)
//! and exits nonzero unless every configuration's aggregated run beats
//! the direct run by at least 1.5× while touching strictly fewer PFS
//! operations and stripes — the collective-buffering claim this repo's
//! CI holds the subsystem to.

use dstreams_bench::Cli;
use dstreams_machine::{CollectiveConfig, Machine, MachineConfig};
use dstreams_pfs::{Backend, DiskModel, OpenMode, Pfs};
use dstreams_trace::json::Value;
use dstreams_trace::TraceSink;

/// The speedup every configuration must clear.
const SPEEDUP_FLOOR: f64 = 1.5;

/// Collective writes per run: enough for domain bases to move across
/// stripe boundaries, few enough to keep the sweep fast.
const ROUNDS: usize = 4;

struct Run {
    vtime_s: f64,
    collective_ops: u64,
    stripes: u64,
    shuttles: u64,
    shuttle_bytes: u64,
}

fn run_once(nprocs: usize, aggregators: Option<usize>, record_bytes: usize) -> Run {
    let sink = TraceSink::new(nprocs);
    let mut cfg = MachineConfig::paragon(nprocs).traced(sink.clone());
    if let Some(a) = aggregators {
        cfg = cfg.with_collective(CollectiveConfig {
            aggregators: a,
            stripe_align: true,
        });
    }
    let pfs = Pfs::new(nprocs, DiskModel::paragon_pfs(), Backend::Memory);
    let vtime_ns = Machine::run(cfg, |ctx| {
        let fh = pfs
            .open(ctx.is_root(), "agg_bench", OpenMode::Create)
            .unwrap();
        ctx.barrier().unwrap();
        let block: Vec<u8> = (0..record_bytes)
            .map(|i| (i as u8).wrapping_add(ctx.rank() as u8))
            .collect();
        for _ in 0..ROUNDS {
            fh.write_ordered(ctx, &block).unwrap();
        }
        ctx.now().as_nanos()
    })
    .expect("bench run")
    .into_iter()
    .max()
    .unwrap();
    let counts = sink.take().op_counts();
    Run {
        vtime_s: vtime_ns as f64 / 1e9,
        collective_ops: counts.pfs_collective_ops,
        stripes: counts.stripes_touched,
        shuttles: counts.agg_shuttles,
        shuttle_bytes: counts.agg_shuttle_bytes,
    }
}

struct Row {
    nprocs: usize,
    aggregators: usize,
    record_bytes: usize,
    direct: Run,
    aggregated: Run,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.direct.vtime_s / self.aggregated.vtime_s
    }

    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("platform".into(), Value::Str("paragon".into())),
            ("nprocs".into(), Value::Int(self.nprocs as i64)),
            ("aggregators".into(), Value::Int(self.aggregators as i64)),
            ("record_bytes".into(), Value::Int(self.record_bytes as i64)),
            ("rounds".into(), Value::Int(ROUNDS as i64)),
            ("direct_s".into(), Value::Num(self.direct.vtime_s)),
            ("aggregated_s".into(), Value::Num(self.aggregated.vtime_s)),
            ("speedup".into(), Value::Num(self.speedup())),
            (
                "direct_pfs_ops".into(),
                Value::Int(self.direct.collective_ops as i64),
            ),
            (
                "aggregated_pfs_ops".into(),
                Value::Int(self.aggregated.collective_ops as i64),
            ),
            (
                "direct_stripes".into(),
                Value::Int(self.direct.stripes as i64),
            ),
            (
                "aggregated_stripes".into(),
                Value::Int(self.aggregated.stripes as i64),
            ),
            (
                "shuttles".into(),
                Value::Int(self.aggregated.shuttles as i64),
            ),
            (
                "shuttle_bytes".into(),
                Value::Int(self.aggregated.shuttle_bytes as i64),
            ),
        ])
    }
}

fn main() {
    let cli = Cli::parse("BENCH_aggregation.json");

    // (nprocs, aggregators, record bytes): the headline configuration is
    // 64 ranks funneled through 8 aggregators at small records, where
    // per-rank startup dominates the direct path.
    let configs: &[(usize, usize, usize)] = if cli.smoke {
        &[(8, 2, 256)]
    } else {
        &[
            (16, 4, 256),
            (16, 4, 4096),
            (64, 8, 256),
            (64, 8, 4096),
            (64, 16, 1024),
        ]
    };

    println!("Node-order collective write, Intel Paragon preset, simulated seconds:\n");
    println!(
        "{:<8}{:>6}{:>8}{:>11}{:>11}{:>9}{:>11}{:>11}",
        "procs", "aggs", "bytes", "direct", "agg", "speedup", "ops d/a", "stripes d/a"
    );
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for &(nprocs, aggregators, record_bytes) in configs {
        let row = Row {
            nprocs,
            aggregators,
            record_bytes,
            direct: run_once(nprocs, None, record_bytes),
            aggregated: run_once(nprocs, Some(aggregators), record_bytes),
        };
        println!(
            "{:<8}{:>6}{:>8}{:>11.3}{:>11.3}{:>8.2}x{:>8}/{:<4}{:>7}/{:<4}",
            row.nprocs,
            row.aggregators,
            row.record_bytes,
            row.direct.vtime_s,
            row.aggregated.vtime_s,
            row.speedup(),
            row.direct.collective_ops,
            row.aggregated.collective_ops,
            row.direct.stripes,
            row.aggregated.stripes,
        );
        let tag = format!("paragon np={nprocs} aggs={aggregators} rec={record_bytes}");
        if row.speedup() < SPEEDUP_FLOOR {
            violations.push(format!(
                "{tag}: speedup {:.2} < {SPEEDUP_FLOOR}",
                row.speedup()
            ));
        }
        if row.aggregated.collective_ops >= row.direct.collective_ops {
            violations.push(format!(
                "{tag}: {} aggregated PFS ops vs {} direct — not strictly fewer",
                row.aggregated.collective_ops, row.direct.collective_ops
            ));
        }
        if row.aggregated.stripes >= row.direct.stripes {
            violations.push(format!(
                "{tag}: {} aggregated stripes vs {} direct — not strictly fewer",
                row.aggregated.stripes, row.direct.stripes
            ));
        }
        rows.push(row);
    }

    cli.finish(
        "collective_buffering",
        vec![
        ("speedup_floor".into(), Value::Num(SPEEDUP_FLOOR)),
        (
            "results".into(),
            Value::Arr(rows.iter().map(Row::to_json).collect()),
        ),
        ],
        &violations,
        &format!(
            "collective-buffering claim holds: every configuration >= {SPEEDUP_FLOOR}x with strictly fewer ops and stripes"
        ),
    );
}
