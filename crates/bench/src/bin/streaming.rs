//! Benchmark the unbounded append stream: producer throughput versus
//! write-behind window depth, producer stall tails, and the cost of a
//! tailing reader consuming sealed segments mid-run.
//!
//! Usage:
//!   streaming [--smoke] [--out PATH]
//!
//! Two quantities per window depth, on the Paragon preset:
//!
//! * **producer time** — virtual time spent inside producer calls
//!   (insert/append/seal) only, so a concurrent tail reader's own polls
//!   do not count against the producer;
//! * **tailing overhead** — the same producer loop re-run with a
//!   [`TailReader`] consuming every sealed segment between seals. The
//!   snapshot-isolation design claims the reader only ever touches
//!   sealed files and the manifest, so the producer barely notices it.
//!
//! Writes machine-readable results (default `BENCH_streaming.json`) and
//! exits nonzero if a tailing reader adds more than 15% producer
//! overhead at any depth >= 4 — the in-situ claim this repo's CI holds
//! the subsystem to.

use dstreams_bench::percentile::Percentiles;
use dstreams_bench::Cli;
use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_machine::{Machine, MachineConfig, NodeCtx, VTime};
use dstreams_pfs::{Backend, DiskModel, Pfs};
use dstreams_trace::json::Value;
use dstreams_trace::{EventKind, TraceSink};
use dstreams_unbounded::{AppendOptions, AppendStream, TailReader};

/// Max producer slowdown a tailing reader may cause at depth >= 4.
const OVERHEAD_FLOOR_PCT: f64 = 15.0;
/// Window depth from which the overhead floor is enforced.
const OVERHEAD_FLOOR_DEPTH: usize = 4;

struct Shape {
    nprocs: usize,
    elements: usize,
    segments: u64,
    records: u64,
    compute: VTime,
    depths: &'static [usize],
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            nprocs: 2,
            elements: 512,
            segments: 3,
            records: 4,
            compute: VTime::from_millis(40),
            depths: &[2, 4],
        }
    } else {
        Shape {
            nprocs: 4,
            elements: 2048,
            segments: 6,
            records: 6,
            compute: VTime::from_millis(40),
            depths: &[1, 2, 4, 8],
        }
    }
}

/// One producer run: `segments` sealed segments of `records` windowed
/// appends each, with `compute` of simulated work between appends.
/// Returns this rank's virtual time spent inside producer calls.
fn produce(
    ctx: &NodeCtx,
    pfs: &Pfs,
    layout: &Layout,
    shape: &Shape,
    depth: usize,
    stream: &str,
    mut after_seal: impl FnMut(&NodeCtx) -> u64,
) -> u64 {
    let opts = AppendOptions {
        window_depth: depth,
        ..Default::default()
    };
    let mut s = AppendStream::create_with(ctx, pfs, layout, stream, opts).unwrap();
    let mut producer_ns = 0u64;
    for seg in 0..shape.segments {
        for rec in 0..shape.records {
            let c = Collection::new(ctx, layout.clone(), move |g| {
                seg * 1_000_000 + rec * 1000 + g as u64
            })
            .unwrap();
            ctx.advance(shape.compute); // the simulation step
            let t0 = ctx.now();
            s.insert_collection(&c).unwrap();
            s.append().unwrap();
            producer_ns += ctx.now().saturating_since(t0).as_nanos();
        }
        let t0 = ctx.now();
        s.seal().unwrap();
        producer_ns += ctx.now().saturating_since(t0).as_nanos();
        after_seal(ctx);
    }
    let t0 = ctx.now();
    s.close().unwrap();
    producer_ns + ctx.now().saturating_since(t0).as_nanos()
}

struct Run {
    /// Max over ranks of per-rank producer time, seconds.
    producer_s: f64,
    /// Payload bytes sealed (rank-0 lane).
    sealed_bytes: u64,
    /// Producer stall distribution (forced window retires).
    stall_p50_ns: u64,
    stall_p99_ns: u64,
    forced_retires: u64,
}

fn run_once(shape: &Shape, depth: usize, tail: bool) -> Run {
    let sink = TraceSink::new(shape.nprocs);
    let pfs = Pfs::new(shape.nprocs, DiskModel::paragon_pfs(), Backend::Memory);
    let per_rank = Machine::run(
        MachineConfig::paragon(shape.nprocs).traced(sink.clone()),
        |ctx| {
            let layout = Layout::dense(shape.elements, ctx.nprocs(), DistKind::Block).unwrap();
            if tail {
                let mut reader = TailReader::attach(ctx, &pfs, &layout, "bench").unwrap();
                let lo = layout.clone();
                let producer_ns = produce(ctx, &pfs, &layout, shape, depth, "bench", |ctx| {
                    // Consume everything sealed so far: the in-situ
                    // analysis pass between simulation steps.
                    let mut consumed = 0u64;
                    while reader
                        .poll(|is, entry| {
                            let mut g = Collection::new(ctx, lo.clone(), |_| 0u64)?;
                            for _ in 0..entry.records {
                                is.read()?;
                                is.extract_collection(&mut g)?;
                            }
                            Ok(())
                        })
                        .unwrap()
                    {
                        consumed += 1;
                    }
                    consumed
                });
                reader.detach().unwrap();
                producer_ns
            } else {
                produce(ctx, &pfs, &layout, shape, depth, "bench", |_| 0)
            }
        },
    )
    .unwrap();

    let trace = sink.take();
    let mut stalls = Percentiles::new();
    stalls.extend(trace.events.iter().filter_map(|e| match e.kind {
        EventKind::AsyncComplete { stall_ns, .. } => Some(stall_ns),
        _ => None,
    }));
    let lane0: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.rank == 0)
        .cloned()
        .collect();
    let counts = dstreams_trace::OpCounts::from_events(&lane0);
    Run {
        producer_s: per_rank.iter().copied().max().unwrap_or(0) as f64 / 1e9,
        sealed_bytes: counts.sealed_bytes,
        stall_p50_ns: stalls.p50().unwrap_or(0),
        stall_p99_ns: stalls.p99().unwrap_or(0),
        forced_retires: stalls.len() as u64,
    }
}

struct Row {
    depth: usize,
    alone_s: f64,
    tailed_s: f64,
    throughput_mib_s: f64,
    overhead_pct: f64,
    stall_p50_ns: u64,
    stall_p99_ns: u64,
    forced_retires: u64,
}

impl Row {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("platform".into(), Value::Str("paragon".into())),
            ("depth".into(), Value::Int(self.depth as i64)),
            ("producer_alone_s".into(), Value::Num(self.alone_s)),
            ("producer_tailed_s".into(), Value::Num(self.tailed_s)),
            ("throughput_mib_s".into(), Value::Num(self.throughput_mib_s)),
            ("tail_overhead_pct".into(), Value::Num(self.overhead_pct)),
            ("stall_p50_ns".into(), Value::Int(self.stall_p50_ns as i64)),
            ("stall_p99_ns".into(), Value::Int(self.stall_p99_ns as i64)),
            (
                "forced_retires".into(),
                Value::Int(self.forced_retires as i64),
            ),
        ])
    }
}

fn main() {
    let cli = Cli::parse("BENCH_streaming.json");
    let sh = shape(cli.smoke);

    println!(
        "Unbounded append stream, Paragon preset, {} ranks, {}x{} records of {} elements:\n",
        sh.nprocs, sh.segments, sh.records, sh.elements
    );
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "depth", "alone", "tailed", "overhead", "MiB/s", "stall p50", "stall p99"
    );
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for &depth in sh.depths {
        let alone = run_once(&sh, depth, false);
        let tailed = run_once(&sh, depth, true);
        let overhead_pct = if alone.producer_s > 0.0 {
            100.0 * (tailed.producer_s / alone.producer_s - 1.0)
        } else {
            0.0
        };
        let row = Row {
            depth,
            alone_s: alone.producer_s,
            tailed_s: tailed.producer_s,
            throughput_mib_s: alone.sealed_bytes as f64 / (1024.0 * 1024.0) / alone.producer_s,
            overhead_pct,
            stall_p50_ns: tailed.stall_p50_ns,
            stall_p99_ns: tailed.stall_p99_ns,
            forced_retires: tailed.forced_retires,
        };
        println!(
            "{:<8}{:>11.4}s{:>11.4}s{:>11.2}%{:>12.1}{:>10.1}us{:>10.1}us",
            row.depth,
            row.alone_s,
            row.tailed_s,
            row.overhead_pct,
            row.throughput_mib_s,
            row.stall_p50_ns as f64 / 1e3,
            row.stall_p99_ns as f64 / 1e3
        );
        if depth >= OVERHEAD_FLOOR_DEPTH && overhead_pct > OVERHEAD_FLOOR_PCT {
            violations.push(format!(
                "depth {depth}: tailing reader adds {overhead_pct:.2}% producer overhead \
                 > {OVERHEAD_FLOOR_PCT}%"
            ));
        }
        rows.push(row);
    }

    cli.finish(
        "streaming_tail_overhead",
        vec![
            ("overhead_floor_pct".into(), Value::Num(OVERHEAD_FLOOR_PCT)),
            (
                "overhead_floor_depth".into(),
                Value::Int(OVERHEAD_FLOOR_DEPTH as i64),
            ),
            (
                "results".into(),
                Value::Arr(rows.iter().map(Row::to_json).collect()),
            ),
        ],
        &violations,
        &format!(
            "in-situ claim holds: tailing overhead <= {OVERHEAD_FLOOR_PCT}% at depth >= \
             {OVERHEAD_FLOOR_DEPTH}"
        ),
    );
}
