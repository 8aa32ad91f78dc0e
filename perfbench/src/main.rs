//! Host-time checkpoint/restart benchmark for d/streams.
//!
//! ```text
//! perfbench --workload <scf_ckpt|reshape_cyclic|tiny_agg> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced runs. `--trace 1`
//! runs the workload untraced and then traced, and prints the per-layer
//! metrics: self times of spans around each library call, the replay
//! probes, and counts from the PFS counters and the trace. Either way the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is nonzero if any
//! operation failed, any restored element differs from the generator's,
//! or a count or virtual time failed to repeat exactly.

mod report;
mod runner;
mod spans;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{median, spread_note, Metric};
use runner::{Counts, Mode, RunOut};
use workloads::{RecordShape, ReshapeCyclic, ScfCkpt, TinyAgg, Workload};

/// Set-ups per untraced invocation; `setup_s` is their median.
const SETUPS: usize = 5;
/// Minimum timed iterations of the untraced end-to-end run.
const MIN_ITERS: usize = 3;
/// Minimum timed iterations of each half of a traced invocation.
const MIN_TRACE_ITERS: usize = 2;

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => trace = Some(num(&value)? != 0),
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans_out,
    })
}

/// The verdict of one invocation.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "scf_ckpt" => bench(&ScfCkpt::new(args.seed), &args, origin),
        "reshape_cyclic" => bench(&ReshapeCyclic::new(args.seed), &args, origin),
        "tiny_agg" => bench(&TinyAgg::new(args.seed), &args, origin),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let correct = out.errors.is_empty() && out.failed == 0;
    report::print_table(&out.metrics);
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>18.6} {:<8} {} of {} operations failed",
        "failed_frac", failed_frac, "1", out.failed, out.attempted
    );
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!(
        "{}",
        report::json_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn bench<W: Workload>(w: &W, args: &Args, origin: Instant) -> Outcome {
    let records = w.records();
    let payload: u64 = records.iter().map(RecordShape::payload).sum();
    let budget = Duration::from_secs(args.seconds);
    println!(
        "perfbench {} seed {}: {} record(s), {:.2} MiB of payload per checkpoint, {}",
        args.workload,
        args.seed,
        records.len(),
        payload as f64 / MIB,
        if args.trace { "traced" } else { "untraced" },
    );
    let modes: Vec<Mode> = if args.trace {
        let half = budget / 2;
        vec![
            Mode {
                traced: false,
                budget: Some(half),
                min_iters: MIN_TRACE_ITERS,
            },
            Mode {
                traced: true,
                budget: Some(half),
                min_iters: MIN_TRACE_ITERS,
            },
        ]
    } else {
        // The timed run comes first, on the fresh process heap a real
        // restart starts with; the later runs only repeat the set-up.
        (0..SETUPS)
            .map(|k| Mode {
                traced: false,
                budget: (k == 0).then_some(budget),
                min_iters: MIN_ITERS,
            })
            .collect()
    };

    let mut out = Outcome::default();
    let mut runs = Vec::new();
    let mut peak_rss = None;
    for (k, mode) in modes.iter().enumerate() {
        let start = if k == 0 { origin } else { Instant::now() };
        match runner::run(w, &records, mode, start) {
            Ok(run) => {
                runs.push(run);
                // The checkpoint/restart loop's peak, before the set-up
                // repeats add allocator arenas of their own.
                if k == 0 {
                    peak_rss = report::peak_rss_mib();
                }
            }
            Err(e) => {
                // The operation that failed, on top of those completed.
                out.attempted += 1;
                out.failed += 1;
                out.errors.push(e);
                break;
            }
        }
    }
    for it in runs.iter().flat_map(|r| &r.iters) {
        out.attempted += 2;
        if it.mismatches > 0 {
            out.failed += 1;
            out.errors.push(format!(
                "{} restored element(s) differ from the generator's",
                it.mismatches
            ));
        }
    }
    if !out.errors.is_empty() {
        return out;
    }
    if let Err(e) = check_determinism(&runs) {
        out.errors.push(e);
    }
    out.metrics = match args.trace {
        false => end_to_end(&runs, payload, peak_rss),
        true => {
            if let Some(path) = &args.spans_out {
                if let Err(e) = std::fs::write(path, spans::to_json(&runs[1].spans)) {
                    out.errors.push(format!("writing spans to {path}: {e}"));
                }
            }
            per_layer(&runs[0], &runs[1], &records)
        }
    };
    out
}

/// Every count and virtual time must repeat exactly from iteration to
/// iteration, and agree between traced and untraced runs on every key
/// both record (tracing must not change virtual time).
fn check_determinism(runs: &[RunOut]) -> Result<(), String> {
    let mut iters = runs.iter().flat_map(|r| &r.iters);
    let Some(first) = iters.next() else {
        return Ok(());
    };
    let mut reference: Counts = first.counts.clone();
    for (k, it) in iters.enumerate() {
        for (key, v) in &it.counts {
            let want = *reference.entry(key).or_insert(*v);
            if want != *v {
                return Err(format!(
                    "{key} does not repeat: {want} then {v} (iteration {} of the run order)",
                    k + 1
                ));
            }
        }
    }
    Ok(())
}

/// The timed (not warm-up) iterations of a run, with their ids.
fn timed(r: &RunOut) -> impl Iterator<Item = (u32, &runner::Iter)> {
    (0..).zip(&r.iters).filter(|(_, i)| !i.warmup)
}

fn count(it: &runner::Iter, key: &str) -> u64 {
    it.counts.get(key).copied().unwrap_or(0)
}

fn end_to_end(runs: &[RunOut], payload: u64, peak_rss: Option<f64>) -> Vec<Metric> {
    let timed_run = &runs[0];
    let first = &timed_run.iters[0];
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let ckpt: Vec<f64> = timed(timed_run).map(|(_, i)| i.ckpt_s).collect();
    let restart: Vec<f64> = timed(timed_run).map(|(_, i)| i.restart_s).collect();
    let mib = payload as f64 / MIB;
    println!("  samples (s): set-up {setups:?}\n  checkpoint {ckpt:?}\n  restart {restart:?}");
    let per_op = "deterministic per seed; repeats exactly in every iteration";
    vec![
        Metric::new(
            "setup_s",
            median(&setups),
            "s",
            spread_note("set-ups", &setups),
        ),
        Metric::new(
            "ckpt_mib_s",
            mib / median(&ckpt),
            "MiB/s",
            spread_note("checkpoints (s)", &ckpt),
        ),
        Metric::new(
            "restart_mib_s",
            mib / median(&restart),
            "MiB/s",
            spread_note("restarts (s)", &restart),
        ),
        Metric::new(
            "vtime_ckpt_s",
            count(first, "vtime.ckpt_ns") as f64 / 1e9,
            "s",
            per_op,
        ),
        Metric::new(
            "vtime_restart_s",
            count(first, "vtime.restart_ns") as f64 / 1e9,
            "s",
            per_op,
        ),
        Metric::new(
            "file_bytes_per_user_byte",
            count(first, "core.file_bytes") as f64 / payload as f64,
            "B/B",
            format!(
                "{} file bytes over {payload} payload bytes",
                count(first, "core.file_bytes")
            ),
        ),
        Metric::new(
            "peak_rss_mib",
            peak_rss.unwrap_or(f64::NAN),
            "MiB",
            "VmHWM of the process after the timed run",
        ),
    ]
}

/// Span names whose rank-0 self time, summed per iteration, is reported.
const SPAN_METRICS: [(&str, &str); 8] = [
    ("core.create", "core.create_s"),
    ("core.insert", "core.insert_s"),
    ("core.write", "core.write_s"),
    ("core.close", "core.close_s"),
    ("core.open", "core.open_s"),
    ("core.read", "core.read_s"),
    ("core.extract", "core.extract_s"),
    ("core.wait", "core.wait_s"),
];

fn per_layer(untraced: &RunOut, traced: &RunOut, records: &[RecordShape]) -> Vec<Metric> {
    let probe = traced.probe.as_ref().expect("the traced run probes");
    let first = &traced.iters[0];
    let self_ns = spans::self_times(&traced.spans);
    let mut m = Vec::new();

    let builds = [untraced.build_s, traced.build_s];
    m.push(Metric::new(
        "collections.build_s",
        median(&builds),
        "s",
        spread_note("set-ups", &builds),
    ));
    for (span, name) in SPAN_METRICS {
        let per_iter: Vec<f64> = timed(traced)
            .map(|(k, _)| {
                traced
                    .spans
                    .iter()
                    .zip(&self_ns)
                    .filter(|(s, _)| s.rank == 0 && s.iter == k && s.name == span)
                    .map(|(_, ns)| *ns as f64 / 1e9)
                    .sum()
            })
            .collect();
        m.push(Metric::new(
            name,
            median(&per_iter),
            "s",
            spread_note("traced iterations, rank 0 self time", &per_iter),
        ));
    }
    let size_table: u64 = records.iter().map(|r| 8 * r.sizes.len() as u64).sum();
    let counted = |key: &'static str, unit: &'static str| {
        Metric::new(
            key,
            count(first, key) as f64,
            unit,
            "per iteration, all ranks",
        )
    };
    m.push(counted("core.file_bytes", "B"));
    m.push(Metric::new(
        "core.size_table_bytes",
        size_table as f64,
        "B",
        "8 B per element per record",
    ));

    let probed = |name: &'static str, v: f64| Metric::new(name, v, "s", "replay probe, rank 0");
    m.push(probed("pfs.checksum_s", probe.checksum_s));
    m.push(probed("pfs.write_ordered_s", probe.write_ordered_s));
    m.push(probed("pfs.read_ordered_s", probe.read_ordered_s));
    for key in [
        "pfs.collective_ops",
        "pfs.independent_ops",
        "pfs.agg_shuttles",
        "pfs.stripes_touched",
    ] {
        m.push(counted(key, "count"));
    }
    for key in [
        "pfs.collective_bytes",
        "pfs.independent_bytes",
        "pfs.agg_shuttle_bytes",
    ] {
        m.push(counted(key, "B"));
    }

    m.push(probed("redist.plan_s", probe.plan_s));
    m.push(Metric::new(
        "redist.intervals",
        probe.intervals as f64,
        "count",
        "cross-rank intervals of the plan",
    ));
    m.push(counted("redist.moved_bytes", "B"));
    m.push(Metric::new(
        "redist.lower_bound_bytes",
        probe.lower_bound as f64,
        "B",
        "the plan's analytic minimum",
    ));

    m.push(Metric::new(
        "machine.barrier_s",
        probe.barrier_s,
        "s",
        "replay probe, median of single barriers",
    ));
    m.push(probed("machine.all_to_all_s", probe.all_to_all_s));
    m.push(probed("machine.gather_s", probe.gather_s));
    m.push(counted("machine.p2p_messages", "count"));
    m.push(counted("machine.p2p_bytes", "B"));
    m.push(counted("machine.collective_messages", "count"));

    m.push(counted("trace.events", "count"));
    let op_time =
        |r: &RunOut| -> Vec<f64> { timed(r).map(|(_, i)| i.ckpt_s + i.restart_s).collect() };
    let (t_on, t_off) = (op_time(traced), op_time(untraced));
    m.push(Metric::new(
        "trace.overhead_frac",
        median(&t_on) / median(&t_off) - 1.0,
        "1",
        format!(
            "median checkpoint+restart: {:.6} s traced ({} its) vs {:.6} s untraced ({} its)",
            median(&t_on),
            t_on.len(),
            median(&t_off),
            t_off.len()
        ),
    ));

    for (key, name) in [
        ("vtime.pack_ns", "vtime.pack_s"),
        ("vtime.metadata_ns", "vtime.metadata_s"),
        ("vtime.size_table_ns", "vtime.size_table_s"),
        ("vtime.data_ns", "vtime.data_s"),
        ("vtime.route_ns", "vtime.route_s"),
    ] {
        m.push(Metric::new(
            name,
            count(first, key) as f64 / 1e9,
            "s",
            "rank 0, checkpoint + restart, from PhaseBegin/PhaseEnd",
        ));
    }
    m
}
