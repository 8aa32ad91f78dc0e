//! Benchmark the multi-tenant stream service under load: ~1000+
//! concurrent sessions of synthetic Zipf-skewed traffic on the Paragon
//! preset, reported as per-class p50/p99 completion latency. Three
//! claims are enforced:
//!
//! * **isolation floor** — re-running the same baseline schedule merged
//!   with a hostile best-effort tenant's flood may not degrade the
//!   premium class's p99 latency beyond 2x the flood-free run;
//! * **byte identity** — once a tenant has a successfully sealed
//!   generation, every later read it completes (cached or not) must
//!   return the exact generation contents (`ok` in the outcome ledger);
//! * **shed, never hang** — the hostile run finishes with zero aborted
//!   requests and visibly sheds flood traffic instead of wedging.
//!
//! Usage:
//!   service [--smoke] [--out PATH]
//!
//! Writes machine-readable results (default `BENCH_service.json`) and
//! exits nonzero if a claim is violated. Set `DSTREAMS_TRACE_OUT=<prefix>`
//! to dump `<prefix>-baseline.dstrace.json` and
//! `<prefix>-hostile.dstrace.json` for `dsverify`.

use dstreams_bench::percentile::Percentiles;
use dstreams_bench::Cli;
use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{Backend, DiskModel, Pfs};
use dstreams_serve::{
    generate, peak_concurrency, run_service, Arrival, Disposition, OpMix, QosLevel, ServeOp,
    ServiceConfig, ServiceReport, TenantProfile, TrafficSpec,
};
use dstreams_trace::json::Value;
use dstreams_trace::TraceSink;

/// Seed for the whole bench; the schedule, not the clock, is random.
const SEED: u64 = 0x5E59_102E;

/// The hostile tenant's id (best-effort class, not in the baseline set).
const HOSTILE_TENANT: u32 = 66;

/// Ceiling on hostile-run premium p99 over the baseline premium p99.
const ISOLATION_CEILING: f64 = 2.0;

struct Shape {
    nprocs: usize,
    sessions: usize,
    ops_per_session: usize,
    elements: usize,
    flood_sessions: usize,
    flood_ops: usize,
    concurrency_floor: usize,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            nprocs: 2,
            sessions: 120,
            ops_per_session: 3,
            elements: 8,
            flood_sessions: 40,
            flood_ops: 10,
            concurrency_floor: 100,
        }
    } else {
        Shape {
            nprocs: 4,
            sessions: 1024,
            ops_per_session: 4,
            elements: 16,
            flood_sessions: 200,
            flood_ops: 20,
            concurrency_floor: 1000,
        }
    }
}

fn baseline_tenants(elements: usize) -> Vec<TenantProfile> {
    vec![
        TenantProfile {
            tenant: 1,
            class: QosLevel::Premium,
            elements,
        },
        TenantProfile {
            tenant: 2,
            class: QosLevel::Standard,
            elements,
        },
        TenantProfile {
            tenant: 3,
            class: QosLevel::BestEffort,
            elements,
        },
    ]
}

/// The steady workload: sessions start nearly together (tiny start gap)
/// and live for milliseconds (large op gap), so almost all of them are
/// concurrently open.
fn baseline_schedule(s: &Shape, tenants: &[TenantProfile]) -> Vec<Arrival> {
    generate(
        &TrafficSpec {
            seed: SEED,
            sessions: s.sessions,
            ops_per_session: s.ops_per_session,
            mean_session_gap_ns: 200,
            mean_interarrival_ns: 2_000_000,
            zipf_s: 0.6,
            mix: OpMix::read_mostly(),
        },
        tenants,
    )
}

/// The hostile tenant hammers the service: many short sessions with
/// near-zero gaps, all in the thick of the baseline's working window.
fn flood_schedule(s: &Shape, hostile: TenantProfile) -> Vec<Arrival> {
    generate(
        &TrafficSpec {
            seed: SEED ^ 0xF100D,
            sessions: s.flood_sessions,
            ops_per_session: s.flood_ops,
            mean_session_gap_ns: 50,
            mean_interarrival_ns: 1_000,
            zipf_s: 0.0,
            mix: OpMix {
                write: 1,
                read: 3,
                recover: 0,
            },
        },
        &[hostile],
    )
}

/// Interleave two schedules into one: session ids from `extra` are
/// offset past `base`'s, the union is stably sorted by arrival time
/// (ties keep base-before-extra order, deterministically), and request
/// ids are reassigned in schedule order.
fn merge(base: &[Arrival], extra: &[Arrival]) -> Vec<Arrival> {
    let offset = base.iter().map(|a| a.session + 1).max().unwrap_or(0);
    let mut all: Vec<Arrival> = base.to_vec();
    all.extend(extra.iter().map(|a| Arrival {
        session: a.session + offset,
        ..*a
    }));
    all.sort_by_key(|a| a.at_ns);
    for (i, a) in all.iter_mut().enumerate() {
        a.request_id = i as u64;
    }
    all
}

/// Run one full service simulation and return rank 0's report (the
/// loop's report is identical on every rank).
fn run(s: &Shape, tenants: &[TenantProfile], arrivals: &[Arrival], label: &str) -> ServiceReport {
    let nprocs = s.nprocs;
    let pfs = Pfs::new(nprocs, DiskModel::paragon_pfs(), Backend::Memory);
    let trace_prefix = std::env::var("DSTREAMS_TRACE_OUT").ok();
    let sink = trace_prefix.as_ref().map(|_| TraceSink::new(nprocs));
    let mut config = MachineConfig::paragon(nprocs);
    if let Some(sk) = &sink {
        config = config.traced(sk.clone());
    }
    let cfg = ServiceConfig::for_model(pfs.model());
    let mut reports = Machine::run(config, |ctx| {
        run_service(ctx, &pfs, &cfg, tenants, arrivals).expect("service loop")
    })
    .expect("service bench run");
    if let (Some(prefix), Some(sk)) = (trace_prefix, sink) {
        let path = format!("{prefix}-{label}.dstrace.json");
        std::fs::write(&path, sk.take().to_events_json()).expect("write trace");
        eprintln!("trace: {path}");
    }
    reports.swap_remove(0)
}

struct ClassRow {
    class: QosLevel,
    served: usize,
    shed: u64,
    p50_ns: u64,
    p99_ns: u64,
}

fn class_rows(report: &ServiceReport) -> Vec<ClassRow> {
    [QosLevel::Premium, QosLevel::Standard, QosLevel::BestEffort]
        .into_iter()
        .map(|class| {
            let mut p = Percentiles::new();
            p.extend(report.latencies_ns(class));
            ClassRow {
                class,
                served: p.len(),
                shed: report.shed_of(class),
                p50_ns: p.p50().unwrap_or(0),
                p99_ns: p.p99().unwrap_or(0),
            }
        })
        .collect()
}

fn class_name(class: QosLevel) -> &'static str {
    match class {
        QosLevel::Premium => "premium",
        QosLevel::Standard => "standard",
        QosLevel::BestEffort => "best_effort",
    }
}

/// The byte-identity ledger check: once a tenant's first successful
/// write completes, every later read that tenant *completes* must carry
/// `ok = true` — the service verified its payload against the sealed
/// generation's deterministic contents. Returns the violating request
/// ids.
fn reads_violating_byte_identity(report: &ServiceReport) -> Vec<u64> {
    use std::collections::BTreeSet;
    let mut sealed: BTreeSet<u32> = BTreeSet::new();
    let mut bad = Vec::new();
    for o in &report.outcomes {
        match (o.op, o.disposition) {
            (ServeOp::Write, Disposition::Done { ok: true, .. }) => {
                sealed.insert(o.tenant);
            }
            (ServeOp::Read, Disposition::Done { ok, .. }) => {
                let stale = !ok && sealed.contains(&o.tenant);
                if stale {
                    bad.push(o.request_id);
                }
            }
            _ => {}
        }
    }
    bad
}

fn run_json(label: &str, report: &ServiceReport, rows: &[ClassRow], concurrency: usize) -> Value {
    let classes = rows
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("class".into(), Value::Str(class_name(r.class).into())),
                ("served".into(), Value::Int(r.served as i64)),
                ("shed".into(), Value::Int(r.shed as i64)),
                ("p50_ns".into(), Value::Int(r.p50_ns as i64)),
                ("p99_ns".into(), Value::Int(r.p99_ns as i64)),
            ])
        })
        .collect();
    let total_lookups = report.cache.hits + report.cache.misses;
    let hit_rate = if total_lookups == 0 {
        0.0
    } else {
        report.cache.hits as f64 / total_lookups as f64
    };
    Value::Obj(vec![
        ("run".into(), Value::Str(label.into())),
        ("classes".into(), Value::Arr(classes)),
        ("served".into(), Value::Int(report.served as i64)),
        ("shed".into(), Value::Int(report.shed as i64)),
        ("failed".into(), Value::Int(report.failed as i64)),
        ("aborted".into(), Value::Int(report.aborted as i64)),
        (
            "peak_queue_depth".into(),
            Value::Int(report.peak_queue_depth as i64),
        ),
        ("peak_concurrency".into(), Value::Int(concurrency as i64)),
        ("cache_hits".into(), Value::Int(report.cache.hits as i64)),
        (
            "cache_misses".into(),
            Value::Int(report.cache.misses as i64),
        ),
        (
            "cache_evictions".into(),
            Value::Int(report.cache.evictions as i64),
        ),
        (
            "cache_invalidations".into(),
            Value::Int(report.cache.invalidations as i64),
        ),
        ("cache_hit_rate".into(), Value::Num(hit_rate)),
        ("vtime_s".into(), Value::Num(report.end_ns as f64 / 1e9)),
    ])
}

fn print_rows(label: &str, rows: &[ClassRow]) {
    println!("{label}:");
    println!(
        "  {:<12}{:>8}{:>8}{:>14}{:>14}",
        "class", "served", "shed", "p50 us", "p99 us"
    );
    for r in rows {
        println!(
            "  {:<12}{:>8}{:>8}{:>14.1}{:>14.1}",
            class_name(r.class),
            r.served,
            r.shed,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3
        );
    }
}

fn main() {
    let cli = Cli::parse("BENCH_service.json");

    let s = shape(cli.smoke);
    let tenants = baseline_tenants(s.elements);
    let hostile = TenantProfile {
        tenant: HOSTILE_TENANT,
        class: QosLevel::BestEffort,
        elements: s.elements,
    };
    let mut hostile_tenants = tenants.clone();
    hostile_tenants.push(hostile);

    let base_arrivals = baseline_schedule(&s, &tenants);
    let hostile_arrivals = merge(&base_arrivals, &flood_schedule(&s, hostile));
    let base_concurrency = peak_concurrency(&base_arrivals);
    let hostile_concurrency = peak_concurrency(&hostile_arrivals);

    println!(
        "Multi-tenant stream service, Intel Paragon preset ({} ranks, {} sessions x {} ops, \
         {} peak concurrent sessions):\n",
        s.nprocs, s.sessions, s.ops_per_session, base_concurrency
    );

    let mut violations = Vec::new();
    if base_concurrency < s.concurrency_floor {
        violations.push(format!(
            "baseline schedule peaks at {} concurrent sessions, below the {} floor",
            base_concurrency, s.concurrency_floor
        ));
    }

    let base_report = run(&s, &tenants, &base_arrivals, "baseline");
    let base_rows = class_rows(&base_report);
    print_rows("baseline (no hostile tenant)", &base_rows);

    let hostile_report = run(&s, &hostile_tenants, &hostile_arrivals, "hostile");
    let hostile_rows = class_rows(&hostile_report);
    println!();
    print_rows(
        &format!(
            "hostile (+ best-effort tenant {HOSTILE_TENANT} flooding {} x {} ops)",
            s.flood_sessions, s.flood_ops
        ),
        &hostile_rows,
    );

    let base_p99 = base_rows[0].p99_ns.max(1);
    let hostile_p99 = hostile_rows[0].p99_ns;
    let isolation = hostile_p99 as f64 / base_p99 as f64;
    println!(
        "\npremium p99: baseline {:.1} us, hostile {:.1} us -> x{:.2} (ceiling x{:.1})",
        base_p99 as f64 / 1e3,
        hostile_p99 as f64 / 1e3,
        isolation,
        ISOLATION_CEILING
    );

    if base_rows[0].served == 0 {
        violations.push("baseline served no premium requests — the claim is vacuous".into());
    }
    if isolation > ISOLATION_CEILING {
        violations.push(format!(
            "hostile tenant degraded premium p99 by x{isolation:.2}, past the x{ISOLATION_CEILING} \
             isolation ceiling"
        ));
    }
    for (label, report) in [("baseline", &base_report), ("hostile", &hostile_report)] {
        if report.aborted != 0 {
            violations.push(format!(
                "{label} run aborted {} requests on a fault-free machine",
                report.aborted
            ));
        }
        let bad = reads_violating_byte_identity(report);
        if !bad.is_empty() {
            violations.push(format!(
                "{label} run broke byte identity on {} read(s), e.g. request {}",
                bad.len(),
                bad[0]
            ));
        }
        if report.cache.hits == 0 {
            violations.push(format!(
                "{label} run never hit the working-set cache — the read path is cold"
            ));
        }
    }
    let flood_shed = hostile_report
        .outcomes
        .iter()
        .filter(|o| o.tenant == HOSTILE_TENANT && matches!(o.disposition, Disposition::Shed(_)))
        .count();
    if flood_shed == 0 {
        violations.push("the flood was never shed — admission control did not engage".into());
    }

    cli.finish(
        "service",
        vec![
            ("seed".into(), Value::Int(SEED as i64)),
            ("nprocs".into(), Value::Int(s.nprocs as i64)),
            ("sessions".into(), Value::Int(s.sessions as i64)),
            (
                "concurrency_floor".into(),
                Value::Int(s.concurrency_floor as i64),
            ),
            ("isolation_ceiling".into(), Value::Num(ISOLATION_CEILING)),
            (
                "premium_p99_ratio_hostile_over_baseline".into(),
                Value::Num(isolation),
            ),
            ("flood_requests_shed".into(), Value::Int(flood_shed as i64)),
            (
                "results".into(),
                Value::Arr(vec![
                    run_json("baseline", &base_report, &base_rows, base_concurrency),
                    run_json(
                        "hostile",
                        &hostile_report,
                        &hostile_rows,
                        hostile_concurrency,
                    ),
                ]),
            ),
        ],
        &violations,
        &format!(
            "service claims hold: >= {} concurrent sessions, byte-identical reads, and a \
             hostile tenant cannot push premium p99 past x{:.1}",
            s.concurrency_floor, ISOLATION_CEILING
        ),
    );
}
