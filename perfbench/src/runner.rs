//! One machine run of a workload: set-up, timed iterations and, in the
//! traced run, the replay probes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use dstreams_machine::{Machine, MachineConfig, NodeCtx};
use dstreams_pfs::storage::Backend;
use dstreams_pfs::{ChunkSum, DiskModel, OpenMode, Pfs, StatsSnapshot};
use dstreams_trace::{EventKind, StreamPhase, Trace, TraceSink};

use crate::spans::{Span, Spans, NO_ITER};
use crate::workloads::{RecordShape, Workload, FILE, NPROCS};

const PROBE_FILE: &str = "probe.scratch";
/// Barriers timed by the barrier probe.
const BARRIER_PROBES: usize = 32;

/// Deterministic per-iteration quantities (counts, bytes and virtual
/// nanoseconds), keyed by metric name. They must repeat exactly from one
/// iteration to the next, and agree between traced and untraced runs on
/// every key both have.
pub type Counts = BTreeMap<&'static str, u64>;

/// What rank 0 saw of one iteration.
pub struct Iter {
    /// Warm-up iterations are verified but not timed.
    pub warmup: bool,
    pub ckpt_s: f64,
    pub restart_s: f64,
    /// Restored elements that differ from the generator's, all ranks.
    pub mismatches: u64,
    pub counts: Counts,
}

/// Host times of the replay probes on rank 0, each summed over the
/// records of one checkpoint, plus the plan's counts.
#[derive(Default)]
pub struct Probe {
    pub checksum_s: f64,
    pub write_ordered_s: f64,
    pub read_ordered_s: f64,
    pub plan_s: f64,
    pub all_to_all_s: f64,
    pub gather_s: f64,
    /// Median of single barriers.
    pub barrier_s: f64,
    pub intervals: u64,
    pub lower_bound: u64,
}

/// What one machine run measured: first one rank's view, then, merged,
/// rank 0's with every rank's mismatches and spans.
pub struct RunOut {
    /// From the set-up's start until the first timed operation.
    pub setup_s: f64,
    /// Rank 0's `Collection::new` time.
    pub build_s: f64,
    pub iters: Vec<Iter>,
    pub probe: Option<Probe>,
    /// Every rank's spans, rank by rank, parents indexing this list
    /// (empty unless traced).
    pub spans: Vec<Span>,
}

/// How to run the machine.
pub struct Mode {
    /// Attach a trace sink, record spans and run the replay probes.
    pub traced: bool,
    /// After [`WARMUP`] untimed iterations, iterate until this much host
    /// time has passed (and at least `min_iters` times); `None` stops
    /// after set-up.
    pub budget: Option<Duration>,
    pub min_iters: usize,
}

/// Untimed iterations before each timed loop: the first checkpoints of a
/// process run slower while the allocator's heap grows.
const WARMUP: usize = 2;

/// Out-of-band rendezvous of the rank threads. It sends no machine
/// message, so virtual time and the trace are untouched; the benchmark
/// uses it to sample the shared trace sink and PFS counters while no
/// rank is inside the library. A rank that leaves early aborts it, so
/// its peers fail instead of waiting forever.
struct HostSync {
    state: Mutex<SyncState>,
    cv: Condvar,
}

#[derive(Default)]
struct SyncState {
    arrived: usize,
    generation: u64,
    aborted: bool,
    stop: bool,
}

impl HostSync {
    fn new() -> HostSync {
        HostSync {
            state: Mutex::new(SyncState::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SyncState> {
        self.state
            .lock()
            .expect("a rank panicked while synchronizing")
    }

    fn wait(&self) -> Result<(), String> {
        let mut s = self.lock();
        let gen = s.generation;
        s.arrived += 1;
        if s.arrived == NPROCS {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
        }
        while s.generation == gen && !s.aborted {
            s = self
                .cv
                .wait(s)
                .expect("a rank panicked while synchronizing");
        }
        match s.generation == gen {
            true => Err("a peer rank failed".into()),
            false => Ok(()),
        }
    }

    fn abort(&self) {
        self.lock().aborted = true;
        self.cv.notify_all();
    }

    fn set_stop(&self, stop: bool) {
        self.lock().stop = stop;
    }

    fn stop(&self) -> bool {
        self.lock().stop
    }
}

/// Aborts the rendezvous when a rank's closure returns, by any path.
/// Every rank's last rendezvous precedes its return, so this only
/// releases peers of a rank that failed.
struct AbortOnExit<'a>(&'a HostSync);

impl Drop for AbortOnExit<'_> {
    fn drop(&mut self) {
        self.0.abort();
    }
}

/// Run `w` on a fresh 2-rank Paragon machine over a fresh in-memory
/// Paragon PFS. `start` is when this set-up began.
pub fn run<W: Workload>(
    w: &W,
    records: &[RecordShape],
    mode: &Mode,
    start: Instant,
) -> Result<RunOut, String> {
    let pfs = Pfs::new(NPROCS, DiskModel::paragon_pfs(), Backend::Memory);
    let sink = mode.traced.then(|| TraceSink::new(NPROCS));
    let mut cfg = MachineConfig::paragon(NPROCS);
    if let Some(cc) = w.collective() {
        cfg = cfg.with_collective(cc);
    }
    if let Some(s) = &sink {
        cfg = cfg.traced(s.clone());
    }
    let host = HostSync::new();
    let ranks = Machine::run(cfg, |ctx| {
        let _abort = AbortOnExit(&host);
        rank_main(w, records, mode, start, ctx, &pfs, sink.as_ref(), &host)
    })
    .map_err(fail("machine"))?;
    let mut ranks = ranks.into_iter().collect::<Result<Vec<_>, _>>()?;
    // One list for all ranks: shift each rank's parent indices by the
    // spans of the ranks before it.
    let mut spans = Vec::new();
    for r in &mut ranks {
        let base = spans.len();
        spans.extend(r.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    let mut root = ranks.remove(0);
    for peer in &ranks {
        for (it, p) in root.iters.iter_mut().zip(&peer.iters) {
            it.mismatches += p.mismatches;
        }
    }
    Ok(RunOut { spans, ..root })
}

/// Map an error into the benchmark's error string, naming the step.
fn fail<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

#[allow(clippy::too_many_arguments)]
fn rank_main<W: Workload>(
    w: &W,
    records: &[RecordShape],
    mode: &Mode,
    start: Instant,
    ctx: &NodeCtx,
    pfs: &Pfs,
    sink: Option<&TraceSink>,
    host: &HostSync,
) -> Result<RunOut, String> {
    let mut sp = Spans::new(mode.traced, ctx.rank(), start);
    let t = Instant::now();
    let mut st = sp
        .time("collections.build", || w.build(ctx))
        .map_err(fail("build"))?;
    let build_s = t.elapsed().as_secs_f64();
    host.wait()?;
    let setup_s = start.elapsed().as_secs_f64();

    let mut iters = Vec::new();
    if let Some(budget) = mode.budget {
        let mut first = Instant::now();
        loop {
            let warmup = iters.len() < WARMUP;
            sp.set_iter(iters.len() as u32);
            let mut it = iteration(w, ctx, pfs, &mut st, &mut sp, sink, host)?;
            it.warmup = warmup;
            iters.push(it);
            if warmup {
                first = Instant::now();
            }
            let timed = iters.len() - iters.len().min(WARMUP);
            if ctx.is_root() {
                host.set_stop(timed >= mode.min_iters && first.elapsed() >= budget);
            }
            host.wait()?;
            if host.stop() {
                break;
            }
        }
        sp.set_iter(NO_ITER);
    }
    drop(st);
    let probe = match mode.traced {
        true => Some(probes(ctx, pfs, records, &mut sp, host)?),
        false => None,
    };
    host.wait()?;
    if let Some(s) = sink {
        // Probe events are not part of any iteration.
        if ctx.is_root() {
            drop(s.take());
        }
    }
    Ok(RunOut {
        setup_s,
        build_s,
        iters,
        probe,
        spans: sp.into_log(),
    })
}

/// Barrier, run `op` on every rank, barrier: rank 0's host seconds and
/// virtual nanoseconds from barrier to barrier.
fn timed_op(
    ctx: &NodeCtx,
    sp: &mut Spans,
    name: &'static str,
    op: impl FnOnce(&mut Spans) -> Result<(), dstreams_core::StreamError>,
) -> Result<(f64, u64), String> {
    ctx.barrier().map_err(fail(name))?;
    let t = Instant::now();
    let v = ctx.now();
    sp.open(name);
    let r = op(sp).and_then(|()| Ok(sp.time("core.wait", || ctx.barrier())?));
    sp.close();
    r.map_err(fail(name))?;
    Ok((
        t.elapsed().as_secs_f64(),
        ctx.now().saturating_since(v).as_nanos(),
    ))
}

fn iteration<W: Workload>(
    w: &W,
    ctx: &NodeCtx,
    pfs: &Pfs,
    st: &mut W::State,
    sp: &mut Spans,
    sink: Option<&TraceSink>,
    host: &HostSync,
) -> Result<Iter, String> {
    let root = ctx.is_root();
    w.clear(st);
    if root && pfs.exists(FILE) {
        pfs.remove(FILE).map_err(fail("remove"))?;
    }
    host.wait()?;
    let s0 = pfs.stats();

    let (ckpt_s, vckpt) = timed_op(ctx, sp, "ckpt", |sp| w.checkpoint(ctx, pfs, st, sp))?;
    host.wait()?;
    let mut counts = Counts::new();
    let ckpt_trace = match (root, sink) {
        (true, Some(s)) => Some(s.take()),
        _ => None,
    };
    if root {
        let bytes = pfs.file_size(FILE).map_err(fail("file size"))?;
        counts.insert("core.file_bytes", bytes);
    }
    host.wait()?;

    let (restart_s, vrestart) = timed_op(ctx, sp, "restart", |sp| w.restart(ctx, pfs, st, sp))?;
    host.wait()?;
    let s2 = pfs.stats();
    if root {
        counts.insert("vtime.ckpt_ns", vckpt);
        counts.insert("vtime.restart_ns", vrestart);
        add_pfs_counts(&mut counts, &s0, &s2);
        if let (Some(sink), Some(ckpt_trace)) = (sink, ckpt_trace) {
            add_trace_counts(&mut counts, &ckpt_trace);
            add_trace_counts(&mut counts, &sink.take());
        }
    }
    host.wait()?;
    Ok(Iter {
        warmup: false,
        ckpt_s,
        restart_s,
        mismatches: w.mismatches(st),
        counts,
    })
}

fn add_pfs_counts(c: &mut Counts, a: &StatsSnapshot, b: &StatsSnapshot) {
    for (key, v) in [
        ("pfs.collective_ops", b.collective_ops - a.collective_ops),
        (
            "pfs.collective_bytes",
            b.collective_bytes - a.collective_bytes,
        ),
        ("pfs.independent_ops", b.independent_ops - a.independent_ops),
        (
            "pfs.independent_bytes",
            b.independent_bytes - a.independent_bytes,
        ),
    ] {
        c.insert(key, v);
    }
}

/// Fold one operation's trace into the iteration's counts: operation
/// counts over all ranks, and rank 0's virtual time per stream phase.
fn add_trace_counts(c: &mut Counts, trace: &Trace) {
    let oc = trace.op_counts();
    for (key, v) in [
        ("trace.events", trace.len() as u64),
        ("machine.p2p_messages", oc.p2p_messages),
        ("machine.p2p_bytes", oc.p2p_bytes),
        ("machine.collective_messages", oc.collective_messages),
        ("pfs.agg_shuttles", oc.agg_shuttles),
        ("pfs.agg_shuttle_bytes", oc.agg_shuttle_bytes),
        ("pfs.stripes_touched", oc.stripes_touched),
        ("redist.moved_bytes", oc.redist_shuttle_bytes),
    ] {
        *c.entry(key).or_default() += v;
    }
    let phases = [
        (StreamPhase::Pack, "vtime.pack_ns"),
        (StreamPhase::Metadata, "vtime.metadata_ns"),
        (StreamPhase::SizeTable, "vtime.size_table_ns"),
        (StreamPhase::Data, "vtime.data_ns"),
        (StreamPhase::Route, "vtime.route_ns"),
    ];
    let mut open: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (_, key) in phases {
        c.entry(key).or_default();
    }
    for e in trace.events.iter().filter(|e| e.rank == 0) {
        let (phase, begin) = match &e.kind {
            EventKind::PhaseBegin { phase } => (*phase, true),
            EventKind::PhaseEnd { phase } => (*phase, false),
            _ => continue,
        };
        let Some(&(_, key)) = phases.iter().find(|(p, _)| *p == phase) else {
            continue;
        };
        let stack = open.entry(key).or_default();
        if begin {
            stack.push(e.vtime_ns);
        } else if let Some(t0) = stack.pop() {
            *c.entry(key).or_default() += e.vtime_ns - t0;
        }
    }
}

/// Time `f` on this rank inside span `name`, in host seconds.
fn timed<R>(sp: &mut Spans, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = sp.time(name, f);
    (r, t.elapsed().as_secs_f64())
}

/// Replay probes: each layer's public entry point, fed the sizes one
/// checkpoint/restart of this workload used, timed on its own.
fn probes(
    ctx: &NodeCtx,
    pfs: &Pfs,
    records: &[RecordShape],
    sp: &mut Spans,
    host: &HostSync,
) -> Result<Probe, String> {
    let rank = ctx.rank();
    sp.open("probe");
    let mut p = Probe::default();
    let fh = pfs
        .open(ctx.is_root(), PROBE_FILE, OpenMode::Create)
        .map_err(fail("probe open"))?;
    for rec in records {
        let block = vec![0xa5u8; rec.block_bytes(rank)];
        let (sum, dt) = timed(sp, "pfs.checksum", || ChunkSum::of(black_box(&block)));
        black_box(sum);
        p.checksum_s += dt;

        ctx.barrier().map_err(fail("probe barrier"))?;
        let (off, dt) = timed(sp, "pfs.write_ordered", || fh.write_ordered(ctx, &block));
        let off = off.map_err(fail("probe write_ordered"))?;
        p.write_ordered_s += dt;

        ctx.barrier().map_err(fail("probe barrier"))?;
        let (back, dt) = timed(sp, "pfs.read_ordered", || {
            fh.read_ordered(ctx, off, block.len())
        });
        if back.map_err(fail("probe read_ordered"))? != block {
            return Err("probe read_ordered: bytes differ from those written".into());
        }
        p.read_ordered_s += dt;

        let (plan, dt) = timed(sp, "redist.plan", || {
            dstreams_redist::plan_for_layouts(
                NPROCS,
                &rec.writer,
                &rec.reader,
                &rec.sizes,
                &rec.gids,
            )
        });
        let (plan, _) = plan.map_err(fail("probe plan"))?;
        p.plan_s += dt;
        p.intervals += plan
            .messages()
            .iter()
            .map(|t| t.intervals.len() as u64)
            .sum::<u64>();
        p.lower_bound += plan.lower_bound();

        let parts = (0..NPROCS)
            .map(|dst| vec![0u8; plan.pair_bytes(rank, dst) as usize])
            .collect();
        ctx.barrier().map_err(fail("probe barrier"))?;
        let (r, dt) = timed(sp, "machine.all_to_all", || ctx.all_to_all(parts));
        r.map_err(fail("probe all_to_all"))?;
        p.all_to_all_s += dt;

        let table = vec![0u8; rec.writer.local_count(rank) * 8];
        ctx.barrier().map_err(fail("probe barrier"))?;
        let (r, dt) = timed(sp, "machine.gather", || ctx.gather(0, table));
        r.map_err(fail("probe gather"))?;
        p.gather_s += dt;
    }
    let mut barriers = Vec::with_capacity(BARRIER_PROBES);
    for _ in 0..BARRIER_PROBES {
        let (r, dt) = timed(sp, "machine.barrier", || ctx.barrier());
        r.map_err(fail("probe barrier"))?;
        barriers.push(dt);
    }
    p.barrier_s = crate::report::median(&barriers);
    sp.close();
    drop(fh);
    host.wait()?;
    if ctx.is_root() {
        pfs.remove(PROBE_FILE).map_err(fail("probe remove"))?;
    }
    Ok(p)
}
