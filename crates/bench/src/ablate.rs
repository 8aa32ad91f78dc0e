//! `tables ablate`: the ablations behind the paper's design choices, in
//! simulated platform seconds, with the shape claims the docs make about
//! them checked.
//!
//! * metadata gathered to node 0 vs a separate parallel operation (§4.1
//!   write step 1), which places `MetaPolicy::Auto`'s threshold;
//! * `read` vs `unsortedRead`, on the Paragon and on the CM-5 whose data
//!   network is ~8x slower (§3);
//! * four fields interleaved into one `write` vs four separate writes (§3);
//! * the SMP single shared buffer vs per-node buffers (§4);
//! * d/streams vs the Chameleon and Panda fixed-size baselines (§5).
//!
//! Virtual time is deterministic, so each point runs once. The real-disk
//! rows ([`realdisk`]) are host-timed and checked against nothing.

use std::time::Instant;

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::{MetaMode, MetaPolicy, OStream, StreamOptions};
use dstreams_fixedio::{chameleon, panda};
use dstreams_machine::{Machine, MachineConfig, NodeCtx, VTime};
use dstreams_pfs::{Backend, DiskModel, Pfs};
use dstreams_scf::methods::{input_dstreams_sorted, input_dstreams_unsorted, output_dstreams};
use dstreams_scf::{out_and_in, IoMethod, Platform, ScfConfig, Segment};
use dstreams_trace::json::Value;

/// One ablation: `(variant, size, slowest rank's virtual time)` points in
/// run order, sizes outer and variants inner.
pub struct Group {
    /// Group name, e.g. `ablation_metadata_gather_vs_parallel`.
    pub name: String,
    /// The measured points.
    pub points: Vec<(&'static str, usize, VTime)>,
}

impl Group {
    /// Run `run(n, variant)` for every size and variant.
    fn sweep<V: Copy>(
        name: String,
        sizes: &[usize],
        variants: &[(&'static str, V)],
        run: impl Fn(usize, V) -> VTime,
    ) -> Self {
        let points = sizes
            .iter()
            .flat_map(|&n| variants.iter().map(move |&(label, v)| (label, n, v)))
            .map(|(label, n, v)| (label, n, run(n, v)))
            .collect();
        Group { name, points }
    }

    /// The virtual time of `label` at size `n`.
    pub fn get(&self, label: &str, n: usize) -> VTime {
        let p = self.points.iter().find(|p| p.0 == label && p.1 == n);
        p.unwrap_or_else(|| panic!("{}: no point {label}/{n}", self.name))
            .2
    }
}

/// Every ablation group, in run order: metadata (Paragon, 4 ranks),
/// `read` vs `unsortedRead` on the Paragon and on the CM-5 (4 ranks),
/// interleave (Paragon, 4 ranks), SMP buffer (SGI Challenge, 8 ranks) and
/// the fixed-size baselines (Paragon, 4 ranks).
pub struct Ablations(pub [Group; 6]);

const META_SIZES: [usize; 6] = [16, 64, 256, 1024, 4096, 16384];
const READ_SIZES: [usize; 2] = [256, 1000];
const INTERLEAVE_SIZES: [usize; 2] = [256, 4096];
const SMP_SIZES: [usize; 3] = [256, 1000, 4000];
const BASELINE_SIZES: [usize; 2] = [256, 1000];

impl Ablations {
    /// Run every group.
    pub fn run() -> Self {
        let read = |platform: Platform, tag: &str| {
            Group::sweep(
                format!("ablation_read_vs_unsortedRead_{tag}"),
                &READ_SIZES,
                &[
                    ("unsortedRead", (false, DistKind::Cyclic)),
                    ("read_same_dist", (true, DistKind::Block)),
                    ("read_changed_dist", (true, DistKind::Cyclic)),
                ],
                |n, (sorted, kind)| read_back(platform, n, sorted, kind),
            )
        };
        Ablations([
            Group::sweep(
                "ablation_metadata_gather_vs_parallel".into(),
                &META_SIZES,
                &[
                    ("gathered", MetaMode::Gathered),
                    ("parallel", MetaMode::Parallel),
                ],
                write_metadata,
            ),
            read(Platform::Paragon, "paragon"),
            read(Platform::Cm5, "cm5"),
            Group::sweep(
                "ablation_interleave_vs_separate_writes".into(),
                &INTERLEAVE_SIZES,
                &[("interleaved_1_write", true), ("separate_4_writes", false)],
                write_fields,
            ),
            Group::sweep(
                "ablation_smp_single_buffer".into(),
                &SMP_SIZES,
                &[("per_node_buffers", false), ("single_shared_buffer", true)],
                write_smp,
            ),
            Group::sweep(
                "baseline_overhead_fixed_data".into(),
                &BASELINE_SIZES,
                &[
                    ("chameleon", Library::Chameleon),
                    ("panda", Library::Panda),
                    ("dstreams", Library::DStreams),
                ],
                out_and_in_fixed,
            ),
        ])
    }

    /// The shape claims the docs make; one message per violated claim.
    pub fn violations(&self) -> Vec<String> {
        let MetaPolicy::Auto { small_threshold } = MetaPolicy::default() else {
            unreachable!("the default metadata policy is adaptive");
        };
        let [metadata, read_paragon, read_cm5, interleave, smp, baseline] = &self.0;
        // (group, size, winner, loser, whether a tie counts as a win)
        let mut claims = Vec::new();
        for n in META_SIZES {
            let wins = [("gathered", "parallel"), ("parallel", "gathered")];
            let (win, lose) = wins[usize::from(n >= small_threshold)];
            claims.push((metadata, n, win, lose, false));
        }
        for n in INTERLEAVE_SIZES {
            let (win, lose) = ("interleaved_1_write", "separate_4_writes");
            claims.push((interleave, n, win, lose, false));
        }
        for (g, n) in [read_paragon, read_cm5]
            .map(|g| READ_SIZES.map(|n| (g, n)))
            .concat()
        {
            claims.push((g, n, "unsortedRead", "read_changed_dist", true));
        }
        let (single, per_node) = ("single_shared_buffer", "per_node_buffers");
        claims.push((smp, SMP_SIZES[0], single, per_node, false));
        claims.push((smp, SMP_SIZES[2], per_node, single, false));
        for n in BASELINE_SIZES {
            claims.push((baseline, n, "chameleon", "dstreams", false));
            claims.push((baseline, n, "panda", "dstreams", false));
        }
        let mut out: Vec<String> = claims
            .into_iter()
            .filter(|&(g, n, win, lose, tie)| {
                let (w, l) = (g.get(win, n), g.get(lose, n));
                w > l || (w == l && !tie)
            })
            .map(|(g, n, win, lose, _)| {
                let (w, l) = (secs(g.get(win, n)), secs(g.get(lose, n)));
                format!("{}/{n}: {win} {w} does not beat {lose} {l}", g.name)
            })
            .collect();
        let (b, small, large) = (baseline, BASELINE_SIZES[0], BASELINE_SIZES[1]);
        for base in ["chameleon", "panda"] {
            let ratio = |n| b.get("dstreams", n).as_secs_f64() / b.get(base, n).as_secs_f64();
            let (from, to) = (100.0 * (ratio(small) - 1.0), 100.0 * (ratio(large) - 1.0));
            if to >= from {
                out.push(format!(
                    "{}: d/streams overhead over {base} grows from {from:.1}% at {small} \
                     to {to:.1}% at {large}",
                    b.name
                ));
            }
        }
        out
    }

    /// `{"bench": "ablations", "groups": [...], "realdisk": [...]}`, the
    /// real-disk rows as `(method, mean host seconds)`.
    pub fn to_json(&self, realdisk: &[(IoMethod, f64)]) -> Value {
        let point = |&(label, n, t): &(&str, usize, VTime)| {
            Value::Obj(vec![
                ("label".into(), Value::Str(label.into())),
                ("n".into(), Value::Int(n as i64)),
                ("vtime_ns".into(), Value::Int(t.as_nanos() as i64)),
                ("vtime_s".into(), Value::Num(t.as_secs_f64())),
            ])
        };
        let group = |g: &Group| {
            Value::Obj(vec![
                ("group".into(), Value::Str(g.name.clone())),
                (
                    "results".into(),
                    Value::Arr(g.points.iter().map(point).collect()),
                ),
            ])
        };
        let host = |&(m, s): &(IoMethod, f64)| {
            Value::Obj(vec![
                ("method".into(), Value::Str(m.label().into())),
                ("n_segments".into(), Value::Int(REALDISK_SEGMENTS as i64)),
                ("host_s".into(), Value::Num(s)),
            ])
        };
        Value::Obj(vec![
            ("bench".into(), Value::Str("ablations".into())),
            (
                "groups".into(),
                Value::Arr(self.0.iter().map(group).collect()),
            ),
            (
                "realdisk".into(),
                Value::Arr(realdisk.iter().map(host).collect()),
            ),
        ])
    }
}

/// Virtual seconds to the nanosecond.
pub fn secs(t: VTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:09} s", ns / 1_000_000_000, ns % 1_000_000_000)
}

/// Run `f` on every rank of a fresh machine and return the slowest
/// rank's time.
fn slowest(config: MachineConfig, f: impl Fn(&NodeCtx) -> VTime + Sync) -> VTime {
    let times = Machine::run(config, f).expect("machine run");
    times.into_iter().fold(VTime::ZERO, VTime::max)
}

/// Create a stream with `opts`, run `fill` on it (inserts and writes),
/// close it and wait for every rank; returns the time since `t0`.
fn stream_out(
    ctx: &NodeCtx,
    pfs: &Pfs,
    layout: &Layout,
    t0: VTime,
    opts: StreamOptions,
    fill: impl FnOnce(&mut OStream),
) -> VTime {
    let mut s = OStream::create_with(ctx, pfs, layout, "a", opts).unwrap();
    fill(&mut s);
    s.close().unwrap();
    ctx.barrier().unwrap();
    ctx.now() - t0
}

/// One `write` of `n` small fixed-size elements, where the metadata
/// cost dominates, with the strategy forced to `mode`.
fn write_metadata(n: usize, mode: MetaMode) -> VTime {
    let pfs = Pfs::new(4, DiskModel::paragon_pfs(), Backend::Memory);
    slowest(MachineConfig::paragon(4), |ctx| {
        let layout = Layout::dense(n, 4, DistKind::Block).unwrap();
        let c = Collection::new(ctx, layout.clone(), |g| g as u64).unwrap();
        let opts = StreamOptions {
            meta_policy: MetaPolicy::Force(mode),
            ..Default::default()
        };
        stream_out(ctx, &pfs, &layout, ctx.now(), opts, |s| {
            s.insert_collection(&c).unwrap();
            s.write().unwrap();
        })
    })
}

/// Four aligned fields through one stream, inserted together before one
/// `write` or each followed by its own.
fn write_fields(n: usize, interleaved: bool) -> VTime {
    let pfs = Pfs::new(4, DiskModel::paragon_pfs(), Backend::Memory);
    slowest(MachineConfig::paragon(4), |ctx| {
        let layout = Layout::dense(n, 4, DistKind::Block).unwrap();
        let fields: Vec<Collection<f64>> = (0..4)
            .map(|k| Collection::new(ctx, layout.clone(), |g| (g * k) as f64).unwrap())
            .collect();
        let opts = StreamOptions {
            meta_policy: MetaPolicy::Force(MetaMode::Gathered),
            ..Default::default()
        };
        stream_out(ctx, &pfs, &layout, ctx.now(), opts, |s| {
            for f in &fields {
                s.insert_with(f, |v, ins| ins.prim(*v)).unwrap();
                if !interleaved {
                    s.write().unwrap();
                }
            }
            if interleaved {
                s.write().unwrap();
            }
        })
    })
}

/// One `write` of a SCF grid on the 8-processor SGI Challenge, through
/// the single shared buffer (`smp`) or per-node buffers (same bytes).
fn write_smp(n: usize, smp: bool) -> VTime {
    let pfs = Pfs::new(8, DiskModel::sgi_challenge_fs(), Backend::Memory);
    slowest(MachineConfig::sgi_challenge(8), |ctx| {
        let cfg = ScfConfig::paper(n);
        let layout = Layout::dense(n, 8, DistKind::Block).unwrap();
        let grid = Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g)).unwrap();
        ctx.barrier().unwrap();
        let opts = StreamOptions {
            smp_single_buffer: smp,
            ..Default::default()
        };
        stream_out(ctx, &pfs, &layout, ctx.now(), opts, |s| {
            s.insert_collection(&grid).unwrap();
            s.write().unwrap();
        })
    })
}

/// On 4 ranks, build a BLOCK SCF grid of `n` segments (and, with
/// `written`, write it to `f` untimed) and an empty collection laid out
/// by `read_kind`, then time `io` on them from a synchronized start.
fn scf_io(
    platform: Platform,
    n: usize,
    written: bool,
    read_kind: DistKind,
    io: impl Fn(&NodeCtx, &Pfs, &ScfConfig, &Collection<Segment>, &mut Collection<Segment>) + Sync,
) -> VTime {
    let pfs = Pfs::new(4, platform.disk(), Backend::Memory);
    slowest(platform.machine(4), |ctx| {
        let cfg = ScfConfig::paper(n);
        let layout = Layout::dense(n, 4, DistKind::Block).unwrap();
        let grid = Collection::new(ctx, layout, |g| cfg.make_segment(g)).unwrap();
        if written {
            output_dstreams(ctx, &pfs, &grid, "f", MetaMode::Parallel).unwrap();
        }
        let read_layout = Layout::dense(n, 4, read_kind).unwrap();
        let mut back = Collection::new(ctx, read_layout, |_| Segment::default()).unwrap();
        ctx.barrier().unwrap();
        let t0 = ctx.now();
        io(ctx, &pfs, &cfg, &grid, &mut back);
        ctx.barrier().unwrap();
        ctx.now() - t0
    })
}

/// Read a BLOCK-written SCF file back into `kind` with `read` (`sorted`)
/// or `unsortedRead`.
fn read_back(platform: Platform, n: usize, sorted: bool, kind: DistKind) -> VTime {
    scf_io(platform, n, true, kind, |ctx, pfs, _, _, back| {
        let read = if sorted {
            input_dstreams_sorted
        } else {
            input_dstreams_unsorted
        };
        read(ctx, pfs, back, "f").unwrap();
    })
}

/// The libraries of the baseline ablation.
#[derive(Clone, Copy)]
enum Library {
    Chameleon,
    Panda,
    DStreams,
}

/// Write and read back the same BLOCK array of fixed 5.6 KB segments
/// with one library. The gap between d/streams and the baselines is the
/// cost of its bookkeeping; on variable-sized data the baselines do not
/// run at all (`tests/baseline_comparison.rs`).
fn out_and_in_fixed(n: usize, library: Library) -> VTime {
    let encode = |s: &Segment| dstreams_core::to_bytes(s, false);
    let decode = |s: &mut Segment, b: &[u8]| {
        dstreams_core::from_bytes(s, b, false).expect("fixed-size segment image")
    };
    scf_io(
        Platform::Paragon,
        n,
        false,
        DistKind::Block,
        |ctx, pfs, cfg, grid, back| {
            let elem = Segment::serialized_len_for(cfg.particles_per_segment);
            match library {
                Library::Chameleon => {
                    chameleon::write_block_array(ctx, pfs, "b", grid, elem, encode).unwrap();
                    chameleon::read_block_array(ctx, pfs, "b", back, elem, decode).unwrap();
                }
                Library::Panda => {
                    let field = panda::SchemaField {
                        name: "segment".into(),
                        elem_size: elem,
                    };
                    let schema = panda::Schema {
                        fields: vec![field],
                    };
                    panda::write_array(ctx, pfs, "b", grid, &schema, |_, s| encode(s)).unwrap();
                    panda::read_field(ctx, pfs, "b", back, "segment", decode).unwrap();
                }
                Library::DStreams => {
                    out_and_in(ctx, pfs, IoMethod::DStreams, grid, back, cfg).unwrap()
                }
            }
        },
    )
}

/// Segments written and read back by each real-disk row.
pub const REALDISK_SEGMENTS: usize = 256;

/// Host wall-clock of the three benchmark methods against real files on
/// the host disk (4 ranks, mean of 10 runs): the modern re-run of the
/// paper's comparison, as `(method, mean host seconds per out + in)`.
/// Host time varies run to run, so no claim is checked.
pub fn realdisk() -> Vec<(IoMethod, f64)> {
    const RUNS: u32 = 10;
    let n = REALDISK_SEGMENTS;
    let run = |method: IoMethod| {
        let dir = std::env::temp_dir().join(format!("dstreams-ablate-{}", std::process::id()));
        let pfs = Pfs::new(4, DiskModel::instant(), Backend::Disk(dir.clone()));
        Machine::run(MachineConfig::functional(4), |ctx| {
            let cfg = ScfConfig::paper(n);
            let layout = Layout::dense(n, 4, DistKind::Block).unwrap();
            let grid = Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g)).unwrap();
            let mut back = Collection::new(ctx, layout, |_| Segment::default()).unwrap();
            out_and_in(ctx, &pfs, method, &grid, &mut back, &cfg).unwrap();
        })
        .expect("real-disk run");
        let _ = std::fs::remove_dir_all(&dir);
    };
    let mean = |method| {
        let start = Instant::now();
        (0..RUNS).for_each(|_| run(method));
        (method, start.elapsed().as_secs_f64() / f64::from(RUNS))
    };
    IoMethod::ALL.into_iter().map(mean).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(points: &[(&'static str, usize, u64)]) -> Group {
        Group {
            name: "g".into(),
            points: points
                .iter()
                .map(|&(label, n, ms)| (label, n, VTime::from_millis(ms)))
                .collect(),
        }
    }

    fn set(g: &mut Group, label: &str, n: usize, ms: u64) {
        let p = g.points.iter_mut().find(|p| p.0 == label && p.1 == n);
        p.expect("point").2 = VTime::from_millis(ms);
    }

    /// The documented shape, in round milliseconds.
    fn documented() -> Ablations {
        let mut meta = Vec::new();
        for n in META_SIZES {
            let (g, p) = if n < 8192 { (100, 200) } else { (500, 300) };
            meta.extend([("gathered", n, g), ("parallel", n, p)]);
        }
        let read = || {
            group(&[
                ("unsortedRead", 256, 600),
                ("read_same_dist", 256, 600),
                ("read_changed_dist", 256, 610),
                ("unsortedRead", 1000, 2100),
                ("read_same_dist", 1000, 2100),
                ("read_changed_dist", 1000, 2150),
            ])
        };
        Ablations([
            group(&meta),
            read(),
            read(),
            group(&[
                ("interleaved_1_write", 256, 110),
                ("separate_4_writes", 256, 440),
                ("interleaved_1_write", 4096, 180),
                ("separate_4_writes", 4096, 550),
            ]),
            group(&[
                ("per_node_buffers", 256, 67),
                ("single_shared_buffer", 256, 58),
                ("per_node_buffers", 1000, 151),
                ("single_shared_buffer", 1000, 224),
                ("per_node_buffers", 4000, 490),
                ("single_shared_buffer", 4000, 896),
            ]),
            group(&[
                ("chameleon", 256, 2166),
                ("panda", 256, 1935),
                ("dstreams", 256, 2916),
                ("chameleon", 1000, 5823),
                ("panda", 1000, 5754),
                ("dstreams", 1000, 6618),
            ]),
        ])
    }

    #[test]
    fn the_documented_shape_holds() {
        assert_eq!(documented().violations(), Vec::<String>::new());
    }

    #[test]
    fn each_broken_claim_is_reported() {
        let broken = |group: usize, label: &str, n: usize, ms: u64| {
            let mut a = documented();
            set(&mut a.0[group], label, n, ms);
            a.violations()
        };
        // Metadata crossover below the threshold, interleave, sorted read,
        // SMP at both ends.
        assert_eq!(broken(0, "parallel", 4096, 90).len(), 1);
        assert_eq!(broken(3, "separate_4_writes", 256, 100).len(), 1);
        assert_eq!(broken(2, "read_changed_dist", 1000, 2000).len(), 1);
        assert_eq!(broken(4, "single_shared_buffer", 256, 70).len(), 1);
        assert_eq!(broken(4, "single_shared_buffer", 4000, 480).len(), 1);
        // Above both baselines, but the overhead over each grows.
        assert_eq!(broken(5, "dstreams", 1000, 9000).len(), 2);
        // Below both baselines at 256, so the overhead over each grows too.
        assert_eq!(broken(5, "dstreams", 256, 1900).len(), 4);
    }

    #[test]
    fn seconds_print_to_the_nanosecond() {
        assert_eq!(secs(VTime::from_nanos(2_148_195_973)), "2.148195973 s");
        assert_eq!(secs(VTime::from_nanos(57_672_452)), "0.057672452 s");
    }
}
