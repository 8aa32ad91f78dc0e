//! The three checkpoint/restart workloads.
//!
//! Every workload runs on a 2-rank Paragon machine over an in-memory
//! PFS. Its inputs come from a seeded generator; the library only ever
//! sees the generated collections. One iteration is one checkpoint
//! (`OStream` create → inserts → write(s) → close) followed by one
//! restart (`IStream` open → read(s) → extracts → close).

use std::ops::Range;

use dstreams_collections::{Collection, CollectionError, DistKind, Layout};
use dstreams_core::{IStream, MetaMode, MetaPolicy, OStream, StreamError, StreamOptions};
use dstreams_machine::{CollectiveConfig, NodeCtx};
use dstreams_pfs::Pfs;
use dstreams_scf::{ScfConfig, Segment};

use crate::spans::Spans;

/// Ranks of every workload's machine.
pub const NPROCS: usize = 2;
/// Name of the checkpoint file on the PFS.
pub const FILE: &str = "ckpt";

/// One write record as the file holds it: the writer's and the reader's
/// layouts plus every element's serialized size and global id, in file
/// order. This is exactly what the restart's planner is fed, so the
/// replay probes can be fed the same.
pub struct RecordShape {
    pub writer: Layout,
    pub reader: Layout,
    pub sizes: Vec<u64>,
    pub gids: Vec<usize>,
}

impl RecordShape {
    fn new(writer: Layout, reader: Layout, size_of: impl Fn(usize) -> u64) -> RecordShape {
        let gids: Vec<usize> = (0..NPROCS).flat_map(|w| writer.local_elements(w)).collect();
        let sizes = gids.iter().map(|&g| size_of(g)).collect();
        RecordShape {
            writer,
            reader,
            sizes,
            gids,
        }
    }

    /// Serialized element bytes of the whole record.
    pub fn payload(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// File-order range of the elements `rank` wrote.
    pub fn block(&self, rank: usize) -> Range<usize> {
        let lo: usize = (0..rank).map(|w| self.writer.local_count(w)).sum();
        lo..lo + self.writer.local_count(rank)
    }

    /// Bytes of the data block `rank` wrote.
    pub fn block_bytes(&self, rank: usize) -> usize {
        self.sizes[self.block(rank)].iter().sum::<u64>() as usize
    }
}

/// A checkpoint/restart workload. `State` is one rank's collections:
/// the inputs a checkpoint inserts and the targets a restart extracts
/// into.
pub trait Workload: Sync {
    type State;

    /// Two-phase collective buffering for the machine, if any.
    fn collective(&self) -> Option<CollectiveConfig> {
        None
    }
    /// The records one checkpoint writes.
    fn records(&self) -> Vec<RecordShape>;
    /// Build this rank's collections (all input generation happens here).
    fn build(&self, ctx: &NodeCtx) -> Result<Self::State, CollectionError>;
    fn checkpoint(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        st: &Self::State,
        sp: &mut Spans,
    ) -> Result<(), StreamError>;
    /// Reset the restart targets so a restart that extracts nothing is
    /// caught by [`Workload::mismatches`].
    fn clear(&self, st: &mut Self::State);
    fn restart(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        st: &mut Self::State,
        sp: &mut Spans,
    ) -> Result<(), StreamError>;
    /// Restored elements on this rank that differ from the generator's.
    fn mismatches(&self, st: &Self::State) -> u64;
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded hash of `(stream, gid)`: the root of every generated value.
fn mix(seed: u64, stream: u64, gid: usize) -> u64 {
    splitmix(seed ^ splitmix(stream.wrapping_mul(0x1000_0000_01b3) ^ splitmix(gid as u64)))
}

fn dense(n: usize, kind: DistKind) -> Layout {
    Layout::dense(n, NPROCS, kind).expect("valid benchmark layout")
}

// ---------------------------------------------------------------------
// scf_ckpt: the paper's SCF segments, byte-bound.

/// 4096 SCF segments of 1000–3000 particles (about 437 MiB), BLOCK,
/// blocking write with gathered metadata, read back with `unsorted_read`.
pub struct ScfCkpt {
    cfg: ScfConfig,
}

pub struct ScfState {
    src: Collection<Segment>,
    dst: Collection<Segment>,
}

impl ScfCkpt {
    pub fn new(seed: u64) -> ScfCkpt {
        ScfCkpt {
            cfg: ScfConfig {
                seed,
                ..ScfConfig::variable(4096, 2000, 1000)
            },
        }
    }

    fn layout(&self) -> Layout {
        dense(self.cfg.n_segments, DistKind::Block)
    }
}

impl Workload for ScfCkpt {
    type State = ScfState;

    fn records(&self) -> Vec<RecordShape> {
        vec![RecordShape::new(self.layout(), self.layout(), |g| {
            Segment::serialized_len_for(self.cfg.particles_in(g)) as u64
        })]
    }

    fn build(&self, ctx: &NodeCtx) -> Result<ScfState, CollectionError> {
        Ok(ScfState {
            src: Collection::new(ctx, self.layout(), |g| self.cfg.make_segment(g))?,
            dst: Collection::new(ctx, self.layout(), |_| Segment::default())?,
        })
    }

    fn checkpoint(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        st: &ScfState,
        sp: &mut Spans,
    ) -> Result<(), StreamError> {
        let opts = StreamOptions {
            meta_policy: MetaPolicy::Force(MetaMode::Gathered),
            ..Default::default()
        };
        let layout = st.src.layout();
        let mut s = sp.time("core.create", || {
            OStream::create_with(ctx, pfs, layout, FILE, opts)
        })?;
        sp.time("core.insert", || s.insert_collection(&st.src))?;
        sp.time("core.write", || s.write())?;
        sp.time("core.close", || s.close())
    }

    fn clear(&self, st: &mut ScfState) {
        st.dst.apply(|s| *s = Segment::default());
    }

    fn restart(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        st: &mut ScfState,
        sp: &mut Spans,
    ) -> Result<(), StreamError> {
        let layout = st.dst.layout().clone();
        let mut s = sp.time("core.open", || IStream::open(ctx, pfs, &layout, FILE))?;
        sp.time("core.read", || s.unsorted_read())?;
        sp.time("core.extract", || s.extract_collection(&mut st.dst))?;
        sp.time("core.close", || s.close())
    }

    /// Writer and reader share one BLOCK layout, so the unsorted read
    /// deals every rank its own segments back in slot order: compare
    /// slot by slot with the generated inputs.
    fn mismatches(&self, st: &ScfState) -> u64 {
        let pairs = st.src.local().iter().zip(st.dst.local());
        pairs.filter(|(a, b)| a != b).count() as u64
    }
}

// ---------------------------------------------------------------------
// reshape_cyclic: BLOCK → CYCLIC restart, planner-bound.

const RESHAPE_N: usize = 16384;

/// 16384 `Vec<f64>` elements of 128–384 values (about 32 MiB), written
/// BLOCK and read back with a sorted `read` into CYCLIC.
pub struct ReshapeCyclic {
    seed: u64,
}

pub struct ReshapeState {
    src: Collection<Vec<f64>>,
    dst: Collection<Vec<f64>>,
}

impl ReshapeCyclic {
    pub fn new(seed: u64) -> ReshapeCyclic {
        ReshapeCyclic { seed }
    }

    fn len(&self, gid: usize) -> usize {
        128 + (mix(self.seed, 1, gid) % 257) as usize
    }

    fn values(&self, gid: usize) -> impl Iterator<Item = f64> {
        let x = mix(self.seed, 2, gid);
        (0..self.len(gid) as u64).map(move |i| (splitmix(x ^ i) >> 11) as f64 / (1u64 << 53) as f64)
    }
}

impl Workload for ReshapeCyclic {
    type State = ReshapeState;

    fn records(&self) -> Vec<RecordShape> {
        let (w, r) = (
            dense(RESHAPE_N, DistKind::Block),
            dense(RESHAPE_N, DistKind::Cyclic),
        );
        vec![RecordShape::new(w, r, |g| 8 + 8 * self.len(g) as u64)]
    }

    fn build(&self, ctx: &NodeCtx) -> Result<ReshapeState, CollectionError> {
        let block = dense(RESHAPE_N, DistKind::Block);
        let cyclic = dense(RESHAPE_N, DistKind::Cyclic);
        Ok(ReshapeState {
            src: Collection::new(ctx, block, |g| self.values(g).collect())?,
            dst: Collection::new(ctx, cyclic, |_| Vec::new())?,
        })
    }

    fn checkpoint(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        st: &ReshapeState,
        sp: &mut Spans,
    ) -> Result<(), StreamError> {
        let layout = st.src.layout();
        let mut s = sp.time("core.create", || OStream::create(ctx, pfs, layout, FILE))?;
        sp.time("core.insert", || s.insert_collection(&st.src))?;
        sp.time("core.write", || s.write())?;
        sp.time("core.close", || s.close())
    }

    fn clear(&self, st: &mut ReshapeState) {
        st.dst.apply(Vec::clear);
    }

    fn restart(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        st: &mut ReshapeState,
        sp: &mut Spans,
    ) -> Result<(), StreamError> {
        let layout = st.dst.layout().clone();
        let mut s = sp.time("core.open", || IStream::open(ctx, pfs, &layout, FILE))?;
        sp.time("core.read", || s.read())?;
        sp.time("core.extract", || s.extract_collection(&mut st.dst))?;
        sp.time("core.close", || s.close())
    }

    fn mismatches(&self, st: &ReshapeState) -> u64 {
        let bad = |(gid, v): &(usize, &Vec<f64>)| {
            v.len() != self.len(*gid) || !v.iter().copied().eq(self.values(*gid))
        };
        st.dst.iter().filter(bad).count() as u64
    }
}

// ---------------------------------------------------------------------
// tiny_agg: many tiny elements through aggregators, per-element-bound.

const TINY_N: usize = 1 << 19;
const TINY_RECORDS: usize = 4;

/// Four records per file, each interleaving a collection of 2^19
/// `Vec<u8>` elements of 4–27 bytes with a `u64` collection (2M byte
/// vectors per file). CYCLIC, one stripe-aligned aggregator,
/// split-collective writes with one record in flight, reads through
/// `prefetch` + `read` under an identity plan.
pub struct TinyAgg {
    seed: u64,
}

pub struct TinyState {
    src_bytes: Vec<Collection<Vec<u8>>>,
    src_words: Vec<Collection<u64>>,
    dst_bytes: Vec<Collection<Vec<u8>>>,
    dst_words: Vec<Collection<u64>>,
}

impl TinyAgg {
    pub fn new(seed: u64) -> TinyAgg {
        TinyAgg { seed }
    }

    fn root(&self, record: usize, gid: usize) -> u64 {
        mix(self.seed, 3 + record as u64, gid)
    }

    /// The byte vector of `gid` in `record`: its buffer and length.
    fn bytes(&self, record: usize, gid: usize) -> ([u8; 32], usize) {
        let x = self.root(record, gid);
        let mut buf = [0u8; 32];
        let mut w = x;
        for chunk in buf.chunks_exact_mut(8) {
            w = splitmix(w);
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        (buf, 4 + (x % 24) as usize)
    }

    fn word(&self, record: usize, gid: usize) -> u64 {
        mix(self.seed, 100 + record as u64, gid)
    }
}

impl Workload for TinyAgg {
    type State = TinyState;

    fn collective(&self) -> Option<CollectiveConfig> {
        Some(CollectiveConfig {
            aggregators: 1,
            stripe_align: true,
        })
    }

    fn records(&self) -> Vec<RecordShape> {
        (0..TINY_RECORDS)
            .map(|r| {
                let layout = dense(TINY_N, DistKind::Cyclic);
                // Length-prefixed bytes, then the u64.
                RecordShape::new(layout.clone(), layout, |g| 16 + self.bytes(r, g).1 as u64)
            })
            .collect()
    }

    fn build(&self, ctx: &NodeCtx) -> Result<TinyState, CollectionError> {
        let layout = dense(TINY_N, DistKind::Cyclic);
        let mut st = TinyState {
            src_bytes: Vec::new(),
            src_words: Vec::new(),
            dst_bytes: Vec::new(),
            dst_words: Vec::new(),
        };
        for r in 0..TINY_RECORDS {
            let bytes = |g| {
                let (buf, len) = self.bytes(r, g);
                buf[..len].to_vec()
            };
            st.src_bytes
                .push(Collection::new(ctx, layout.clone(), bytes)?);
            st.src_words
                .push(Collection::new(ctx, layout.clone(), |g| self.word(r, g))?);
            st.dst_bytes
                .push(Collection::new(ctx, layout.clone(), |_| Vec::new())?);
            st.dst_words
                .push(Collection::new(ctx, layout.clone(), |_| 0)?);
        }
        Ok(st)
    }

    fn checkpoint(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        st: &TinyState,
        sp: &mut Spans,
    ) -> Result<(), StreamError> {
        let layout = st.src_bytes[0].layout();
        let mut s = sp.time("core.create", || OStream::create(ctx, pfs, layout, FILE))?;
        let mut in_flight = None;
        for r in 0..TINY_RECORDS {
            sp.time("core.insert", || s.insert_collection(&st.src_bytes[r]))?;
            sp.time("core.insert", || s.insert_collection(&st.src_words[r]))?;
            let pending = sp.time("core.write", || s.write_begin())?;
            if let Some(prev) = in_flight.replace(pending) {
                sp.time("core.write", || s.write_end(prev))?;
            }
        }
        if let Some(last) = in_flight {
            sp.time("core.write", || s.write_end(last))?;
        }
        sp.time("core.close", || s.close())
    }

    fn clear(&self, st: &mut TinyState) {
        for c in &mut st.dst_bytes {
            c.apply(|v| *v = Vec::new());
        }
        for c in &mut st.dst_words {
            c.apply(|w| *w = 0);
        }
    }

    fn restart(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        st: &mut TinyState,
        sp: &mut Spans,
    ) -> Result<(), StreamError> {
        let layout = st.dst_bytes[0].layout().clone();
        let mut s = sp.time("core.open", || IStream::open(ctx, pfs, &layout, FILE))?;
        let prefetch = |s: &mut IStream<'_>, sp: &mut Spans| -> Result<(), StreamError> {
            match sp.time("core.read", || s.prefetch())? {
                true => Ok(()),
                false => Err(StreamError::EndOfStream),
            }
        };
        prefetch(&mut s, sp)?;
        for r in 0..TINY_RECORDS {
            sp.time("core.read", || s.read())?;
            if r + 1 < TINY_RECORDS {
                prefetch(&mut s, sp)?;
            }
            sp.time("core.extract", || {
                s.extract_collection(&mut st.dst_bytes[r])
            })?;
            sp.time("core.extract", || {
                s.extract_collection(&mut st.dst_words[r])
            })?;
        }
        sp.time("core.close", || s.close())
    }

    fn mismatches(&self, st: &TinyState) -> u64 {
        let mut bad = 0;
        for r in 0..TINY_RECORDS {
            for (gid, v) in st.dst_bytes[r].iter() {
                let (buf, len) = self.bytes(r, gid);
                bad += u64::from(v[..] != buf[..len]);
            }
            for (gid, &w) in st.dst_words[r].iter() {
                bad += u64::from(w != self.word(r, gid));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_core::to_bytes;

    /// The payload accounting must match the bytes the inserts produce.
    #[test]
    fn record_sizes_match_the_serialized_elements() {
        let scf = ScfCkpt::new(7);
        let rec = &scf.records()[0];
        for e in [0, 1, 2048, 4095] {
            let seg = scf.cfg.make_segment(rec.gids[e]);
            assert_eq!(to_bytes(&seg, false).len() as u64, rec.sizes[e]);
        }

        let reshape = ReshapeCyclic::new(7);
        let rec = &reshape.records()[0];
        for e in [0, 1, 8191, 8192, 16383] {
            let v: Vec<f64> = reshape.values(rec.gids[e]).collect();
            assert!((128..=384).contains(&v.len()));
            assert_eq!(to_bytes(&v, false).len() as u64, rec.sizes[e]);
        }

        let tiny = TinyAgg::new(7);
        for (r, rec) in tiny.records().iter().enumerate() {
            for e in [0, 1, TINY_N / 2, TINY_N - 1] {
                let g = rec.gids[e];
                let (buf, len) = tiny.bytes(r, g);
                assert!((4..=27).contains(&len));
                let bytes = to_bytes(&buf[..len].to_vec(), false).len();
                let word = to_bytes(&tiny.word(r, g), false).len();
                assert_eq!((bytes + word) as u64, rec.sizes[e]);
            }
        }
    }

    #[test]
    fn blocks_tile_the_record_in_rank_order() {
        let rec = &ReshapeCyclic::new(1).records()[0];
        assert_eq!(rec.block(0), 0..RESHAPE_N / 2);
        assert_eq!(rec.block(1), RESHAPE_N / 2..RESHAPE_N);
        let total: usize = (0..NPROCS).map(|r| rec.block_bytes(r)).sum();
        assert_eq!(total as u64, rec.payload());
    }

    #[test]
    fn inputs_depend_on_the_seed() {
        let (a, b) = (ReshapeCyclic::new(1), ReshapeCyclic::new(2));
        assert_ne!(a.records()[0].sizes, b.records()[0].sizes);
        assert_eq!(
            a.records()[0].sizes,
            ReshapeCyclic::new(1).records()[0].sizes
        );
    }
}
