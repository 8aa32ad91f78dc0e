//! Nonblocking (split-collective) file operations.
//!
//! The begin-variants in this module are the PFS layer of the d/streams
//! asynchronous pipeline. A collective begin runs the *same body* as its
//! blocking twin in [`crate::file`] — all coordination and the physical
//! byte transfer happen at submission, so the file image and the
//! per-rank logical PFS op indices are identical in both modes — with
//! one difference, selected by [`Service`]: the *disk-service cost* is
//! queued on the submitting rank's pending-async-op queue
//! ([`NodeCtx::async_submit`]) instead of advancing its clock. The
//! returned [`IoHandle`] carries the completion virtual time; retiring
//! it with [`IoHandle::wait`] synchronizes the rank's clock forward to
//! that instant (a no-op when the rank's own progress already passed it
//! — the fully overlapped case).
//!
//! Fault composition (PR 2's `FaultPlan`):
//!
//! * **Transient** faults are retired at submission, exactly like the
//!   blocking path, so surviving ranks stay in lockstep for the
//!   collective's internal communication. For the independent
//!   [`FileHandle::write_at_begin`] the retry backoff is folded into the
//!   deferred cost instead of stalling the submitter — the retries
//!   happen "in the background".
//! * **Torn** writes behave as in the blocking path: the call reports
//!   success, only a prefix hits storage, full cost is charged.
//! * **Crash** (power-cut) on a collective write: in both modes the rank
//!   persists the seeded prefix and keeps participating in the
//!   collective's coordination (so peers are not stranded mid-plan),
//!   then is marked dead. The collective closes with a crash-flag
//!   all-reduce, so *every* rank learns whether any peer's transfer was
//!   cut — the flag the blocking call returns and
//!   [`IoHandle::peer_crashed`] reports, and how the d/stream layer knows
//!   it must not seal the record, leaving the torn tail detectable by
//!   recovery. The blocking call surfaces `RankCrashed` on return; a
//!   begin defers it to the handle's wait. A crash on a collective
//!   *read* kills a blocking call on entry, while a begin stays in the
//!   collective and defers the death to its handle.

use dstreams_machine::{AsyncOp, FaultDecision, NodeCtx, VTime};
use dstreams_trace::{EventKind, FaultKind, PfsOp};

use crate::checksum::ChunkSum;
use crate::error::PfsError;
use crate::file::FileHandle;

/// How an I/O body pays the service cost of its physical transfer — the
/// one parameter that separates a blocking call from its
/// split-collective begin. Everything else (coordination, the transfer,
/// fault fates, trace events) is the same code in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Service {
    /// Advance the rank's clock by the cost now: the blocking call.
    Now,
    /// Queue the cost on the rank's serial async queue and hand back an
    /// [`IoHandle`]: the begin call.
    Deferred,
}

impl Service {
    /// Pay `cost`: advance the clock, or submit it to the async queue.
    pub(crate) fn charge(self, ctx: &NodeCtx, cost: VTime) -> Option<AsyncOp> {
        match self {
            Service::Now => {
                ctx.advance(cost);
                None
            }
            Service::Deferred => Some(ctx.async_submit(cost)),
        }
    }

    /// Close an operation after its closing synchronization. A rank
    /// whose transfer was power-cut is marked dead now; the blocking
    /// call reports `RankCrashed` at once, the deferred one when its
    /// handle is waited.
    pub(crate) fn settle(
        self,
        ctx: &NodeCtx,
        charged: Option<AsyncOp>,
        my_crash: bool,
        peer_crashed: bool,
    ) -> Result<Option<IoHandle>, PfsError> {
        let deferred = my_crash.then(|| FileHandle::die(ctx));
        match charged {
            Some(op) => Ok(Some(IoHandle {
                op,
                deferred,
                peer_crashed,
            })),
            None => deferred.map_or(Ok(None), Err),
        }
    }
}

/// Handle to an in-flight nonblocking PFS operation.
///
/// Produced by [`FileHandle::write_ordered_begin_summed`],
/// [`FileHandle::read_ordered_begin_summed`] and
/// [`FileHandle::write_at_begin`]. The physical transfer already
/// happened; what is pending is the deferred disk-service cost (and,
/// possibly, a deferred fault outcome). Handles on one rank complete in
/// submission order — the rank's async queue models one serial disk
/// service channel.
#[derive(Debug)]
pub struct IoHandle {
    op: AsyncOp,
    /// Fault outcome deferred to wait-time (a power-cut injected on the
    /// transfer: the rank is already marked dead).
    deferred: Option<PfsError>,
    /// Some rank's transfer was cut by a power-cut during this
    /// collective (writes only) — the same flag the blocking
    /// [`FileHandle::write_ordered_summed`] returns.
    peer_crashed: bool,
}

impl IoHandle {
    /// Virtual time at which the deferred service cost completes.
    pub fn completion(&self) -> VTime {
        self.op.completion()
    }

    /// The deferred service cost.
    pub fn cost(&self) -> VTime {
        self.op.cost()
    }

    /// True when a power-cut fault fired on *some* rank (possibly this
    /// one) during the operation's physical transfer. A record whose
    /// data collective reports this must not be sealed: the unsealed
    /// tail is what keeps the crash detectable by recovery.
    pub fn peer_crashed(&self) -> bool {
        self.peer_crashed
    }

    /// Whether waiting will surface a deferred fault outcome.
    pub fn has_deferred_fault(&self) -> bool {
        self.deferred.is_some()
    }

    /// Retire the operation: synchronize this rank's clock forward to
    /// the completion virtual time and surface any deferred fault.
    pub fn wait(self, ctx: &NodeCtx) -> Result<(), PfsError> {
        ctx.async_complete(&self.op);
        match self.deferred {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl FileHandle {
    /// Nonblocking independent positioned write: the bytes land at
    /// submission, the service cost is deferred onto this rank's async
    /// queue. Injected transient failures are retried with the backoff
    /// folded into the deferred cost; a power-cut persists the seeded
    /// prefix, marks the rank dead and defers `RankCrashed` to the
    /// returned handle.
    pub fn write_at_begin(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        data: &[u8],
    ) -> Result<IoHandle, PfsError> {
        let op = ctx.next_pfs_op();
        let mut attempt = 0u32;
        let mut folded_backoff = VTime::ZERO;
        loop {
            self.check_alive(ctx)?;
            let keep = match ctx.fault_decision(op, attempt, Some(data.len())) {
                FaultDecision::Proceed => data.len(),
                FaultDecision::Transient => {
                    self.emit_fault(ctx, FaultKind::Transient, op, 0);
                    let policy = self.pfs.retry;
                    if attempt >= policy.max_retries {
                        return Err(Self::injected_transient(op));
                    }
                    let pause = policy.backoff(attempt);
                    folded_backoff += pause;
                    attempt += 1;
                    let next = attempt;
                    ctx.emit_with(|| EventKind::PfsRetry {
                        op_index: op,
                        attempt: next,
                        backoff_ns: pause.as_nanos(),
                    });
                    continue;
                }
                FaultDecision::Torn { keep } => {
                    let keep = keep.min(data.len());
                    self.emit_fault(ctx, FaultKind::Torn, op, keep as u64);
                    keep
                }
                FaultDecision::Crash { keep } => {
                    self.persist_crash_prefix(ctx, op, offset, data, keep);
                    // A dead disk serves nothing: zero deferred cost, the
                    // crash outcome rides the handle.
                    return Ok(IoHandle {
                        op: ctx.async_submit(VTime::ZERO),
                        deferred: Some(Self::die(ctx)),
                        peer_crashed: true,
                    });
                }
            };
            self.file
                .storage
                .lock()
                .write_at(offset, &data[..keep], self.file.name())?;
            let charged = self.account_independent(
                ctx,
                PfsOp::Write,
                offset,
                data.len(),
                Service::Deferred,
                folded_backoff,
            );
            return Ok(IoHandle {
                op: charged.expect("deferred service submits"),
                deferred: None,
                peer_crashed: false,
            });
        }
    }

    /// Nonblocking [`FileHandle::write_ordered_summed`]: collective
    /// node-order append whose coordination and physical writes happen at
    /// submission, with the parallel-operation cost deferred per rank.
    /// Returns this rank's block offset, every rank's block digest, and
    /// the in-flight handle, which carries the peer-crash flag — see
    /// [`IoHandle::peer_crashed`].
    pub fn write_ordered_begin_summed(
        &self,
        ctx: &NodeCtx,
        block: &[u8],
    ) -> Result<(u64, Vec<ChunkSum>, IoHandle), PfsError> {
        let (off, digests, _, handle) = self.ordered_write(ctx, block, Service::Deferred)?;
        Ok((
            off,
            digests,
            handle.expect("deferred service returns a handle"),
        ))
    }

    /// Nonblocking [`FileHandle::read_ordered_summed`]: the bytes and
    /// digests are materialized at submission (they are only *promised*
    /// to the caller — consuming them before the handle is waited would
    /// be reading the future), with the parallel-operation cost deferred.
    /// A power-cut on entry defers the rank's death to the handle so the
    /// collective itself stays well-formed for the peers.
    pub fn read_ordered_begin_summed(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        len: usize,
    ) -> Result<(Vec<u8>, Vec<ChunkSum>, IoHandle), PfsError> {
        let (buf, digests, handle) = self.ordered_read(ctx, offset, len, Service::Deferred)?;
        Ok((
            buf,
            digests,
            handle.expect("deferred service returns a handle"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::pfs::{OpenMode, Pfs};
    use crate::{DiskModel, PfsError};
    use dstreams_machine::{
        CollectiveConfig, FaultPlan, Machine, MachineConfig, MachineError, VTime,
    };

    /// Blocking and begin variants share one body per operation: the
    /// same file bytes, offsets, digests and read-backs, on the direct
    /// path and under aggregation alike.
    #[test]
    fn begin_variant_writes_the_same_bytes_as_blocking() {
        let run = |nonblocking: bool, collective: Option<CollectiveConfig>| {
            let pfs = Pfs::in_memory(3);
            let p = pfs.clone();
            let mut cfg = MachineConfig::functional(3);
            cfg.collective = collective;
            let per_rank = Machine::run(cfg, move |ctx| {
                let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
                let mut outs = Vec::new();
                for round in 0..3u8 {
                    let block = vec![round * 10 + ctx.rank() as u8; ctx.rank() + 1];
                    let (off, digests) = if nonblocking {
                        let (off, digests, h) = fh.write_ordered_begin_summed(ctx, &block).unwrap();
                        assert!(!h.peer_crashed());
                        h.wait(ctx).unwrap();
                        (off, digests)
                    } else {
                        let (off, digests, peer_crashed) =
                            fh.write_ordered_summed(ctx, &block).unwrap();
                        assert!(!peer_crashed);
                        (off, digests)
                    };
                    assert_eq!(digests.len(), 3);
                    // Read back an uneven decomposition of the file so far.
                    let len = fh.len();
                    let (lo, hi) = (
                        len * ctx.rank() as u64 / 4,
                        len * (ctx.rank() as u64 + 1) / 3,
                    );
                    let read = if nonblocking {
                        let (buf, digests, h) = fh
                            .read_ordered_begin_summed(ctx, lo, (hi - lo) as usize)
                            .unwrap();
                        assert!(!h.peer_crashed());
                        h.wait(ctx).unwrap();
                        (buf, digests)
                    } else {
                        fh.read_ordered_summed(ctx, lo, (hi - lo) as usize).unwrap()
                    };
                    outs.push((off, digests, read));
                }
                outs
            })
            .unwrap();
            let p2 = pfs.clone();
            let size = pfs.file_size("f").unwrap() as usize;
            let bytes = Machine::run(MachineConfig::functional(1), move |ctx| {
                let fh = p2.open(false, "f", OpenMode::Read).unwrap();
                let mut buf = vec![0u8; size];
                fh.read_at(ctx, 0, &mut buf).unwrap();
                buf
            })
            .unwrap()[0]
                .clone();
            (per_rank, bytes)
        };
        let reference = run(false, None);
        let aggregated = CollectiveConfig {
            aggregators: 2,
            stripe_align: true,
        };
        for collective in [None, Some(aggregated)] {
            for nonblocking in [false, true] {
                assert_eq!(
                    run(nonblocking, collective),
                    reference,
                    "nonblocking = {nonblocking}, collective = {collective:?}"
                );
            }
        }
    }

    /// A power cut on a blocking direct write does not strand the
    /// survivors: the crashed rank stays in the collective through the
    /// closing crash-flag all-reduce and then fails, while every
    /// survivor completes and learns the record must stay unsealed.
    #[test]
    fn killed_rank_direct_write_completes_unsealed() {
        let pfs = Pfs::new(4, DiskModel::paragon_pfs(), crate::Backend::Memory);
        let p = pfs.clone();
        let cfg = MachineConfig::functional(4).with_faults(FaultPlan::seeded(3).crash_at(1, 0));
        let outcomes = Machine::run(cfg, move |ctx| {
            let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
            let block = vec![ctx.rank() as u8 + 1; 64];
            fh.write_ordered_summed(ctx, &block)
                .map(|(_, _, peer_crashed)| peer_crashed)
        })
        .unwrap();
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Err(PfsError::Machine(MachineError::RankCrashed { rank: 1 })) if rank == 1 => {}
                Ok(true) if rank != 1 => {}
                other => panic!("rank {rank}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn deferred_cost_overlaps_with_compute() {
        // A rank that computes past the completion time stalls zero;
        // a rank that waits immediately stalls the full cost.
        let mut model = DiskModel::instant();
        model.coll_latency = VTime::from_millis(10);
        let pfs = Pfs::new(2, model, crate::Backend::Memory);
        let p = pfs.clone();
        let times = Machine::run(MachineConfig::functional(2), move |ctx| {
            let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
            let (_, _, h) = fh.write_ordered_begin_summed(ctx, &[1u8; 64]).unwrap();
            let submit_t = ctx.now();
            // Overlapped compute longer than the flush cost.
            ctx.advance(VTime::from_millis(50));
            let before_wait = ctx.now();
            h.wait(ctx).unwrap();
            (submit_t, before_wait, ctx.now())
        })
        .unwrap();
        for (submit_t, before_wait, after_wait) in times {
            assert!(submit_t + VTime::from_millis(10) <= before_wait);
            // Fully hidden: the wait was free.
            assert_eq!(before_wait, after_wait);
        }
    }

    #[test]
    fn wait_without_compute_pays_the_cost() {
        let mut model = DiskModel::instant();
        model.coll_latency = VTime::from_millis(10);
        let pfs = Pfs::new(1, model, crate::Backend::Memory);
        let p = pfs.clone();
        let times = Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(true, "f", OpenMode::Create).unwrap();
            let (_, _, h) = fh.write_ordered_begin_summed(ctx, &[1u8; 64]).unwrap();
            let t0 = ctx.now();
            let completion = h.completion();
            h.wait(ctx).unwrap();
            (t0, completion, ctx.now())
        })
        .unwrap();
        let (t0, completion, t1) = times[0];
        assert_eq!(t1, completion);
        assert!(t1.saturating_since(t0) >= VTime::from_millis(10));
    }

    #[test]
    fn queued_submissions_serialize_on_one_rank() {
        let mut model = DiskModel::instant();
        model.coll_latency = VTime::from_millis(10);
        let pfs = Pfs::new(1, model, crate::Backend::Memory);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(true, "f", OpenMode::Create).unwrap();
            let (_, _, h1) = fh.write_ordered_begin_summed(ctx, &[1u8; 8]).unwrap();
            let (_, _, h2) = fh.write_ordered_begin_summed(ctx, &[2u8; 8]).unwrap();
            // One serial service channel: the second op starts only when
            // the first completes.
            assert!(h2.completion() >= h1.completion() + VTime::from_millis(10));
            assert_eq!(ctx.async_in_flight(), 2);
            h1.wait(ctx).unwrap();
            h2.wait(ctx).unwrap();
            assert_eq!(ctx.async_in_flight(), 0);
        })
        .unwrap();
    }

    #[test]
    fn read_begin_returns_the_promised_bytes() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
            fh.write_ordered(ctx, &[ctx.rank() as u8 + 1; 4]).unwrap();
            let (buf, digests, h) = fh
                .read_ordered_begin_summed(ctx, ctx.rank() as u64 * 4, 4)
                .unwrap();
            h.wait(ctx).unwrap();
            assert_eq!(buf, vec![ctx.rank() as u8 + 1; 4]);
            assert_eq!(digests.len(), 2);
        })
        .unwrap();
    }
}
