//! File objects and per-rank file handles.
//!
//! A [`FileHandle`] behaves like a POSIX descriptor: it has a private
//! position and supports independent reads/writes (each charged through the
//! cost model as a separate OS call — this is the "unbuffered I/O" path of
//! the paper's benchmark). It also provides the two *collective* operations
//! the Paragon/CM-5 parallel file systems offered and on which
//! pC++/streams is built:
//!
//! * [`FileHandle::write_ordered`] — every rank contributes one contiguous
//!   block; the blocks land in the file in **node order** in a single
//!   parallel operation;
//! * [`FileHandle::read_ordered`] — every rank reads one contiguous block
//!   in a single parallel operation.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dstreams_machine::wire::{frame_blocks, unframe_blocks};
use dstreams_machine::{AsyncOp, FaultDecision, MachineError, NodeCtx, VTime};
use dstreams_trace::{CollectiveRegime, EventKind, FaultKind, IndependentRegime, PfsOp};
use parking_lot::Mutex;

use crate::checksum::ChunkSum;
use crate::error::PfsError;
use crate::model::Regime;
use crate::nonblocking::{IoHandle, Service};
use crate::pfs::PfsShared;
use crate::storage::Storage;

/// A file stored in the parallel file system. Shared by all ranks.
#[derive(Debug)]
pub struct FileObj {
    pub(crate) name: String,
    pub(crate) storage: Mutex<Storage>,
    /// Shared append cursor for M_LOG-style access.
    pub(crate) log_cursor: AtomicU64,
}

impl FileObj {
    /// File name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current logical size in bytes.
    pub fn len(&self) -> u64 {
        self.storage.lock().len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A per-rank handle to an open PFS file.
///
/// Not `Send`: a handle belongs to the rank that opened it (its position is
/// rank-private state), exactly like a file descriptor in the benchmark's
/// unbuffered baseline.
///
/// Each ordered collective comes as a blocking call and a split-collective
/// begin (`*_begin_summed`, returning an [`IoHandle`]) that share one body.
/// Both report a power cut on any rank's write transfer in their result —
/// the flag [`FileHandle::write_ordered_summed`] returns, or
/// [`IoHandle::peer_crashed`] — so the handle keeps no fault state
/// between calls.
pub struct FileHandle {
    pub(crate) pfs: Arc<PfsShared>,
    pub(crate) file: Arc<FileObj>,
    pub(crate) pos: Cell<u64>,
    /// Per-handle record counter for M_RECORD-style access.
    pub(crate) record_seq: Cell<u64>,
    /// Marker making the handle `!Send`/`!Sync`.
    pub(crate) _not_send: std::marker::PhantomData<*const ()>,
}

impl FileHandle {
    /// The underlying file object.
    pub fn file(&self) -> &Arc<FileObj> {
        &self.file
    }

    /// Current private position.
    pub fn pos(&self) -> u64 {
        self.pos.get()
    }

    /// Move the private position.
    pub fn seek(&self, pos: u64) {
        self.pos.set(pos);
    }

    /// Current file size.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.file.is_empty()
    }

    // ---- independent operations (the "unbuffered" path) -------------------

    /// Charge and account one independent operation of `bytes` at
    /// `offset`: the regime and cost from the model, the `PfsIndependent`
    /// event, the rank's traffic estimate and the `Stats` counters. The
    /// cost (plus `extra`, a deferred op's folded retry backoff) is paid
    /// per `service`; the event follows the charge in both modes.
    pub(crate) fn account_independent(
        &self,
        ctx: &NodeCtx,
        op: PfsOp,
        offset: u64,
        bytes: usize,
        service: Service,
        extra: VTime,
    ) -> Option<AsyncOp> {
        let traffic = &self.pfs.rank_traffic[ctx.rank()];
        let before = traffic.load(Ordering::Relaxed);
        // Working-set estimate: this file's bytes, mirrored on every rank
        // (symmetric SPMD workloads), flowing through the shared cache.
        let regime = self
            .pfs
            .model
            .independent_regime(self.file.len(), ctx.nprocs());
        let cost = self.pfs.model.independent_cost(bytes, regime, ctx.nprocs());
        let charged = service.charge(ctx, cost + extra);
        ctx.emit_with(|| EventKind::PfsIndependent {
            op,
            file: self.file.name.clone(),
            offset,
            bytes: bytes as u64,
            regime: match regime {
                Regime::Cached => IndependentRegime::Cached,
                Regime::Disk => IndependentRegime::Disk,
            },
            cost_ns: cost.as_nanos(),
        });
        traffic.store(before + bytes as u64, Ordering::Relaxed);
        let stats = &self.pfs.stats;
        stats.independent_ops.fetch_add(1, Ordering::Relaxed);
        stats
            .independent_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        if regime == Regime::Disk {
            stats.disk_regime_ops.fetch_add(1, Ordering::Relaxed);
        }
        charged
    }

    // ---- fault injection and retry -----------------------------------------

    pub(crate) fn emit_fault(&self, ctx: &NodeCtx, kind: FaultKind, op: u64, bytes_kept: u64) {
        ctx.emit_with(|| EventKind::FaultInjected {
            kind,
            op_index: op,
            file: self.file.name.clone(),
            bytes_kept,
        });
    }

    /// Charge one virtual-time backoff pause and record the retry.
    /// Returns `false` when the policy's retry budget is exhausted.
    fn backoff_and_retry(&self, ctx: &NodeCtx, op: u64, attempt: &mut u32) -> bool {
        let policy = self.pfs.retry;
        if *attempt >= policy.max_retries {
            return false;
        }
        let pause = policy.backoff(*attempt);
        ctx.advance(pause);
        *attempt += 1;
        let next = *attempt;
        ctx.emit_with(|| EventKind::PfsRetry {
            op_index: op,
            attempt: next,
            backoff_ns: pause.as_nanos(),
        });
        true
    }

    pub(crate) fn injected_transient(op: u64) -> PfsError {
        PfsError::io(
            std::io::ErrorKind::Interrupted,
            format!("injected transient pfs fault (op {op})"),
        )
    }

    pub(crate) fn check_alive(&self, ctx: &NodeCtx) -> Result<(), PfsError> {
        if ctx.fault_is_dead() {
            return Err(MachineError::RankCrashed { rank: ctx.rank() }.into());
        }
        Ok(())
    }

    /// Power-cut a write: persist the seeded prefix and record the
    /// fault. The caller decides when the rank dies.
    pub(crate) fn persist_crash_prefix(
        &self,
        ctx: &NodeCtx,
        op: u64,
        offset: u64,
        data: &[u8],
        keep: Option<usize>,
    ) {
        let k = keep.unwrap_or(0).min(data.len());
        if k > 0 {
            let _ = self
                .file
                .storage
                .lock()
                .write_at(offset, &data[..k], &self.file.name);
        }
        self.emit_fault(ctx, FaultKind::Crash, op, k as u64);
    }

    /// Mark this rank dead and build the error that reports it.
    pub(crate) fn die(ctx: &NodeCtx) -> PfsError {
        ctx.fault_mark_dead();
        MachineError::RankCrashed { rank: ctx.rank() }.into()
    }

    /// Consult the fault plan at the head of a collective operation,
    /// retiring injected transient failures through the retry policy
    /// *before* any communication (so surviving ranks stay in lockstep).
    /// The returned fate (`Proceed`/`Torn`/`Crash`) is applied at the
    /// physical-transfer step.
    pub(crate) fn collective_fate(
        &self,
        ctx: &NodeCtx,
        op: u64,
        write_len: Option<usize>,
    ) -> Result<FaultDecision, PfsError> {
        let mut attempt = 0u32;
        loop {
            self.check_alive(ctx)?;
            match ctx.fault_decision(op, attempt, write_len) {
                FaultDecision::Transient => {
                    self.emit_fault(ctx, FaultKind::Transient, op, 0);
                    if self.backoff_and_retry(ctx, op, &mut attempt) {
                        continue;
                    }
                    return Err(Self::injected_transient(op));
                }
                fate => return Ok(fate),
            }
        }
    }

    /// Independent write at the private position; advances the position.
    pub fn write(&self, ctx: &NodeCtx, data: &[u8]) -> Result<(), PfsError> {
        self.write_at(ctx, self.pos.get(), data)?;
        self.pos.set(self.pos.get() + data.len() as u64);
        Ok(())
    }

    /// Independent read at the private position; advances the position.
    pub fn read(&self, ctx: &NodeCtx, buf: &mut [u8]) -> Result<(), PfsError> {
        self.read_at(ctx, self.pos.get(), buf)?;
        self.pos.set(self.pos.get() + buf.len() as u64);
        Ok(())
    }

    /// Independent positioned write (does not move the private position).
    ///
    /// One logical PFS operation: transient failures (injected or from the
    /// real-disk backend) are retried with exponential virtual-time
    /// backoff under the PFS [`crate::RetryPolicy`].
    pub fn write_at(&self, ctx: &NodeCtx, offset: u64, data: &[u8]) -> Result<(), PfsError> {
        let op = ctx.next_pfs_op();
        let mut attempt = 0u32;
        loop {
            self.check_alive(ctx)?;
            match ctx.fault_decision(op, attempt, Some(data.len())) {
                FaultDecision::Proceed => {
                    let res = self
                        .file
                        .storage
                        .lock()
                        .write_at(offset, data, &self.file.name);
                    match res {
                        Ok(()) => {
                            self.account_independent(
                                ctx,
                                PfsOp::Write,
                                offset,
                                data.len(),
                                Service::Now,
                                VTime::ZERO,
                            );
                            return Ok(());
                        }
                        Err(e)
                            if self.pfs.retry.is_transient(&e)
                                && self.backoff_and_retry(ctx, op, &mut attempt) =>
                        {
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
                FaultDecision::Transient => {
                    self.emit_fault(ctx, FaultKind::Transient, op, 0);
                    if self.backoff_and_retry(ctx, op, &mut attempt) {
                        continue;
                    }
                    return Err(Self::injected_transient(op));
                }
                FaultDecision::Torn { keep } => {
                    // The call reports success but only a prefix hit
                    // storage — a write-back cache lost at power time.
                    // Full cost is charged: the node believed it wrote.
                    let keep = keep.min(data.len());
                    self.emit_fault(ctx, FaultKind::Torn, op, keep as u64);
                    self.file
                        .storage
                        .lock()
                        .write_at(offset, &data[..keep], &self.file.name)?;
                    self.account_independent(
                        ctx,
                        PfsOp::Write,
                        offset,
                        data.len(),
                        Service::Now,
                        VTime::ZERO,
                    );
                    return Ok(());
                }
                FaultDecision::Crash { keep } => {
                    // Peers observe `PeerGone` when this rank's thread
                    // unwinds.
                    self.persist_crash_prefix(ctx, op, offset, data, keep);
                    return Err(Self::die(ctx));
                }
            }
        }
    }

    /// Independent positioned read (does not move the private position).
    ///
    /// Like [`FileHandle::write_at`], one logical retry-wrapped PFS
    /// operation.
    pub fn read_at(&self, ctx: &NodeCtx, offset: u64, buf: &mut [u8]) -> Result<(), PfsError> {
        let op = ctx.next_pfs_op();
        let mut attempt = 0u32;
        loop {
            self.check_alive(ctx)?;
            match ctx.fault_decision(op, attempt, None) {
                FaultDecision::Transient => {
                    self.emit_fault(ctx, FaultKind::Transient, op, 0);
                    if self.backoff_and_retry(ctx, op, &mut attempt) {
                        continue;
                    }
                    return Err(Self::injected_transient(op));
                }
                FaultDecision::Crash { .. } => {
                    self.emit_fault(ctx, FaultKind::Crash, op, 0);
                    return Err(Self::die(ctx));
                }
                // Torn applies to writes only; a read proceeds.
                FaultDecision::Proceed | FaultDecision::Torn { .. } => {
                    let res = self
                        .file
                        .storage
                        .lock()
                        .read_at(offset, buf, &self.file.name);
                    match res {
                        Ok(()) => {
                            self.account_independent(
                                ctx,
                                PfsOp::Read,
                                offset,
                                buf.len(),
                                Service::Now,
                                VTime::ZERO,
                            );
                            return Ok(());
                        }
                        Err(e)
                            if self.pfs.retry.is_transient(&e)
                                && self.backoff_and_retry(ctx, op, &mut attempt) =>
                        {
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    // ---- shared-file independent modes (Paragon NX M_LOG / M_RECORD) ------

    /// M_LOG-style shared append: an independent write at the file's
    /// shared log cursor, first-come-first-served across ranks. Like the
    /// real mode, the *order* of records from different ranks is whatever
    /// the I/O system observed — inherently nondeterministic; use it for
    /// logs where arrival order is acceptable. Returns the record's
    /// offset. Do not mix with collective appends on the same file.
    pub fn append_shared(&self, ctx: &NodeCtx, data: &[u8]) -> Result<u64, PfsError> {
        let off = self
            .file
            .log_cursor
            .fetch_add(data.len() as u64, Ordering::SeqCst);
        self.write_at(ctx, off, data)?;
        Ok(off)
    }

    /// M_RECORD-style access: every rank writes fixed-length records that
    /// land in round-robin node order — this rank's `k`-th record occupies
    /// slot `k * nprocs + rank`. Deterministic layout without any
    /// coordination (each rank tracks only its own sequence number).
    /// `data` must fit in `record_size`; shorter records are zero-padded.
    pub fn write_record(
        &self,
        ctx: &NodeCtx,
        record_size: usize,
        data: &[u8],
    ) -> Result<u64, PfsError> {
        if data.len() > record_size {
            return Err(PfsError::CollectiveMismatch(format!(
                "record of {} bytes exceeds the fixed record size {}",
                data.len(),
                record_size
            )));
        }
        let seq = self.record_seq.get();
        self.record_seq.set(seq + 1);
        let slot = seq * ctx.nprocs() as u64 + ctx.rank() as u64;
        let off = slot * record_size as u64;
        let mut padded = data.to_vec();
        padded.resize(record_size, 0);
        self.write_at(ctx, off, &padded)?;
        Ok(slot)
    }

    /// Read back one M_RECORD slot (any rank may read any slot).
    pub fn read_record(
        &self,
        ctx: &NodeCtx,
        record_size: usize,
        slot: u64,
    ) -> Result<Vec<u8>, PfsError> {
        let mut buf = vec![0u8; record_size];
        self.read_at(ctx, slot * record_size as u64, &mut buf)?;
        Ok(buf)
    }

    // ---- collective operations (the parallel-file-system path) ------------
    //
    // Each ordered collective has one body, shared by the blocking call
    // here and its split-collective begin in `nonblocking`: the body
    // takes a [`Service`] that pays the transfer's cost now or defers it
    // onto an [`IoHandle`]. With a `CollectiveConfig` on the machine the
    // body is the two-phase one in `aggregate`, otherwise the direct one
    // below.

    /// Collective node-order append. Every rank must call this with its own
    /// block (possibly empty); on return the file contains all blocks,
    /// appended after the previous end of file **in rank order**, and every
    /// rank knows the offset where *its* block landed.
    ///
    /// Cost: a single parallel operation covering all blocks — startup
    /// latency plus total-bytes over the (possibly knee'd) aggregate PFS
    /// bandwidth. All ranks leave with synchronized virtual clocks.
    pub fn write_ordered(&self, ctx: &NodeCtx, block: &[u8]) -> Result<u64, PfsError> {
        self.write_ordered_summed(ctx, block).map(|(off, _, _)| off)
    }

    /// [`FileHandle::write_ordered`] that additionally returns the
    /// combinable digest of **every** rank's block — every rank leaves
    /// knowing the per-rank checksums of the bytes the collective
    /// appended, in node order — and the peer-crash flag: true when a
    /// power cut hit some rank's transfer, so the record covering it
    /// must not be sealed. The digests ride the size gather and plan
    /// broadcast the operation performs anyway, so the communication
    /// shape is identical to `write_ordered`. This is what the d/stream
    /// layer seals records with.
    pub fn write_ordered_summed(
        &self,
        ctx: &NodeCtx,
        block: &[u8],
    ) -> Result<(u64, Vec<ChunkSum>, bool), PfsError> {
        let (off, digests, peer_crashed, _) = self.ordered_write(ctx, block, Service::Now)?;
        Ok((off, digests, peer_crashed))
    }

    /// Collective parallel read: every rank reads `len` bytes at `offset`
    /// (both per-rank) in one parallel operation. Ranks may pass `len == 0`
    /// to participate without transferring data.
    pub fn read_ordered(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, PfsError> {
        self.read_ordered_summed(ctx, offset, len).map(|(b, _)| b)
    }

    /// [`FileHandle::read_ordered`] that additionally returns the
    /// combinable digest of the bytes **each** rank read, in node order.
    /// The digests ride the size exchange the operation performs anyway.
    /// When the per-rank spans tile a region contiguously, folding the
    /// digests left-to-right reproduces the digest of the whole region —
    /// how the d/stream layer verifies a record seal while reading.
    pub fn read_ordered_summed(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        len: usize,
    ) -> Result<(Vec<u8>, Vec<ChunkSum>), PfsError> {
        let (buf, digests, _) = self.ordered_read(ctx, offset, len, Service::Now)?;
        Ok((buf, digests))
    }

    /// The ordered write in either service mode, direct or aggregated.
    pub(crate) fn ordered_write(
        &self,
        ctx: &NodeCtx,
        block: &[u8],
        service: Service,
    ) -> Result<WriteOutcome, PfsError> {
        match ctx.config().collective {
            Some(cc) => self.agg_write_ordered(ctx, cc, block, service),
            None => self.direct_write_ordered(ctx, block, service),
        }
    }

    /// The ordered read in either service mode, direct or aggregated.
    pub(crate) fn ordered_read(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        len: usize,
        service: Service,
    ) -> Result<ReadOutcome, PfsError> {
        match ctx.config().collective {
            Some(cc) => self.agg_read_ordered(ctx, cc, offset, len, service),
            None => self.direct_read_ordered(ctx, offset, len, service),
        }
    }

    fn direct_write_ordered(
        &self,
        ctx: &NodeCtx,
        block: &[u8],
        service: Service,
    ) -> Result<WriteOutcome, PfsError> {
        // One logical PFS operation: its internal coordination (barrier,
        // size gather, plan broadcast, closing all-reduce) is plumbing,
        // not API collectives.
        let _scope = ctx.collective_scope();
        let op = ctx.next_pfs_op();
        let fate = self.collective_fate(ctx, op, Some(block.len()))?;
        // Make prior independent writes globally visible and align clocks.
        ctx.barrier()?;
        let plan = self.append_plan(ctx, block, None, "write_ordered")?;
        let my_off = plan.offsets[ctx.rank()];
        let max_block = plan.sizes.iter().copied().max().unwrap_or(0);

        // Physical transfer — the step a write fault tears or cuts short.
        // A power cut persists the seeded prefix, but the rank stays in
        // the collective through the closing all-reduce so no peer is
        // stranded; it dies after it.
        let mut my_crash = false;
        match fate {
            FaultDecision::Proceed | FaultDecision::Transient => {
                if !block.is_empty() {
                    self.file
                        .storage
                        .lock()
                        .write_at(my_off, block, &self.file.name)?;
                }
            }
            FaultDecision::Torn { keep } => {
                let keep = keep.min(block.len());
                self.emit_fault(ctx, FaultKind::Torn, op, keep as u64);
                self.file
                    .storage
                    .lock()
                    .write_at(my_off, &block[..keep], &self.file.name)?;
            }
            FaultDecision::Crash { keep } => {
                self.persist_crash_prefix(ctx, op, my_off, block, keep);
                my_crash = true;
            }
        }
        // Virtual cost of the single parallel operation; a dead disk
        // serves nothing.
        let cost = self
            .pfs
            .model
            .collective_cost(plan.total, max_block, ctx.nprocs());
        let charged = service.charge(ctx, if my_crash { VTime::ZERO } else { cost });
        self.record_collective(
            ctx,
            PfsOp::Write,
            my_off,
            block.len() as u64,
            plan.total,
            max_block,
            cost,
        );
        // Closing synchronization: all blocks are visible before anyone
        // proceeds, and every rank learns whether some transfer was cut.
        let peer_crashed = ctx.all_reduce(my_crash as u64, |a, b| a | b)? != 0;
        let handle = service.settle(ctx, charged, my_crash, peer_crashed)?;
        Ok((my_off, plan.digests, peer_crashed, handle))
    }

    fn direct_read_ordered(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        len: usize,
        service: Service,
    ) -> Result<ReadOutcome, PfsError> {
        let _scope = ctx.collective_scope();
        let op = ctx.next_pfs_op();
        let my_crash = self.read_fate(ctx, op, service)?;
        ctx.barrier()?;
        // Read first so the size exchange can carry the data digests; on a
        // failed read still participate (empty contribution), then surface
        // the error — abandoning the collective would strand the peers.
        let mut buf = vec![0u8; len];
        let read_res = if len > 0 {
            self.file
                .storage
                .lock()
                .read_at(offset, &mut buf, &self.file.name)
        } else {
            Ok(())
        };
        let my_sum = if read_res.is_ok() {
            ChunkSum::of(&buf)
        } else {
            ChunkSum::EMPTY
        };
        // Everyone learns the collective's total and max block for costing,
        // and every rank's data digest for seal verification.
        let mut contrib = Vec::with_capacity(24);
        contrib.extend_from_slice(&(len as u64).to_le_bytes());
        contrib.extend_from_slice(&my_sum.hash().to_le_bytes());
        contrib.extend_from_slice(&my_sum.rpow().to_le_bytes());
        let frames = ctx.all_gather(contrib)?;
        let mut sizes = Vec::with_capacity(ctx.nprocs());
        let mut digests = Vec::with_capacity(ctx.nprocs());
        for frame in &frames {
            if frame.len() != 24 {
                return Err(PfsError::CollectiveMismatch(
                    "read_ordered: malformed size/digest frame".into(),
                ));
            }
            sizes.push(decode_u64(&frame[..8], "read_ordered size frame")?);
            digests.push(decode_sum(&frame[8..24], "read_ordered digest")?);
        }
        read_res?;
        let total: u64 = sizes.iter().sum();
        let max_block = sizes.iter().copied().max().unwrap_or(0);
        let cost = self
            .pfs
            .model
            .collective_cost(total, max_block, ctx.nprocs());
        let charged = service.charge(ctx, if my_crash { VTime::ZERO } else { cost });
        self.record_collective(ctx, PfsOp::Read, offset, len as u64, total, max_block, cost);
        let handle = service.settle(ctx, charged, my_crash, false)?;
        Ok((buf, digests, handle))
    }

    /// The fault fate at the head of a collective read. A power cut kills
    /// a blocking read on entry: the rank never joins the collective, and
    /// peers blocked in the opening barrier observe `PeerGone` when its
    /// thread unwinds. A deferred read instead keeps the rank in the
    /// collective, so it stays well-formed for the peers, and returns
    /// `true`: the death rides the handle.
    pub(crate) fn read_fate(
        &self,
        ctx: &NodeCtx,
        op: u64,
        service: Service,
    ) -> Result<bool, PfsError> {
        let FaultDecision::Crash { .. } = self.collective_fate(ctx, op, None)? else {
            return Ok(false);
        };
        self.emit_fault(ctx, FaultKind::Crash, op, 0);
        match service {
            Service::Now => Err(Self::die(ctx)),
            Service::Deferred => Ok(true),
        }
    }

    /// Exchange the plan of an ordered append: every rank's block size
    /// and digest (and crash flag, when `crash` is given) travel to rank
    /// 0, which adds the append base — the old end of file — and
    /// broadcasts the plan. The digest is of the full intended block
    /// even when the transfer will tear: torn writes are silent, and seal
    /// verification catches them later.
    pub(crate) fn append_plan(
        &self,
        ctx: &NodeCtx,
        block: &[u8],
        crash: Option<bool>,
        what: &str,
    ) -> Result<AppendPlan, PfsError> {
        let frame_len = 24 + usize::from(crash.is_some());
        let mismatch = |msg: &str| PfsError::CollectiveMismatch(format!("{what}: {msg}"));
        let my_sum = ChunkSum::of(block);
        let mut contrib = Vec::with_capacity(frame_len);
        contrib.extend_from_slice(&(block.len() as u64).to_le_bytes());
        contrib.extend_from_slice(&my_sum.hash().to_le_bytes());
        contrib.extend_from_slice(&my_sum.rpow().to_le_bytes());
        contrib.extend(crash.map(u8::from));
        let gathered = ctx.gather(0, contrib)?;
        let plan = if ctx.is_root() {
            let frames = gathered.expect("root gathers");
            let mut blocks = Vec::with_capacity(frames.len() + 1);
            blocks.push(self.file.len().to_le_bytes().to_vec());
            for frame in frames {
                if frame.len() != frame_len {
                    return Err(mismatch("malformed size/digest frame"));
                }
                blocks.push(frame);
            }
            frame_blocks(&blocks)
        } else {
            Vec::new()
        };
        let plan = ctx.broadcast(0, plan)?;
        let parts = unframe_blocks(&plan).ok_or_else(|| mismatch("malformed plan"))?;
        let nprocs = ctx.nprocs();
        if parts.len() != nprocs + 1 {
            return Err(mismatch("plan size mismatch"));
        }
        let base = decode_u64(&parts[0], "append plan base")?;
        let mut out = AppendPlan {
            offsets: Vec::with_capacity(nprocs),
            sizes: Vec::with_capacity(nprocs),
            digests: Vec::with_capacity(nprocs),
            crashed: Vec::with_capacity(nprocs),
            base,
            total: 0,
        };
        let mut acc = base;
        for frame in &parts[1..] {
            if frame.len() != frame_len {
                return Err(mismatch("malformed plan frame"));
            }
            let size = decode_u64(&frame[..8], "append plan size")?;
            out.offsets.push(acc);
            acc += size;
            out.sizes.push(size);
            out.digests
                .push(decode_sum(&frame[8..24], "append plan digest")?);
            out.crashed.push(frame.get(24).is_some_and(|&b| b != 0));
        }
        if out.sizes[ctx.rank()] != block.len() as u64 {
            return Err(mismatch("my block size desynchronized"));
        }
        out.total = acc - base;
        Ok(out)
    }

    /// Trace and account this rank's part of one parallel transfer: the
    /// `PfsCollective` event for `bytes` at `offset` (`max_block` picks
    /// the cache-knee regime), then the traffic estimate and `Stats`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_collective(
        &self,
        ctx: &NodeCtx,
        op: PfsOp,
        offset: u64,
        bytes: u64,
        total: u64,
        max_block: u64,
        cost: VTime,
    ) {
        let nprocs = ctx.nprocs() as u64;
        ctx.emit_with(|| EventKind::PfsCollective {
            op,
            file: self.file.name.clone(),
            offset,
            bytes,
            total_bytes: total,
            share_bytes: total / nprocs,
            stripes: self.pfs.model.stripes_touched(offset, bytes),
            regime: if self.pfs.model.collective_knee(max_block) {
                CollectiveRegime::CacheKnee
            } else {
                CollectiveRegime::Streaming
            },
            cost_ns: cost.as_nanos(),
        });
        // Traffic is shared by the whole machine; attribute an even share
        // per rank so the cache-occupancy estimate stays rank-local.
        self.pfs.rank_traffic[ctx.rank()].fetch_add(total / nprocs, Ordering::Relaxed);
        let stats = &self.pfs.stats;
        stats.collective_ops.fetch_add(1, Ordering::Relaxed);
        stats
            .collective_bytes
            .fetch_add(total / nprocs.max(1), Ordering::Relaxed);
    }
}

/// What an ordered write body returns: this rank's block offset, every
/// rank's block digest, the peer-crash flag, and the handle in deferred
/// mode.
pub(crate) type WriteOutcome = (u64, Vec<ChunkSum>, bool, Option<IoHandle>);

/// What an ordered read body returns: this rank's bytes, every rank's
/// digest of what it read, and the handle in deferred mode.
pub(crate) type ReadOutcome = (Vec<u8>, Vec<ChunkSum>, Option<IoHandle>);

/// The plan of an ordered append, identical on every rank.
pub(crate) struct AppendPlan {
    /// Each rank's block offset.
    pub(crate) offsets: Vec<u64>,
    /// Each rank's block size.
    pub(crate) sizes: Vec<u64>,
    /// Each rank's block digest.
    pub(crate) digests: Vec<ChunkSum>,
    /// Each rank's power-cut flag (all false unless exchanged).
    pub(crate) crashed: Vec<bool>,
    /// The old end of file the blocks append after.
    pub(crate) base: u64,
    /// Total bytes appended.
    pub(crate) total: u64,
}

/// Decode a 16-byte `hash ‖ rpow` digest exchanged during a collective.
pub(crate) fn decode_sum(b: &[u8], what: &str) -> Result<ChunkSum, PfsError> {
    Ok(ChunkSum::from_parts(
        decode_u64(&b[..8], what)?,
        decode_u64(&b[8..16], what)?,
    ))
}

/// Decode a little-endian u64 exchanged during a collective plan.
pub(crate) fn decode_u64(b: &[u8], what: &str) -> Result<u64, PfsError> {
    Ok(u64::from_le_bytes(b.try_into().map_err(|_| {
        PfsError::CollectiveMismatch(format!("malformed {what}"))
    })?))
}

/// Aggregate operation counters for a PFS instance.
#[derive(Debug, Default)]
pub struct Stats {
    /// Number of independent (per-rank) operations issued.
    pub independent_ops: AtomicU64,
    /// Bytes moved by independent operations.
    pub independent_bytes: AtomicU64,
    /// Independent ops that fell into the disk (post-knee) regime.
    pub disk_regime_ops: AtomicU64,
    /// Number of collective operations (each counted once per rank / nprocs).
    pub collective_ops: AtomicU64,
    /// Bytes moved by collective operations (total across ranks).
    pub collective_bytes: AtomicU64,
}

/// A point-in-time copy of [`Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Independent operations issued.
    pub independent_ops: u64,
    /// Bytes moved by independent operations.
    pub independent_bytes: u64,
    /// Independent ops in the disk regime.
    pub disk_regime_ops: u64,
    /// Collective operations issued (rank-calls).
    pub collective_ops: u64,
    /// Bytes moved by collective operations.
    pub collective_bytes: u64,
}

impl Stats {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            independent_ops: self.independent_ops.load(Ordering::Relaxed),
            independent_bytes: self.independent_bytes.load(Ordering::Relaxed),
            disk_regime_ops: self.disk_regime_ops.load(Ordering::Relaxed),
            collective_ops: self.collective_ops.load(Ordering::Relaxed),
            collective_bytes: self.collective_bytes.load(Ordering::Relaxed),
        }
    }
}

/// The virtual-time cost charged so far is observable through `NodeCtx`;
/// this helper reports a duration in seconds for table output.
pub fn secs(t: VTime) -> f64 {
    t.as_secs_f64()
}
