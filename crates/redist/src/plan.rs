//! The two-phase redistribution planner.
//!
//! Phase 1 — the *conforming read* — assigns every reader rank one
//! contiguous run of file-order elements, exactly as the paper's
//! PASSION-style sorted read does. Phase 2 moves each element from the
//! rank that read it to the rank that owns it under the target layout.
//!
//! The planner chooses the phase-1 boundaries by dynamic programming
//! over *ownership-run* boundaries (maximal file-order runs with the
//! same destination rank), minimizing the total bytes that must change
//! ranks, with ties broken toward the balanced split. Because an
//! optimal boundary can always be slid to an adjacent run boundary
//! without increasing the moved-byte count, restricting candidates to
//! run boundaries loses nothing: the resulting schedule is minimal over
//! all conforming (contiguous-span) reads.
//!
//! The DP runs in O(nprocs × runs) time because its cost separates.
//! With `a[c]` the bytes of runs `0..c` that rank `p` does not own, a
//! span `[ci, cj)` moves `a[cj] − a[ci]` bytes, so the best start on
//! moved bytes is a running prefix minimum of `dp.0[ci] − a[ci]`. Among
//! the starts tied at that minimum the imbalance `|x − cand[ci]|`, with
//! `x = cand[cj] − target(p)` nondecreasing in `cj`, splits at `x` into
//! two fronts: a running minimum of `dp.1 − cand` to the left and a
//! monotone-deque sliding minimum of `dp.1 + cand` to the right. Each
//! start enters and leaves each front once per rank, and ties resolve
//! to the earliest start, as an exhaustive scan of all starts would.
//!
//! Two corollaries the test suite asserts directly:
//!
//! * **idempotence** — when the destination layout equals the layout
//!   the file was written with, the ownership runs are exactly the
//!   writer's node blocks, the DP reproduces them at zero cost, and the
//!   plan carries **no messages at all**;
//! * **exactness** — per rank pair, the scheduled bytes equal
//!   `Σ size(e)` over elements read by `src` and owned by `dst`; no
//!   framing, duplication or padding is ever scheduled, so the executor
//!   can be audited against [`RedistPlan::lower_bound`] byte for byte.

use std::collections::VecDeque;

/// One coalesced run of contiguous file-order elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// First file-order element index of the run.
    pub start: usize,
    /// Number of contiguous elements.
    pub len: usize,
    /// Total payload bytes of the run.
    pub bytes: u64,
}

/// Everything moving from one reader rank to one owner rank: the
/// coalesced intervals, their byte count, and their element count. When
/// `src == dst` the transfer is *retained* — it becomes a local memmove
/// and never touches the message layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Rank that read the elements in phase 1.
    pub src: usize,
    /// Rank that owns them under the target layout.
    pub dst: usize,
    /// Coalesced file-order runs, in increasing `start` order.
    pub intervals: Vec<Interval>,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total elements.
    pub elements: u64,
}

/// A complete two-phase redistribution schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedistPlan {
    nprocs: usize,
    n: usize,
    /// Phase-1 file-order span `[lo, hi)` per rank.
    spans: Vec<(usize, usize)>,
    /// Cross-rank transfers, sorted by `(src, dst)`.
    messages: Vec<Transfer>,
    /// Locally-retained transfers (`src == dst`), sorted by rank.
    retained: Vec<Transfer>,
    /// Total message payload bytes — the analytic minimum for this
    /// conforming read.
    lower_bound: u64,
}

impl RedistPlan {
    /// Plan the redistribution of `n` file-order elements with the given
    /// `sizes` onto `nprocs` ranks, where `dst_owner[e]` is the rank
    /// owning file-order element `e` under the target layout. Every rank
    /// of a machine computes the identical plan from the identical
    /// metadata, so no plan data ever needs to travel.
    ///
    /// # Panics
    /// If `sizes` and `dst_owner` differ in length, `nprocs` is zero, or
    /// any destination rank is out of range.
    pub fn new(nprocs: usize, sizes: &[u64], dst_owner: &[usize]) -> RedistPlan {
        assert!(nprocs > 0, "plan needs at least one rank");
        assert_eq!(sizes.len(), dst_owner.len(), "one destination per element");
        assert!(
            dst_owner.iter().all(|&d| d < nprocs),
            "destination ranks must be < nprocs"
        );
        let n = sizes.len();

        // Ownership runs: candidate boundaries for the phase-1 spans.
        // cand[i] is a file-order index; cand is strictly increasing,
        // starts at 0 and ends at n.
        let mut cand = vec![0usize];
        for e in 1..n {
            if dst_owner[e] != dst_owner[e - 1] {
                cand.push(e);
            }
        }
        cand.push(n.max(cand.last().copied().unwrap_or(0)));
        if n == 0 {
            cand = vec![0, 0];
        }
        let r = cand.len() - 1; // number of runs

        // Bytes and destination owner of each run (the owner is constant
        // within a run, so per-run totals capture everything the cost
        // needs).
        let run_bytes: Vec<u64> = cand
            .windows(2)
            .map(|w| sizes[w[0]..w[1]].iter().sum())
            .collect();
        let run_owner: Vec<usize> = cand[..r]
            .iter()
            .map(|&c| if c < n { dst_owner[c] } else { 0 })
            .collect();

        // DP over (rank, candidate boundary): D[c] = cheapest way to
        // cover the first `cand[c]` elements with the spans of ranks
        // 0..p. Cost is lexicographic (moved bytes, imbalance), where
        // imbalance is the span's element-count deviation from the
        // balanced split — so among equally-cheap schedules the balanced
        // one wins, and a same-layout read degenerates to zero moves.
        // Ties go to the earliest span start.
        const INF: (u64, u64) = (u64::MAX, u64::MAX);
        let target = |p: usize| -> usize { ((p + 1) * n) / nprocs - (p * n) / nprocs };
        let mut dp = vec![INF; r + 1];
        dp[0] = (0, 0);
        // Every round writes all of `next`: dp[0] is always finite.
        let mut next = vec![INF; r + 1];
        // choice[p][c] = boundary index where rank p's span starts.
        let mut choice = vec![vec![0usize; r + 1]; nprocs];
        for (p, start) in choice.iter_mut().enumerate() {
            // moved(ci, cj) = a[cj] - a[ci], with a[c] the bytes of runs
            // 0..c that rank p does not own; `a` is a[cj] as cj sweeps.
            let mut a = 0u64;
            // Minimum of dp.0[ci] - a[ci] over the starts seen so far.
            let mut best = i128::MAX;
            // Imbalance fronts over the starts tied at `best`, as
            // (value, start): `left` holds the least `dp.1 - cand` among
            // starts at or below `x`, `right` a monotone deque of
            // `dp.1 + cand` over the starts above it.
            let mut left: Option<(i64, usize)> = None;
            let mut right: VecDeque<(i64, usize)> = VecDeque::new();
            let t = target(p) as i64;
            for cj in 0..=r {
                if cj > 0 && run_owner[cj - 1] != p {
                    a += run_bytes[cj - 1];
                }
                if dp[cj] != INF {
                    let k = i128::from(dp[cj].0) - i128::from(a);
                    if k < best {
                        best = k;
                        left = None;
                        right.clear();
                    }
                    if k == best {
                        let v = dp[cj].1 as i64 + cand[cj] as i64;
                        while right.back().is_some_and(|&(bv, _)| bv > v) {
                            right.pop_back();
                        }
                        right.push_back((v, cj));
                    }
                }
                // Imbalance of span [ci, cj) is |x - cand[ci]|.
                let x = cand[cj] as i64 - t;
                while let Some(&(v, ci)) = right.front() {
                    if cand[ci] as i64 > x {
                        break;
                    }
                    right.pop_front();
                    let lv = v - 2 * cand[ci] as i64;
                    if left.is_none_or(|(bv, _)| lv < bv) {
                        left = Some((lv, ci));
                    }
                }
                let from_left = left.map(|(v, ci)| (v + x, ci));
                let from_right = right.front().map(|&(v, ci)| (v - x, ci));
                // On a tie the left front wins: its starts come first.
                let (imb, ci) = match (from_left, from_right) {
                    (Some(l), Some(rt)) if rt.0 < l.0 => rt,
                    (Some(l), _) => l,
                    (None, Some(rt)) => rt,
                    (None, None) => unreachable!("a tied start is always on a front"),
                };
                next[cj] = ((best + i128::from(a)) as u64, imb as u64);
                start[cj] = ci;
            }
            std::mem::swap(&mut dp, &mut next);
        }

        // Reconstruct the span boundaries.
        let mut bounds = vec![0usize; nprocs + 1];
        bounds[nprocs] = n;
        let mut c = r;
        for p in (0..nprocs).rev() {
            c = choice[p][c];
            bounds[p] = cand[c];
        }
        let spans: Vec<(usize, usize)> = (0..nprocs).map(|p| (bounds[p], bounds[p + 1])).collect();

        // Emit the per-pair transfer intervals: walk each span, splitting
        // at ownership changes, coalescing contiguous same-destination
        // elements into intervals.
        let mut messages: Vec<Transfer> = Vec::new();
        let mut retained: Vec<Transfer> = Vec::new();
        let mut lower_bound = 0u64;
        for (p, &(lo, hi)) in spans.iter().enumerate() {
            let mut per_dst: Vec<Option<Transfer>> = vec![None; nprocs];
            let mut e = lo;
            while e < hi {
                let dst = dst_owner[e];
                let start = e;
                let mut bytes = 0u64;
                while e < hi && dst_owner[e] == dst {
                    bytes += sizes[e];
                    e += 1;
                }
                let t = per_dst[dst].get_or_insert_with(|| Transfer {
                    src: p,
                    dst,
                    intervals: Vec::new(),
                    bytes: 0,
                    elements: 0,
                });
                t.intervals.push(Interval {
                    start,
                    len: e - start,
                    bytes,
                });
                t.bytes += bytes;
                t.elements += (e - start) as u64;
            }
            for t in per_dst.into_iter().flatten() {
                if t.dst == p {
                    retained.push(t);
                } else {
                    lower_bound += t.bytes;
                    messages.push(t);
                }
            }
        }
        messages.sort_by_key(|t| (t.src, t.dst));

        RedistPlan {
            nprocs,
            n,
            spans,
            messages,
            retained,
            lower_bound,
        }
    }

    /// Number of ranks the plan was built for.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of file-order elements covered.
    pub fn n_elements(&self) -> usize {
        self.n
    }

    /// Phase-1 file-order span `[lo, hi)` read by `rank`.
    pub fn span(&self, rank: usize) -> (usize, usize) {
        self.spans[rank]
    }

    /// Cross-rank transfers, sorted by `(src, dst)`. One message each.
    pub fn messages(&self) -> &[Transfer] {
        &self.messages
    }

    /// Locally-retained transfers (`src == dst`): memmoves, not messages.
    pub fn retained(&self) -> &[Transfer] {
        &self.retained
    }

    /// Total message payload bytes — the analytic minimum a zero-overhead
    /// executor must hit exactly.
    pub fn lower_bound(&self) -> u64 {
        self.lower_bound
    }

    /// Payload bytes scheduled from `src` to `dst` (0 when no transfer).
    pub fn pair_bytes(&self, src: usize, dst: usize) -> u64 {
        self.messages
            .iter()
            .find(|t| t.src == src && t.dst == dst)
            .map(|t| t.bytes)
            .unwrap_or(0)
    }

    /// Whether the plan moves nothing between ranks.
    pub fn is_identity(&self) -> bool {
        self.messages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_destination_yields_no_messages() {
        // File order already grouped by destination in rank order, with
        // ragged block sizes: the DP must align to the blocks exactly.
        let dst = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3];
        let sizes = [5u64, 0, 3, 9, 2, 2, 2, 7, 1, 1, 1, 30];
        let plan = RedistPlan::new(4, &sizes, &dst);
        assert!(plan.is_identity(), "{plan:?}");
        assert_eq!(plan.lower_bound(), 0);
        assert_eq!(plan.span(0), (0, 4));
        assert_eq!(plan.span(3), (11, 12));
        let retained_bytes: u64 = plan.retained().iter().map(|t| t.bytes).sum();
        assert_eq!(retained_bytes, sizes.iter().sum::<u64>());
    }

    #[test]
    fn single_destination_assigns_everything_to_it() {
        let dst = [2usize; 9];
        let sizes = [4u64; 9];
        let plan = RedistPlan::new(4, &sizes, &dst);
        assert!(plan.is_identity(), "{plan:?}");
        assert_eq!(plan.span(2), (0, 9));
    }

    #[test]
    fn scheduled_bytes_are_exactly_the_mismatched_bytes() {
        // Alternating destinations: whatever spans the DP picks, the
        // per-pair bytes must be exactly the mismatched sizes.
        let dst = [0, 1, 0, 1, 0, 1, 0, 1];
        let sizes = [10u64, 20, 30, 40, 50, 60, 70, 80];
        let plan = RedistPlan::new(2, &sizes, &dst);
        let mut want = 0u64;
        for (e, &d) in dst.iter().enumerate() {
            let (lo0, hi0) = plan.span(0);
            let reader = if e >= lo0 && e < hi0 { 0 } else { 1 };
            if reader != d {
                want += sizes[e];
            }
        }
        assert_eq!(plan.lower_bound(), want);
        let sum: u64 = plan.messages().iter().map(|t| t.bytes).sum();
        assert_eq!(sum, want);
    }

    #[test]
    fn intervals_are_coalesced_and_cover_each_span() {
        let dst = [1, 1, 0, 0, 1, 1, 0, 0];
        let sizes = [1u64; 8];
        let plan = RedistPlan::new(2, &sizes, &dst);
        for p in 0..2 {
            let (lo, hi) = plan.span(p);
            let mut covered: Vec<usize> = Vec::new();
            for t in plan.messages().iter().chain(plan.retained()) {
                if t.src != p {
                    continue;
                }
                for iv in &t.intervals {
                    assert!(iv.start >= lo && iv.start + iv.len <= hi);
                    covered.extend(iv.start..iv.start + iv.len);
                }
            }
            covered.sort_unstable();
            let want: Vec<usize> = (lo..hi).collect();
            assert_eq!(covered, want, "span of rank {p} exactly covered");
        }
    }

    #[test]
    fn empty_plan_is_fine() {
        let plan = RedistPlan::new(3, &[], &[]);
        assert!(plan.is_identity());
        for p in 0..3 {
            assert_eq!(plan.span(p), (0, 0));
        }
    }

    #[test]
    fn more_ranks_than_elements() {
        let dst = [4, 0];
        let sizes = [8u64, 8];
        let plan = RedistPlan::new(6, &sizes, &dst);
        let total: u64 = plan
            .messages()
            .iter()
            .chain(plan.retained())
            .map(|t| t.bytes)
            .sum();
        assert_eq!(total, 16);
    }

    #[test]
    #[should_panic(expected = "one destination per element")]
    fn mismatched_inputs_panic() {
        RedistPlan::new(2, &[1, 2], &[0]);
    }
}
