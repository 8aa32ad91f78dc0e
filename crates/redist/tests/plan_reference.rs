//! The planner's linear-time DP against the quadratic reference it
//! replaced.
//!
//! `RedistPlan::new` picks each rank's span with a two-front sweep that
//! must reproduce, tie-breaking included, the plain O(nprocs × runs²)
//! DP below: try every span start for every span end, keep the first
//! strictly cheaper `(moved bytes, imbalance)` cost. Equal spans mean
//! equal schedules, file bytes and virtual times, so this is the whole
//! equivalence the planner owes.

use dstreams_redist::RedistPlan;
use proptest::prelude::*;

/// Phase-1 spans chosen by the quadratic DP over ownership-run
/// boundaries.
fn reference_spans(nprocs: usize, sizes: &[u64], dst_owner: &[usize]) -> Vec<(usize, usize)> {
    let n = sizes.len();
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
    let r = cand.len() - 1;

    let mut total_pref = vec![0u64; r + 1];
    let mut owned_pref = vec![vec![0u64; r + 1]; nprocs];
    for i in 0..r {
        let run_bytes: u64 = sizes[cand[i]..cand[i + 1]].iter().sum();
        total_pref[i + 1] = total_pref[i] + run_bytes;
        let owner = if cand[i] < n { dst_owner[cand[i]] } else { 0 };
        for (p, pref) in owned_pref.iter_mut().enumerate() {
            pref[i + 1] = pref[i] + if p == owner { run_bytes } else { 0 };
        }
    }

    const INF: (u64, u64) = (u64::MAX, u64::MAX);
    let target = |p: usize| -> usize { ((p + 1) * n) / nprocs - (p * n) / nprocs };
    let mut dp = vec![INF; r + 1];
    dp[0] = (0, 0);
    let mut choice = vec![vec![0usize; r + 1]; nprocs];
    for p in 0..nprocs {
        let mut next = vec![INF; r + 1];
        for cj in 0..=r {
            for ci in 0..=cj {
                if dp[ci] == INF {
                    continue;
                }
                let moved =
                    (total_pref[cj] - total_pref[ci]) - (owned_pref[p][cj] - owned_pref[p][ci]);
                let imb = (cand[cj] - cand[ci]).abs_diff(target(p)) as u64;
                let cost = (dp[ci].0 + moved, dp[ci].1 + imb);
                if cost < next[cj] {
                    next[cj] = cost;
                    choice[p][cj] = ci;
                }
            }
        }
        dp = next;
    }

    let mut bounds = vec![0usize; nprocs + 1];
    bounds[nprocs] = n;
    let mut c = r;
    for p in (0..nprocs).rev() {
        c = choice[p][c];
        bounds[p] = cand[c];
    }
    (0..nprocs).map(|p| (bounds[p], bounds[p + 1])).collect()
}

fn assert_same_spans(nprocs: usize, sizes: &[u64], dst: &[usize]) {
    let plan = RedistPlan::new(nprocs, sizes, dst);
    let got: Vec<(usize, usize)> = (0..nprocs).map(|p| plan.span(p)).collect();
    assert_eq!(
        got,
        reference_spans(nprocs, sizes, dst),
        "nprocs {nprocs}, sizes {sizes:?}, dst {dst:?}"
    );
}

/// Destinations of a record written BLOCK (file order = global id) and
/// read CYCLIC on `nprocs` ranks: every element is its own run.
fn cyclic_dst(n: usize, nprocs: usize) -> Vec<usize> {
    (0..n).map(|e| e % nprocs).collect()
}

#[test]
fn cyclic_destinations_with_uniform_sizes_match_the_reference() {
    for nprocs in 2..=5 {
        for n in [2000, 2999] {
            assert_same_spans(nprocs, &vec![8u64; n], &cyclic_dst(n, nprocs));
        }
    }
}

#[test]
fn cyclic_destinations_with_ragged_sizes_match_the_reference() {
    for nprocs in 2..=5 {
        let n = 2500;
        let sizes: Vec<u64> = (0..n as u64).map(|e| 4 + (e * 7 + e / 13) % 24).collect();
        assert_same_spans(nprocs, &sizes, &cyclic_dst(n, nprocs));
        let mut zeros = sizes.clone();
        for s in zeros.iter_mut().step_by(3) {
            *s = 0;
        }
        assert_same_spans(nprocs, &zeros, &cyclic_dst(n, nprocs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Random plans over a small size alphabet, where many starts tie on
    /// both cost components, pick the reference's spans.
    #[test]
    fn spans_match_the_quadratic_reference(
        nprocs in 1usize..8,
        elems in proptest::collection::vec((0u64..6, 0usize..7), 0..41),
    ) {
        let sizes: Vec<u64> = elems.iter().map(|&(s, _)| s).collect();
        let dst: Vec<usize> = elems.iter().map(|&(_, d)| d % nprocs).collect();
        let plan = RedistPlan::new(nprocs, &sizes, &dst);
        let got: Vec<(usize, usize)> = (0..nprocs).map(|p| plan.span(p)).collect();
        prop_assert_eq!(got, reference_spans(nprocs, &sizes, &dst));
    }
}
