//! Flop-balanced row partitioning (§4.1, Figure 6 of the paper).
//!
//! Static scheduling is the cheapest policy (Figure 2) but balances
//! *row counts*, not *work*. The paper's fix — `RowsToThreads` — keeps
//! static scheduling's contiguous per-thread blocks while equalizing
//! work: count per-row flop, prefix-sum it, and binary-search the
//! prefix for each thread's starting row (`lowbnd`).

use crate::{scan, Pool};

/// `lowbnd(vec, value)` from the paper: the smallest index whose
/// element is `>= value`, or `vec.len()` if none is. `vec` must be
/// non-decreasing.
pub fn lower_bound(vec: &[u64], value: u64) -> usize {
    let mut lo = 0usize;
    let mut hi = vec.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if vec[mid] < value {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `RowsToThreads`: split `0..weights.len()` into `nparts` contiguous
/// ranges of approximately equal total weight.
///
/// Returns `nparts + 1` non-decreasing offsets with `offsets[0] == 0`
/// and `offsets[nparts] == weights.len()`. Part `t` is
/// `offsets[t]..offsets[t+1]`.
///
/// `weights` is consumed as scratch (it holds its inclusive prefix sum
/// afterwards); pass a clone if the caller still needs raw weights.
pub fn balanced_offsets_in_place(weights: &mut [u64], nparts: usize, pool: &Pool) -> Vec<usize> {
    let n = weights.len();
    let nparts = nparts.max(1);
    let total = scan::parallel_inclusive_scan(pool, weights);
    let mut offsets = Vec::with_capacity(nparts + 1);
    offsets.push(0);
    for t in 1..nparts {
        // Average work per part, times the part index: the row whose
        // inclusive prefix first reaches the target *ends* part `t-1`,
        // so part `t` starts one past it (`lowbnd` over an exclusive
        // prefix, expressed against our inclusive scan).
        let target = (total as u128 * t as u128 / nparts as u128) as u64;
        let idx = lower_bound(weights, target.max(1));
        offsets.push((idx + 1).min(n));
    }
    offsets.push(n);
    // Guarantee monotonicity even for degenerate weight vectors
    // (all-zero rows make several targets collapse onto index 0).
    for t in 1..offsets.len() {
        if offsets[t] < offsets[t - 1] {
            offsets[t] = offsets[t - 1];
        }
    }
    offsets
}

/// Convenience wrapper over [`balanced_offsets_in_place`] that clones
/// the weights.
pub fn balanced_offsets(weights: &[u64], nparts: usize, pool: &Pool) -> Vec<usize> {
    let mut w = weights.to_vec();
    balanced_offsets_in_place(&mut w, nparts, pool)
}

/// Maximum total weight of any part under the given offsets; the
/// balance quality metric the partition tests check.
pub fn max_part_weight(weights: &[u64], offsets: &[usize]) -> u64 {
    offsets
        .windows(2)
        .map(|w| weights[w[0]..w[1]].iter().sum())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Pool {
        Pool::new(2)
    }

    #[test]
    fn lower_bound_agrees_with_std_partition_point() {
        let v = vec![1u64, 3, 3, 7, 9];
        for target in 0..12 {
            assert_eq!(
                lower_bound(&v, target),
                v.partition_point(|&x| x < target),
                "target {target}"
            );
        }
        assert_eq!(lower_bound(&[], 5), 0);
    }

    #[test]
    fn offsets_cover_and_are_monotone() {
        let weights: Vec<u64> = (0..1000).map(|i| (i % 13) as u64).collect();
        for parts in [1usize, 2, 3, 8, 64] {
            let off = balanced_offsets(&weights, parts, &pool());
            assert_eq!(off.len(), parts + 1);
            assert_eq!(off[0], 0);
            assert_eq!(*off.last().unwrap(), weights.len());
            assert!(off.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn balance_beats_naive_split_on_skewed_weights() {
        // One huge row at the front, uniform tail: an equal-rows split
        // puts the huge row plus 1/4 of the tail on thread 0.
        let mut weights = vec![1u64; 4000];
        weights[0] = 4000;
        let p = pool();
        let balanced = balanced_offsets(&weights, 4, &p);
        let naive: Vec<usize> = (0..=4).map(|t| t * 1000).collect();
        let total: u64 = weights.iter().sum();
        let bal_max = max_part_weight(&weights, &balanced);
        let naive_max = max_part_weight(&weights, &naive);
        assert!(
            bal_max < naive_max,
            "balanced {bal_max} should beat naive {naive_max} (total {total})"
        );
        // Within 2x of the ideal per-part weight (single rows are
        // indivisible, so perfection is not generally possible).
        assert!(bal_max as f64 <= (total as f64 / 4.0) * 2.0 + 1.0);
    }

    #[test]
    fn all_zero_weights_degenerate_cleanly() {
        let weights = vec![0u64; 100];
        let off = balanced_offsets(&weights, 4, &pool());
        assert_eq!(off[0], 0);
        assert_eq!(*off.last().unwrap(), 100);
        assert!(off.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_weights() {
        let off = balanced_offsets(&[], 4, &pool());
        assert_eq!(off, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn single_part_takes_everything() {
        let weights = vec![5u64, 1, 9];
        let off = balanced_offsets(&weights, 1, &pool());
        assert_eq!(off, vec![0, 3]);
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let weights = vec![1u64; 1024];
        let off = balanced_offsets(&weights, 4, &pool());
        for w in off.windows(2) {
            let len = w[1] - w[0];
            assert!((255..=257).contains(&len), "part size {len}");
        }
    }
}
