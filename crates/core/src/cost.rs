//! Analytic cost model for accumulator selection (§4.2.4).
//!
//! The paper estimates the two main accumulators as
//!
//! * Eq (1): `T_heap = Σ_i flop(c_i*) · log₂ nnz(a_i*)`
//! * Eq (2): `T_hash = flop · c + Σ_i nnz(c_i*) · log₂ nnz(c_i*)`
//!
//! where `c` is the average number of probes per hash access (the
//! *collision factor*; `c = 1` means no collisions) and the second
//! term of Eq (2) is the per-row output sort, dropped for unsorted
//! output. "Hash tends to win when `nnz(c_i*)` or
//! `flop(c_i*)/nnz(c_i*)` is large" — i.e. dense or regular inputs —
//! which is exactly what Table 4 encodes empirically.
//!
//! Neither equation has a term for *where the accumulator lives*. A
//! dense accumulator (the SPA) does `flop` unconditional stores and
//! pays no sort for sorted output — its slots are already in column
//! order (`algos::spa`) — so it undercuts both equations for as long
//! as its `ncols(B)`-sized arrays stay in the cache next to the core,
//! and loses to them once every store is a miss. That is the rule of
//! Deveci, Trott & Rajamanickam's KKSPGEMM (PAPERS.md): dense
//! accumulator while the column range fits fast memory, sparse hashmap
//! otherwise. [`select`] is that rule with Eq (1) vs Eq (2) behind it,
//! and is what `Algorithm::Auto` resolves through (`recipe`):
//!
//! * the **dense term**: [`spa_footprint_bytes`] against one thread's
//!   share of the L2 ([`l2_share_bytes`]) — `Spa` when it fits, with
//!   the bound relaxed [`SKEW_FOOTPRINT_FACTOR`]-fold for skewed row
//!   sizes (most stores then land on a few hub columns, which stay
//!   resident however wide the array is);
//! * otherwise `Heap` when Eq (1) undercuts Eq (2) *and* both operands
//!   and the output are sorted (Heap's contract), else `Hash`.
//!
//! Where each constant comes from (reference box: 2 cores, 2 MiB
//! private L2 each; `table04_recipe --sweep`, reused plans, `T = 2`,
//! minima; the full table is in ARCHITECTURE.md, "Auto"): uniform (ER
//! ef 8) squares keep the SPA ahead of Hash through scale 17 sorted
//! (1.5 MiB: 135 vs 163 ms) and level unsorted (100 vs 93), and behind
//! at scale 18 in both orders (3 MiB: 521 vs 425, 356 vs 299) — the
//! flip is at the L2 share. Skewed (G500) squares keep it ahead at
//! every footprint that fits, and past it: 3 MiB 700 vs 1 340 ms
//! sorted / 440 vs 619 unsorted, 6 MiB 663 vs 983 / 463 vs 498,
//! 12 MiB 1 573 vs 2 254 / 1 181 vs 1 221 — still ahead sorted, level
//! unsorted, so the factor sits between the last clear win and the
//! first tie.

use crate::recipe::{AutoContext, Pattern};
use crate::Algorithm;
use spgemm_sparse::Csr;
use std::sync::OnceLock;

/// Cost estimates (in abstract operation counts) for one multiply.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostEstimate {
    /// Eq (1): heap accumulation cost.
    pub heap: f64,
    /// Eq (2) with the sort term: hash producing sorted output.
    pub hash_sorted: f64,
    /// Eq (2) without the sort term: hash producing unsorted output.
    pub hash_unsorted: f64,
    /// Total scalar multiplications.
    pub flop: u64,
}

impl CostEstimate {
    /// The cheaper of heap vs hash for the requested output order.
    pub fn prefers_hash(&self, sorted_output: bool) -> bool {
        let hash = if sorted_output {
            self.hash_sorted
        } else {
            self.hash_unsorted
        };
        hash <= self.heap
    }
}

#[inline]
fn log2_ceil(x: u64) -> f64 {
    if x <= 1 {
        // a 1-element heap/sort still does ~1 operation per item
        1.0
    } else {
        (x as f64).log2()
    }
}

/// Evaluate Eqs (1)–(2) *a priori*, before the output structure is
/// known, approximating `nnz(c_i*) ≈ min(flop(c_i*) / 2, ncols)` — the
/// compression-ratio-2 midpoint that separates Table 4a's regimes.
pub fn estimate_apriori<A, B>(a: &Csr<A>, b: &Csr<B>, collision_factor: f64) -> CostEstimate
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
{
    let row_flops = spgemm_sparse::stats::row_flops(a, b);
    estimate_from_row_flops(a, b.ncols(), &row_flops, collision_factor)
}

/// [`estimate_apriori`] from per-row flop counts the caller already
/// has (a plan's work analysis).
pub(crate) fn estimate_from_row_flops<A>(
    a: &Csr<A>,
    ncols_b: usize,
    row_flops: &[u64],
    collision_factor: f64,
) -> CostEstimate {
    let flop: u64 = row_flops.iter().sum();
    let mut heap = 0.0f64;
    let mut sort = 0.0f64;
    for (i, &rf) in row_flops.iter().enumerate() {
        heap += rf as f64 * log2_ceil(a.row_nnz(i) as u64);
        let est_nnz = ((rf / 2).min(ncols_b as u64)).max(u64::from(rf > 0));
        sort += est_nnz as f64 * log2_ceil(est_nnz);
    }
    let probe = flop as f64 * collision_factor;
    CostEstimate {
        heap,
        hash_sorted: probe + sort,
        hash_unsorted: probe,
        flop,
    }
}

/// The collision factor `c` of Eq (2) that `Auto` assumes. The measured
/// one (probes per access of a counting linear probe, the `coll` column
/// of the `table04_recipe --sweep` bench; `--ef` sets the edge factor)
/// reads 1.00 on G500 squares
/// (every thread's table is sized for its hub rows) and 1.08 / 1.21 /
/// 1.26 on ER squares at edge factor 16 / 8 / 4: the uniform end,
/// where the equations decide.
pub const AUTO_COLLISION_FACTOR: f64 = 1.2;

/// How many L2 shares a dense accumulator may span when `A`'s row
/// sizes are skewed (`recipe::Pattern::Skewed`) — see the module docs
/// for the sweep that places it.
pub const SKEW_FOOTPRINT_FACTOR: usize = 4;

/// Per-thread L2 share assumed when the cache topology cannot be read
/// (not Linux, or a sandbox without `/sys`): 1 MiB, the private L2 of
/// every Intel server core since Skylake-SP and KNL's 1 MiB tile.
pub const DEFAULT_L2_SHARE_BYTES: usize = 1 << 20;

/// `"2048K"` / `"1M"` / `"512"` as sysfs prints a cache size.
fn parse_cache_size(text: &str) -> Option<usize> {
    let text = text.trim();
    let (digits, unit) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(unit)
}

/// How many CPUs a sysfs list such as `"0"`, `"0-1"` or `"0-3,8-11"`
/// names.
fn count_cpu_list(text: &str) -> Option<usize> {
    let mut n = 0usize;
    for part in text.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi) = (lo.parse::<usize>().ok()?, hi.parse::<usize>().ok()?);
        n += hi.checked_sub(lo)? + 1;
    }
    Some(n)
}

/// One hardware thread's share of its L2 cache, in bytes: the size of
/// `cpu0`'s L2 over the number of CPUs sharing it, read once per
/// process from `/sys/devices/system/cpu/cpu0/cache/index2/`;
/// [`DEFAULT_L2_SHARE_BYTES`] when that cannot be read. The only
/// process-global state `Auto`'s model has, and a constant of the
/// machine — no clock is involved, so two runs of one program pick
/// alike.
pub fn l2_share_bytes() -> usize {
    static SHARE: OnceLock<usize> = OnceLock::new();
    *SHARE.get_or_init(|| {
        let read = |leaf: &str| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index2/{leaf}"))
                .ok()
        };
        let size = read("size").and_then(|t| parse_cache_size(&t));
        let sharers = read("shared_cpu_list").and_then(|t| count_cpu_list(&t));
        match (size, sharers) {
            (Some(size), Some(sharers)) if size > 0 && sharers > 0 => size / sharers,
            _ => DEFAULT_L2_SHARE_BYTES,
        }
    })
}

/// Bytes one thread's dense accumulator keeps live across a row: a
/// value and a 4-byte epoch stamp per output column, plus the emit's
/// one bit per column (`algos::spa`).
pub fn spa_footprint_bytes(ncols_b: usize, elem_bytes: usize) -> usize {
    ncols_b
        .saturating_mul(elem_bytes + 4)
        .saturating_add(ncols_b.div_ceil(64) * 8)
}

/// The bind-time accumulator choice behind `Algorithm::Auto`, as a
/// pure function of the multiply's structural summary and one
/// thread's L2 share (module docs): `Spa` while its footprint fits the
/// share ([`SKEW_FOOTPRINT_FACTOR`] shares for skewed rows), otherwise
/// Eq (1) vs Eq (2) between `Heap` — admissible only with sorted
/// operands and sorted output — and `Hash`. `HashVec` is not in the
/// set: it wins no cell of the sweep in ARCHITECTURE.md.
pub fn select(ctx: &AutoContext, l2_share_bytes: usize) -> Algorithm {
    let bound = match ctx.pattern {
        Pattern::Uniform => l2_share_bytes,
        Pattern::Skewed => l2_share_bytes.saturating_mul(SKEW_FOOTPRINT_FACTOR),
    };
    if spa_footprint_bytes(ctx.ncols_b, ctx.elem_bytes) <= bound {
        return Algorithm::Spa;
    }
    let heap_admissible = ctx.sorted_inputs && ctx.order.is_sorted();
    if heap_admissible && !ctx.cost.prefers_hash(true) {
        Algorithm::Heap
    } else {
        Algorithm::Hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe;
    use crate::OutputOrder;
    use spgemm_gen::{rmat, RmatKind};

    #[test]
    fn sysfs_cache_sizes_and_cpu_lists_parse() {
        assert_eq!(parse_cache_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_cache_size("1M"), Some(1 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("K"), None);
        assert_eq!(parse_cache_size("99999999999999999999G"), None);
        assert_eq!(count_cpu_list("0\n"), Some(1));
        assert_eq!(count_cpu_list("0-1"), Some(2));
        assert_eq!(count_cpu_list("0-3,8-11"), Some(8));
        assert_eq!(count_cpu_list("0,34"), Some(2));
        assert_eq!(count_cpu_list("3-1"), None);
        assert_eq!(count_cpu_list(""), None);
        // Whatever this machine says, the share is a usable bound and
        // the same on every call.
        assert!(l2_share_bytes() > 0);
        assert_eq!(l2_share_bytes(), l2_share_bytes());
    }

    fn ctx(
        ncols_b: usize,
        elem_bytes: usize,
        pattern: Pattern,
        order: OutputOrder,
        sorted_inputs: bool,
        cost: CostEstimate,
    ) -> AutoContext {
        AutoContext {
            pattern,
            ncols_b,
            sorted_inputs,
            order,
            elem_bytes,
            cost,
        }
    }

    /// The model over a grid of everything it reads: never an
    /// inadmissible pick, `Spa` exactly up to the footprint bound, and
    /// beyond it Eq (1) vs Eq (2) with Heap held to its contract.
    #[test]
    fn select_flips_at_the_footprint_bound_and_stays_admissible() {
        let heap_cheaper = CostEstimate {
            heap: 1.0,
            hash_sorted: 2.0,
            hash_unsorted: 1.5,
            flop: 1,
        };
        let hash_cheaper = CostEstimate {
            heap: 3.0,
            ..heap_cheaper
        };
        for ncols_b in [1usize, 63, 64, 65, 1000, 1 << 13, 1 << 20] {
            for elem_bytes in [1usize, 4, 8, 16] {
                let footprint = spa_footprint_bytes(ncols_b, elem_bytes);
                assert_eq!(
                    footprint,
                    ncols_b * (elem_bytes + 4) + 8 * ncols_b.div_ceil(64)
                );
                let grid = [
                    (Pattern::Uniform, OutputOrder::Sorted),
                    (Pattern::Uniform, OutputOrder::Unsorted),
                    (Pattern::Skewed, OutputOrder::Sorted),
                    (Pattern::Skewed, OutputOrder::Unsorted),
                ];
                for (pattern, order) in grid {
                    // The smallest share the footprint still fits.
                    let fits = match pattern {
                        Pattern::Uniform => footprint,
                        Pattern::Skewed => footprint.div_ceil(SKEW_FOOTPRINT_FACTOR),
                    };
                    for sorted_inputs in [false, true] {
                        for cost in [heap_cheaper, hash_cheaper] {
                            let ctx = ctx(ncols_b, elem_bytes, pattern, order, sorted_inputs, cost);
                            for l2 in [0, fits - 1, fits, fits + 1, usize::MAX] {
                                let pick = select(&ctx, l2);
                                assert!(recipe::pick_admissible(&ctx, pick), "{ctx:?} {l2}");
                                assert_eq!(pick, select(&ctx, l2), "pure");
                                let expect = if l2 >= fits {
                                    Algorithm::Spa
                                } else if cost == heap_cheaper && sorted_inputs && order.is_sorted()
                                {
                                    Algorithm::Heap
                                } else {
                                    Algorithm::Hash
                                };
                                assert_eq!(pick, expect, "{ctx:?} {l2}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Past the dense bound the equations decide, on real operands:
    /// uniform sorted squares go to Heap at either density, and Heap is
    /// never offered unsorted work.
    #[test]
    fn beyond_the_bound_the_equations_decide() {
        for ef in [4, 16] {
            let a = rmat::generate_kind(RmatKind::Er, 10, ef, &mut spgemm_gen::rng(7));
            let ctx = recipe::auto_context(&a, &a, OutputOrder::Sorted);
            assert!(!ctx.cost.prefers_hash(true), "ef {ef}: {:?}", ctx.cost);
            assert_eq!(select(&ctx, 0), Algorithm::Heap, "ef {ef}");
            let unsorted = recipe::auto_context(&a, &a, OutputOrder::Unsorted);
            assert_eq!(
                select(&unsorted, 0),
                Algorithm::Hash,
                "Heap only emits sorted"
            );
            let shuffled = spgemm_gen::perm::randomize_columns(&a, &mut spgemm_gen::rng(8));
            let ctx = recipe::auto_context(&shuffled, &shuffled, OutputOrder::Sorted);
            assert_eq!(select(&ctx, 0), Algorithm::Hash, "Heap only reads sorted");
        }
    }

    #[test]
    fn log2_ceil_monotone() {
        assert_eq!(log2_ceil(0), 1.0);
        assert_eq!(log2_ceil(1), 1.0);
        assert_eq!(log2_ceil(2), 1.0);
        assert!(log2_ceil(1024) > log2_ceil(512));
    }

    #[test]
    fn unsorted_hash_never_dearer_than_sorted() {
        let a = rmat::generate_kind(RmatKind::Er, 8, 8, &mut spgemm_gen::rng(1));
        let e = estimate_apriori(&a, &a, 1.2);
        assert!(e.hash_unsorted <= e.hash_sorted);
        assert!(e.flop > 0);
    }

    #[test]
    fn collision_factor_scales_probe_cost() {
        let a = rmat::generate_kind(RmatKind::Er, 7, 4, &mut spgemm_gen::rng(4));
        let e1 = estimate_apriori(&a, &a, 1.0);
        let e2 = estimate_apriori(&a, &a, 2.0);
        assert!((e2.hash_unsorted - 2.0 * e1.hash_unsorted).abs() < 1e-6);
    }
}
