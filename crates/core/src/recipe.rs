//! The selector behind [`crate::Algorithm::Auto`].
//!
//! `Auto` is one pure function: the **footprint rule**
//! ([`static_select`] = [`crate::cost::select`] at this machine's
//! per-thread L2 share) — the dense accumulator (`Spa`) while one
//! thread's `ncols(B) × (size_of(elem) + 4 + ⅛)` bytes fit its share of
//! the L2, otherwise the paper's Eq (1) vs Eq (2) between `Heap`
//! (sorted operands and sorted output only) and `Hash`. It reads
//! dimensions, the element size, sortedness, row skew, flop counts and
//! one number of the machine read once from sysfs — no clock, no
//! environment, no calibration file, nothing a caller can install — so
//! the same program picks the same kernel for the same operands on
//! every run and in every layer (plan, expr, delta, dist, serve).
//!
//! Why a rule of the machine and not the paper's recipe (§5.7,
//! Table 4): that table is what won on a 68-core KNL in 2018. On this
//! repository's reference box (2 cores, 2 MiB private L2 each) the
//! SPA, which the table never considers, wins or ties every cell it
//! assigns to Heap, HashVec or Hash (ARCHITECTURE.md, "Auto", has the
//! sweep): a dense accumulator that fits the cache never pays the
//! output sort that is the hashed kernels' headline cost (§5.4.4). The
//! table is a measurement, reproduced next to `Auto`'s picks by the
//! `table04_recipe` bench binary.

use crate::cost::{self, CostEstimate};
use crate::{Algorithm, OutputOrder};
use spgemm_obs as obs;
use spgemm_sparse::{stats, Csr};

/// Row-size skew class of `A`: what decides how far past the L2 share
/// the dense accumulator may reach ([`cost::select`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// ER-like: row sizes concentrated around the mean.
    Uniform,
    /// G500-like: power-law row sizes.
    Skewed,
}

/// Row-size coefficient-of-variation above which we call a structure
/// skewed (G500 matrices measure ≳ 2; ER and FEM matrices ≲ 0.5).
pub const SKEW_CV: f64 = 1.0;

/// Classify a row-size coefficient of variation against [`SKEW_CV`] —
/// the single place the uniform/skewed rule lives.
pub fn classify_row_cv(row_cv: f64) -> Pattern {
    if row_cv > SKEW_CV {
        Pattern::Skewed
    } else {
        Pattern::Uniform
    }
}

/// The structural summary of one multiply that [`cost::select`]
/// reads, and nothing that requires a symbolic pass.
#[derive(Clone, Debug, PartialEq)]
pub struct AutoContext {
    /// Row-skew class of `A`.
    pub pattern: Pattern,
    /// Columns of `B`.
    pub ncols_b: usize,
    /// Whether both operands are column-sorted.
    pub sorted_inputs: bool,
    /// Requested output order.
    pub order: OutputOrder,
    /// `size_of` one stored value: with `ncols_b`, what sizes the
    /// dense accumulator.
    pub elem_bytes: usize,
    /// Eq (1) / Eq (2) a priori ([`cost::estimate_apriori`] at
    /// [`cost::AUTO_COLLISION_FACTOR`]), total flop included.
    pub cost: CostEstimate,
}

/// Build the [`AutoContext`] for `A · B` from row statistics only.
pub fn auto_context<T: Copy + Send + Sync>(
    a: &Csr<T>,
    b: &Csr<T>,
    order: OutputOrder,
) -> AutoContext {
    auto_context_from(a, b, order, &stats::row_flops(a, b))
}

/// [`auto_context`] from per-row flop counts the caller already has.
pub(crate) fn auto_context_from<T: Copy + Send + Sync>(
    a: &Csr<T>,
    b: &Csr<T>,
    order: OutputOrder,
    row_flops: &[u64],
) -> AutoContext {
    AutoContext {
        pattern: classify_row_cv(stats::structure_stats(a).row_cv),
        ncols_b: b.ncols(),
        sorted_inputs: a.is_sorted() && b.is_sorted(),
        order,
        elem_bytes: std::mem::size_of::<T>(),
        cost: cost::estimate_from_row_flops(a, b.ncols(), row_flops, cost::AUTO_COLLISION_FACTOR),
    }
}

/// The footprint rule as a pure function of the context:
/// [`cost::select`] at this machine's per-thread L2 share
/// ([`cost::l2_share_bytes`]) — what [`auto_select`] returns.
pub fn static_select(ctx: &AutoContext) -> Algorithm {
    cost::select(ctx, cost::l2_share_bytes())
}

/// The kernel `Auto` resolves to for *every* product whose right
/// operand has `ncols_b` columns of `elem_bytes`-sized values, whatever
/// the operands' entries — `Some(Spa)` when the dense accumulator fits
/// the L2 share outright, `None` when the resolution depends on the
/// entries. A cached product requested as `Auto` may be row-patched in
/// place exactly when this answers: the product's clean rows and the
/// recomputed ones are then known to come from one kernel although the
/// operands changed in between.
pub fn entry_independent_pick(ncols_b: usize, elem_bytes: usize) -> Option<Algorithm> {
    let fits = cost::spa_footprint_bytes(ncols_b, elem_bytes) <= cost::l2_share_bytes();
    fits.then_some(Algorithm::Spa)
}

/// Whether `pick` may be used for the multiply `ctx` describes: it
/// must not demand sorted inputs the operands lack, and it must be
/// able to deliver the requested output order.
pub fn pick_admissible(ctx: &AutoContext, pick: Algorithm) -> bool {
    if pick == Algorithm::Auto {
        return false;
    }
    let inputs_ok = ctx.sorted_inputs || !pick.requires_sorted_inputs();
    let output_ok = !ctx.order.is_sorted() || pick.honours_sorted_output();
    inputs_ok && output_ok
}

/// The automatic selector used by [`crate::Algorithm::Auto`]: build
/// the [`AutoContext`] from row statistics and apply the footprint
/// rule ([`static_select`]). Every resolution is counted
/// (`plan.auto.<algo>`), with the dense accumulator's footprint and
/// the L2 share it was held against as gauges, so `/metrics` shows
/// what `Auto` picked and how close the bound was.
pub fn auto_select<T: Copy + Send + Sync>(a: &Csr<T>, b: &Csr<T>, order: OutputOrder) -> Algorithm {
    resolve(&auto_context(a, b, order))
}

/// [`auto_select`] on a context the caller built.
pub(crate) fn resolve(ctx: &AutoContext) -> Algorithm {
    let pick = static_select(ctx);
    if obs::enabled() {
        static FOOTPRINT: obs::GaugeSite =
            obs::GaugeSite::new("plan", "plan.auto.spa_footprint_bytes");
        static L2_SHARE: obs::GaugeSite = obs::GaugeSite::new("plan", "plan.auto.l2_share_bytes");
        crate::count_algorithm!("plan.auto.", pick);
        FOOTPRINT.set(cost::spa_footprint_bytes(ctx.ncols_b, ctx.elem_bytes) as i64);
        L2_SHARE.set(cost::l2_share_bytes() as i64);
    }
    pick
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_gen::{rmat, RmatKind};

    #[test]
    fn pattern_classification_separates_er_from_g500() {
        let er = rmat::generate_kind(RmatKind::Er, 10, 16, &mut spgemm_gen::rng(1));
        let g = rmat::generate_kind(RmatKind::G500, 10, 16, &mut spgemm_gen::rng(1));
        let classify = |a| classify_row_cv(stats::structure_stats(a).row_cv);
        assert_eq!(classify(&er), Pattern::Uniform);
        assert_eq!(classify(&g), Pattern::Skewed);
    }

    /// Every algorithm's admissibility over the full
    /// `sorted_inputs × order` context grid, matched exhaustively so
    /// adding a variant forces this table to be revisited. A pick is
    /// admissible iff the inputs satisfy its sortedness demand and it
    /// can honour the requested output order.
    #[test]
    fn admissibility_exhaustive_over_all_algorithms() {
        let ctx = |sorted_inputs: bool, order: OutputOrder| AutoContext {
            pattern: Pattern::Uniform,
            ncols_b: 64,
            sorted_inputs,
            order,
            elem_bytes: 8,
            cost: CostEstimate::default(),
        };
        for algo in Algorithm::ALL {
            // contracts per variant, stated exhaustively
            let (needs_sorted_in, honours_sorted_out, sort_skip) = match algo {
                Algorithm::Hash => (false, true, true),
                Algorithm::HashVec => (false, true, true),
                Algorithm::Heap => (true, true, false),
                Algorithm::Spa => (false, true, true),
                Algorithm::Merge => (true, true, false),
                Algorithm::Inspector => (false, false, true),
                Algorithm::KkHash => (false, true, true),
                Algorithm::Ikj => (false, true, true),
                Algorithm::RowClass => (false, true, true),
                Algorithm::Reference => (false, true, false),
                Algorithm::Auto => unreachable!("ALL excludes Auto"),
            };
            assert_eq!(algo.requires_sorted_inputs(), needs_sorted_in, "{algo}");
            assert_eq!(algo.honours_sorted_output(), honours_sorted_out, "{algo}");
            assert_eq!(algo.supports_sort_skip(), sort_skip, "{algo}");
            for sorted_inputs in [false, true] {
                for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                    let expect = (sorted_inputs || !needs_sorted_in)
                        && (!order.is_sorted() || honours_sorted_out);
                    assert_eq!(
                        pick_admissible(&ctx(sorted_inputs, order), algo),
                        expect,
                        "{algo} sorted_inputs={sorted_inputs} {order:?}"
                    );
                }
            }
        }
        // Auto itself is never an admissible concrete pick.
        assert!(!pick_admissible(
            &ctx(true, OutputOrder::Sorted),
            Algorithm::Auto
        ));
    }

    #[test]
    fn auto_select_never_picks_sorted_only_kernel_for_unsorted_input() {
        let er = rmat::generate_kind(RmatKind::Er, 8, 4, &mut spgemm_gen::rng(2));
        let unsorted = spgemm_gen::perm::randomize_columns(&er, &mut spgemm_gen::rng(3));
        let pick = auto_select(&unsorted, &unsorted, OutputOrder::Sorted);
        assert!(!pick.requires_sorted_inputs(), "picked {pick}");
    }

    #[test]
    fn auto_select_detects_tall_skinny() {
        let g = rmat::generate_kind(RmatKind::G500, 9, 16, &mut spgemm_gen::rng(4));
        let ts = spgemm_gen::tallskinny::tall_skinny(&g, 16, &mut spgemm_gen::rng(5)).unwrap();
        // Sixteen output columns: the dense accumulator is 200 bytes.
        let pick = auto_select(&g, &ts, OutputOrder::Unsorted);
        assert_eq!(pick, Algorithm::Spa, "the footprint rule");
    }

    #[test]
    fn auto_context_carries_what_the_model_reads() {
        let a = rmat::generate_kind(RmatKind::G500, 8, 8, &mut spgemm_gen::rng(11));
        let ctx = auto_context(&a, &a, OutputOrder::Sorted);
        assert_eq!(ctx.elem_bytes, 8);
        assert_eq!(ctx.cost.flop, stats::flop(&a, &a));
        assert_eq!(
            ctx.cost,
            cost::estimate_apriori(&a, &a, cost::AUTO_COLLISION_FACTOR)
        );
        let narrow = a.map(|v| v as f32);
        assert_eq!(
            auto_context(&narrow, &narrow, OutputOrder::Sorted).elem_bytes,
            4
        );
    }
}
