//! The tuned selector: a pure function from multiply context to
//! algorithm, backed by a [`MachineProfile`], installable as the
//! [`spgemm::recipe`] auto-hook.

use crate::profile::{CellKey, MachineProfile};
use spgemm::recipe::{self, AutoContext};
use spgemm::Algorithm;
use std::sync::Arc;

/// Answers `Algorithm::Auto` queries from a calibrated profile.
///
/// Selection is **deterministic**: the same profile and the same
/// context always yield the same answer. The selector declines
/// (returns `None`) whenever the query falls outside the calibrated
/// grid — unknown cell, or a row count far outside the swept sizes —
/// so the caller (the `Auto` path in `spgemm`) falls back to its
/// built-in footprint rule.
#[derive(Clone, Debug)]
pub struct TunedSelector {
    profile: Arc<MachineProfile>,
}

impl TunedSelector {
    /// Wrap a profile.
    pub fn new(profile: MachineProfile) -> Self {
        TunedSelector {
            profile: Arc::new(profile),
        }
    }

    /// The backing profile.
    pub fn profile(&self) -> &MachineProfile {
        &self.profile
    }

    /// The calibrated choice for `ctx`, or `None` if outside the grid.
    ///
    /// Within a cell the winner is taken unless the context rules it
    /// out ([`spgemm::recipe::pick_admissible`]: input sortedness or
    /// output-order contract — possible when a hand-edited or stale
    /// profile is consulted); then the best-ranked admissible
    /// algorithm is used instead.
    pub fn select(&self, ctx: &AutoContext) -> Option<Algorithm> {
        if !self.profile.bounds.admits(ctx.nrows) {
            return None;
        }
        let cell = self.profile.cell(&CellKey::of(ctx))?;
        if recipe::pick_admissible(ctx, cell.winner) {
            return Some(cell.winner);
        }
        cell.ranking
            .iter()
            .map(|s| s.algo)
            .find(|&a| recipe::pick_admissible(ctx, a))
    }

    /// Install this selector as the process-wide `Algorithm::Auto`
    /// hook, replacing any previous one. (The profile's measured
    /// [`MachineProfile::collision_factor`] is not applied anywhere
    /// automatically — pass it to `spgemm::cost` estimates yourself.)
    pub fn install(&self) {
        let sel = self.clone();
        recipe::set_auto_hook(Arc::new(move |ctx| sel.select(ctx)));
    }
}

/// Remove any installed tuned selector, restoring the built-in rule.
pub fn uninstall() {
    recipe::clear_auto_hook();
}

/// Whether a tuned selector (or any auto-hook) is installed.
pub fn installed() -> bool {
    recipe::auto_hook_installed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{AlgoScore, CellEntry, GridBounds, PROFILE_VERSION};
    use spgemm::recipe::{OpKind, Pattern};
    use spgemm::OutputOrder;

    fn ctx(nrows: usize, ef: f64, sorted: bool, order: OutputOrder) -> AutoContext {
        AutoContext {
            op: OpKind::Square,
            pattern: Pattern::Uniform,
            nrows,
            ncols_a: nrows,
            ncols_b: nrows,
            nnz_a: (nrows as f64 * ef) as usize,
            edge_factor: ef,
            row_cv: 0.3,
            sorted_inputs: sorted,
            order,
            elem_bytes: 8,
            cost: Default::default(),
        }
    }

    fn profile_with(winner: Algorithm, ranking: Vec<AlgoScore>) -> MachineProfile {
        MachineProfile {
            version: PROFILE_VERSION,
            hostname: "t".into(),
            threads: 1,
            collision_factor: 1.0,
            bounds: GridBounds {
                nrows_min: 512,
                nrows_max: 512,
            },
            cells: vec![CellEntry {
                key: CellKey {
                    op: OpKind::Square,
                    pattern: Pattern::Uniform,
                    ef_bucket: 2,
                    sorted_inputs: true,
                    order: OutputOrder::Sorted,
                },
                winner,
                plan_winner: None,
                ranking,
            }],
        }
    }

    #[test]
    fn hit_returns_winner() {
        let sel = TunedSelector::new(profile_with(Algorithm::Spa, vec![]));
        assert_eq!(
            sel.select(&ctx(512, 4.0, true, OutputOrder::Sorted)),
            Some(Algorithm::Spa)
        );
    }

    #[test]
    fn out_of_bounds_declines() {
        let sel = TunedSelector::new(profile_with(Algorithm::Spa, vec![]));
        assert_eq!(
            sel.select(&ctx(1 << 20, 4.0, true, OutputOrder::Sorted)),
            None
        );
        assert_eq!(sel.select(&ctx(8, 4.0, true, OutputOrder::Sorted)), None);
    }

    #[test]
    fn unknown_cell_declines() {
        let sel = TunedSelector::new(profile_with(Algorithm::Spa, vec![]));
        // ef bucket 5 was never calibrated
        assert_eq!(sel.select(&ctx(512, 40.0, true, OutputOrder::Sorted)), None);
        // unsorted inputs were never calibrated either
        assert_eq!(sel.select(&ctx(512, 4.0, false, OutputOrder::Sorted)), None);
    }

    #[test]
    fn contract_violating_winner_falls_to_ranking() {
        // Cell calibrated as sorted picked Heap; query pretends the
        // cell matched but inputs are unsorted (possible only via a
        // hand-built profile, but the invariant must hold).
        let mut p = profile_with(
            Algorithm::Heap,
            vec![
                AlgoScore {
                    algo: Algorithm::Heap,
                    rel_slowdown: 1.0,
                    total_secs: 0.1,
                    plan_rel_slowdown: None,
                },
                AlgoScore {
                    algo: Algorithm::Hash,
                    rel_slowdown: 1.1,
                    total_secs: 0.11,
                    plan_rel_slowdown: None,
                },
            ],
        );
        p.cells[0].key.sorted_inputs = false;
        let sel = TunedSelector::new(p);
        assert_eq!(
            sel.select(&ctx(512, 4.0, false, OutputOrder::Sorted)),
            Some(Algorithm::Hash)
        );
    }
}
