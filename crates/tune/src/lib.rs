//! Empirical auto-tuning for the SpGEMM kernel roster.
//!
//! The paper's algorithm recipe (§5.7, Table 4, kept verbatim in
//! `spgemm::recipe`) was measured on two specific machines — a KNL
//! and a Haswell — and its cost model (§4.2.4) leaves the hash
//! collision factor `c` as a parameter to be measured. On any other
//! host the crossover points between Hash, HashVector, Heap and the
//! rest shift; `Auto`'s built-in rule (`spgemm::cost::select`) reads
//! one number of the machine, the per-thread L2 share. This crate closes that gap the way related auto-tuners
//! do (kease-sparse-knl; Deveci et al.'s kernel selection): measure
//! once, remember, select.
//!
//! # The pieces
//!
//! * [`calibrate`] — a one-time sweep timing **every** algorithm in
//!   [`spgemm::Algorithm::ALL`] over a generated grid (R-MAT
//!   ER/G500 × edge factor × square/tall-skinny × sorted/unsorted ×
//!   output order) and measuring the collision factor;
//! * [`MachineProfile`] — the sweep's distilled result: per-cell
//!   winners and rankings, versioned and JSON-serializable;
//! * [`store`] — persistence under `SPGEMM_TUNE_DIR` (or the user
//!   cache directory), keyed by hostname and thread count;
//! * [`TunedSelector`] — a deterministic context → algorithm map that
//!   installs as the [`spgemm::recipe`] auto-hook, making
//!   `Algorithm::Auto` consult the profile first and fall back to the
//!   built-in footprint rule outside the calibrated grid.
//!
//! # Calibrate once, then multiply
//!
//! ```
//! use spgemm::{multiply_f64, Algorithm, OutputOrder};
//! use spgemm_par::Pool;
//!
//! let pool = Pool::new(2);
//! let profile = spgemm_tune::calibrate(
//!     &spgemm_tune::CalibrationConfig::quick(), &pool);
//! spgemm_tune::TunedSelector::new(profile).install();
//!
//! let a = spgemm_sparse::Csr::<f64>::identity(64);
//! let c = multiply_f64(&a, &a, Algorithm::Auto, OutputOrder::Sorted).unwrap();
//! assert_eq!(c.nnz(), 64);
//! # spgemm_tune::uninstall();
//! ```
//!
//! In production, [`init_from_saved`] at startup replaces the inline
//! sweep: it loads this host's persisted profile (written by
//! `cargo run -p spgemm-bench --bin tune`) and installs it, returning
//! whether a profile was found.

#![warn(missing_docs)]

mod calibrate;
pub mod json;
mod profile;
mod selector;
pub mod store;

pub use calibrate::{calibrate, calibrate_with_report, selectable, CalibrationConfig, SweepRecord};
pub use profile::{
    ef_bucket, op_name, parse_algorithm, pattern_name, AlgoScore, CellEntry, CellKey, GridBounds,
    MachineProfile, ProfileError, PROFILE_VERSION, SIZE_MARGIN,
};
pub use selector::{installed, uninstall, TunedSelector};

/// Load this host's persisted profile for `threads` workers and
/// install it as the `Algorithm::Auto` selector. Returns `true` when
/// a valid profile was found and installed; on `false` the static
/// recipe stays in effect (this is never an error — it is the
/// designed fallback).
///
/// When no profile exists for the *exact* thread count the nearest
/// calibrated count is used instead ([`store::load_nearest`]) — a
/// worker pool sized between two calibrations still benefits from the
/// closer one rather than silently reverting to the static recipe.
/// Use [`init_from_saved_at`] to learn which count matched.
pub fn init_from_saved(threads: usize) -> bool {
    init_from_saved_at(threads).is_some()
}

/// [`init_from_saved`] reporting the thread count of the installed
/// profile (`Some(threads)` on an exact match, `Some(other)` after the
/// nearest-count fallback, `None` when nothing usable was found).
pub fn init_from_saved_at(threads: usize) -> Option<usize> {
    match store::load_nearest(threads) {
        Ok((profile, at)) => {
            TunedSelector::new(profile).install();
            Some(at)
        }
        Err(_) => None,
    }
}

/// Calibrate on this machine, persist the profile, and install it.
/// Returns the profile and the path it was saved to.
pub fn calibrate_install_and_save(
    cfg: &CalibrationConfig,
    pool: &spgemm_par::Pool,
) -> std::io::Result<(MachineProfile, std::path::PathBuf)> {
    let profile = calibrate(cfg, pool);
    let path = store::save(&profile)?;
    TunedSelector::new(profile.clone()).install();
    Ok((profile, path))
}
