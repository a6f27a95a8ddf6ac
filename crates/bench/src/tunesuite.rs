//! Static-recipe vs tuned-selector vs best-oracle comparison.
//!
//! For each input the suite times three choices of algorithm:
//!
//! * **static** — what `Auto`'s built-in footprint rule picks
//!   (`recipe::static_select`);
//! * **tuned** — what the machine profile's [`TunedSelector`] picks
//!   (absent when no profile is given or the input is out of grid);
//! * **oracle** — the fastest algorithm found by exhaustively timing
//!   the roster on *this* input (the selection upper bound).
//!
//! The interesting number is each selector's *regret*: its time over
//! the oracle's. A perfect selector has regret 1.00.

use crate::runner;
use spgemm::recipe::{self, auto_context};
use spgemm::{Algorithm, OutputOrder};
use spgemm_gen::{perm, rmat, tallskinny, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::Csr;
use spgemm_tune::TunedSelector;

/// One input × output-order comparison.
#[derive(Clone, Debug)]
pub struct SuiteRow {
    /// Input description.
    pub input: String,
    /// Requested output order.
    pub order: OutputOrder,
    /// The built-in rule's pick.
    pub static_pick: Algorithm,
    /// Seconds for the static pick.
    pub static_secs: f64,
    /// Profile pick (None = selector declined / no profile).
    pub tuned_pick: Option<Algorithm>,
    /// Seconds for the tuned pick.
    pub tuned_secs: Option<f64>,
    /// Fastest algorithm on this input.
    pub oracle_pick: Algorithm,
    /// Seconds for the oracle pick.
    pub oracle_secs: f64,
}

impl SuiteRow {
    /// Static pick's slowdown over the oracle.
    pub fn static_regret(&self) -> f64 {
        regret(self.static_secs, self.oracle_secs)
    }

    /// Tuned pick's slowdown over the oracle (static regret when the
    /// selector declined, since `Auto` then takes the static path).
    pub fn tuned_regret(&self) -> f64 {
        match self.tuned_secs {
            Some(secs) => regret(secs, self.oracle_secs),
            None => self.static_regret(),
        }
    }
}

fn regret(secs: f64, oracle: f64) -> f64 {
    if oracle > 0.0 {
        secs / oracle
    } else {
        1.0
    }
}

/// The default comparison inputs: fresh draws (different seed) from
/// the same families the calibration sweeps, so the suite measures
/// generalization rather than memorization.
pub fn default_inputs(scale: u32, seed: u64) -> Vec<(String, Csr<f64>, Csr<f64>)> {
    let mut rng = spgemm_gen::rng(seed);
    let mut out = Vec::new();
    for kind in [RmatKind::Er, RmatKind::G500] {
        for ef in [4usize, 16] {
            let a = rmat::generate_kind(kind, scale, ef, &mut rng);
            let au = perm::randomize_columns(&a, &mut rng);
            let k = (a.nrows() / 16).max(1);
            let ts = tallskinny::tall_skinny(&a, k, &mut rng).expect("k <= ncols");
            let base = format!("{}-s{scale}-ef{ef}", kind.name());
            out.push((format!("{base}-sq-sorted"), a.clone(), a.clone()));
            out.push((format!("{base}-sq-unsorted"), au.clone(), au));
            out.push((format!("{base}-ts-sorted"), a, ts));
        }
    }
    out
}

/// Time the three choices for every input and order.
pub fn compare(
    inputs: &[(String, Csr<f64>, Csr<f64>)],
    selector: Option<&TunedSelector>,
    pool: &Pool,
    reps: usize,
) -> Vec<SuiteRow> {
    let mut rows = Vec::new();
    for (label, a, b) in inputs {
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let ctx = auto_context(a, b, order);
            let static_pick = recipe::static_select(&ctx);
            let tuned_pick = selector.and_then(|s| s.select(&ctx));

            // Time the admissible roster once; every column reads the
            // same measurement, so a pick's regret is exactly 1.0 when
            // it coincides with the oracle. The oracle competes under
            // the same rules as the selectors: it may not deliver the
            // wrong output order, and test-only baselines
            // (Reference/IKJ) that no selector would serve are out.
            let mut timed: Vec<(Algorithm, f64)> = Vec::new();
            for algo in Algorithm::ALL {
                if !recipe::pick_admissible(&ctx, algo) || !spgemm_tune::selectable(algo) {
                    continue;
                }
                if let Ok(m) = runner::time_multiply(a, b, algo, order, pool, reps) {
                    timed.push((algo, m.secs));
                }
            }
            let secs_of = |algo: Algorithm| -> Option<f64> {
                timed.iter().find(|(a, _)| *a == algo).map(|&(_, s)| s)
            };
            let &(oracle_pick, oracle_secs) = timed
                .iter()
                .min_by(|(_, x), (_, y)| x.total_cmp(y))
                .expect("at least one admissible algorithm per scenario");
            let static_secs = secs_of(static_pick).unwrap_or(f64::INFINITY);
            let tuned_secs = tuned_pick.and_then(secs_of);
            rows.push(SuiteRow {
                input: label.clone(),
                order,
                static_pick,
                static_secs,
                tuned_pick,
                tuned_secs,
                oracle_pick,
                oracle_secs,
            });
        }
    }
    rows
}

/// Render the comparison as an aligned text table with a harmonic
/// summary of both regrets.
pub fn render(rows: &[SuiteRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:<9} {:<22} {:<22} {:<14}",
        "input", "order", "static (regret)", "tuned (regret)", "oracle"
    );
    for r in rows {
        let order = if r.order.is_sorted() {
            "sorted"
        } else {
            "unsorted"
        };
        let stat = format!("{} ({:.2}x)", r.static_pick.name(), r.static_regret());
        let tuned = match r.tuned_pick {
            Some(p) => format!("{} ({:.2}x)", p.name(), r.tuned_regret()),
            None => "- (static)".to_owned(),
        };
        let _ = writeln!(
            out,
            "{:<34} {:<9} {:<22} {:<22} {:<14}",
            r.input,
            order,
            stat,
            tuned,
            r.oracle_pick.name()
        );
    }
    let mean = |f: &dyn Fn(&SuiteRow) -> f64| -> f64 {
        let finite: Vec<f64> = rows.iter().map(f).filter(|x| x.is_finite()).collect();
        if finite.is_empty() {
            f64::NAN
        } else {
            // geometric mean suits ratios
            (finite.iter().map(|x| x.ln()).sum::<f64>() / finite.len() as f64).exp()
        }
    };
    let _ = writeln!(
        out,
        "geomean regret: static {:.3}x, tuned {:.3}x (1.000x = oracle)",
        mean(&SuiteRow::static_regret),
        mean(&SuiteRow::tuned_regret)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_tune::CalibrationConfig;

    #[test]
    fn suite_runs_and_reports_all_three_columns() {
        let pool = Pool::new(1);
        let profile = spgemm_tune::calibrate(&CalibrationConfig::quick(), &pool);
        let selector = TunedSelector::new(profile);
        let inputs = default_inputs(6, 99);
        let rows = compare(&inputs, Some(&selector), &pool, 1);
        assert_eq!(rows.len(), inputs.len() * 2);
        for r in &rows {
            assert!(
                r.oracle_secs.is_finite() && r.oracle_secs > 0.0,
                "{}",
                r.input
            );
            assert!(
                r.static_regret() >= 1.0,
                "regret can't beat the oracle: {}",
                r.input
            );
            assert!(
                r.tuned_regret() >= 1.0,
                "regret can't beat the oracle: {}",
                r.input
            );
        }
        // the quick profile covers these families at this scale
        assert!(rows.iter().any(|r| r.tuned_pick.is_some()));
        let table = render(&rows);
        assert!(table.contains("geomean regret"));
        assert!(table.lines().count() >= rows.len() + 2);
    }

    #[test]
    fn without_selector_tuned_column_is_absent() {
        let pool = Pool::new(1);
        let inputs = vec![default_inputs(6, 5).remove(0)];
        let rows = compare(&inputs, None, &pool, 1);
        assert!(rows
            .iter()
            .all(|r| r.tuned_pick.is_none() && r.tuned_secs.is_none()));
        // 64 output columns fit any L2 share: the footprint rule's pick.
        assert!(rows
            .iter()
            .all(|r| r.static_pick == Algorithm::Spa && r.static_secs.is_finite()));
        assert!(render(&rows).contains("- (static)"));
    }
}
