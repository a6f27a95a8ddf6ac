//! Dolan–Moré performance profiles (§5.4.5, Figure 15).
//!
//! "…the best performing algorithm for each problem is identified and
//! assigned a relative score of 1. Other algorithms are scored
//! relative to the best performing algorithm… Figure 15 shows the
//! fraction of problems an algorithm solves within a factor θ of the
//! best."

/// Performance profile of several solvers over a common problem set.
#[derive(Clone, Debug)]
pub struct Profile {
    /// `ratios[s][p]` = time(s, p) / best time(p); `INFINITY` when the
    /// solver failed problem `p`.
    pub ratios: Vec<Vec<f64>>,
}

/// Build a profile from `times[s][p]` (seconds; `None` = failed),
/// one time-vector per solver.
pub fn build(times: &[Vec<Option<f64>>]) -> Profile {
    let nprob = times.first().map_or(0, |t| t.len());
    assert!(times.iter().all(|t| t.len() == nprob), "ragged time matrix");
    let mut ratios = vec![vec![f64::INFINITY; nprob]; times.len()];
    for p in 0..nprob {
        let best = times
            .iter()
            .filter_map(|t| t[p])
            .fold(f64::INFINITY, f64::min);
        if !best.is_finite() {
            continue; // nobody solved it; all ratios stay infinite
        }
        for (s, t) in times.iter().enumerate() {
            if let Some(secs) = t[p] {
                ratios[s][p] = secs / best;
            }
        }
    }
    Profile { ratios }
}

impl Profile {
    /// Fraction of problems solver `s` solves within factor `theta`
    /// of the best (`theta >= 1`).
    pub fn fraction_within(&self, s: usize, theta: f64) -> f64 {
        let r = &self.ratios[s];
        if r.is_empty() {
            return 0.0;
        }
        r.iter().filter(|&&x| x <= theta).count() as f64 / r.len() as f64
    }
}

/// The theta grid the figure binaries print (1.0 to 5.0, paper x-axis).
pub fn default_thetas() -> Vec<f64> {
    (0..=40).map(|i| 1.0 + i as f64 * 0.1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        // 3 problems: A wins p0 & p1, B wins p2; B fails p1.
        build(&[
            vec![Some(1.0), Some(2.0), Some(3.0)],
            vec![Some(2.0), None, Some(1.0)],
        ])
    }

    #[test]
    fn winners_score_one() {
        let p = sample();
        assert_eq!(p.ratios[0][0], 1.0);
        assert_eq!(p.ratios[0][1], 1.0);
        assert_eq!(p.ratios[1][2], 1.0);
        assert_eq!(p.ratios[0][2], 3.0);
        assert!(p.ratios[1][1].is_infinite());
    }

    #[test]
    fn fractions_step_with_theta() {
        let p = sample();
        // A: within 1.0 -> 2/3; within 3.0 -> 3/3
        assert!((p.fraction_within(0, 1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.fraction_within(0, 3.0) - 1.0).abs() < 1e-12);
        // B: within 1.0 -> 1/3; within 2.0 -> 2/3; never 3/3 (failed p1)
        assert!((p.fraction_within(1, 1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((p.fraction_within(1, 2.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.fraction_within(1, 1e9) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_input_rejected() {
        let _ = build(&[vec![Some(1.0)], vec![Some(1.0), Some(2.0)]]);
    }
}
