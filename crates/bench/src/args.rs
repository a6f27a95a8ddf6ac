//! Minimal argument parsing shared by every figure binary.
//!
//! Keeping this hand-rolled avoids a CLI dependency; the harness needs
//! exactly one flag shape: `--key value` plus `--quick`.

/// Common knobs. Every figure binary documents which ones it uses.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// R-MAT scale (matrix is `2^scale` square). Figure-specific
    /// defaults apply when absent.
    pub scale: Option<u32>,
    /// Edge factor (average nnz per row).
    pub ef: Option<usize>,
    /// Worker threads (default: all hardware threads).
    pub threads: Option<usize>,
    /// Timing repetitions per point (median reported). Default 3;
    /// the paper averages 10 (`--reps 10` reproduces that).
    pub reps: usize,
    /// SuiteSparse stand-in scale divisor (Figures 14/15/17).
    pub divisor: usize,
    /// Directory of real `.mtx` files to use instead of stand-ins.
    pub suitesparse: Option<std::path::PathBuf>,
    /// Shrink every sweep to smoke-test size.
    pub quick: bool,
    /// RNG seed for generators.
    pub seed: u64,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: None,
            ef: None,
            threads: None,
            reps: 3,
            divisor: 64,
            suitesparse: None,
            quick: false,
            seed: 20180804, // ICPP 2018
        }
    }
}

impl BenchArgs {
    /// Parse from `std::env::args`, exiting with usage on errors.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (tests).
    // Not the std trait: this is fallible-by-exit CLI parsing, and every
    // call site names it explicitly.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(iter: impl IntoIterator<Item = String>) -> Self {
        let mut out = BenchArgs::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |what: &str| -> String {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {what}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => out.scale = Some(parse_or_die(&take("--scale"), "--scale")),
                "--ef" => out.ef = Some(parse_or_die(&take("--ef"), "--ef")),
                "--threads" => out.threads = Some(parse_or_die(&take("--threads"), "--threads")),
                "--reps" => out.reps = parse_or_die(&take("--reps"), "--reps"),
                "--divisor" => out.divisor = parse_or_die(&take("--divisor"), "--divisor"),
                "--seed" => out.seed = parse_or_die(&take("--seed"), "--seed"),
                "--suitesparse" => out.suitesparse = Some(take("--suitesparse").into()),
                "--quick" => out.quick = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale N --ef N --threads N --reps N --divisor N \
                         --seed N --suitesparse DIR --quick"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// The worker pool this run should use.
    pub fn pool(&self) -> spgemm_par::Pool {
        spgemm_par::Pool::new(self.threads.unwrap_or_else(spgemm_par::hardware_threads))
    }

    /// Figure-specific defaulting helpers.
    pub fn scale_or(&self, default: u32) -> u32 {
        let s = self.scale.unwrap_or(default);
        if self.quick {
            s.min(9)
        } else {
            s
        }
    }

    /// Edge factor with a figure-specific default.
    pub fn ef_or(&self, default: usize) -> usize {
        self.ef.unwrap_or(default)
    }
}

/// A flag's count value; exits with status 2 when `s` is not one.
pub fn num(s: &str) -> usize {
    parse_or_die(s, "a count")
}

fn parse_or_die<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {what}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> BenchArgs {
        BenchArgs::from_iter(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.reps, 3);
        assert_eq!(a.divisor, 64);
        assert!(!a.quick);
        assert!(a.scale.is_none());
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--scale", "14", "--ef", "8", "--reps", "10", "--quick"]);
        assert_eq!(a.scale, Some(14));
        assert_eq!(a.ef, Some(8));
        assert_eq!(a.reps, 10);
        assert!(a.quick);
    }

    #[test]
    fn quick_caps_scale() {
        let a = parse(&["--quick", "--scale", "16"]);
        assert_eq!(a.scale_or(13), 9);
        let b = parse(&["--scale", "16"]);
        assert_eq!(b.scale_or(13), 16);
    }
}
