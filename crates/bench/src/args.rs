//! Argument parsing shared by every bench binary.
//!
//! Keeping this hand-rolled avoids a CLI dependency; the harness needs
//! exactly two flag shapes, `--key value` and `--switch`. One loop
//! reads them all: the common flags below, then each binary's own
//! through a hook, so every binary accepts what `run_all` forwards.

use std::str::FromStr;

/// Common knobs. Every binary documents which ones it uses.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// R-MAT scale (matrix is `2^scale` square). Binary-specific
    /// defaults apply when absent.
    pub scale: Option<u32>,
    /// Edge factor (average nnz per row).
    pub ef: Option<usize>,
    /// Worker threads (default: all hardware threads).
    pub threads: Option<usize>,
    /// Timing repetitions per point (median reported); see
    /// [`BenchArgs::reps`].
    pub reps: Option<usize>,
    /// SuiteSparse stand-in scale divisor (Figures 14/15/17).
    pub divisor: usize,
    /// Directory of real `.mtx` files to use instead of stand-ins.
    pub suitesparse: Option<std::path::PathBuf>,
    /// Shrink every sweep to smoke-test size.
    pub quick: bool,
    /// The CI assertion run of binaries that have one.
    pub smoke: bool,
    /// RNG seed for generators.
    pub seed: u64,
}

/// The common flags, as `--help` lists them.
const COMMON_USAGE: &str = "--scale N --ef N --threads N --reps N --divisor N --seed N \
                            --suitesparse DIR --quick --smoke";

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: None,
            ef: None,
            threads: None,
            reps: None,
            divisor: 64,
            suitesparse: None,
            quick: false,
            smoke: false,
            seed: 20180804, // ICPP 2018
        }
    }
}

impl BenchArgs {
    /// Parse the common flags from `std::env::args`, exiting with usage
    /// on errors.
    pub fn parse() -> Self {
        Self::parse_with("", |_, _| false)
    }

    /// Parse the common flags and a binary's own from `std::env::args`;
    /// see [`BenchArgs::from_iter`].
    pub fn parse_with(
        own_usage: &str,
        own: impl FnMut(&str, &mut dyn FnMut() -> String) -> bool,
    ) -> Self {
        Self::from_iter(std::env::args().skip(1), own_usage, own)
    }

    /// Parse from an explicit iterator. A flag that is not common goes
    /// to `own` with a `take` that yields its value; `own` returns
    /// whether it knew the flag. `own_usage` lists those flags for
    /// `--help`. A missing value or an unknown flag exits with status 2.
    // Not the std trait: this is fallible-by-exit CLI parsing, and every
    // call site names it explicitly.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(
        iter: impl IntoIterator<Item = String>,
        own_usage: &str,
        mut own: impl FnMut(&str, &mut dyn FnMut() -> String) -> bool,
    ) -> Self {
        let mut out = BenchArgs::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut take = || {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => out.scale = Some(parse(&take(), &flag)),
                "--ef" => out.ef = Some(parse(&take(), &flag)),
                "--threads" => out.threads = Some(parse(&take(), &flag)),
                "--reps" => out.reps = Some(parse(&take(), &flag)),
                "--divisor" => out.divisor = parse(&take(), &flag),
                "--seed" => out.seed = parse(&take(), &flag),
                "--suitesparse" => out.suitesparse = Some(take().into()),
                "--quick" => out.quick = true,
                "--smoke" => out.smoke = true,
                "--help" | "-h" => {
                    eprintln!("flags: {COMMON_USAGE} {own_usage}");
                    std::process::exit(0);
                }
                other => {
                    if !own(other, &mut take) {
                        eprintln!("unknown flag {other}; try --help");
                        std::process::exit(2);
                    }
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

    /// Repetitions with a binary-specific default, at least one.
    pub fn reps_or(&self, default: usize) -> usize {
        self.reps.unwrap_or(default).max(1)
    }

    /// The figures' repetitions: 3 by default. The paper averages 10
    /// (`--reps 10` reproduces that).
    pub fn reps(&self) -> usize {
        self.reps_or(3)
    }
}

/// `s` parsed as the value of `flag`; exits with status 2 when it is
/// not one.
pub fn parse<T: FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(v: &[&str]) -> BenchArgs {
        BenchArgs::from_iter(argv(v), "", |_, _| false)
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.reps(), 3);
        assert_eq!(a.divisor, 64);
        assert!(!a.quick && !a.smoke);
        assert!(a.scale.is_none());
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--scale", "14", "--ef", "8", "--reps", "10", "--quick"]);
        assert_eq!(a.scale, Some(14));
        assert_eq!(a.ef, Some(8));
        assert_eq!(a.reps(), 10);
        assert!(a.quick);
        assert_eq!(parse(&["--reps", "0"]).reps(), 1);
    }

    #[test]
    fn smoke_parses() {
        let a = parse(&["--smoke"]);
        assert!(a.smoke && !a.quick);
    }

    #[test]
    fn a_forwarded_common_flag_parses_where_nothing_reads_it() {
        let mut own_calls = 0;
        let a = BenchArgs::from_iter(argv(&["--divisor", "8"]), "--grids LIST", |_, _| {
            own_calls += 1;
            false
        });
        assert_eq!(a.divisor, 8);
        assert_eq!(own_calls, 0, "a common flag never reaches the hook");
    }

    #[test]
    fn own_value_flags_and_switches_reach_the_hook() {
        let (mut grids, mut compare) = (String::new(), false);
        let a = BenchArgs::from_iter(
            argv(&["--grids", "1x1,2x2", "--seed", "5", "--compare"]),
            "--grids LIST --compare",
            |flag, take| {
                match flag {
                    "--grids" => grids = take(),
                    "--compare" => compare = true,
                    _ => return false,
                }
                true
            },
        );
        assert_eq!(grids, "1x1,2x2");
        assert!(compare);
        assert_eq!(a.seed, 5);
    }

    #[test]
    fn quick_caps_scale() {
        let a = parse(&["--quick", "--scale", "16"]);
        assert_eq!(a.scale_or(13), 9);
        let b = parse(&["--scale", "16"]);
        assert_eq!(b.scale_or(13), 16);
    }
}
