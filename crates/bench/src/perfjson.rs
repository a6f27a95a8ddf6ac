//! Persisted bench perf trajectory: the machine-readable
//! `BENCH_<name>.json` stamp every bench binary's `--smoke` path
//! writes. `spgemm-regress` reads stamps and committed baselines back
//! with [`crate::json`], the workspace's one JSON parser.
//!
//! The stamp is deliberately flat — one `metrics` object of numeric
//! keys — so a regression gate can diff two files key-by-key without
//! schema knowledge. Keys ending in `_ms` or `_ns` are timings
//! (lower is better); everything else is informational (counts,
//! coverages). The `env` object carries the
//! [`crate::envinfo::envinfo_json`] stamp so a trajectory of saved
//! files stays attributable to machines and commits.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Schema version written into every stamp; bump on breaking shape
/// changes so `spgemm-regress` can refuse mismatched files.
pub const SCHEMA: u64 = 1;

/// Environment variable overriding the directory `BENCH_<name>.json`
/// files are written to (default: the current directory).
pub const DIR_ENV: &str = "SPGEMM_BENCH_DIR";

/// One bench run's persisted perf stamp.
pub struct PerfReport {
    name: String,
    pool_threads: usize,
    metrics: Vec<(String, f64)>,
}

impl PerfReport {
    /// A stamp for the bench binary `name` (the `<name>` in
    /// `BENCH_<name>.json`).
    pub fn new(name: &str, pool_threads: usize) -> Self {
        PerfReport {
            name: name.to_string(),
            pool_threads,
            metrics: Vec::new(),
        }
    }

    /// Record one numeric metric. Key convention: `_ms`/`_ns` suffix
    /// for timings (regression-gated, lower is better), anything else
    /// informational. Non-finite values are stored as 0 (JSON has no
    /// NaN, and a gate comparing against NaN could never fail).
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((key.to_string(), v));
        self
    }

    /// The stamp as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"schema\":{},\"env\":{},\"metrics\":{{",
            self.name,
            SCHEMA,
            crate::envinfo::envinfo_json(self.pool_threads)
        );
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":{v}");
        }
        s.push_str("}}\n");
        s
    }

    /// Where [`PerfReport::write`] puts the stamp:
    /// `$SPGEMM_BENCH_DIR/BENCH_<name>.json` (default `.`).
    pub fn path(&self) -> PathBuf {
        let dir = std::env::var(DIR_ENV).unwrap_or_else(|_| ".".to_string());
        PathBuf::from(dir).join(format!("BENCH_{}.json", self.name))
    }

    /// Write the stamp to [`PerfReport::path`], returning where it
    /// landed.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.path();
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn report_roundtrips_through_parser() {
        let mut r = PerfReport::new("unit", 2);
        r.metric("loop_ms", 1.25)
            .metric("events", 42.0)
            .metric("bad", f64::NAN);
        let json = r.to_json();
        let doc = parse(&json).expect("own stamp parses");
        assert_eq!(doc.get("name").and_then(Value::as_str), Some("unit"));
        assert_eq!(
            doc.get("schema").and_then(Value::as_f64),
            Some(SCHEMA as f64)
        );
        let metrics = doc.get("metrics").expect("metrics object");
        assert_eq!(metrics.get("loop_ms").and_then(Value::as_f64), Some(1.25));
        assert_eq!(metrics.get("events").and_then(Value::as_f64), Some(42.0));
        assert_eq!(
            metrics.get("bad").and_then(Value::as_f64),
            Some(0.0),
            "non-finite clamps to 0"
        );
        assert!(doc.get("env").and_then(|e| e.get("arch")).is_some());
    }

    #[test]
    fn write_honors_dir_override() {
        let dir = std::env::temp_dir().join("spgemm-perfjson-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Env vars are process-global: set, write, restore.
        let prev = std::env::var(DIR_ENV).ok();
        std::env::set_var(DIR_ENV, &dir);
        let mut r = PerfReport::new("dirtest", 1);
        r.metric("x_ms", 3.0);
        let path = r.write().expect("writable temp dir");
        match prev {
            Some(v) => std::env::set_var(DIR_ENV, v),
            None => std::env::remove_var(DIR_ENV),
        }
        assert_eq!(path, dir.join("BENCH_dirtest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(parse(&text).is_ok());
        let _ = std::fs::remove_file(&path);
    }
}
