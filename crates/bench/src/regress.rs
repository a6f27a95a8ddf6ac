//! The perf regression gate: compare a fresh `BENCH_<name>.json`
//! stamp against a committed baseline.
//!
//! Timing metrics (keys ending `_ms` or `_ns`) are judged lower-is-
//! better with two relative tolerances: past `warn` the row is
//! flagged (non-fatal — CI prints it), past `fail` the run fails
//! (non-zero exit from `spgemm-regress`). Tolerances default wide
//! because smoke-sized runs on shared CI runners are noisy — the gate
//! exists to catch step-function regressions (an accidental
//! quadratic, a lost cache), not single-digit percent drift. Non-
//! timing metrics (counts, coverages) are reported but never gate.

use crate::json::Value;
use crate::perfjson::SCHEMA;

/// Relative tolerances of the gate.
#[derive(Clone, Copy, Debug)]
pub struct RegressConfig {
    /// Flag timings slower than `baseline * (1 + warn)`.
    pub warn: f64,
    /// Fail timings slower than `baseline * (1 + fail)`.
    pub fail: f64,
}

impl Default for RegressConfig {
    fn default() -> Self {
        // +50% flags, +150% fails: generous enough for smoke-sized
        // workloads on noisy shared runners, tight enough to catch a
        // lost fast path.
        RegressConfig {
            warn: 0.5,
            fail: 1.5,
        }
    }
}

/// Absolute slack under which a timing difference is never judged:
/// sub-10µs measurements are dominated by timer and scheduler noise.
const ABS_SLACK_MS: f64 = 0.01;

/// One metric's comparison outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Timing within tolerance (or faster).
    Ok,
    /// Timing past the warn tolerance (non-fatal).
    Warn,
    /// Timing past the fail tolerance (fatal).
    Fail,
    /// Non-timing metric — reported, never gated.
    Info,
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct Row {
    /// Metric key.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// `current / baseline` (0 when the baseline is 0).
    pub ratio: f64,
    /// The gate's judgement.
    pub verdict: Verdict,
}

/// The gate's full output for one stamp pair.
#[derive(Clone, Debug, Default)]
pub struct RegressReport {
    /// Per-metric comparisons, in key order.
    pub rows: Vec<Row>,
    /// Baseline keys missing from the current stamp — fatal: a
    /// silently dropped metric must not pass the gate.
    pub missing: Vec<String>,
    /// Current keys absent from the baseline (informational; commit a
    /// new baseline to start tracking them).
    pub new_keys: Vec<String>,
}

impl RegressReport {
    /// Rows past the warn tolerance (includes failures).
    pub fn warnings(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Warn | Verdict::Fail))
            .count()
    }

    /// Fatal count: rows past the fail tolerance plus missing keys.
    pub fn failures(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Fail)
            .count()
            + self.missing.len()
    }
}

/// Whether `key` names a timing (lower-is-better, gated).
pub fn is_timing_key(key: &str) -> bool {
    key.ends_with("_ms") || key.ends_with("_ns")
}

/// `key`'s value in milliseconds, for the absolute-slack floor.
fn in_ms(key: &str, v: f64) -> f64 {
    if key.ends_with("_ns") {
        v / 1e6
    } else {
        v
    }
}

fn numeric_metrics(doc: &Value) -> Result<Vec<(String, f64)>, String> {
    let metrics = doc
        .get("metrics")
        .ok_or_else(|| "stamp has no \"metrics\" object".to_string())?;
    let members = metrics
        .as_obj()
        .ok_or_else(|| "\"metrics\" is not an object".to_string())?;
    Ok(members
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
        .collect())
}

/// Compare two parsed stamps. Errors on shape problems (wrong schema,
/// mismatched bench names, different `env.pool_threads`, missing
/// `metrics`); regressions are reported through the [`RegressReport`],
/// not as errors. Timings taken at two pool widths are not comparable:
/// a sub-millisecond product pays for a wider region.
pub fn compare(
    baseline: &Value,
    current: &Value,
    cfg: RegressConfig,
) -> Result<RegressReport, String> {
    for (label, doc) in [("baseline", baseline), ("current", current)] {
        let schema = doc.get("schema").and_then(Value::as_f64).unwrap_or(0.0);
        if schema != SCHEMA as f64 {
            return Err(format!("{label} stamp has schema {schema}, want {SCHEMA}"));
        }
    }
    let (b_name, c_name) = (
        baseline.get("name").and_then(Value::as_str).unwrap_or(""),
        current.get("name").and_then(Value::as_str).unwrap_or(""),
    );
    if b_name != c_name {
        return Err(format!(
            "stamps are from different benches: baseline {b_name:?}, current {c_name:?}"
        ));
    }
    let threads = |doc: &Value| doc.get("env")?.get("pool_threads")?.as_f64();
    let (b_threads, c_threads) = (threads(baseline), threads(current));
    if b_threads != c_threads {
        return Err(format!(
            "stamps ran at different pool widths: baseline {b_threads:?}, current {c_threads:?} \
             (pass the baseline's --threads)"
        ));
    }
    let base = numeric_metrics(baseline)?;
    let cur = numeric_metrics(current)?;
    let mut report = RegressReport::default();
    for (key, b) in &base {
        let Some((_, c)) = cur.iter().find(|(k, _)| k == key) else {
            report.missing.push(key.clone());
            continue;
        };
        let ratio = if *b != 0.0 { c / b } else { 0.0 };
        let verdict = if !is_timing_key(key) {
            Verdict::Info
        } else if in_ms(key, (c - b).abs()) <= ABS_SLACK_MS {
            Verdict::Ok
        } else if *b > 0.0 && ratio > 1.0 + cfg.fail {
            Verdict::Fail
        } else if *b > 0.0 && ratio > 1.0 + cfg.warn {
            Verdict::Warn
        } else {
            Verdict::Ok
        };
        report.rows.push(Row {
            key: key.clone(),
            baseline: *b,
            current: *c,
            ratio,
            verdict,
        });
    }
    for (key, _) in &cur {
        if !base.iter().any(|(k, _)| k == key) {
            report.new_keys.push(key.clone());
        }
    }
    Ok(report)
}

/// Render the report as the table `spgemm-regress` prints.
pub fn render(report: &RegressReport, cfg: RegressConfig) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>14} {:>14} {:>8}  verdict",
        "metric", "baseline", "current", "ratio"
    );
    for r in &report.rows {
        let v = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
            Verdict::Info => "info",
        };
        let _ = writeln!(
            out,
            "{:<32} {:>14.4} {:>14.4} {:>8.3}  {v}",
            r.key, r.baseline, r.current, r.ratio
        );
    }
    for k in &report.missing {
        let _ = writeln!(out, "{k:<32} {:>14} {:>14} {:>8}  MISSING", "-", "-", "-");
    }
    for k in &report.new_keys {
        let _ = writeln!(out, "{k:<32} (new metric — not in baseline)");
    }
    let _ = writeln!(
        out,
        "gate: warn > +{:.0}%, fail > +{:.0}% — {} warning(s), {} failure(s)",
        cfg.warn * 100.0,
        cfg.fail * 100.0,
        report.warnings(),
        report.failures()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn stamp(name: &str, metrics: &str) -> Value {
        parse(&format!(
            "{{\"name\":\"{name}\",\"schema\":1,\"env\":{{}},\"metrics\":{{{metrics}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn verdicts_follow_tolerances() {
        let b = stamp("x", "\"a_ms\":100,\"b_ms\":100,\"c_ms\":100,\"n\":5");
        let c = stamp("x", "\"a_ms\":120,\"b_ms\":180,\"c_ms\":300,\"n\":9");
        let r = compare(&b, &c, RegressConfig::default()).unwrap();
        let verdict = |k: &str| r.rows.iter().find(|r| r.key == k).unwrap().verdict;
        assert_eq!(verdict("a_ms"), Verdict::Ok, "+20% within warn");
        assert_eq!(verdict("b_ms"), Verdict::Warn, "+80% past warn");
        assert_eq!(verdict("c_ms"), Verdict::Fail, "+200% past fail");
        assert_eq!(verdict("n"), Verdict::Info, "counters never gate");
        assert_eq!(r.warnings(), 2);
        assert_eq!(r.failures(), 1);
    }

    #[test]
    fn improvements_and_tiny_timings_pass() {
        let b = stamp("x", "\"fast_ms\":100,\"noise_ns\":800");
        // 10x faster, and a sub-slack ns wobble 100x over tolerance
        let c = stamp("x", "\"fast_ms\":10,\"noise_ns\":8000");
        let r = compare(&b, &c, RegressConfig::default()).unwrap();
        assert_eq!(r.failures(), 0);
        assert_eq!(r.warnings(), 0, "absolute slack absorbs ns noise");
    }

    #[test]
    fn missing_keys_fail_and_new_keys_inform() {
        let b = stamp("x", "\"a_ms\":1,\"gone_ms\":2");
        let c = stamp("x", "\"a_ms\":1,\"added_ms\":3");
        let r = compare(&b, &c, RegressConfig::default()).unwrap();
        assert_eq!(r.missing, vec!["gone_ms".to_string()]);
        assert_eq!(r.new_keys, vec!["added_ms".to_string()]);
        assert_eq!(r.failures(), 1, "a dropped metric must not pass");
        let table = render(&r, RegressConfig::default());
        assert!(table.contains("MISSING"));
        assert!(table.contains("added_ms"));
    }

    #[test]
    fn shape_mismatches_error() {
        let b = stamp("x", "\"a_ms\":1");
        let other = stamp("y", "\"a_ms\":1");
        assert!(compare(&b, &other, RegressConfig::default()).is_err());
        let bad_schema = parse("{\"name\":\"x\",\"schema\":2,\"metrics\":{}}").unwrap();
        assert!(compare(&b, &bad_schema, RegressConfig::default()).is_err());
        let no_metrics = parse("{\"name\":\"x\",\"schema\":1}").unwrap();
        assert!(compare(&b, &no_metrics, RegressConfig::default()).is_err());
    }

    #[test]
    fn pool_width_mismatches_error() {
        let at = |w: &str| {
            let env = format!("\"env\":{{\"pool_threads\":{w}}}");
            parse(&format!(
                "{{\"name\":\"x\",\"schema\":1,{env},\"metrics\":{{}}}}"
            ))
            .unwrap()
        };
        let cfg = RegressConfig::default();
        assert!(compare(&at("1"), &at("2"), cfg)
            .unwrap_err()
            .contains("pool widths"));
        assert!(
            compare(&at("1"), &stamp("x", ""), cfg).is_err(),
            "one without a width"
        );
        assert!(compare(&at("2"), &at("2"), cfg).is_ok());
    }
}
