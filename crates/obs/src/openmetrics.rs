//! OpenMetrics / Prometheus text exposition over the global registry.
//!
//! [`render`] produces a complete scrape page: every registered
//! counter (`*_total`), gauge and span (calls/ns counters + max
//! gauge). Subsystems with metrics outside the registry append their
//! own families through the `append_*` helpers — [`append_histogram`]
//! writes a [`crate::Histogram`] snapshot as classic cumulative
//! `_bucket{le="..."}` series over its exact bucket bounds, with
//! `+Inf` == `_count` (that is how serve exports its per-engine and
//! per-tenant latency and SLO series through the scrape endpoint's
//! exposition hook), and
//! [`validate`] is a strict structural checker used by the tests and
//! the `spgemm-obs` smoke gate: `# TYPE` before samples, known family
//! for every sample, monotone buckets, `+Inf` equal to `_count`, and
//! a final `# EOF`.
//!
//! Everything is hand-rolled `std`: the crate stays dependency-free.

use crate::hist::{bucket_high, bucket_index, HistogramSnapshot};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Prefix applied to every registry-derived metric family.
pub const NAME_PREFIX: &str = "spgemm_";

/// A metric name made exposition-safe: `[a-zA-Z0-9_:]` kept, every
/// other byte mapped to `_`, prefixed with `_` if it would start with
/// a digit.
pub fn sanitize_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn escape_label(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn write_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&sanitize_name(k));
        out.push_str("=\"");
        escape_label(v, out);
        out.push('"');
    }
    out.push('}');
}

/// Append a `# TYPE` line for family `name` (already sanitized).
pub fn append_type(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Append one counter sample `name_total{labels} value`.
pub fn append_counter(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(name);
    out.push_str("_total");
    write_labels(out, labels);
    let _ = writeln!(out, " {value}");
}

/// Append one gauge sample `name{labels} value`.
pub fn append_gauge(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    write_labels(out, labels);
    if value == value.trunc() && value.abs() < 1e15 {
        let _ = writeln!(out, " {}", value as i64);
    } else {
        let _ = writeln!(out, " {value}");
    }
}

/// Append one histogram's full series — cumulative `_bucket` samples
/// over the snapshot's non-empty buckets (each `le` is that bucket's
/// exact inclusive upper bound), the `+Inf` bucket, `_sum` and
/// `_count`. The caller emits the `# TYPE name histogram` line once
/// per family.
pub fn append_histogram(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    snap: &HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    for (low, count) in snap.nonzero_buckets() {
        cumulative += count;
        out.push_str(name);
        out.push_str("_bucket");
        let le = bucket_high(bucket_index(low));
        write_labels_with_le(out, labels, le);
        let _ = writeln!(out, " {cumulative}");
    }
    out.push_str(name);
    out.push_str("_bucket");
    write_labels_with_inf(out, labels);
    let _ = writeln!(out, " {}", snap.count);
    out.push_str(name);
    out.push_str("_sum");
    write_labels(out, labels);
    let _ = writeln!(out, " {}", snap.sum);
    out.push_str(name);
    out.push_str("_count");
    write_labels(out, labels);
    let _ = writeln!(out, " {}", snap.count);
}

fn write_labels_with_le(out: &mut String, labels: &[(&str, &str)], le: u64) {
    out.push('{');
    for (k, v) in labels {
        out.push_str(&sanitize_name(k));
        out.push_str("=\"");
        escape_label(v, out);
        out.push_str("\",");
    }
    let _ = write!(out, "le=\"{le}\"}}");
}

fn write_labels_with_inf(out: &mut String, labels: &[(&str, &str)]) {
    out.push('{');
    for (k, v) in labels {
        out.push_str(&sanitize_name(k));
        out.push_str("=\"");
        escape_label(v, out);
        out.push_str("\",");
    }
    out.push_str("le=\"+Inf\"}");
}

/// Group registry entries by sanitized family, then by `cat` within
/// each family, merging values with `fold`. Same-named sites (the
/// same `span!`/site name used at two code locations) are one logical
/// metric — they must collapse into a single family, or the page
/// would declare a duplicate `# TYPE`. First-seen order is kept so
/// pages stay stable across scrapes.
fn group_by_family<S, V>(
    stats: Vec<S>,
    name: fn(&S) -> &str,
    cat: fn(&S) -> &'static str,
    value: fn(&S) -> V,
    fold: fn(&mut V, V),
) -> Vec<(String, Vec<(&'static str, V)>)> {
    let mut fams: Vec<(String, Vec<(&'static str, V)>)> = Vec::new();
    for s in stats {
        let fam = format!("{NAME_PREFIX}{}", sanitize_name(name(&s)));
        let cats = match fams.iter_mut().find(|(f, _)| *f == fam) {
            Some((_, cats)) => cats,
            None => {
                fams.push((fam, Vec::new()));
                &mut fams.last_mut().expect("just pushed").1
            }
        };
        match cats.iter_mut().find(|(c, _)| *c == cat(&s)) {
            Some((_, v)) => fold(v, value(&s)),
            None => cats.push((cat(&s), value(&s))),
        }
    }
    fams
}

/// Render every registered site into `out`, without the trailing
/// `# EOF` (so callers can append their own families first).
pub fn render_registry_into(out: &mut String) {
    for (fam, cats) in group_by_family(
        crate::counter_stats(),
        |c| c.name,
        |c| c.cat,
        |c| c.value,
        |a, b| *a += b,
    ) {
        append_type(out, &fam, "counter");
        for (cat, value) in cats {
            append_counter(out, &fam, &[("cat", cat)], value);
        }
    }
    for (fam, cats) in group_by_family(
        crate::gauge_stats(),
        |g| g.name,
        |g| g.cat,
        |g| g.value,
        |a, b| *a += b,
    ) {
        append_type(out, &fam, "gauge");
        for (cat, value) in cats {
            append_gauge(out, &fam, &[("cat", cat)], value as f64);
        }
    }
    for (base, cats) in group_by_family(
        crate::span_stats(),
        |s| s.name,
        |s| s.cat,
        |s| (s.count, s.total_ns, s.max_ns),
        |a, b| {
            a.0 += b.0;
            a.1 += b.1;
            a.2 = a.2.max(b.2);
        },
    ) {
        let calls = format!("{base}_calls");
        append_type(out, &calls, "counter");
        for (cat, (count, _, _)) in &cats {
            append_counter(out, &calls, &[("cat", cat)], *count);
        }
        let ns = format!("{base}_ns");
        append_type(out, &ns, "counter");
        for (cat, (_, total_ns, _)) in &cats {
            append_counter(out, &ns, &[("cat", cat)], *total_ns);
        }
        let max = format!("{base}_max_ns");
        append_type(out, &max, "gauge");
        for (cat, (_, _, max_ns)) in &cats {
            append_gauge(out, &max, &[("cat", cat)], *max_ns as f64);
        }
    }
}

/// The complete scrape page for the registry, `# EOF`-terminated.
pub fn render() -> String {
    let mut out = String::new();
    render_registry_into(&mut out);
    out.push_str("# EOF\n");
    out
}

// ---- structural validator -------------------------------------------------

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches(',');
        if rest.is_empty() {
            return Ok(out);
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest}"))?;
        let key = rest[..eq].to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("unquoted label value: {rest}"));
        }
        let mut val = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => val.push('\n'),
                    Some((_, c2)) => val.push(c2),
                    None => return Err("dangling escape".into()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => val.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value: {rest}"))?;
        out.push((key, val));
        rest = &after[1 + end + 1..];
    }
}

struct Sample {
    family: String,
    suffix: &'static str,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_sample(line: &str, families: &HashMap<String, String>) -> Result<Sample, String> {
    let (id, value_str) = match line.rfind('}') {
        Some(close) => {
            let v = line[close + 1..].trim();
            (&line[..close + 1], v)
        }
        None => {
            let sp = line.find(' ').ok_or_else(|| format!("no value: {line}"))?;
            (&line[..sp], line[sp + 1..].trim())
        }
    };
    let value: f64 = match value_str.split(' ').next().unwrap_or("") {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse()
            .map_err(|_| format!("bad sample value {v:?}: {line}"))?,
    };
    let (name, labels) = match id.find('{') {
        Some(open) => {
            if !id.ends_with('}') {
                return Err(format!("unterminated label set: {line}"));
            }
            (&id[..open], parse_labels(&id[open + 1..id.len() - 1])?)
        }
        None => (id, Vec::new()),
    };
    for (family, suffix) in suffix_candidates(name) {
        if let Some(kind) = families.get(&family) {
            let ok = match kind.as_str() {
                "counter" => suffix == "_total",
                "gauge" | "unknown" | "untyped" => suffix.is_empty(),
                "histogram" => matches!(suffix, "_bucket" | "_sum" | "_count"),
                _ => true,
            };
            if ok {
                return Ok(Sample {
                    family,
                    suffix,
                    labels,
                    value,
                });
            }
        }
    }
    Err(format!("sample before/without its # TYPE line: {line}"))
}

fn suffix_candidates(name: &str) -> Vec<(String, &'static str)> {
    let mut out = vec![(name.to_string(), "")];
    for suffix in ["_total", "_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            out.push((stripped.to_string(), suffix));
        }
    }
    out
}

/// Validate the structure of an exposition page: every sample's
/// family is declared by an earlier `# TYPE` line with a suffix legal
/// for that type; per labelset, histogram `_bucket` series have
/// strictly increasing `le` with non-decreasing cumulative counts and
/// a `+Inf` bucket equal to `_count`; the page ends with `# EOF`.
pub fn validate(text: &str) -> Result<(), String> {
    let mut families: HashMap<String, String> = HashMap::new();
    // (family, labels-minus-le) -> ordered (le, cumulative) + _count
    #[derive(Default)]
    struct HistCheck {
        buckets: Vec<(f64, f64)>,
        count: Option<f64>,
    }
    let mut hists: HashMap<(String, String), HistCheck> = HashMap::new();
    let mut saw_eof = false;
    for raw in text.lines() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if saw_eof {
            return Err(format!("content after # EOF: {line}"));
        }
        if let Some(meta) = line.strip_prefix('#') {
            let meta = meta.trim_start();
            if meta == "EOF" {
                saw_eof = true;
            } else if let Some(rest) = meta.strip_prefix("TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or("empty # TYPE")?.to_string();
                let kind = it.next().ok_or("missing # TYPE kind")?.to_string();
                if families.insert(name.clone(), kind).is_some() {
                    return Err(format!("duplicate # TYPE for {name}"));
                }
            }
            continue;
        }
        let s = parse_sample(line, &families)?;
        if families.get(&s.family).map(String::as_str) == Some("histogram") {
            let mut key = String::new();
            let mut le = None;
            for (k, v) in &s.labels {
                if k == "le" {
                    le = Some(v.clone());
                } else {
                    let _ = write!(key, "{k}={v};");
                }
            }
            let entry = hists.entry((s.family.clone(), key)).or_default();
            match s.suffix {
                "_bucket" => {
                    let le = le.ok_or_else(|| format!("_bucket without le: {line}"))?;
                    let bound = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().map_err(|_| format!("bad le {le:?}: {line}"))?
                    };
                    entry.buckets.push((bound, s.value));
                }
                "_count" => entry.count = Some(s.value),
                _ => {}
            }
        }
    }
    if !saw_eof {
        return Err("missing # EOF terminator".into());
    }
    for ((family, labels), check) in &hists {
        let b = &check.buckets;
        if b.is_empty() {
            return Err(format!("histogram {family}{{{labels}}} has no buckets"));
        }
        for w in b.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!(
                    "histogram {family}{{{labels}}}: le not increasing ({} after {})",
                    w[1].0, w[0].0
                ));
            }
            if w[1].1 < w[0].1 {
                return Err(format!(
                    "histogram {family}{{{labels}}}: bucket counts decrease ({} after {})",
                    w[1].1, w[0].1
                ));
            }
        }
        let last = b[b.len() - 1];
        if last.0 != f64::INFINITY {
            return Err(format!("histogram {family}{{{labels}}}: no +Inf bucket"));
        }
        match check.count {
            Some(c) if c == last.1 => {}
            Some(c) => {
                return Err(format!(
                    "histogram {family}{{{labels}}}: +Inf {} != _count {c}",
                    last.1
                ));
            }
            None => return Err(format!("histogram {family}{{{labels}}}: no _count")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn registry_page_validates() {
        let _l = crate::test_lock();
        crate::enable_with_capacity(0);
        crate::reset();
        static C: crate::CounterSite = crate::CounterSite::new("om", "om.ctr");
        static G: crate::GaugeSite = crate::GaugeSite::new("om", "om.gauge");
        C.add(3);
        G.set(-2);
        {
            let _g = crate::span!("om", "om.phase");
        }
        crate::disable();
        let page = render();
        validate(&page).unwrap_or_else(|e| panic!("{e}\n---\n{page}"));
        assert!(page.contains("# TYPE spgemm_om_ctr counter"), "{page}");
        assert!(page.contains("spgemm_om_ctr_total{cat=\"om\"} 3"), "{page}");
        assert!(page.contains("spgemm_om_gauge{cat=\"om\"} -2"), "{page}");
        assert!(page.contains("spgemm_om_phase_calls_total"), "{page}");
        assert!(page.ends_with("# EOF\n"), "{page}");
        crate::reset();
    }

    #[test]
    fn append_histogram_is_cumulative_and_exact() {
        let h = Histogram::new();
        for v in [2u64, 2, 9, 1_000_000] {
            h.record(v);
        }
        let mut out = String::new();
        append_type(&mut out, "x", "histogram");
        append_histogram(&mut out, "x", &[("tenant", "a\"b\n")], &h.snapshot());
        validate(&format!("{out}# EOF\n")).unwrap_or_else(|e| panic!("{e}\n---\n{out}"));
        assert!(out.contains("le=\"2\"} 2"), "{out}");
        assert!(out.contains("le=\"9\"} 3"), "{out}");
        assert!(out.contains("le=\"+Inf\"} 4"), "{out}");
        assert!(out.contains("x_sum{tenant=\"a\\\"b\\n\"} 1000013"), "{out}");
    }

    #[test]
    fn validator_rejects_malformed_pages() {
        // sample before its TYPE line
        assert!(validate("a_total 1\n# TYPE a counter\n# EOF\n").is_err());
        // suffix illegal for the declared type
        assert!(validate("# TYPE a counter\na 1\n# EOF\n").is_err());
        // missing EOF
        assert!(validate("# TYPE a counter\na_total 1\n").is_err());
        // +Inf != _count
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n\
                   h_sum 3\nh_count 3\n# EOF\n";
        assert!(validate(bad).is_err());
        // non-monotone buckets
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 4\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 3\nh_count 5\n# EOF\n";
        assert!(validate(bad).is_err());
        // well-formed minimal page
        let ok = "# TYPE a counter\na_total{cat=\"x\"} 1\n# TYPE h histogram\n\
                  h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 2\n# EOF\n";
        validate(ok).unwrap();
    }
}
