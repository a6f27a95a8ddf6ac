//! Exporters over the global registry: text report and JSON snapshot
//! of its spans, counters and gauges, Chrome `trace_event` JSON
//! (including per-request exemplar export with flow events), and the
//! span-coverage helpers. Subsystem-owned histograms are not in the
//! registry; they reach `/metrics` through
//! [`crate::http::ExtraExposition`].

use crate::ring::{EventKind, TraceEvent};
use crate::site::{lock, REGISTRY};
use std::fmt::Write as _;

/// Aggregates of one span callsite.
#[derive(Clone, Debug)]
pub struct SpanStat {
    /// Span name.
    pub name: &'static str,
    /// Span category (layer).
    pub cat: &'static str,
    /// Completed occurrences.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Longest single occurrence, nanoseconds.
    pub max_ns: u64,
}

/// Value of one counter callsite.
#[derive(Clone, Debug)]
pub struct CounterStat {
    /// Counter name.
    pub name: &'static str,
    /// Counter category (layer).
    pub cat: &'static str,
    /// Current value.
    pub value: u64,
}

/// Level of one gauge callsite.
#[derive(Clone, Debug)]
pub struct GaugeStat {
    /// Gauge name.
    pub name: &'static str,
    /// Gauge category (layer).
    pub cat: &'static str,
    /// Current level.
    pub value: i64,
}

/// Every registered span's aggregates, sorted by `(cat, name)`.
pub fn span_stats() -> Vec<SpanStat> {
    let mut out: Vec<SpanStat> = lock(&REGISTRY.spans)
        .iter()
        .map(|s| {
            let (count, total_ns, max_ns) = s.totals();
            SpanStat {
                name: s.name(),
                cat: s.cat(),
                count,
                total_ns,
                max_ns,
            }
        })
        .collect();
    out.sort_by_key(|s| (s.cat, s.name));
    out
}

/// Every registered counter's value, sorted by `(cat, name)`.
pub fn counter_stats() -> Vec<CounterStat> {
    let mut out: Vec<CounterStat> = lock(&REGISTRY.counters)
        .iter()
        .map(|c| CounterStat {
            name: c.name(),
            cat: c.cat(),
            value: c.value(),
        })
        .collect();
    out.sort_by_key(|c| (c.cat, c.name));
    out
}

/// Every registered gauge's level, sorted by `(cat, name)`.
pub fn gauge_stats() -> Vec<GaugeStat> {
    let mut out: Vec<GaugeStat> = lock(&REGISTRY.gauges)
        .iter()
        .map(|g| GaugeStat {
            name: g.name(),
            cat: g.cat(),
            value: g.value(),
        })
        .collect();
    out.sort_by_key(|g| (g.cat, g.name));
    out
}

/// Human-readable report over every registered site: per-span count,
/// total, mean and max; counters; gauges.
pub fn text_report() -> String {
    let mut out = String::new();
    let spans = span_stats();
    if !spans.is_empty() {
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>12} {:>11} {:>11}",
            "span", "count", "total ms", "mean us", "max us"
        );
        for s in &spans {
            let mean_us = if s.count == 0 {
                0.0
            } else {
                s.total_ns as f64 / s.count as f64 / 1e3
            };
            let _ = writeln!(
                out,
                "{:<34} {:>10} {:>12.3} {:>11.2} {:>11.2}",
                format!("{}/{}", s.cat, s.name),
                s.count,
                s.total_ns as f64 / 1e6,
                mean_us,
                s.max_ns as f64 / 1e3,
            );
        }
    }
    let counters = counter_stats();
    if !counters.is_empty() {
        let _ = writeln!(out, "{:<34} {:>10}", "counter", "value");
        for c in &counters {
            let _ = writeln!(
                out,
                "{:<34} {:>10}",
                format!("{}/{}", c.cat, c.name),
                c.value
            );
        }
    }
    let gauges = gauge_stats();
    if !gauges.is_empty() {
        let _ = writeln!(out, "{:<34} {:>10}", "gauge", "level");
        for g in &gauges {
            let _ = writeln!(
                out,
                "{:<34} {:>10}",
                format!("{}/{}", g.cat, g.name),
                g.value
            );
        }
    }
    let dropped = crate::trace_overwritten();
    if dropped > 0 {
        let _ = writeln!(out, "trace events overwritten: {dropped}");
    }
    if out.is_empty() {
        out.push_str("(no instrumentation recorded)\n");
    }
    out
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// JSON snapshot of every registered span, counter and gauge —
/// hand-rolled (the crate is dependency-free), machine-parseable.
pub fn json_snapshot() -> String {
    let mut out = String::from("{\"spans\":[");
    for (i, s) in span_stats().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"cat\":\"");
        json_escape(s.cat, &mut out);
        out.push_str("\",\"name\":\"");
        json_escape(s.name, &mut out);
        let _ = write!(
            out,
            "\",\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
            s.count, s.total_ns, s.max_ns
        );
    }
    out.push_str("],\"counters\":[");
    for (i, c) in counter_stats().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"cat\":\"");
        json_escape(c.cat, &mut out);
        out.push_str("\",\"name\":\"");
        json_escape(c.name, &mut out);
        let _ = write!(out, "\",\"value\":{}}}", c.value);
    }
    out.push_str("],\"gauges\":[");
    for (i, g) in gauge_stats().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"cat\":\"");
        json_escape(g.cat, &mut out);
        out.push_str("\",\"name\":\"");
        json_escape(g.name, &mut out);
        let _ = write!(out, "\",\"value\":{}}}", g.value);
    }
    let _ = write!(
        out,
        "],\"trace_overwritten\":{}}}",
        crate::trace_overwritten()
    );
    out
}

/// Append one event in Chrome `trace_event` object form. Complete
/// spans emit `"ph":"X"`; flow-link halves emit the flow pair
/// `"ph":"s"` / `"ph":"f"` (with `"bp":"e"` so the arrow binds to
/// the enclosing slice), sharing their flow `"id"`.
fn write_chrome_event(out: &mut String, e: &TraceEvent) {
    out.push_str("{\"name\":\"");
    json_escape(e.name, out);
    out.push_str("\",\"cat\":\"");
    json_escape(e.cat, out);
    match e.kind {
        EventKind::Complete => {
            let _ = write!(
                out,
                "\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}",
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.tid
            );
        }
        EventKind::FlowStart => {
            let _ = write!(
                out,
                "\",\"ph\":\"s\",\"id\":{},\"ts\":{:.3},\"pid\":1,\"tid\":{}",
                e.span_id,
                e.start_ns as f64 / 1e3,
                e.tid
            );
        }
        EventKind::FlowEnd => {
            let _ = write!(
                out,
                "\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":{:.3},\"pid\":1,\"tid\":{}",
                e.span_id,
                e.start_ns as f64 / 1e3,
                e.tid
            );
        }
    }
    if e.trace_id != 0 {
        let _ = write!(out, ",\"args\":{{\"trace_id\":{}}}", e.trace_id);
    }
    out.push('}');
}

/// The retained trace as Chrome `trace_event` JSON — save to a file
/// and load in `chrome://tracing` or <https://ui.perfetto.dev>.
/// Spans are complete events (`"ph":"X"`) with microsecond
/// timestamps; request thread-hops appear as flow arrows
/// (`"ph":"s"`/`"f"`).
pub fn chrome_trace() -> String {
    chrome_trace_of(&crate::trace_events())
}

/// The retained exemplar trace with this [`crate::TraceCtx::trace_id`]
/// as Chrome `trace_event` JSON: the complete span tree of that one
/// request, across every thread it touched, with flow arrows linking
/// the hops. `None` when the id is not (or no longer) in the exemplar
/// window.
pub fn chrome_trace_for(trace_id: u64) -> Option<String> {
    crate::exemplar_for(trace_id).map(|e| chrome_trace_of(&e.spans))
}

fn chrome_trace_of(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_chrome_event(&mut out, e);
    }
    out.push_str("]}");
    out
}

/// Fraction of the window `[window_start_ns, window_end_ns)` covered
/// by the union of `events` on thread `tid` (events clipped to the
/// window; nested/overlapping spans count once). This is the number
/// the `spgemm-obs` bench asserts ≥ 0.95: the share of wall time the
/// trace decomposes into known phases.
pub fn span_coverage(
    events: &[TraceEvent],
    tid: u64,
    window_start_ns: u64,
    window_end_ns: u64,
) -> f64 {
    if window_end_ns <= window_start_ns {
        return 0.0;
    }
    let covered = union_ns(
        events
            .iter()
            .filter(|e| e.kind == EventKind::Complete && e.tid == tid),
        window_start_ns,
        window_end_ns,
    );
    covered as f64 / (window_end_ns - window_start_ns) as f64
}

/// Nanoseconds of `[window_start_ns, window_end_ns)` covered by the
/// union of the events' clipped intervals (nested/overlapping spans
/// count once).
fn union_ns<'a>(
    events: impl Iterator<Item = &'a TraceEvent>,
    window_start_ns: u64,
    window_end_ns: u64,
) -> u64 {
    let mut iv: Vec<(u64, u64)> = events
        .map(|e| {
            (
                e.start_ns.max(window_start_ns),
                e.start_ns.saturating_add(e.dur_ns).min(window_end_ns),
            )
        })
        .filter(|&(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = Some(match cur {
            None => (s, e),
            Some((cs, ce)) if s <= ce => (cs, ce.max(e)),
            Some((cs, ce)) => {
                covered += ce - cs;
                (s, e)
            }
        });
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// One callsite's contribution to a coverage window (see
/// [`coverage_by_site`]).
#[derive(Clone, Debug)]
pub struct SiteCoverage {
    /// Span category (layer).
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Nanoseconds of the window covered by this site's spans alone
    /// (its own overlaps unioned).
    pub covered_ns: u64,
    /// `covered_ns` over the window length.
    pub fraction: f64,
}

/// Per-callsite breakdown of [`span_coverage`]: for each `(cat,
/// name)` with at least one event on `tid` in the window, the share
/// of the window that site's spans cover, sorted by descending
/// coverage. When a coverage assertion regresses, this names the
/// phase that lost time. Sites may overlap (spans nest), so the
/// fractions can sum past the unioned total.
pub fn coverage_by_site(
    events: &[TraceEvent],
    tid: u64,
    window_start_ns: u64,
    window_end_ns: u64,
) -> Vec<SiteCoverage> {
    if window_end_ns <= window_start_ns {
        return Vec::new();
    }
    let window = (window_end_ns - window_start_ns) as f64;
    let mut sites: Vec<(&'static str, &'static str)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Complete && e.tid == tid)
        .map(|e| (e.cat, e.name))
        .collect();
    sites.sort_unstable();
    sites.dedup();
    let mut out: Vec<SiteCoverage> = sites
        .into_iter()
        .map(|(cat, name)| {
            let covered_ns = union_ns(
                events.iter().filter(|e| {
                    e.kind == EventKind::Complete && e.tid == tid && e.cat == cat && e.name == name
                }),
                window_start_ns,
                window_end_ns,
            );
            SiteCoverage {
                cat,
                name,
                covered_ns,
                fraction: covered_ns as f64 / window,
            }
        })
        .filter(|s| s.covered_ns > 0)
        .collect();
    out.sort_by(|a, b| b.covered_ns.cmp(&a.covered_ns).then(a.name.cmp(b.name)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u64, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent::untraced("e", "test", tid, start_ns, dur_ns)
    }

    fn named(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent::untraced(name, "test", tid, start_ns, dur_ns)
    }

    #[test]
    fn coverage_unions_and_clips() {
        let events = [
            ev(1, 0, 50),    // [0,50)
            ev(1, 40, 20),   // overlaps → union [0,60)
            ev(1, 80, 1000), // clipped to [80,100)
            ev(2, 0, 100),   // other thread, ignored
        ];
        let c = span_coverage(&events, 1, 0, 100);
        assert!((c - 0.8).abs() < 1e-12, "{c}");
        assert_eq!(span_coverage(&events, 3, 0, 100), 0.0);
        assert_eq!(span_coverage(&events, 1, 100, 100), 0.0);
    }

    #[test]
    fn coverage_handles_nested_spans_once() {
        let events = [ev(1, 10, 80), ev(1, 20, 30), ev(1, 30, 10)];
        let c = span_coverage(&events, 1, 0, 100);
        assert!((c - 0.8).abs() < 1e-12, "{c}");
    }

    #[test]
    fn coverage_ignores_flow_events() {
        let mut flow = ev(1, 0, 1000);
        flow.kind = EventKind::FlowStart;
        let events = [flow, ev(1, 10, 40)];
        let c = span_coverage(&events, 1, 0, 100);
        assert!((c - 0.4).abs() < 1e-12, "{c}");
    }

    #[test]
    fn coverage_by_site_names_each_phase() {
        let events = [
            named("a", 1, 0, 50),
            named("a", 1, 40, 20), // unions with above: a covers 60
            named("b", 1, 70, 10), // b covers 10
            named("b", 2, 0, 100), // other tid
        ];
        let by = coverage_by_site(&events, 1, 0, 100);
        assert_eq!(by.len(), 2);
        assert_eq!((by[0].cat, by[0].name), ("test", "a"));
        assert_eq!(by[0].covered_ns, 60);
        assert!((by[0].fraction - 0.6).abs() < 1e-12);
        assert_eq!(by[1].name, "b");
        assert_eq!(by[1].covered_ns, 10);
        assert!(coverage_by_site(&events, 1, 100, 100).is_empty());
    }

    #[test]
    fn chrome_trace_emits_flow_pair() {
        let mut s = ev(1, 10, 0);
        s.kind = EventKind::FlowStart;
        s.span_id = 77;
        s.trace_id = 5;
        let mut f = ev(2, 20, 0);
        f.kind = EventKind::FlowEnd;
        f.span_id = 77;
        f.trace_id = 5;
        let json = chrome_trace_of(&[s, f, ev(1, 0, 30)]);
        assert!(json.contains("\"ph\":\"s\",\"id\":77"), "{json}");
        assert!(
            json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":77"),
            "{json}"
        );
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"args\":{\"trace_id\":5}"), "{json}");
    }

    #[test]
    fn exports_are_well_formed() {
        let _l = crate::test_lock();
        crate::enable_with_capacity(64);
        crate::reset();
        {
            let _g = crate::span!("export", "export.phase");
        }
        static C: crate::CounterSite = crate::CounterSite::new("export", "export.ctr");
        C.add(2);
        crate::disable();

        let text = text_report();
        assert!(text.contains("export/export.phase"), "{text}");
        assert!(text.contains("export/export.ctr"), "{text}");

        let json = json_snapshot();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(
            json.contains("\"name\":\"export.ctr\",\"value\":2"),
            "{json}"
        );

        let trace = chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"ph\":\"X\""), "{trace}");
        assert!(trace.contains("\"export.phase\""), "{trace}");
        crate::reset();
    }

    #[test]
    fn json_escape_controls_and_quotes() {
        let mut s = String::new();
        json_escape("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\u000ad");
        s.clear();
        json_escape("\u{0}\u{1f}\t\r", &mut s);
        assert_eq!(s, "\\u0000\\u001f\\u0009\\u000d");
    }

    /// A hostile site name — embedded newline, quote and a C0 control
    /// — must come out of every JSON exporter escaped, never raw.
    #[test]
    fn hostile_names_stay_escaped_in_every_exporter() {
        let _l = crate::test_lock();
        crate::enable_with_capacity(64);
        crate::reset();
        static EVIL_CTR: crate::CounterSite =
            crate::CounterSite::new("export", "evil\n\"ctr\"\u{1}");
        static EVIL_GAUGE: crate::GaugeSite = crate::GaugeSite::new("export", "evil\ngauge");
        static EVIL_SPAN: crate::SpanSite = crate::SpanSite::new("export", "evil\nspan");
        EVIL_CTR.add(1);
        EVIL_GAUGE.set(-3);
        drop(EVIL_SPAN.enter());
        crate::disable();

        // these exporters emit single-line documents, so any raw
        // control character is a leak from an unescaped name
        for json in [json_snapshot(), chrome_trace()] {
            assert!(!json.contains('\n'), "raw newline leaked: {json}");
            assert!(!json.contains('\u{1}'), "raw control leaked: {json}");
        }
        let json = json_snapshot();
        assert!(json.contains("evil\\u000a\\\"ctr\\\"\\u0001"), "{json}");
        assert!(json.contains("evil\\u000agauge\",\"value\":-3"), "{json}");
        crate::reset();
    }
}
