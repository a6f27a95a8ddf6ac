//! A std-only JSON *writer* — all the harness needs: the result line
//! of the contract, the Chrome trace, and `BENCHMARK.json` itself.

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with every digit it has (shortest form that
/// round-trips). JSON has no NaN/∞: those become `null`, which the
/// harness treats as a failed run before it gets here.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// `{"k": v, ...}` from already-encoded values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `[v, ...]` from already-encoded values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(120.0), "120");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(
            object([("a", number(1.0)), ("b", quote("x"))]),
            "{\"a\": 1, \"b\": \"x\"}"
        );
        assert_eq!(array([number(1.0), number(2.0)]), "[1, 2]");
    }
}
