//! Trace exporters: JSON-lines and Chrome trace-event format, plus the
//! minimal JSON well-formedness checker the bench `--profile` smoke leg
//! uses to validate emitted traces without external tooling.
//!
//! The Chrome format ([`chrome_trace`]) emits one complete (`"ph": "X"`)
//! event per span with microsecond timestamps, which loads directly in
//! `chrome://tracing` and Perfetto (`ui.perfetto.dev` → *Open trace
//! file*). Registered metrics ride along as a single instant event named
//! `mmdiag.metrics` at the end of the timeline, so one file carries both
//! the timeline and the counters/histograms that summarise it.

use crate::hist::HistogramSummary;
use crate::metrics::{MetricSnapshot, MetricValue};
use crate::sink::TraceEvent;
use std::fmt::Write as _;

/// Append `s` to `out` escaped for a JSON string literal (no surrounding
/// quotes) — the workspace's one JSON string escaper.
pub fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Nanoseconds → microseconds with 3 decimals (the Chrome `ts` unit).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Append `h` to `out` as a JSON object: `count`, `sum`, `min`, `max`,
/// `mean` and the `p50`/`p90`/`p99` quantiles — the workspace's one
/// histogram writer.
pub fn histogram_json(h: &HistogramSummary, out: &mut String) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count,
        h.sum,
        h.min,
        h.max,
        h.mean(),
        h.p50(),
        h.p90(),
        h.p99()
    );
}

fn metric_value_json(v: &MetricValue, out: &mut String) {
    match v {
        MetricValue::Counter(c) => {
            let _ = write!(out, "{c}");
        }
        MetricValue::Gauge(cur, max) => {
            let _ = write!(out, "{{\"value\":{cur},\"max\":{max}}}");
        }
        MetricValue::Histogram(h) => histogram_json(h, out),
    }
}

/// One JSON object per line, one line per event — the grep-friendly
/// format for ad-hoc analysis.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str("{\"name\":\"");
        escape(e.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape(e.cat, &mut out);
        let _ = writeln!(
            out,
            "\",\"start_ns\":{},\"dur_ns\":{},\"tid\":{},\"value\":{}}}",
            e.start_ns, e.dur_ns, e.tid, e.value
        );
    }
    out
}

/// The full Chrome trace-event JSON document for `events` plus
/// `metrics`. Spans become complete (`"X"`) events; metrics become one
/// trailing instant event whose `args` hold every registered reading.
pub fn chrome_trace(events: &[TraceEvent], metrics: &[MetricSnapshot]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut end_ns = 0u64;
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        end_ns = end_ns.max(e.start_ns + e.dur_ns);
        out.push_str("{\"name\":\"");
        escape(e.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape(e.cat, &mut out);
        let ph = if e.dur_ns == 0 { "i" } else { "X" };
        let _ = write!(
            out,
            "\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            e.tid,
            micros(e.start_ns)
        );
        if e.dur_ns > 0 {
            let _ = write!(out, ",\"dur\":{}", micros(e.dur_ns));
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        let _ = write!(out, ",\"args\":{{\"value\":{}}}}}", e.value);
    }
    if !metrics.is_empty() {
        if !first {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"mmdiag.metrics\",\"cat\":\"metrics\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\
             \"ts\":{},\"s\":\"g\",\"args\":{{",
            micros(end_ns)
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape(&m.name, &mut out);
            out.push_str("\":");
            metric_value_json(&m.value, &mut out);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Check that `s` is one well-formed JSON value (the whole input). This
/// is a validator, not a parser — it allocates nothing and reports the
/// byte offset of the first violation. The bench `--profile` leg runs
/// every emitted Chrome trace through it, so CI catches a malformed
/// exporter without needing an external JSON tool.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        Some(b'{') => object(b, pos, depth),
        Some(b'[') => array(b, pos, depth),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
        None => Err(format!("unexpected end of input at byte {pos}")),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("malformed literal at byte {pos}"))
    }
}

fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos}"));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| -> usize {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - s
    };
    if digits(b, pos) == 0 {
        return Err(format!("malformed number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(b, pos) == 0 {
            return Err(format!("malformed fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(b, pos) == 0 {
            return Err(format!("malformed exponent at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                name: "probe",
                cat: "phase",
                start_ns: 1_500,
                dur_ns: 2_000,
                tid: 1,
                value: 12,
            },
            TraceEvent {
                name: "mark",
                cat: "phase",
                start_ns: 4_000,
                dur_ns: 0,
                tid: 2,
                value: 0,
            },
        ]
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let out = to_jsonl(&sample_events());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            validate_json(line).unwrap();
        }
        assert!(out.contains("\"start_ns\":1500"));
        assert!(out.contains("\"value\":12"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_fields() {
        let reg = MetricsRegistry::new();
        reg.counter("syndrome.lookups").add(7);
        reg.histogram("task_ns").record(1000);
        let doc = chrome_trace(&sample_events(), &reg.snapshot());
        validate_json(&doc).unwrap();
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ts\":1.500"));
        assert!(doc.contains("\"dur\":2.000"));
        assert!(doc.contains("\"ph\":\"i\""), "instant event: {doc}");
        assert!(doc.contains("mmdiag.metrics"));
        assert!(doc.contains("\"syndrome.lookups\":7"));
        assert!(doc.contains("\"p99\":"));
    }

    #[test]
    fn chrome_trace_of_nothing_is_still_valid() {
        let doc = chrome_trace(&[], &[]);
        validate_json(&doc).unwrap();
        assert!(doc.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn validator_accepts_json_shapes() {
        for ok in [
            "null",
            "true",
            " false ",
            "0",
            "-12.5e+3",
            "\"a\\nb\\u00e9\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            "{\"a\":{\"b\":[1,null]},\"c\":\"\"}",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "{a:1}",
            "\"unterminated",
            "\"bad\\q\"",
            "01x",
            "1 2",
            "nul",
            "--3",
            "1.",
            "1e",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn escape_handles_specials() {
        let mut s = String::new();
        escape("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }
}
