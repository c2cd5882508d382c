//! Prometheus text-exposition rendering of the registry and the global
//! time-series store, plus a line-grammar validator.
//!
//! Rendering rules:
//!
//! * Counters, gauges, and timers come from a [`Snapshot`] (sorted maps,
//!   so output is byte-stable for a given registry state — see the
//!   ordering contract on [`crate::snapshot`]).
//! * Metric names are sanitized to `[a-zA-Z_:][a-zA-Z0-9_:]*` under an
//!   `lm4db_` prefix; the registry's lazy `<sys>/tenant/<id>/<field>`
//!   naming scheme is recognized and folded into a `tenant="<id>"`
//!   label, so all tenants share one metric family as Prometheus
//!   intends: `serve/tenant/interactive/completed` becomes
//!   `lm4db_serve_tenant_completed{tenant="interactive"}`.
//! * Timers render as summaries (`quantile` labels from the log₂
//!   histogram, plus `_sum` / `_count`), in nanoseconds as the `_ns`
//!   suffix advertises.
//! * Time series render their newest sample under an `lm4db_ts_` prefix
//!   (disjoint from the registry's, so a counter and its sampled series
//!   never collide as exposition families).
//!
//! [`validate_exposition`] checks the line grammar without external
//! dependencies — CI runs it over real scrapes, and the endpoint tests
//! use it as the "is this valid exposition text" oracle.

use std::fmt::Write as _;

use crate::export::Snapshot;
use crate::timeseries::Series;

/// Sanitizes one path segment into Prometheus name characters.
fn san(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for (i, c) in s.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value (backslash, quote, newline per the format spec).
fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Splits a registry name into a Prometheus family name and optional
/// tenant label: `serve/tenant/interactive/completed` →
/// `(lm4db_serve_tenant_completed, Some("interactive"))`; anything else
/// is sanitized wholesale under the `lm4db_` prefix.
fn family(name: &str, prefix: &str) -> (String, Option<String>) {
    let parts: Vec<&str> = name.split('/').collect();
    if parts.len() >= 4 {
        if let Some(pos) = parts.iter().position(|p| *p == "tenant") {
            // Need a system prefix before "tenant" and at least one field
            // after the tenant id: <sys>/tenant/<id>/<field...>.
            if pos >= 1 && pos + 2 < parts.len() {
                let tenant = parts[pos + 1].to_string();
                let mut fam = String::from(prefix);
                for (i, p) in parts.iter().enumerate() {
                    if i == pos + 1 {
                        continue; // the tenant id becomes a label
                    }
                    if i > 0 {
                        fam.push('_');
                    }
                    fam.push_str(&san(p));
                }
                return (fam, Some(tenant));
            }
        }
    }
    (format!("{prefix}{}", san(&name.replace('/', "_"))), None)
}

fn write_sample(out: &mut String, fam: &str, labels: &[(&str, &str)], value: &str) {
    out.push_str(fam);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", label_escape(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Renders `fmt_f64`-style: integers stay integral, floats as printed.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Renders the snapshot plus time series as Prometheus text exposition
/// (version 0.0.4). Output is deterministic: sorted family order within
/// each section, one `# TYPE` header per family.
pub fn to_prometheus(snap: &Snapshot, series: &[(String, Series)]) -> String {
    let mut out = String::new();
    let mut last_family = String::new();

    for (name, v) in &snap.counters {
        let (fam, tenant) = family(name, "lm4db_");
        if fam != last_family {
            let _ = writeln!(out, "# TYPE {fam} counter");
            last_family = fam.clone();
        }
        let labels: Vec<(&str, &str)> = match &tenant {
            Some(t) => vec![("tenant", t.as_str())],
            None => vec![],
        };
        write_sample(&mut out, &fam, &labels, &v.to_string());
    }

    last_family.clear();
    for (name, v) in &snap.gauges {
        let (fam, tenant) = family(name, "lm4db_");
        if fam != last_family {
            let _ = writeln!(out, "# TYPE {fam} gauge");
            last_family = fam.clone();
        }
        let labels: Vec<(&str, &str)> = match &tenant {
            Some(t) => vec![("tenant", t.as_str())],
            None => vec![],
        };
        write_sample(&mut out, &fam, &labels, &fmt_f64(*v));
    }

    for (name, t) in &snap.timers {
        let (fam, tenant) = family(name, "lm4db_");
        let fam = format!("{fam}_ns");
        let _ = writeln!(out, "# TYPE {fam} summary");
        for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let mut labels: Vec<(&str, &str)> = Vec::new();
            if let Some(tn) = &tenant {
                labels.push(("tenant", tn.as_str()));
            }
            labels.push(("quantile", qs));
            write_sample(&mut out, &fam, &labels, &t.quantile(q).to_string());
        }
        let labels: Vec<(&str, &str)> = match &tenant {
            Some(tn) => vec![("tenant", tn.as_str())],
            None => vec![],
        };
        write_sample(
            &mut out,
            &format!("{fam}_sum"),
            &labels,
            &t.total().to_string(),
        );
        write_sample(
            &mut out,
            &format!("{fam}_count"),
            &labels,
            &t.count().to_string(),
        );
    }

    last_family.clear();
    for (name, s) in series {
        let Some(p) = s.latest() else { continue };
        let (fam, tenant) = family(name, "lm4db_ts_");
        if fam != last_family {
            let _ = writeln!(out, "# TYPE {fam} gauge");
            last_family = fam.clone();
        }
        let labels: Vec<(&str, &str)> = match &tenant {
            Some(t) => vec![("tenant", t.as_str())],
            None => vec![],
        };
        write_sample(&mut out, &fam, &labels, &p.value.to_string());
    }
    out
}

/// Convenience: renders the *global* registry snapshot plus the global
/// series store.
pub fn global_prometheus() -> String {
    to_prometheus(&crate::snapshot(), &crate::timeseries::series_snapshot())
}

/// Checks Prometheus text-exposition line grammar without external
/// dependencies: every line must be a comment (`# HELP` / `# TYPE` with
/// a valid metric name and, for TYPE, a known type), blank, or a sample
/// `name[{label="value",…}] value [timestamp]` with a valid metric name,
/// properly quoted/escaped label values, and a parseable float value.
/// Returns `Err` with the first offending line (1-based) and reason.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        validate_line(line).map_err(|e| format!("line {lineno}: {e}: {line:?}"))?;
    }
    Ok(())
}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn is_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
}

fn validate_line(line: &str) -> Result<(), &'static str> {
    if line.is_empty() {
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix('#') {
        let rest = rest.trim_start();
        if let Some(body) = rest.strip_prefix("TYPE ") {
            let mut it = body.split_whitespace();
            let name = it.next().ok_or("TYPE missing metric name")?;
            if !is_name(name) {
                return Err("TYPE has invalid metric name");
            }
            let ty = it.next().ok_or("TYPE missing type")?;
            if !matches!(
                ty,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err("unknown metric type");
            }
            return Ok(());
        }
        if let Some(body) = rest.strip_prefix("HELP ") {
            let name = body.split_whitespace().next().ok_or("HELP missing name")?;
            if !is_name(name) {
                return Err("HELP has invalid metric name");
            }
            return Ok(());
        }
        return Ok(()); // bare comment
    }
    // Sample line: name[{labels}] value [timestamp]
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or("unterminated label set")?;
            if close < open {
                return Err("unterminated label set");
            }
            validate_labels(&line[open + 1..close])?;
            (&line[..open], &line[close + 1..])
        }
        None => {
            let sp = line.find(' ').ok_or("sample missing value")?;
            (&line[..sp], &line[sp..])
        }
    };
    if !is_name(name_part) {
        return Err("invalid metric name");
    }
    let mut it = rest.split_whitespace();
    let value = it.next().ok_or("sample missing value")?;
    if !is_value(value) {
        return Err("invalid sample value");
    }
    if let Some(ts) = it.next() {
        if ts.parse::<i64>().is_err() {
            return Err("invalid timestamp");
        }
        if it.next().is_some() {
            return Err("trailing tokens after timestamp");
        }
    }
    Ok(())
}

fn validate_labels(body: &str) -> Result<(), &'static str> {
    let mut chars = body.chars().peekable();
    loop {
        // label name
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            name.push(c);
            chars.next();
        }
        if chars.next() != Some('=') {
            return Err("label missing '='");
        }
        if !is_label_name(name.trim()) {
            return Err("invalid label name");
        }
        if chars.next() != Some('"') {
            return Err("label value not quoted");
        }
        // quoted value with escapes
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') | Some('"') | Some('n') => {}
                    _ => return Err("invalid escape in label value"),
                },
                Some('"') => break,
                Some(_) => {}
                None => return Err("unterminated label value"),
            }
        }
        match chars.next() {
            None => return Ok(()),
            Some(',') => {
                // allow trailing comma before '}' (the spec tolerates it)
                if chars.peek().is_none() {
                    return Ok(());
                }
            }
            Some(_) => return Err("expected ',' between labels"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn snap() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("serve/completed".into(), 42);
        s.counters
            .insert("serve/tenant/interactive/completed".into(), 7);
        s.counters.insert("serve/tenant/batch/completed".into(), 9);
        s.gauges.insert("serve/queued".into(), 3.0);
        let mut decode = Histogram::new();
        decode.record(1000);
        decode.record(2000);
        s.timers.insert("decode".into(), decode);
        s.threads = 1;
        s
    }

    #[test]
    fn exposition_renders_and_validates() {
        let mut series = Vec::new();
        let mut sr = Series::with_capacity(4);
        sr.push(10, 5);
        series.push(("serve/queued".to_string(), sr));
        let text = to_prometheus(&snap(), &series);
        validate_exposition(&text).expect("self-render must validate");
        assert!(text.contains("# TYPE lm4db_serve_completed counter"));
        assert!(text.contains("lm4db_serve_completed 42"));
        assert!(text.contains("lm4db_serve_tenant_completed{tenant=\"interactive\"} 7"));
        assert!(text.contains("lm4db_serve_tenant_completed{tenant=\"batch\"} 9"));
        assert!(text.contains("# TYPE lm4db_decode_ns summary"));
        assert!(text.contains("lm4db_decode_ns_count 2"));
        assert!(text.contains("lm4db_decode_ns{quantile=\"0.5\"}"));
        assert!(text.contains("# TYPE lm4db_ts_serve_queued gauge"));
        assert!(text.contains("lm4db_ts_serve_queued 5"));
    }

    #[test]
    fn tenant_families_share_one_type_header() {
        let text = to_prometheus(&snap(), &[]);
        let headers = text
            .lines()
            .filter(|l| l.contains("TYPE lm4db_serve_tenant_completed"))
            .count();
        assert_eq!(headers, 1, "one family header for all tenants:\n{text}");
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = to_prometheus(&snap(), &[]);
        let b = to_prometheus(&snap(), &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn validator_accepts_known_good_lines() {
        let good = "\
# HELP up Whether the target is up
# TYPE up gauge
up 1
metric_total{job=\"api\",instance=\"a\\\"b\"} 5 1700000000
lone_value 3.14
inf_value +Inf
nan_value NaN
";
        validate_exposition(good).expect("good exposition rejected");
    }

    #[test]
    fn validator_rejects_bad_lines() {
        for bad in [
            "1metric 5",                 // name starts with a digit
            "metric",                    // no value
            "metric abc",                // unparseable value
            "metric{label} 1",           // label missing '='
            "metric{label=value} 1",     // unquoted label value
            "metric{label=\"v} 1",       // unterminated quote... close brace inside
            "# TYPE metric frobnicator", // unknown type
            "# TYPE 9bad counter",       // invalid name in TYPE
            "metric 1 notatimestamp",    // bad timestamp
        ] {
            assert!(
                validate_exposition(bad).is_err(),
                "validator accepted {bad:?}"
            );
        }
    }

    #[test]
    fn label_values_escape() {
        let mut s = Snapshot::default();
        s.counters.insert("x/tenant/a\"b/done".into(), 1);
        let text = to_prometheus(&s, &[]);
        assert!(text.contains("tenant=\"a\\\"b\""));
        validate_exposition(&text).expect("escaped output must validate");
    }
}
