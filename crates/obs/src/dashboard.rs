//! Self-contained HTML dashboard: every time series as an inline-SVG
//! sparkline plus the current registry snapshot, in one document with no
//! external assets — curl it from the scrape endpoint, open it from a
//! file, or paste it into a bug report.

use std::fmt::Write as _;

use crate::export::Snapshot;
use crate::timeseries::Series;

/// Escapes text for HTML body/attribute contexts.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Sparkline viewport in CSS pixels.
const W: u64 = 240;
const H: u64 = 48;

/// Renders one series as an inline SVG polyline, scaled so the window's
/// min..max spans the viewport height (a flat series draws mid-height).
fn sparkline(s: &Series) -> String {
    let pts = s.points();
    if pts.is_empty() {
        return format!("<svg width=\"{W}\" height=\"{H}\"></svg>");
    }
    let lo = pts.iter().map(|p| p.value).min().unwrap_or(0);
    let hi = pts.iter().map(|p| p.value).max().unwrap_or(0);
    let span = (hi - lo).max(1);
    let n = pts.len().max(2) as u64 - 1;
    let mut poly = String::new();
    for (i, p) in pts.iter().enumerate() {
        if i > 0 {
            poly.push(' ');
        }
        let x = (i as u64) * W / n;
        let y = if hi == lo {
            H / 2
        } else {
            // Invert: larger values draw higher (smaller y).
            H - (p.value - lo) * H / span
        };
        let _ = write!(poly, "{x},{y}");
    }
    format!(
        "<svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\" \
         preserveAspectRatio=\"none\"><polyline points=\"{poly}\" \
         fill=\"none\" stroke=\"#2a6\" stroke-width=\"1.5\"/></svg>"
    )
}

/// Renders the full dashboard document. Output is deterministic for a
/// given snapshot + series (sorted inputs, no timestamps).
pub fn to_html(snap: &Snapshot, series: &[(String, Series)]) -> String {
    let mut h = String::new();
    h.push_str(
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>lm4db dashboard</title><style>\
         body{font-family:monospace;margin:1.5em;background:#fafafa;color:#222}\
         h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.2em}\
         table{border-collapse:collapse}\
         td,th{border:1px solid #ccc;padding:2px 8px;text-align:left}\
         td.num{text-align:right}svg{vertical-align:middle;background:#fff;\
         border:1px solid #ddd}</style></head><body>\
         <h1>lm4db dashboard</h1>",
    );

    let _ = write!(
        h,
        "<p>{} counters · {} gauges · {} timers · {} series · {} thread shards</p>",
        snap.counters.len(),
        snap.gauges.len(),
        snap.timers.len(),
        series.len(),
        snap.threads,
    );

    if !series.is_empty() {
        h.push_str("<h2>series</h2><table><tr><th>series</th><th>sparkline</th><th>latest</th><th>samples</th></tr>");
        for (name, s) in series {
            let latest = s.latest().map(|p| p.value).unwrap_or(0);
            let _ = write!(
                h,
                "<tr><td>{}</td><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
                esc(name),
                sparkline(s),
                latest,
                s.len(),
            );
        }
        h.push_str("</table>");
    }

    if !snap.counters.is_empty() {
        h.push_str("<h2>counters</h2><table><tr><th>counter</th><th>value</th></tr>");
        for (k, v) in &snap.counters {
            let _ = write!(h, "<tr><td>{}</td><td class=\"num\">{v}</td></tr>", esc(k));
        }
        h.push_str("</table>");
    }

    if !snap.gauges.is_empty() {
        h.push_str("<h2>gauges</h2><table><tr><th>gauge</th><th>value</th></tr>");
        for (k, v) in &snap.gauges {
            let _ = write!(h, "<tr><td>{}</td><td class=\"num\">{v}</td></tr>", esc(k));
        }
        h.push_str("</table>");
    }

    if !snap.timers.is_empty() {
        h.push_str(
            "<h2>timers</h2><table><tr><th>timer</th><th>count</th>\
             <th>mean ns</th><th>p50 ns</th><th>p99 ns</th><th>max ns</th></tr>",
        );
        for (k, t) in &snap.timers {
            let _ = write!(
                h,
                "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
                esc(k),
                t.count(),
                t.mean(),
                t.quantile(0.50),
                t.quantile(0.99),
                t.max(),
            );
        }
        h.push_str("</table>");
    }

    h.push_str("</body></html>");
    h
}

/// Convenience: renders the global registry snapshot plus the global
/// series store.
pub fn global_html() -> String {
    to_html(&crate::snapshot(), &crate::timeseries::series_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dashboard_is_self_contained_and_escaped() {
        let mut snap = Snapshot::default();
        snap.counters.insert("a<b".into(), 3);
        snap.gauges.insert("g".into(), 1.5);
        let mut s = Series::with_capacity(8);
        for i in 0..6u64 {
            s.push(i * 4, i * i);
        }
        let html = to_html(&snap, &[("serve/queued".into(), s)]);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.ends_with("</body></html>"));
        assert!(html.contains("a&lt;b"), "metric names must be escaped");
        assert!(html.contains("<polyline points=\""));
        assert!(
            !html.contains("src=\"http") && !html.contains("href=\"http"),
            "no external assets"
        );
        // Deterministic rendering.
        let mut s2 = Series::with_capacity(8);
        for i in 0..6u64 {
            s2.push(i * 4, i * i);
        }
        assert_eq!(html, to_html(&snap, &[("serve/queued".into(), s2)]));
    }

    #[test]
    fn flat_series_draws_mid_height() {
        let mut s = Series::with_capacity(4);
        s.push(0, 7);
        s.push(1, 7);
        let svg = sparkline(&s);
        assert!(svg.contains(&format!(",{}", H / 2)));
    }

    #[test]
    fn empty_series_renders_empty_svg() {
        let s = Series::with_capacity(4);
        assert!(sparkline(&s).contains("></svg>"));
    }
}
