//! Harness spans: one record per call from the benchmark into a layer's
//! public function. Spans live in memory and are written out when the run
//! ends; spans *inside* the program are a later issue.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::percentile;

/// One timed call. `parent` is the index of the span that was open when
/// this one started; spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// The recorder. While off, [`Tracer::span`] only runs the closure, so the
/// untraced segments of a traced run pay one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording, and the program's own `lm4db::obs` level with it
    /// (1 while recording, 0 otherwise), so the cost of the program's
    /// existing instrumentation is inside the overhead the run reports.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside an open span");
        self.on = on;
        lm4db::obs::set_level(u8::from(on));
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter_at(&mut self, name: &'static str, op: u64, t_ns: u64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: t_ns,
            end_ns: t_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
    }

    fn exit_at(&mut self, t_ns: u64) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = t_ns;
    }

    /// Runs `f` inside a span named `name` for operation `op`. `f` gets the
    /// tracer back so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let t = self.now_ns();
        self.enter_at(name, op, t);
        let out = f(self);
        let t = self.now_ns();
        self.exit_at(t);
        out
    }

    /// The `q`-quantile, in milliseconds, of the durations of the spans
    /// called `name`; 0 when none was recorded.
    pub fn percentile_ms(&self, name: &str, q: f64) -> f64 {
        let ms: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        if ms.is_empty() {
            0.0
        } else {
            percentile(&ms, q)
        }
    }

    /// Calls, total time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let dur = |s: &Span| s.end_ns - s.start_ns;
        let mut self_ns: Vec<u64> = self.spans.iter().map(dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                // A child lies inside its parent, so this cannot underflow
                // for recorded spans; saturate for hand-built ones.
                self_ns[p as usize] = self_ns[p as usize].saturating_sub(dur(s));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += dur(s);
            t.self_ns += own;
        }
        out
    }

    /// Writes every span as one JSON array, one span per line.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                f,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(f, "]")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.on = true;
        // op 7: outer [0, 100) holds a [10, 40) and b [50, 70); b holds c [55, 60).
        t.enter_at("outer", 7, 0);
        t.enter_at("a", 7, 10);
        t.exit_at(40);
        t.enter_at("b", 7, 50);
        t.enter_at("c", 7, 55);
        t.exit_at(60);
        t.exit_at(70);
        t.exit_at(100);
        // A second, childless call of `a` at top level.
        t.enter_at("a", 8, 200);
        t.exit_at(205);

        let spans = &t.spans;
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, None);
        assert!(spans[..4].iter().all(|s| s.op == 7));

        let totals = t.totals();
        assert_eq!(
            totals["outer"],
            Totals {
                calls: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            totals["a"],
            Totals {
                calls: 2,
                total_ns: 35,
                self_ns: 35
            }
        );
        assert_eq!(
            totals["b"],
            Totals {
                calls: 1,
                total_ns: 20,
                self_ns: 15
            }
        );
        assert_eq!(totals["c"].self_ns, 5);
        // Self times add up to the time covered by top-level spans.
        let covered: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(covered, 105);
    }

    #[test]
    fn an_idle_tracer_records_nothing() {
        let mut t = Tracer::new();
        let v = t.span("x", 0, |t| t.span("y", 0, |_| 41) + 1);
        assert_eq!(v, 42);
        assert!(t.spans.is_empty());
    }
}
