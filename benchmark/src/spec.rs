//! `BENCHMARK.json`, read at compile time: the one place where a metric's
//! unit, direction and bound are written down.

use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric as `BENCHMARK.json` declares it. Per-layer metrics have no
/// bound.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: `{key}` should be a string, found {other:?}"),
    }
}

fn number(v: &Value, key: &str) -> Option<f64> {
    match v.get(key)? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        other => panic!("BENCHMARK.json: `{key}` should be a number, found {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("BENCHMARK.json: `{key}` should be a list, found {other:?}"),
    }
}

fn declared(v: &Value) -> Declared {
    Declared {
        name: text(v, "name"),
        unit: text(v, "unit"),
        better: match text(v, "better").as_str() {
            "higher" => Better::Higher,
            "lower" => Better::Lower,
            other => panic!("BENCHMARK.json: `better` is {other:?}"),
        },
        bound: number(v, "bound"),
    }
}

/// Parses the `BENCHMARK.json` this binary was built beside.
pub fn load() -> Spec {
    let root = serde_json::parse_value(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    Spec {
        run_seconds: number(&root, "run_seconds").expect("BENCHMARK.json: run_seconds"),
        end_to_end: list(&root, "end_to_end").iter().map(declared).collect(),
        per_layer: list(&root, "per_layer").iter().map(declared).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// The limits the builder's contract puts on the file.
    #[test]
    fn benchmark_json_is_within_the_contract() {
        let spec = load();
        let root = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
        let workloads: Vec<String> = list(&root, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, workloads::NAMES);
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| { m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower }));
        for w in list(&root, "workloads") {
            assert!(
                text(w, "why").chars().count() <= 200,
                "why of {}",
                text(w, "name")
            );
        }
        let mut names: Vec<&String> = workloads.iter().collect();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            names.push(&m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{m:?}");
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.per_layer.len() <= 128 && spec.end_to_end.len() <= 16);
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }
}
