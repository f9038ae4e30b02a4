//! `BENCHMARK.json`, compiled into the binary: the one list of workloads
//! and metrics.  `list` prints it, and a run fails if it emits a name the
//! file does not declare or omits one it does, so the file and the binary
//! cannot drift apart.

use serde_json::Value;

/// The benchmark contract as committed at the repository root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    /// Metric name, `layer.metric` for per-layer metrics.
    pub name: String,
    /// Unit the value is reported in.
    pub unit: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// `(name, why)` of every workload, in file order.
    pub workloads: Vec<(String, String)>,
    /// Metrics a user of the system would see.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics of single layers (traced run).
    pub per_layer: Vec<MetricDecl>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

/// The value of `key` in a JSON object.
pub fn get<'a>(object: &'a Value, key: &str) -> Option<&'a Value> {
    object
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
    get(object, key).unwrap_or_else(|| panic!("BENCHMARK.json: missing key `{key}`"))
}

fn text(object: &Value, key: &str) -> String {
    match field(object, key) {
        Value::Str(s) => s.clone(),
        other => panic!("BENCHMARK.json: `{key}` is {}, not a string", other.kind()),
    }
}

fn metric(entry: &Value, bounded: bool) -> MetricDecl {
    MetricDecl {
        name: text(entry, "name"),
        unit: text(entry, "unit"),
        higher_is_better: match text(entry, "better").as_str() {
            "higher" => true,
            "lower" => false,
            other => panic!("BENCHMARK.json: `better` is `{other}`"),
        },
        bound: bounded.then(|| {
            field(entry, "bound")
                .as_f64()
                .expect("BENCHMARK.json: `bound` is not a number")
        }),
    }
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json`.  It is part of the source,
    /// so a malformed file is a build defect and panics.
    pub fn load() -> Spec {
        let root = serde_json::parse_value(BENCHMARK_JSON).expect("BENCHMARK.json is not JSON");
        let list = |key: &str| -> Vec<Value> {
            field(&root, key)
                .as_array()
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a list"))
                .to_vec()
        };
        Spec {
            workloads: list("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: list("end_to_end").iter().map(|m| metric(m, true)).collect(),
            per_layer: list("per_layer").iter().map(|m| metric(m, false)).collect(),
            run_seconds: field(&root, "run_seconds")
                .as_u64()
                .expect("BENCHMARK.json: `run_seconds` is not a whole number"),
        }
    }

    /// Declared metrics of a run kind: end-to-end untraced, per-layer
    /// traced.
    pub fn metrics(&self, traced: bool) -> &[MetricDecl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// `zsbench list`: every workload and every metric with unit, direction
/// and bound, straight from the file.
pub fn print_list(spec: &Spec) {
    println!("workloads ({}):", spec.workloads.len());
    for (name, why) in &spec.workloads {
        println!("  {name:<16} {why}");
    }
    let direction = |m: &MetricDecl| {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    println!("end-to-end metrics ({}):", spec.end_to_end.len());
    for m in &spec.end_to_end {
        println!(
            "  {:<36} {:<8} {:<6} is better, bound {:.0}%",
            m.name,
            m.unit,
            direction(m),
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    println!("per-layer metrics ({}):", spec.per_layer.len());
    for m in &spec.per_layer {
        println!(
            "  {:<36} {:<8} {:<6} is better",
            m.name,
            m.unit,
            direction(m)
        );
    }
    println!("one run measures {} s", spec.run_seconds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{measured_layers, WORKLOADS};
    use std::collections::BTreeSet;

    #[test]
    fn file_and_binary_agree_on_workloads_and_metrics() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(declared, WORKLOADS);

        // Every per-layer metric some workload measures is declared, and
        // every declared one is measured by at least one workload.
        let declared: BTreeSet<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let measured: BTreeSet<&str> = WORKLOADS.iter().flat_map(|w| measured_layers(w)).collect();
        assert_eq!(declared, measured);
        assert_eq!(declared.len(), spec.per_layer.len(), "duplicate names");

        // The contract's own rules.
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!((1..=60).contains(&spec.run_seconds));
    }
}
