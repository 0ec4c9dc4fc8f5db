//! `BENCHMARK.json`, compiled in: the one list of workload and metric
//! names, units, directions and bounds. Runs emit exactly what it
//! declares, and `compare` judges by its bounds.

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression. Only end-to-end metrics have one.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

const SOURCE: &str = include_str!("../../BENCHMARK.json");

fn text(v: &Json, key: &str) -> String {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be a string"))
        .to_string()
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricDef> {
    doc.get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(SOURCE).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }

    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn declares_the_workloads_the_code_runs() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let coded: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, coded);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
