//! The declarations of `BENCHMARK.json`, compiled into the binary so the
//! metric names, units and bounds exist in exactly one place.

use rasql_exec::JsonValue;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// Allowed worsening as a share of the median; per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> Vec<JsonValue> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` array"))
                .to_vec()
        };
        let text = |v: &JsonValue, key: &str| -> String {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json entry has a `{key}` string"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDecl> {
            list(key)
                .iter()
                .map(|m| MetricDecl {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    bound: match m.get("bound") {
                        Some(JsonValue::Num(b)) => Some(*b),
                        _ => None,
                    },
                })
                .collect()
        };
        Spec {
            run_seconds: match doc.get("run_seconds") {
                Some(JsonValue::Num(s)) => *s,
                _ => panic!("BENCHMARK.json has a numeric `run_seconds`"),
            },
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metrics a run reports: per-layer ones when traced, else end-to-end.
    pub fn metrics(&self, traced: bool) -> &[MetricDecl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
