//! `BENCHMARK.json` as the benchmark reads it: the names, units and
//! bounds every run is checked against and every comparison applies.

use crate::harness::Metrics;
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads `BENCHMARK.json` from the current directory (the command
    /// runs from the root of the checkout).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let list = doc.get(key).ok_or(format!("BENCHMARK.json: no `{key}`"))?;
            list.as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or(format!("BENCHMARK.json: a `{key}` entry lacks `{f}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better: match field("better")? {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: doc
                .get("workloads")
                .map(|w| {
                    w.as_arr()
                        .iter()
                        .filter_map(|e| e.get("name").and_then(Json::as_str))
                        .map(str::to_string)
                        .collect()
                })
                .ok_or("BENCHMARK.json: no `workloads`")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run with `--trace <trace>` must print.
    pub fn section(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Checks a run's metric sheet against its section: every name it
    /// reports is listed with the same unit, every listed name is
    /// reported (or, for a per-layer metric, declared absent on this
    /// workload), every value is finite, and no end-to-end value is 0.
    pub fn coverage_errors(&self, trace: bool, m: &Metrics) -> Vec<String> {
        let section = self.section(trace);
        let mut errors = Vec::new();
        for (name, &(value, unit)) in &m.values {
            match section.iter().find(|s| s.name == *name) {
                None => errors.push(format!("{name} is not listed in BENCHMARK.json")),
                Some(s) if s.unit != unit => errors.push(format!(
                    "{name} is reported in {unit}, BENCHMARK.json says {}",
                    s.unit
                )),
                Some(_) => {}
            }
            if !value.is_finite() {
                errors.push(format!("{name} is not finite"));
            } else if !trace && value == 0.0 {
                errors.push(format!("{name} is 0"));
            }
        }
        for s in section {
            let absent = trace && m.absent.contains(&s.name);
            if !m.values.contains_key(&s.name) && !absent {
                errors.push(format!(
                    "{} is listed in BENCHMARK.json but not reported",
                    s.name
                ));
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 3,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
                       {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05}],
        "per_layer": [{"name": "hits", "unit": "count", "better": "higher"},
                      {"name": "misses", "unit": "count", "better": "lower"}]
    }"#;

    #[test]
    fn parses_names_units_and_bounds() {
        let spec = Spec::parse(DOC).expect("parses");
        assert_eq!(spec.run_seconds, 3.0);
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.end_to_end[1].better, Better::Higher);
        assert_eq!(spec.end_to_end[0].bound, Some(0.2));
        assert_eq!(spec.per_layer[0].bound, None);
    }

    #[test]
    fn coverage_catches_missing_unknown_zero_and_mismatched_units() {
        let spec = Spec::parse(DOC).expect("parses");
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("rate", 10.0, "1/s");
        assert!(spec.coverage_errors(false, &m).is_empty());

        m.put("rate", 0.0, "1/s");
        m.put("typo", 1.0, "s");
        let errors = spec.coverage_errors(false, &m);
        assert_eq!(errors.len(), 2, "{errors:?}");

        let mut layers = Metrics::default();
        layers.put("hits", 0.0, "ns");
        let errors = spec.coverage_errors(true, &layers);
        assert_eq!(errors.len(), 2, "{errors:?}"); // wrong unit, `misses` missing
        layers.put("hits", 0.0, "count");
        layers.absent("misses");
        assert!(spec.coverage_errors(true, &layers).is_empty());
    }
}
