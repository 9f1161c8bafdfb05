//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use std::collections::BTreeMap;

use rhsd_obs::json;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cpu_ms_per_region", "ms"),
    ("peak_rss_mb", "MiB"),
    ("accuracy_pct", "%"),
    ("false_alarms", "count"),
    ("train_loss", "loss"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("run.wall_setup_s", "s"),
    ("run.wall_regions_per_s", "1/s"),
    ("run.cpu_per_wall", "ratio"),
    ("host.steal_share", "share"),
    ("layout.generate_s", "s"),
    ("litho.label_s", "s"),
    ("data.tile_s", "s"),
    ("core.model_load_s", "s"),
    ("serve.ready_s", "s"),
    ("core.stem_ms", "ms"),
    ("core.rest_ms", "ms"),
    ("core.proposals_ms", "ms"),
    ("core.detect_ms", "ms"),
    ("core.proposals_per_region", "count"),
    ("core.detections_per_region", "count"),
    ("core.probe_regions", "count"),
    ("data.regions", "count"),
    ("data.low_density_frac", "share"),
    ("data.quiet_frac", "share"),
    ("core.train_step_ms", "ms"),
    ("core.train_fwd_ms", "ms"),
    ("core.train_rois_per_step", "count"),
    ("core.train_epoch_ms", "ms"),
    ("par.threads", "count"),
    ("par.sections", "count"),
    ("par.inline_sections", "count"),
    ("par.tasks", "count"),
    ("par.queue_wait_ms", "ms"),
    ("tensor.workspace_allocs", "count"),
    ("tensor.workspace_high_water_mb", "MiB"),
    ("serve.requests", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch_requests", "count"),
    ("serve.max_batch_requests", "count"),
    ("serve.open_p50_ms", "ms"),
    ("core.stem_lookups", "count"),
    ("core.stem_hit_rate", "share"),
    ("data.tile_lookups", "count"),
    ("data.tile_hit_rate", "share"),
    ("serve.gen_late_max_ms", "ms"),
    ("trace.pairs", "count"),
    ("trace.time_ratio", "ratio"),
    ("quality.ground_truth", "count"),
    ("quality.accuracy_pct", "%"),
    ("quality.false_alarms", "count"),
    ("quality.train_loss", "loss"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (epochs, scans or requests).
    pub attempted: u64,
    /// Attempted operations that failed a correctness check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one operation, failed or not.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The result line: every metric of `catalogue`, in order. Errors if
    /// one was not measured or is not finite.
    pub fn result_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json::number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhsd_obs::json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn every_declared_name_uses_only_letters_digits_underscore_dot_dash() {
        let doc = benchmark_json();
        let mut names = Vec::new();
        for key in ["end_to_end", "per_layer", "workloads"] {
            let list = doc.get(key).and_then(Value::as_arr).expect(key);
            names.extend(
                list.iter()
                    .map(|m| m.get("name").and_then(Value::as_str).unwrap_or("")),
            );
        }
        for name in &names {
            assert!(valid_name(name), "bad name `{name}`");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(!valid_name("p50 ms") && !valid_name("_x") && !valid_name("a/b"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut out = Outcome::default();
        out.check(true);
        for (name, _) in END_TO_END {
            out.set(name, 1.25);
        }
        let line = out.result_json(&END_TO_END).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("cpu_ms_per_region"))
            .unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));

        out.check(false);
        let v = json::parse(&out.result_json(&END_TO_END).unwrap()).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        out.values.remove("setup_s");
        assert!(out.result_json(&END_TO_END).is_err());
    }
}
