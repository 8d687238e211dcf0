//! Canonical JSON rendering of tuning reports.
//!
//! Built on the deterministic writer in `serde_json` (sorted object keys,
//! shortest-round-trip float formatting): two bit-identical reports always
//! serialize to byte-identical text. That property is what the testkit's
//! golden-report snapshots diff against — any behavioral drift in the
//! simulator, the noise model, or the sweep schedule shows up as a textual
//! diff of a committed fixture.

use crate::records::{ConfigResult, RunRecord, TuningReport};
use critter_core::json::{canonical_text, read_value, JsonError, Reader};
use critter_core::{ExecutionPolicy, PathMetrics};
use serde_json::Value;

impl RunRecord {
    /// JSON object with one key per field.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "elapsed": self.elapsed,
            "internal_words": self.internal_words,
            "kernels_executed": self.kernels_executed,
            "kernels_skipped": self.kernels_skipped,
            "max_kernel_predicted": self.max_kernel_predicted,
            "max_kernel_time": self.max_kernel_time,
            "path": self.path.to_json(),
            "predicted": self.predicted,
        })
    }

    /// Restore a record bit-exactly from [`RunRecord::to_json`] output at `r`.
    pub fn read(r: Reader<'_, '_>) -> Result<RunRecord, JsonError> {
        Ok(RunRecord {
            elapsed: r.at("elapsed").f64()?,
            predicted: r.at("predicted").f64()?,
            path: PathMetrics::read(r.at("path"))?,
            max_kernel_time: r.at("max_kernel_time").f64()?,
            max_kernel_predicted: r.at("max_kernel_predicted").f64()?,
            kernels_executed: r.at("kernels_executed").u64()?,
            kernels_skipped: r.at("kernels_skipped").u64()?,
            internal_words: r.at("internal_words").u64()?,
        })
    }
}

impl ConfigResult {
    /// JSON object: name, `(full, tuned)` pairs, offline passes. The
    /// `quarantined` key is emitted only when set, so fault-free reports
    /// (and the committed golden fixtures) keep their historical shape.
    pub fn to_json(&self) -> Value {
        let pairs: Vec<Value> = self
            .pairs
            .iter()
            .map(|(full, tuned)| serde_json::json!({ "full": full.to_json(), "tuned": tuned.to_json() }))
            .collect();
        let offline: Vec<Value> = self.offline.iter().map(RunRecord::to_json).collect();
        let mut v = serde_json::json!({
            "name": self.name.as_str(),
            "offline": offline,
            "pairs": pairs,
        });
        if self.quarantined {
            if let Value::Object(m) = &mut v {
                m.insert("quarantined".into(), Value::Bool(true));
            }
        }
        v
    }

    /// Restore a configuration result bit-exactly from
    /// [`ConfigResult::to_json`] output at `r` (an absent `quarantined` key
    /// reads back as `false`).
    pub fn read(r: Reader<'_, '_>) -> Result<ConfigResult, JsonError> {
        let pair = |p: Reader<'_, '_>| {
            Ok((RunRecord::read(p.at("full"))?, RunRecord::read(p.at("tuned"))?))
        };
        let quarantined = r.at("quarantined");
        Ok(ConfigResult {
            name: r.at("name").str()?.to_string(),
            pairs: r.at("pairs").list(pair)?,
            offline: r.at("offline").list(RunRecord::read)?,
            quarantined: quarantined.exists() && quarantined.bool()?,
        })
    }
}

impl TuningReport {
    /// Canonical JSON rendering of the whole sweep.
    ///
    /// When the sweep was observed ([`crate::TuningOptions::observe`]) the
    /// aggregated metrics registry rides along under `obs_metrics`;
    /// unobserved sweeps serialize exactly as before, which keeps the
    /// golden-report fixtures stable.
    pub fn to_json(&self) -> Value {
        let configs: Vec<Value> = self.configs.iter().map(ConfigResult::to_json).collect();
        let mut v = serde_json::json!({
            "configs": configs,
            "epsilon": self.epsilon,
            "policy": self.policy.name(),
        });
        if let Some(obs) = &self.obs {
            if let Value::Object(m) = &mut v {
                m.insert("obs_metrics".into(), obs.metrics.to_json());
            }
        }
        v
    }

    /// The canonical pretty-printed snapshot text (trailing newline included).
    pub fn to_json_string(&self) -> String {
        canonical_text(&self.to_json())
    }

    /// Restore the scalar surface of a report from [`TuningReport::to_json`]
    /// output: policy, ε, and every configuration result round-trip
    /// bit-exactly. The obs timeline is *not* reconstructed (`to_json`
    /// serializes only its aggregated metrics), so `obs` reads back as
    /// `None`.
    ///
    /// Errors name the failing field by its full JSON path — a truncated or
    /// hand-edited document fails with e.g.
    /// `configs[2].pairs[0].full.elapsed: expected a number, got a string`
    /// rather than a bare field name. The tree is decoded by way of its
    /// text, as every document is.
    pub fn from_json(v: &Value) -> critter_core::Result<TuningReport> {
        Ok(read_value("tuning report", v, TuningReport::read)?)
    }

    /// [`TuningReport::from_json`] at a reader.
    pub fn read(r: Reader<'_, '_>) -> Result<TuningReport, JsonError> {
        Ok(TuningReport {
            policy: r.at("policy").named("policy", ExecutionPolicy::from_name)?,
            epsilon: r.at("epsilon").f64()?,
            configs: r.at("configs").list(ConfigResult::read)?,
            obs: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_reports_serialize_identically() {
        let rec = RunRecord { elapsed: 1.5, kernels_executed: 7, ..Default::default() };
        let report = TuningReport {
            policy: ExecutionPolicy::LocalPropagation,
            epsilon: 0.1,
            configs: vec![ConfigResult {
                name: "pr2pc2".into(),
                pairs: vec![(rec.clone(), rec.clone())],
                offline: vec![],
                quarantined: false,
            }],
            obs: None,
        };
        assert_eq!(report.to_json_string(), report.clone().to_json_string());
        let text = report.to_json_string();
        assert!(text.contains("\"policy\": \"local propagation\""));
        assert!(text.contains("\"epsilon\": 0.1"));
        assert!(!text.contains("\"quarantined\""));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let rec = RunRecord {
            elapsed: 0.1 + 0.2, // no short decimal form
            predicted: 1.0 / 3.0,
            kernels_executed: 11,
            kernels_skipped: 5,
            internal_words: 96,
            ..Default::default()
        };
        let report = TuningReport {
            policy: ExecutionPolicy::APrioriPropagation,
            epsilon: 0.05,
            configs: vec![
                ConfigResult {
                    name: "pr2pc2".into(),
                    pairs: vec![(rec.clone(), rec.clone())],
                    offline: vec![rec.clone()],
                    quarantined: false,
                },
                ConfigResult { name: "pr4pc1".into(), quarantined: true, ..Default::default() },
            ],
            obs: None,
        };
        let back = TuningReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json_string(), report.to_json_string());
        assert!(report.to_json_string().contains("\"quarantined\": true"));
        let err = TuningReport::from_json(&serde_json::json!({"policy": "nope"})).unwrap_err();
        assert_eq!(err.to_string(), "schema error in tuning report: policy: unknown policy `nope`");
    }
}
