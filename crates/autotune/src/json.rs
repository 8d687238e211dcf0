//! Canonical JSON rendering of tuning reports.
//!
//! Built on the deterministic writer in `serde_json` (sorted object keys,
//! shortest-round-trip float formatting): two bit-identical reports always
//! serialize to byte-identical text. That property is what the testkit's
//! golden-report snapshots diff against — any behavioral drift in the
//! simulator, the noise model, or the sweep schedule shows up as a textual
//! diff of a committed fixture.

use crate::records::{ConfigResult, RunRecord, TuningReport};
use critter_core::{CritterError, PathMetrics, Result};
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

    /// Restore a record bit-exactly from [`RunRecord::to_json`] output.
    ///
    /// Errors name the offending field by its full JSON path (e.g.
    /// ``bad key `elapsed`: expected a number, got string`` — and, reached
    /// through [`TuningReport::from_json`], prefixed like
    /// ``configs[2].pairs[0].full.elapsed``).
    pub fn from_json(v: &Value) -> Result<RunRecord> {
        Self::from_json_at(v, "")
    }

    /// [`RunRecord::from_json`] with every error path prefixed by `at`.
    pub(crate) fn from_json_at(v: &Value, at: &str) -> Result<RunRecord> {
        let bad = |key: &str| bad_key("run record", at, key, v.get(key));
        let f64_field = |key: &str| v.get(key).and_then(Value::as_f64).ok_or_else(|| bad(key));
        let u64_field = |key: &str| v.get(key).and_then(Value::as_u64).ok_or_else(|| bad(key));
        Ok(RunRecord {
            elapsed: f64_field("elapsed")?,
            predicted: f64_field("predicted")?,
            path: PathMetrics::from_json(v.get("path").ok_or_else(|| bad("path"))?)
                .map_err(|e| at_path("run record", at, "path", e))?,
            max_kernel_time: f64_field("max_kernel_time")?,
            max_kernel_predicted: f64_field("max_kernel_predicted")?,
            kernels_executed: u64_field("kernels_executed")?,
            kernels_skipped: u64_field("kernels_skipped")?,
            internal_words: u64_field("internal_words")?,
        })
    }
}

/// Join a path prefix and a key: `("configs[2]", "name")` →
/// `"configs[2].name"`, and `("", "name")` → `"name"`.
fn join_path(at: &str, key: &str) -> String {
    if at.is_empty() {
        key.to_string()
    } else {
        format!("{at}.{key}")
    }
}

/// A schema error naming the full JSON path of a missing or wrong-typed
/// key, including what was found there (`missing` or the JSON type).
fn bad_key(context: &str, at: &str, key: &str, found: Option<&Value>) -> CritterError {
    let what = match found {
        None => "missing",
        Some(Value::Null) => "got null",
        Some(Value::Bool(_)) => "got a bool",
        Some(Value::Number(_)) => "got the wrong kind of number",
        Some(Value::String(_)) => "got a string",
        Some(Value::Array(_)) => "got an array",
        Some(Value::Object(_)) => "got an object",
    };
    CritterError::schema(context, format!("bad key `{}`: {what}", join_path(at, key)))
}

/// Re-contextualize a nested decoder's error with the path it was reached
/// through, preserving its own detail text.
fn at_path(context: &str, at: &str, key: &str, e: CritterError) -> CritterError {
    let detail = match &e {
        CritterError::Schema { detail, .. } => detail.clone(),
        other => other.to_string(),
    };
    CritterError::schema(context, format!("at `{}`: {detail}", join_path(at, key)))
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
    /// [`ConfigResult::to_json`] output (an absent `quarantined` key reads
    /// back as `false`). Errors name the offending field by its full JSON
    /// path, down to the individual run-record field.
    pub fn from_json(v: &Value) -> Result<ConfigResult> {
        Self::from_json_at(v, "")
    }

    /// [`ConfigResult::from_json`] with every error path prefixed by `at`.
    pub(crate) fn from_json_at(v: &Value, at: &str) -> Result<ConfigResult> {
        let bad = |key: &str| bad_key("config result", at, key, v.get(key));
        let arr = |key: &str| v.get(key).and_then(Value::as_array).ok_or_else(|| bad(key));
        let name = v.get("name").and_then(Value::as_str).ok_or_else(|| bad("name"))?.to_string();
        let pairs = arr("pairs")?
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let slot = |side: &str| join_path(at, &format!("pairs[{i}].{side}"));
                let full = RunRecord::from_json_at(
                    p.get("full").ok_or_else(|| {
                        bad_key("config result", at, &format!("pairs[{i}].full"), None)
                    })?,
                    &slot("full"),
                )?;
                let tuned = RunRecord::from_json_at(
                    p.get("tuned").ok_or_else(|| {
                        bad_key("config result", at, &format!("pairs[{i}].tuned"), None)
                    })?,
                    &slot("tuned"),
                )?;
                Ok((full, tuned))
            })
            .collect::<Result<Vec<_>>>()?;
        let offline = arr("offline")?
            .iter()
            .enumerate()
            .map(|(i, r)| RunRecord::from_json_at(r, &join_path(at, &format!("offline[{i}]"))))
            .collect::<Result<Vec<_>>>()?;
        let quarantined = match v.get("quarantined") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(bad("quarantined")),
        };
        Ok(ConfigResult { name, pairs, offline, quarantined })
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
        let mut s = serde_json::to_string_pretty(&self.to_json()).expect("json writer is total");
        s.push('\n');
        s
    }

    /// Restore the scalar surface of a report from [`TuningReport::to_json`]
    /// output: policy, ε, and every configuration result round-trip
    /// bit-exactly. The obs timeline is *not* reconstructed (`to_json`
    /// serializes only its aggregated metrics), so `obs` reads back as
    /// `None`.
    ///
    /// Errors name the failing field by its full JSON path — a truncated or
    /// hand-edited document fails with e.g.
    /// ``bad key `configs[2].pairs[0].full.elapsed`: got a string`` rather
    /// than a bare field name.
    pub fn from_json(v: &Value) -> Result<TuningReport> {
        let bad = |key: &str| bad_key("tuning report", "", key, v.get(key));
        let policy_name = v.get("policy").and_then(Value::as_str).ok_or_else(|| bad("policy"))?;
        let policy = critter_core::ExecutionPolicy::from_name(policy_name).ok_or_else(|| {
            CritterError::schema("tuning report", format!("unknown policy `{policy_name}`"))
        })?;
        let epsilon = v.get("epsilon").and_then(Value::as_f64).ok_or_else(|| bad("epsilon"))?;
        let configs = v
            .get("configs")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("configs"))?
            .iter()
            .enumerate()
            .map(|(i, c)| ConfigResult::from_json_at(c, &format!("configs[{i}]")))
            .collect::<Result<Vec<_>>>()?;
        Ok(TuningReport { policy, epsilon, configs, obs: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::ExecutionPolicy;

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
        assert!(TuningReport::from_json(&serde_json::json!({"policy": "nope"})).is_err());
    }

    fn sample_report() -> TuningReport {
        let rec = RunRecord { elapsed: 1.5, kernels_executed: 7, ..Default::default() };
        TuningReport {
            policy: ExecutionPolicy::LocalPropagation,
            epsilon: 0.1,
            configs: vec![
                ConfigResult {
                    name: "pr2pc2".into(),
                    pairs: vec![(rec.clone(), rec.clone())],
                    offline: vec![rec.clone()],
                    quarantined: false,
                },
                ConfigResult {
                    name: "pr4pc1".into(),
                    pairs: vec![(rec.clone(), rec.clone()), (rec.clone(), rec)],
                    offline: vec![],
                    quarantined: false,
                },
            ],
            obs: None,
        }
    }

    /// Walk `path` (the same `key[i].key` syntax the errors print) to a
    /// mutable node, so the tests corrupt exactly the spot they expect the
    /// error to name.
    fn nav<'a>(v: &'a mut Value, path: &str) -> &'a mut Value {
        let mut cur = v;
        for part in path.split('.') {
            let (key, idx) = match part.split_once('[') {
                Some((k, rest)) => (k, Some(rest.trim_end_matches(']').parse::<usize>().unwrap())),
                None => (part, None),
            };
            cur = cur.get_mut(key).expect("nav key");
            if let Some(i) = idx {
                cur = &mut cur.as_array_mut().expect("nav array")[i];
            }
        }
        cur
    }

    #[test]
    fn truncated_document_errors_name_the_json_path() {
        // Drop a deep field: the error must spell out the full path to it.
        let mut v = sample_report().to_json();
        nav(&mut v, "configs[1].pairs[1].tuned").as_object_mut().unwrap().remove("elapsed");
        let err = TuningReport::from_json(&v).unwrap_err().to_string();
        assert!(
            err.contains("`configs[1].pairs[1].tuned.elapsed`") && err.contains("missing"),
            "unhelpful error: {err}"
        );

        // Truncate a whole pair slot.
        let mut v = sample_report().to_json();
        nav(&mut v, "configs[0].pairs[0]").as_object_mut().unwrap().remove("full");
        let err = TuningReport::from_json(&v).unwrap_err().to_string();
        assert!(err.contains("`configs[0].pairs[0].full`"), "unhelpful error: {err}");

        // Top-level truncation still reads plainly.
        let err = TuningReport::from_json(&serde_json::json!({"policy": "local propagation"}))
            .unwrap_err()
            .to_string();
        assert!(err.contains("`epsilon`") && err.contains("missing"), "unhelpful error: {err}");
    }

    #[test]
    fn wrong_typed_document_errors_say_what_was_found() {
        // A string where a number belongs, deep in an offline record.
        let mut v = sample_report().to_json();
        *nav(&mut v, "configs[0].offline[0].kernels_executed") = serde_json::json!("seven");
        let err = TuningReport::from_json(&v).unwrap_err().to_string();
        assert!(
            err.contains("`configs[0].offline[0].kernels_executed`")
                && err.contains("got a string"),
            "unhelpful error: {err}"
        );

        // A negative count is the wrong *kind* of number for a u64 field.
        let mut v = sample_report().to_json();
        *nav(&mut v, "configs[1].pairs[0].full.kernels_skipped") = serde_json::json!(-3);
        let err = TuningReport::from_json(&v).unwrap_err().to_string();
        assert!(
            err.contains("`configs[1].pairs[0].full.kernels_skipped`")
                && err.contains("wrong kind of number"),
            "unhelpful error: {err}"
        );

        // An object where the configs array belongs.
        let mut v = sample_report().to_json();
        *nav(&mut v, "configs") = serde_json::json!({});
        let err = TuningReport::from_json(&v).unwrap_err().to_string();
        assert!(
            err.contains("`configs`") && err.contains("got an object"),
            "unhelpful error: {err}"
        );
    }
}
