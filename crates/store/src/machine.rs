//! Machine identity: the α-β-γ fingerprint store entries are keyed by,
//! and the log-space distance used to pick a donor machine for
//! cross-machine priors.

use critter_core::fnv::fnv_hash;
use critter_core::json::{JsonError, Reader};
use critter_machine::{MachineParams, NoiseParams};
use serde_json::Value;

/// Mask keeping fingerprints inside the integers canonical JSON
/// round-trips exactly (the same 52-bit guarantee the envelope hash and
/// `KernelSig::key` rely on).
pub(crate) const HASH_MASK: u64 = (1 << 52) - 1;

/// The full machine description a store entry is recorded under: the
/// α-β-γ cost parameters plus the noise sigmas, i.e. every knob of the
/// simulated machine that changes measured kernel times.
///
/// Two sweeps share statistics only when their specs are identical
/// ([`MachineSpec::fingerprint`] collides exactly on equal canonical
/// JSON); across different machines the spec is what lets the store
/// compute an α-β-γ distance and rescale a donor machine's models into a
/// calibrated prior.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Point-to-point message latency in seconds (BSP α).
    pub alpha: f64,
    /// Inverse bandwidth in seconds per 8-byte word (BSP β).
    pub beta: f64,
    /// Peak double-precision rate of one rank in flops/second (1/γ).
    pub peak_flops: f64,
    /// MPI ranks per node.
    pub ranks_per_node: u64,
    /// Fixed software overhead per communication call, in seconds.
    pub per_call_overhead: f64,
    /// Sigma of the per-(allocation, node) lognormal noise factor.
    pub node_sigma: f64,
    /// Sigma of the per-invocation lognormal jitter on compute kernels.
    pub compute_sigma: f64,
    /// Sigma of the per-operation lognormal jitter on communication.
    pub comm_sigma: f64,
}

impl MachineSpec {
    /// Build the spec describing a sweep's simulated machine from the
    /// tuner's machine and noise parameters.
    pub fn from_models(params: &MachineParams, noise: &NoiseParams) -> Self {
        MachineSpec {
            alpha: params.alpha,
            beta: params.beta,
            peak_flops: params.peak_flops,
            ranks_per_node: params.ranks_per_node as u64,
            per_call_overhead: params.per_call_overhead,
            node_sigma: noise.node_sigma,
            compute_sigma: noise.compute_sigma,
            comm_sigma: noise.comm_sigma,
        }
    }

    /// Canonical JSON form (sorted keys, shortest-round-trip floats) — the
    /// bytes the fingerprint is computed over.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "alpha": self.alpha,
            "beta": self.beta,
            "comm_sigma": self.comm_sigma,
            "compute_sigma": self.compute_sigma,
            "node_sigma": self.node_sigma,
            "peak_flops": self.peak_flops,
            "per_call_overhead": self.per_call_overhead,
            "ranks_per_node": self.ranks_per_node,
        })
    }

    /// Parse a spec back out of its canonical JSON form.
    pub fn read(r: Reader<'_, '_>) -> Result<MachineSpec, JsonError> {
        Ok(MachineSpec {
            alpha: r.at("alpha").f64()?,
            beta: r.at("beta").f64()?,
            peak_flops: r.at("peak_flops").f64()?,
            ranks_per_node: r.at("ranks_per_node").u64()?,
            per_call_overhead: r.at("per_call_overhead").f64()?,
            node_sigma: r.at("node_sigma").f64()?,
            compute_sigma: r.at("compute_sigma").f64()?,
            comm_sigma: r.at("comm_sigma").f64()?,
        })
    }

    /// 52-bit FNV digest of the canonical JSON form — the machine key of
    /// every store entry.
    pub fn fingerprint(&self) -> u64 {
        let text = serde_json::to_string(&self.to_json()).expect("json writer is total");
        fnv_hash(&text) & HASH_MASK
    }

    /// Log-space α-β-γ distance to another machine: the Euclidean norm of
    /// the log ratios of latency, inverse bandwidth, and inverse flops.
    /// Ratios (not differences) because machine parameters span orders of
    /// magnitude; a machine 2× slower in every dimension is "near", one
    /// 1000× off in bandwidth alone is "far".
    pub fn distance(&self, other: &MachineSpec) -> f64 {
        let ratio = |a: f64, b: f64| {
            let (a, b) = (a.max(f64::MIN_POSITIVE), b.max(f64::MIN_POSITIVE));
            (a / b).ln()
        };
        let da = ratio(self.alpha, other.alpha);
        let db = ratio(self.beta, other.beta);
        // γ is 1/peak_flops; ln(γ1/γ2) = -ln(f1/f2).
        let dg = ratio(other.peak_flops, self.peak_flops);
        (da * da + db * db + dg * dg).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::json::read_value;

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let a = MachineSpec::from_models(&MachineParams::test_machine(), &NoiseParams::cluster());
        let b = MachineSpec::from_models(&MachineParams::test_machine(), &NoiseParams::cluster());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint() <= HASH_MASK);
        let c = MachineSpec::from_models(&MachineParams::stampede2_knl(), &NoiseParams::cluster());
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = MachineSpec::from_models(&MachineParams::test_machine(), &NoiseParams::none());
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn json_round_trips() {
        let a = MachineSpec::from_models(&MachineParams::stampede2_knl(), &NoiseParams::cluster());
        let back = read_value("spec", &a.to_json(), MachineSpec::read).unwrap();
        assert_eq!(a, back);
        assert_eq!(a.fingerprint(), back.fingerprint());
        let err = read_value("spec", &serde_json::json!({"alpha": 1.0}), MachineSpec::read);
        assert_eq!(err.unwrap_err().to_string(), "beta: missing (expected a number)");
    }

    #[test]
    fn distance_is_a_log_space_metric() {
        let a = MachineSpec::from_models(&MachineParams::test_machine(), &NoiseParams::cluster());
        assert_eq!(a.distance(&a), 0.0);
        let mut b = a.clone();
        b.alpha *= std::f64::consts::E; // one e-fold in latency
        assert!((a.distance(&b) - 1.0).abs() < 1e-12);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        // Doubling flops moves γ, not α/β.
        let mut c = a.clone();
        c.peak_flops *= 2.0;
        assert!((a.distance(&c) - 2.0f64.ln()).abs() < 1e-12);
    }
}
