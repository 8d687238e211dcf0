//! Canonical-JSON snapshot/restore of kernel-performance state.
//!
//! Everything the paper's framework learns during a sweep — the `K̄`
//! statistics, the critical-path counts, the a-priori tables, and the §VIII
//! extrapolation fits — lives in [`KernelStore`]s. This module gives that
//! state a persisted form so a tuning *session* can outlive a process:
//! checkpoints write stores to disk mid-sweep and warm starts seed a fresh
//! sweep from a prior session's profile.
//!
//! Two properties carry the whole design:
//!
//! * **Canonical text.** Objects serialize with sorted keys, collections in
//!   sorted order, and floats in shortest-round-trip form (the PR 2
//!   serializer), so equal states produce byte-identical documents — which
//!   is what makes content hashes and golden diffs meaningful.
//! * **Bit-exact restore.** Floats parse back through `f64::from_str`
//!   (correctly rounded), so `from_json(to_json(x))` reproduces every
//!   accumulator bit for bit. The kill/resume oracle in `critter-testkit`
//!   rests on this.
//!
//! Empty [`OnlineStats`] carry ±∞ min/max sentinels which JSON cannot
//! represent; they serialize as `{"count": 0}` and restore through
//! [`OnlineStats::new`].

use critter_machine::CommOp;
use critter_obs::json::{JsonError, Reader};
use critter_stats::OnlineStats;
use serde_json::{json, Map, TapeNode, Value};

use crate::extrapolate::{ExtrapolationTable, LineFit};
use crate::profile::{KernelModel, KernelStore};
use crate::signature::{ComputeOp, KernelSig};

// ---------------------------------------------------------------------------
// OnlineStats

/// Serialize a Welford accumulator. Empty accumulators reduce to
/// `{"count": 0}` (their min/max sentinels are ±∞, which JSON lacks).
pub fn stats_to_json(s: &OnlineStats) -> Value {
    if s.count() == 0 {
        return json!({ "count": 0u64 });
    }
    json!({
        "count": s.count(),
        "m2": s.m2(),
        "max": s.max(),
        "mean": s.mean(),
        "min": s.min(),
        "total": s.total(),
    })
}

/// Restore a Welford accumulator bit-exactly from [`stats_to_json`] output.
pub fn read_stats(r: Reader<'_, '_>) -> Result<OnlineStats, JsonError> {
    let count = r.at("count").u64()?;
    if count == 0 {
        return Ok(OnlineStats::new());
    }
    Ok(OnlineStats::from_parts(
        count,
        r.at("mean").f64()?,
        r.at("m2").f64()?,
        r.at("min").f64()?,
        r.at("max").f64()?,
        r.at("total").f64()?,
    ))
}

// ---------------------------------------------------------------------------
// LineFit

/// Serialize a least-squares fit's raw moments. Empty fits reduce to
/// `{"n": 0}` (their x-range sentinels are ±∞). In-table fits always hold at
/// least one point, but the empty form keeps the codec total.
pub fn fit_to_json(f: &LineFit) -> Value {
    let (n, sx, sy, sxx, sxy, syy) = f.raw_parts();
    if n == 0 {
        return json!({ "n": 0u64 });
    }
    let (min_x, max_x) = f.x_range();
    json!({
        "max_x": max_x,
        "min_x": min_x,
        "n": n,
        "sx": sx,
        "sxx": sxx,
        "sxy": sxy,
        "sy": sy,
        "syy": syy,
    })
}

/// Restore a fit bit-exactly from [`fit_to_json`] output.
pub fn read_fit(r: Reader<'_, '_>) -> Result<LineFit, JsonError> {
    let n = r.at("n").u64()?;
    if n == 0 {
        return Ok(LineFit::new());
    }
    Ok(LineFit::from_parts(
        n,
        r.at("sx").f64()?,
        r.at("sy").f64()?,
        r.at("sxx").f64()?,
        r.at("sxy").f64()?,
        r.at("syy").f64()?,
        r.at("min_x").f64()?,
        r.at("max_x").f64()?,
    ))
}

// ---------------------------------------------------------------------------
// KernelSig

/// Serialize a kernel signature. The `op` field uses the canonical
/// (invertible) routine name, so `Custom` kernels keep their id.
pub fn sig_to_json(sig: &KernelSig) -> Value {
    match sig {
        KernelSig::Compute { op, dims } => json!({
            "dims": [dims.0 as f64, dims.1 as f64, dims.2 as f64],
            "kind": "compute",
            "op": op.canonical_name(),
        }),
        KernelSig::Comm { op, words, comm_size, stride } => json!({
            "comm_size": *comm_size,
            "kind": "comm",
            "op": op.name(),
            "stride": *stride,
            "words": *words,
        }),
    }
}

/// Restore a kernel signature from [`sig_to_json`] output; an unknown
/// signature kind or routine name is an error at its key.
pub fn read_sig(r: Reader<'_, '_>) -> Result<KernelSig, JsonError> {
    let kind = r.at("kind");
    match kind.str()? {
        "compute" => {
            let dims = r.at("dims");
            let [m, n, k] = dims.fixed()?;
            Ok(KernelSig::Compute {
                op: r.at("op").named("routine", ComputeOp::from_name)?,
                dims: (m.u64()?, n.u64()?, k.u64()?),
            })
        }
        "comm" => Ok(KernelSig::Comm {
            op: r.at("op").named("routine", CommOp::from_name)?,
            words: r.at("words").u64()?,
            comm_size: r.at("comm_size").u64()?,
            stride: r.at("stride").u64()?,
        }),
        other => Err(kind.error(format!("unknown signature kind `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// KernelModel

fn model_to_json(m: &KernelModel) -> Value {
    json!({
        "eager_coverage": m.eager_coverage,
        "eager_off": m.eager_off,
        "eager_strides": m.eager_strides.iter().map(|&s| s as f64).collect::<Vec<f64>>(),
        "executed": m.executed_this_config,
        "scheduled": m.scheduled_this_config,
        "sig": sig_to_json(&m.sig),
        "stats": stats_to_json(&m.stats),
    })
}

fn read_model(r: Reader<'_, '_>) -> Result<KernelModel, JsonError> {
    let mut m = KernelModel::from_sig(read_sig(r.at("sig"))?);
    m.stats = read_stats(r.at("stats"))?;
    m.scheduled_this_config = r.at("scheduled").u64()?;
    m.executed_this_config = r.at("executed").u64()?;
    m.eager_coverage = r.at("eager_coverage").u64()?;
    m.eager_off = r.at("eager_off").bool()?;
    m.eager_strides = r.at("eager_strides").list(|s| s.u64())?;
    Ok(m)
}

// ---------------------------------------------------------------------------
// ExtrapolationTable

/// Serialize the §VIII extrapolation fits, sorted by routine family.
pub fn table_to_json(t: &ExtrapolationTable) -> Value {
    let mut compute: Vec<(&ComputeOp, &LineFit)> = t.fits().collect();
    compute.sort_by_key(|(op, _)| **op);
    let compute: Vec<Value> = compute
        .into_iter()
        .map(|(op, fit)| json!({ "fit": fit_to_json(fit), "op": op.canonical_name() }))
        .collect();
    let mut comm: Vec<(&(CommOp, u64, u64), &LineFit)> = t.comm_fits().collect();
    comm.sort_by_key(|(key, _)| **key);
    let comm: Vec<Value> = comm
        .into_iter()
        .map(|(&(op, p, s), fit)| {
            json!({ "fit": fit_to_json(fit), "op": op.name(), "p": p, "s": s })
        })
        .collect();
    json!({ "comm": comm, "compute": compute })
}

/// Restore an extrapolation table from [`table_to_json`] output.
pub fn read_table(r: Reader<'_, '_>) -> Result<ExtrapolationTable, JsonError> {
    let mut t = ExtrapolationTable::new();
    for entry in r.at("compute").items()? {
        let op = entry.at("op").named("routine", ComputeOp::from_name)?;
        t.insert_fit(op, read_fit(entry.at("fit"))?);
    }
    for entry in r.at("comm").items()? {
        let op = entry.at("op").named("routine", CommOp::from_name)?;
        let (p, s) = (entry.at("p").u64()?, entry.at("s").u64()?);
        t.insert_comm_fit(op, p, s, read_fit(entry.at("fit"))?);
    }
    Ok(t)
}

// ---------------------------------------------------------------------------
// KernelStore

/// Serialize one rank's complete kernel-performance state. Models sort by
/// signature key, path/a-priori tables by kernel key, so equal stores
/// serialize to byte-identical documents.
pub fn store_to_json(store: &KernelStore) -> Value {
    let mut models: Vec<&KernelModel> = store.local.values().collect();
    models.sort_by_key(|m| m.sig.key());
    let models: Vec<Value> = models.into_iter().map(model_to_json).collect();

    let mut path: Vec<(u64, u64, f64)> =
        store.path_counts.iter().map(|(&k, &(c, t))| (k, c, t)).collect();
    path.sort_by_key(|&(k, _, _)| k);
    let path: Vec<Value> = path
        .into_iter()
        .map(|(k, c, t)| Value::Array(vec![json!(k as f64), json!(c as f64), json!(t)]))
        .collect();

    let mut apriori: Vec<(u64, u64)> = store.apriori_counts.iter().map(|(&k, &c)| (k, c)).collect();
    apriori.sort_by_key(|&(k, _)| k);
    let apriori: Vec<Value> = apriori
        .into_iter()
        .map(|(k, c)| Value::Array(vec![json!(k as f64), json!(c as f64)]))
        .collect();

    let mut obj = Map::new();
    obj.insert("apriori".into(), Value::Array(apriori));
    obj.insert("extrapolation".into(), table_to_json(&store.extrapolation));
    obj.insert("local".into(), Value::Array(models));
    obj.insert("path".into(), Value::Array(path));
    Value::Object(obj)
}

/// Restore a kernel store bit-exactly from [`store_to_json`] output.
pub fn read_store(r: Reader<'_, '_>) -> Result<KernelStore, JsonError> {
    let mut store = KernelStore::new();
    for entry in r.at("local").items()? {
        let m = read_model(entry)?;
        store.local.insert(m.sig.key(), m);
    }
    for row in r.at("path").items()? {
        let [key, count, time] = row.fixed()?;
        store.path_counts.insert(key.u64()?, (count.u64()?, time.f64()?));
    }
    for row in r.at("apriori").items()? {
        let [key, count] = row.fixed()?;
        store.apriori_counts.insert(key.u64()?, count.u64()?);
    }
    store.extrapolation = read_table(r.at("extrapolation"))?;
    Ok(store)
}

/// Serialize a whole fleet of per-rank stores (index = rank).
pub fn stores_to_json(stores: &[KernelStore]) -> Value {
    Value::Array(stores.iter().map(store_to_json).collect())
}

/// Restore a fleet of per-rank stores from [`stores_to_json`] output found
/// at `r` (inside a larger document, e.g. a checkpoint).
pub fn read_stores(r: Reader<'_, '_>) -> Result<Vec<KernelStore>, JsonError> {
    r.list(read_store)
}

/// Restore a fleet of per-rank stores from a whole [`stores_to_json`]
/// document (a profile or store-blob payload).
pub fn stores_from_json(v: TapeNode<'_>) -> crate::Result<Vec<KernelStore>> {
    Ok(read_stores(Reader::root("kernel stores", v))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SizeGranularity;
    use critter_obs::json::read_value;
    use serde_json::Tape;

    fn busy_store() -> KernelStore {
        let mut s = KernelStore::new();
        let g = KernelSig::compute(ComputeOp::Gemm, 64, 64, 32);
        let c = KernelSig::compute(ComputeOp::Custom(7), 8, 8, 0);
        let b = KernelSig::p2p(100, 3, SizeGranularity::Exact);
        for i in 0..5 {
            s.record(&g, 1e-6 * (i + 1) as f64 / 3.0);
            s.schedule(&g);
        }
        s.record(&c, 0.1);
        s.schedule(&c);
        s.record(&b, 2.5e-7);
        s.schedule(&b);
        s.attribute_path_time(g.key(), 0.125);
        s.capture_apriori();
        s.model_mut(&g).eager_coverage = 4;
        s.model_mut(&g).eager_strides = vec![1, 4];
        s.model_mut(&c).eager_off = true;
        s.extrapolation.record(ComputeOp::Gemm, 1e4, 3.0e-6);
        s.extrapolation.record(ComputeOp::Gemm, 2e4, 5.0e-6);
        s.extrapolation.record_comm(CommOp::Bcast, 4, 1, 128.0, 1e-5);
        s
    }

    fn store_from_json(v: &Value) -> Result<KernelStore, JsonError> {
        read_value("kernel store", v, read_store)
    }

    fn sig_from_json(v: &Value) -> Result<KernelSig, JsonError> {
        read_value("kernel signature", v, read_sig)
    }

    fn store_eq(a: &KernelStore, b: &KernelStore) -> bool {
        // The store has no PartialEq (hash maps + fits); canonical JSON is
        // its equality surface.
        serde_json::to_string(&store_to_json(a)).unwrap()
            == serde_json::to_string(&store_to_json(b)).unwrap()
    }

    #[test]
    fn store_round_trips_bit_exactly() {
        let s = busy_store();
        let text = critter_obs::json::canonical_text(&store_to_json(&s));
        let back = store_from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert!(store_eq(&s, &back));
        // Restored state behaves identically, not just prints identically.
        let g = KernelSig::compute(ComputeOp::Gemm, 64, 64, 32);
        let (ma, mb) = (s.model(g.key()).unwrap(), back.model(g.key()).unwrap());
        assert_eq!(ma.stats, mb.stats);
        assert_eq!(ma.eager_strides, mb.eager_strides);
        assert_eq!(s.path_count(g.key()), back.path_count(g.key()));
        assert_eq!(s.apriori_counts.len(), back.apriori_counts.len());
        assert_eq!(
            s.extrapolation.fit(ComputeOp::Gemm).unwrap().raw_parts(),
            back.extrapolation.fit(ComputeOp::Gemm).unwrap().raw_parts()
        );
    }

    #[test]
    fn empty_store_round_trips() {
        let s = KernelStore::new();
        let back = store_from_json(&store_to_json(&s)).unwrap();
        assert!(store_eq(&s, &back));
    }

    #[test]
    fn fleet_round_trips() {
        let fleet = vec![busy_store(), KernelStore::new()];
        let text = serde_json::to_string(&stores_to_json(&fleet)).unwrap();
        let back = stores_from_json(Tape::parse(&text).unwrap().root()).unwrap();
        assert_eq!(back.len(), 2);
        assert!(store_eq(&fleet[0], &back[0]));
        assert!(store_eq(&fleet[1], &back[1]));
    }

    #[test]
    fn custom_ops_keep_their_id() {
        let sig = KernelSig::compute(ComputeOp::Custom(42), 4, 4, 4);
        let back = sig_from_json(&sig_to_json(&sig)).unwrap();
        assert_eq!(back, sig);
        assert_eq!(back.key(), sig.key());
    }

    #[test]
    fn comm_sigs_round_trip() {
        let sig = KernelSig::Comm { op: CommOp::Gather, words: 512, comm_size: 8, stride: 4 };
        assert_eq!(sig_from_json(&sig_to_json(&sig)).unwrap(), sig);
    }

    #[test]
    fn empty_stats_round_trip() {
        let s = OnlineStats::new();
        let v = stats_to_json(&s);
        assert_eq!(serde_json::to_string(&v).unwrap(), r#"{"count":0}"#);
        assert_eq!(read_value("stats", &v, read_stats).unwrap(), s);
    }

    #[test]
    fn malformed_documents_yield_located_errors() {
        for (bad, expect) in [
            (json!({}), "kind: missing (expected a string)"),
            (
                json!({ "kind": "compute", "op": "nosuch", "dims": [1.0, 2.0, 3.0] }),
                "op: unknown routine `nosuch`",
            ),
            (json!({ "kind": "warp", "op": "gemm" }), "kind: unknown signature kind `warp`"),
            (
                json!({ "kind": "compute", "op": "gemm", "dims": [1.0, 2.0] }),
                "dims: expected 3 elements, got 2",
            ),
        ] {
            assert_eq!(sig_from_json(&bad).unwrap_err().to_string(), expect);
        }
        let err = store_from_json(&json!({ "local": 3.0 })).unwrap_err();
        assert_eq!(err.to_string(), "local: expected an array, got the number 3");
        // The root wrapper turns it into a `Schema` error naming the document.
        let err = stores_from_json(Tape::parse("{}").unwrap().root()).unwrap_err();
        assert!(matches!(err, crate::CritterError::Schema { .. }), "got: {err}");
        assert_eq!(
            err.to_string(),
            "schema error in kernel stores: expected an array, got an object"
        );
    }
}
