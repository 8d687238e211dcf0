//! Deterministic metrics: counters, sums, and log2-bucket histograms.
//!
//! Everything is keyed by name in `BTreeMap`s, so iteration (and therefore
//! JSON serialization through the canonical sorted-key writer) is
//! independent of insertion order. Histogram buckets are power-of-two
//! exponent ranges — bucketing a sample costs one `log2().floor()`, which
//! is a pure function of the value, so two runs that observe the same
//! virtual quantities produce bit-identical registries no matter how their
//! threads interleaved.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::json::{JsonError, Reader};

/// A histogram over power-of-two buckets: a finite sample `x > 0` lands in
/// bucket `⌊log2 x⌋`; non-positive or non-finite samples are counted
/// separately (CI widths, for instance, are `+∞` until a model has two
/// samples).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    out_of_range: u64,
    total: f64,
    buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if x > 0.0 && x.is_finite() {
            self.total += x;
            let exp = x.log2().floor() as i32;
            *self.buckets.entry(exp).or_insert(0) += 1;
        } else {
            self.out_of_range += 1;
        }
    }

    /// Total samples observed (bucketed + out-of-range).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples that were non-positive or non-finite.
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// Sum of the finite positive samples.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Occupied buckets as `(exponent, count)` in ascending exponent order.
    pub fn buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.buckets.iter().map(|(&e, &c)| (e, c))
    }

    /// Fold another histogram in, as if its samples had been observed here.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.out_of_range += other.out_of_range;
        self.total += other.total;
        for (&e, &c) in &other.buckets {
            *self.buckets.entry(e).or_insert(0) += c;
        }
    }

    /// Canonical JSON: counts, the out-of-range tally, the sum, and the
    /// occupied buckets as sorted `[exponent, count]` rows.
    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .buckets
            .iter()
            .map(|(&e, &c)| serde_json::json!({ "count": c, "exp": e }))
            .collect();
        serde_json::json!({
            "buckets": rows,
            "count": self.count,
            "out_of_range": self.out_of_range,
            "total": self.total,
        })
    }

    /// Inverse of [`Histogram::to_json`]; `total` restores bit-exactly, and
    /// an exponent outside `i32` is an error, never a wrapped bucket.
    pub fn read(r: Reader<'_, '_>) -> Result<Histogram, JsonError> {
        let bucket = |row: Reader<'_, '_>| Ok((row.at("exp").int()?, row.at("count").u64()?));
        Ok(Histogram {
            count: r.at("count").u64()?,
            out_of_range: r.at("out_of_range").u64()?,
            total: r.at("total").f64()?,
            buckets: r.at("buckets").items()?.map(bucket).collect::<Result<_, _>>()?,
        })
    }
}

/// A named registry of counters (`u64`), sums (`f64`), and [`Histogram`]s.
///
/// Registries are built per rank and merged across ranks and runs in a
/// fixed `(run, rank)` order, so the aggregated values — including the
/// floating-point sums, whose addition order is part of the contract — are
/// schedule-independent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    sums: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to the counter `name` (saturating; counters never wrap).
    ///
    /// Hot path: looks the key up by `&str` first, so the `String` key is
    /// allocated only the first time a name is seen.
    pub fn incr(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c = c.saturating_add(by),
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Add `x` to the sum `name` (allocation-free after first use of a name).
    pub fn add_sum(&mut self, name: &str, x: f64) {
        match self.sums.get_mut(name) {
            Some(s) => *s += x,
            None => {
                self.sums.insert(name.to_string(), x);
            }
        }
    }

    /// Record one sample into the histogram `name` (allocation-free after
    /// first use of a name).
    pub fn observe(&mut self, name: &str, x: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(x),
            None => {
                let mut h = Histogram::new();
                h.observe(x);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a sum (0.0 when absent).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The histogram `name`, when any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.sums.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry in (key-wise; counters saturate, sums add,
    /// histograms merge). Callers must merge in a fixed order — the
    /// autotuner folds per-rank registries in ascending `(run, rank)` —
    /// to keep floating-point sums bit-stable.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            let c = self.counters.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(v);
        }
        for (k, &v) in &other.sums {
            *self.sums.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Canonical JSON rendering: three sorted objects (`counters`, `sums`,
    /// `histograms`). Equal registries serialize to byte-identical text.
    pub fn to_json(&self) -> Value {
        let mut counters = serde_json::Map::new();
        for (k, &v) in &self.counters {
            counters.insert(k.clone(), serde_json::json!(v));
        }
        let mut sums = serde_json::Map::new();
        for (k, &v) in &self.sums {
            sums.insert(k.clone(), serde_json::json!(v));
        }
        let mut histograms = serde_json::Map::new();
        for (k, h) in &self.histograms {
            histograms.insert(k.clone(), h.to_json());
        }
        let counters = Value::Object(counters);
        let sums = Value::Object(sums);
        let histograms = Value::Object(histograms);
        serde_json::json!({
            "counters": counters,
            "histograms": histograms,
            "sums": sums,
        })
    }

    /// Inverse of [`MetricsRegistry::to_json`]; sums restore bit-exactly.
    pub fn read(r: Reader<'_, '_>) -> Result<MetricsRegistry, JsonError> {
        fn table<T>(
            r: Reader<'_, '_>,
            read: impl Fn(Reader<'_, '_>) -> Result<T, JsonError>,
        ) -> Result<BTreeMap<String, T>, JsonError> {
            r.members()?.map(|(k, x)| Ok((k.to_string(), read(x)?))).collect()
        }
        Ok(MetricsRegistry {
            counters: table(r.at("counters"), |x| x.u64())?,
            sums: table(r.at("sums"), |x| x.f64())?,
            histograms: table(r.at("histograms"), Histogram::read)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde_json::Tape;

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        h.observe(1.5); // 2^0 bucket
        h.observe(3.0); // 2^1 bucket
        h.observe(0.25); // 2^-2 bucket
        h.observe(0.0); // out of range
        h.observe(f64::INFINITY); // out of range
        assert_eq!(h.count(), 5);
        assert_eq!(h.out_of_range(), 2);
        let buckets: Vec<(i32, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(-2, 1), (0, 1), (1, 1)]);
        assert_eq!(h.total(), 4.75);
    }

    #[test]
    fn histogram_merge_matches_sequential_observation() {
        let xs = [0.5, 1.0, 2.0, 7.5];
        let ys = [0.125, 3.0];
        let mut a = Histogram::new();
        xs.iter().for_each(|&x| a.observe(x));
        let mut b = Histogram::new();
        ys.iter().for_each(|&y| b.observe(y));
        a.merge(&b);
        let mut all = Histogram::new();
        xs.iter().chain(ys.iter()).for_each(|&x| all.observe(x));
        assert_eq!(a, all);
    }

    #[test]
    fn registry_counters_saturate() {
        let mut r = MetricsRegistry::new();
        r.incr("n", u64::MAX - 1);
        r.incr("n", 5);
        assert_eq!(r.counter("n"), u64::MAX);
        let mut o = MetricsRegistry::new();
        o.incr("n", 7);
        r.merge(&o);
        assert_eq!(r.counter("n"), u64::MAX);
    }

    #[test]
    fn registry_json_is_sorted_and_deterministic() {
        let mut r = MetricsRegistry::new();
        r.incr("zeta", 1);
        r.incr("alpha", 2);
        r.add_sum("time", 1.25);
        r.observe("widths", 0.5);
        let a = crate::json::canonical_text(&r.to_json());
        let b = crate::json::canonical_text(&r.clone().to_json());
        assert_eq!(a, b);
        let i_alpha = a.find("\"alpha\"").unwrap();
        let i_zeta = a.find("\"zeta\"").unwrap();
        assert!(i_alpha < i_zeta);
        assert!(a.contains("\"out_of_range\": 0"));
    }

    /// Regression: the decoder used to narrow with `as i32`, so this
    /// exponent (2^40) silently wrapped into bucket 0.
    #[test]
    fn registry_round_trips_and_refuses_an_out_of_range_exponent() {
        let mut r = MetricsRegistry::new();
        r.incr("n", 3);
        r.add_sum("t", 0.1 + 0.2);
        r.observe("w", 1.5);
        let text = crate::json::canonical_text(&r.to_json());
        let read = |text: &str| {
            MetricsRegistry::read(Reader::root("metrics", Tape::parse(text).unwrap().root()))
        };
        assert_eq!(read(&text).unwrap(), r);
        let err = read(&text.replace("\"exp\": 0", "\"exp\": 1099511627776")).unwrap_err();
        assert_eq!(err.path, "histograms.w.buckets[0].exp");
        assert_eq!(err.detail, "expected an integer (i32), got the number 1099511627776");
    }

    #[test]
    fn merge_is_keywise() {
        let mut a = MetricsRegistry::new();
        a.incr("x", 1);
        a.add_sum("s", 1.0);
        let mut b = MetricsRegistry::new();
        b.incr("x", 2);
        b.incr("y", 3);
        b.add_sum("s", 0.5);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 3);
        assert_eq!(a.sum("s"), 1.5);
        assert!(!a.is_empty());
        assert!(MetricsRegistry::new().is_empty());
    }

    proptest! {
        #[test]
        fn prop_histogram_count_invariant(xs in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
            let mut h = Histogram::new();
            for &x in &xs { h.observe(x); }
            let bucketed: u64 = h.buckets().map(|(_, c)| c).sum();
            prop_assert_eq!(bucketed + h.out_of_range(), h.count());
            prop_assert_eq!(h.count(), xs.len() as u64);
        }

        #[test]
        fn prop_merge_commutes_on_counts(
            xs in proptest::collection::vec(1e-6f64..1e6, 1..50),
            ys in proptest::collection::vec(1e-6f64..1e6, 1..50),
        ) {
            let mut a = Histogram::new();
            xs.iter().for_each(|&x| a.observe(x));
            let mut b = Histogram::new();
            ys.iter().for_each(|&y| b.observe(y));
            let mut ab = a.clone(); ab.merge(&b);
            let mut ba = b.clone(); ba.merge(&a);
            prop_assert_eq!(ab.count(), ba.count());
            let l: Vec<(i32, u64)> = ab.buckets().collect();
            let r: Vec<(i32, u64)> = ba.buckets().collect();
            prop_assert_eq!(l, r);
        }
    }
}
