//! The metrics registry: named counters, gauges, and histograms.
//!
//! A [`Registry`] maps dotted `scope.name` keys to [`Metric`]s in a
//! `BTreeMap`, so iteration, snapshots, and JSON output are always in the
//! same (lexicographic) order — the property that lets CI diff metric
//! snapshots byte-for-byte between worker counts. Use [`Registry::scope`]
//! to hand a subsystem a prefixed view.
//!
//! Determinism note: a registry is deterministic exactly when the values
//! pushed into it are. Per-episode protocol counters (messages sent,
//! retries, accusations stored) are virtual-time facts and reproduce
//! bit-identically; process-wide cache statistics (signature-memo hits,
//! BFS-cache hits) depend on thread count and scheduling and must live in
//! clearly separated scopes that digests and equality checks ignore —
//! see DESIGN.md §12.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};

/// A sample that [`Histogram::try_add`] refused.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutOfRange {
    /// The rejected sample.
    pub sample: f64,
    /// Inclusive lower bound of the histogram's range.
    pub lo: f64,
    /// Inclusive upper bound of the histogram's range.
    pub hi: f64,
}

impl std::fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sample {} outside [{}, {}]", self.sample, self.lo, self.hi)
    }
}

impl std::error::Error for OutOfRange {}

/// A fixed-bin histogram over an arbitrary closed range `[lo, hi]`.
///
/// Generalizes the simulator's unit-interval blame histogram: same
/// bin-assignment rule (`hi` lands in the last bin), any bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// A histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, the bounds are not finite, or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range [{lo}, {hi}]");
        Histogram { lo, hi, bins: vec![0; bins], count: 0, sum: 0.0 }
    }

    /// Adds a sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[lo, hi]`; use [`Histogram::try_add`] or
    /// [`Histogram::add_clamped`] when out-of-range samples are data.
    pub fn add(&mut self, x: f64) {
        self.try_add(x).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Adds a sample, returning `Err` instead of panicking when `x` is
    /// outside `[lo, hi]` (or NaN). The histogram is unchanged on `Err`.
    pub fn try_add(&mut self, x: f64) -> Result<(), OutOfRange> {
        if !(self.lo..=self.hi).contains(&x) {
            return Err(OutOfRange { sample: x, lo: self.lo, hi: self.hi });
        }
        let span = self.hi - self.lo;
        let idx = (((x - self.lo) / span * self.bins.len() as f64) as usize)
            .min(self.bins.len() - 1);
        self.bins[idx] += 1;
        self.count += 1;
        self.sum += x;
        Ok(())
    }

    /// Adds a sample, saturating it to `[lo, hi]` first. NaN saturates to
    /// `lo`. Use when outliers should still be counted, in the edge bins.
    pub fn add_clamped(&mut self, x: f64) {
        let clamped = if x.is_nan() { self.lo } else { x.clamp(self.lo, self.hi) };
        self.try_add(clamped).expect("clamped sample is in range");
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (after clamping, for clamped adds).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// The raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The inclusive range `[lo, hi]`.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Merges another histogram with the same shape into this one.
    ///
    /// # Panics
    ///
    /// Panics if the ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        assert_eq!((self.lo, self.hi), (other.lo, other.hi), "range mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count. Merges by addition.
    Counter(u64),
    /// A point-in-time measurement. Merges by maximum (the convention
    /// that makes "high-water mark" gauges meaningful across episodes).
    Gauge(f64),
    /// A distribution. Merges bin-wise.
    Histogram(Histogram),
}

/// An ordered collection of named metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Runs `update` on the metric at `key`, inserting `init()` first when
    /// absent. The key is looked up as `&str` and copied only on insert,
    /// so updating an existing metric allocates nothing.
    fn update(
        &mut self,
        key: &str,
        init: impl FnOnce() -> Metric,
        update: impl FnOnce(&mut Metric),
    ) {
        let metric = match self.metrics.get_mut(key) {
            Some(metric) => metric,
            None => self.metrics.entry(key.to_owned()).or_insert_with(init),
        };
        update(metric);
    }

    /// Increments the counter `key` by `by`, creating it at zero first if
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `key` already names a non-counter metric.
    pub fn inc(&mut self, key: &str, by: u64) {
        self.update(key, || Metric::Counter(0), |metric| match metric {
            Metric::Counter(v) => *v += by,
            other => panic!("metric `{key}` is not a counter: {other:?}"),
        });
    }

    /// Sets the gauge `key` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `key` already names a non-gauge metric.
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        self.update(key, || Metric::Gauge(value), |metric| match metric {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric `{key}` is not a gauge: {other:?}"),
        });
    }

    /// Raises the gauge `key` to `value` if `value` is higher (a
    /// high-water mark).
    pub fn max_gauge(&mut self, key: &str, value: f64) {
        self.update(key, || Metric::Gauge(value), |metric| match metric {
            Metric::Gauge(v) => *v = v.max(value),
            other => panic!("metric `{key}` is not a gauge: {other:?}"),
        });
    }

    /// Observes `x` in the histogram `key`, clamping out-of-range samples
    /// into the edge bins. The histogram is created with `[lo, hi]` ×
    /// `bins` on first use; later calls reuse the registered shape.
    ///
    /// # Panics
    ///
    /// Panics if `key` already names a non-histogram metric.
    pub fn observe(&mut self, key: &str, x: f64, lo: f64, hi: f64, bins: usize) {
        self.update(key, || Metric::Histogram(Histogram::new(lo, hi, bins)), |metric| match metric {
            Metric::Histogram(h) => h.add_clamped(x),
            other => panic!("metric `{key}` is not a histogram: {other:?}"),
        });
    }

    /// The counter value at `key`, or 0 when absent.
    pub fn counter(&self, key: &str) -> u64 {
        match self.metrics.get(key) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge value at `key`, if present.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        match self.metrics.get(key) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram at `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        match self.metrics.get(key) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// All keys, in deterministic (lexicographic) order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(String::as_str)
    }

    /// All metrics, in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// A prefixed view: every operation through the scope prepends
    /// `prefix` and a dot to the key.
    pub fn scope<'a>(&'a mut self, prefix: &'a str) -> Scope<'a> {
        Scope { registry: self, prefix }
    }

    /// Merges `other` into this registry: counters add, gauges keep the
    /// maximum, histograms merge bin-wise. Keys only in `other` are
    /// copied over.
    ///
    /// # Panics
    ///
    /// Panics if a shared key has different metric types or histogram
    /// shapes on the two sides.
    pub fn merge(&mut self, other: &Registry) {
        for (key, metric) in &other.metrics {
            match (self.metrics.get_mut(key), metric) {
                (None, m) => {
                    self.metrics.insert(key.clone(), m.clone());
                }
                (Some(Metric::Counter(a)), Metric::Counter(b)) => *a += b,
                (Some(Metric::Gauge(a)), Metric::Gauge(b)) => *a = a.max(*b),
                (Some(Metric::Histogram(a)), Metric::Histogram(b)) => a.merge(b),
                (Some(a), b) => panic!("metric `{key}` type mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    /// Serializes the registry as pretty-printed JSON with keys in
    /// deterministic order. Floats use Rust's shortest round-trip
    /// formatting, so [`Registry::from_json`] reproduces the registry
    /// exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, metric)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(out, "  {}: ", json::escape(key));
            match metric {
                Metric::Counter(v) => {
                    let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
                }
                Metric::Gauge(v) => {
                    let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{v:?}}}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"histogram\",\"lo\":{:?},\"hi\":{:?},\"count\":{},\
                         \"sum\":{:?},\"bins\":[",
                        h.lo, h.hi, h.count, h.sum
                    );
                    for (j, b) in h.bins.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Reconstructs a registry from [`Registry::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed entry.
    pub fn from_json(text: &str) -> Result<Registry, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        let obj = value.as_obj().ok_or("top level must be an object")?;
        let mut registry = Registry::new();
        for (key, entry) in obj {
            let kind = entry
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric `{key}` missing type"))?;
            let metric = match kind {
                "counter" => {
                    let v = entry
                        .get("value")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("counter `{key}` missing value"))?;
                    Metric::Counter(v)
                }
                "gauge" => {
                    let v = entry
                        .get("value")
                        .and_then(Json::as_num)
                        .ok_or_else(|| format!("gauge `{key}` missing value"))?;
                    Metric::Gauge(v)
                }
                "histogram" => {
                    let num = |field: &str| {
                        entry
                            .get(field)
                            .and_then(Json::as_num)
                            .ok_or_else(|| format!("histogram `{key}` missing {field}"))
                    };
                    let bins: Vec<u64> = entry
                        .get("bins")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("histogram `{key}` missing bins"))?
                        .iter()
                        .map(Json::as_u64)
                        .collect::<Option<_>>()
                        .ok_or_else(|| format!("histogram `{key}` has non-integer bins"))?;
                    if bins.is_empty() {
                        return Err(format!("histogram `{key}` has no bins"));
                    }
                    let mut h = Histogram::new(num("lo")?, num("hi")?, bins.len());
                    h.bins = bins;
                    h.count = entry
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("histogram `{key}` missing count"))?;
                    h.sum = num("sum")?;
                    Metric::Histogram(h)
                }
                other => return Err(format!("metric `{key}` has unknown type `{other}`")),
            };
            registry.metrics.insert(key.clone(), metric);
        }
        Ok(registry)
    }
}

/// A prefixed view of a [`Registry`]; see [`Registry::scope`].
pub struct Scope<'a> {
    registry: &'a mut Registry,
    prefix: &'a str,
}

impl Scope<'_> {
    fn key(&self, name: &str) -> String {
        format!("{}.{}", self.prefix, name)
    }

    /// [`Registry::inc`] under this scope's prefix.
    pub fn inc(&mut self, name: &str, by: u64) {
        let key = self.key(name);
        self.registry.inc(&key, by);
    }

    /// [`Registry::set_gauge`] under this scope's prefix.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        let key = self.key(name);
        self.registry.set_gauge(&key, value);
    }

    /// [`Registry::max_gauge`] under this scope's prefix.
    pub fn max_gauge(&mut self, name: &str, value: f64) {
        let key = self.key(name);
        self.registry.max_gauge(&key, value);
    }

    /// [`Registry::observe`] under this scope's prefix.
    pub fn observe(&mut self, name: &str, x: f64, lo: f64, hi: f64, bins: usize) {
        let key = self.key(name);
        self.registry.observe(&key, x, lo, hi, bins);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_add_try_add_clamped() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(0.0);
        h.add(10.0);
        assert_eq!(h.bins(), &[1, 0, 0, 0, 1]);
        assert_eq!(h.try_add(10.5), Err(OutOfRange { sample: 10.5, lo: 0.0, hi: 10.0 }));
        assert_eq!(h.count(), 2, "failed try_add must not mutate");
        h.add_clamped(123.0);
        h.add_clamped(-5.0);
        h.add_clamped(f64::NAN);
        assert_eq!(h.bins(), &[3, 0, 0, 0, 2]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn histogram_add_panics_out_of_range() {
        Histogram::new(0.0, 1.0, 2).add(1.5);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = Registry::new();
        r.inc("a.count", 2);
        r.inc("a.count", 3);
        r.set_gauge("b.depth", 4.0);
        r.max_gauge("b.depth", 2.0);
        r.max_gauge("b.depth", 9.0);
        r.observe("c.dist", 0.5, 0.0, 1.0, 4);
        assert_eq!(r.counter("a.count"), 5);
        assert_eq!(r.gauge("b.depth"), Some(9.0));
        assert_eq!(r.histogram("c.dist").unwrap().count(), 1);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn scope_prefixes_keys() {
        let mut r = Registry::new();
        let mut s = r.scope("episode");
        s.inc("sent", 7);
        s.max_gauge("queue_high_water", 3.0);
        assert_eq!(r.counter("episode.sent"), 7);
        assert_eq!(r.gauge("episode.queue_high_water"), Some(3.0));
    }

    #[test]
    fn keys_iterate_in_lexicographic_order() {
        let mut r = Registry::new();
        for key in ["z.last", "a.first", "m.middle"] {
            r.inc(key, 1);
        }
        let keys: Vec<&str> = r.keys().collect();
        assert_eq!(keys, vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn merge_adds_counters_maxes_gauges_merges_histograms() {
        let mut a = Registry::new();
        a.inc("n", 1);
        a.set_gauge("g", 5.0);
        a.observe("h", 0.25, 0.0, 1.0, 2);
        let mut b = Registry::new();
        b.inc("n", 2);
        b.inc("only_b", 9);
        b.set_gauge("g", 3.0);
        b.observe("h", 0.75, 0.0, 1.0, 2);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.counter("only_b"), 9);
        assert_eq!(a.gauge("g"), Some(5.0));
        assert_eq!(a.histogram("h").unwrap().bins(), &[1, 1]);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut r = Registry::new();
        r.inc("episode.sent", 42);
        r.set_gauge("queue.high_water", 17.5);
        r.observe("blame.dist", 0.3, 0.0, 1.0, 8);
        r.observe("blame.dist", 0.9, 0.0, 1.0, 8);
        let json = r.to_json();
        let back = Registry::from_json(&json).expect("own output must parse");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json, "serialization must be canonical");
        for bad in ["-5", "3.7", "1e300"] {
            let counter = format!("{{\"c\":{{\"type\":\"counter\",\"value\":{bad}}}}}");
            assert!(Registry::from_json(&counter).is_err(), "{counter}");
        }
    }
}
