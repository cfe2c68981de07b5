//! A lightweight metrics registry: named counters and gauges.
//!
//! The registry is thread-local, which gives two properties the simulator
//! wants for free: zero synchronization on the hot path (every modelled
//! disk IO bumps a counter), and isolation between tests running on
//! separate threads. Handles are `Copy` and keyed by `&'static str`.
//!
//! An update finds its slot by the *address* of the name: one probe of a
//! small open-addressed table, no string comparison and no allocation.
//! The first time an address is seen the name itself is looked up, so two
//! equal strings at different addresses still share one metric. A
//! name-ordered index serves [`snapshot`], [`typed_snapshot`] and every
//! artifact built from them.
//!
//! Counters only go up; gauges are arbitrary `f64` accumulators (used for
//! modelled busy-seconds, where a "count" is the wrong shape).

use std::cell::RefCell;
use std::collections::BTreeMap;

#[derive(Debug)]
struct Registry {
    counters: Slots<u64>,
    gauges: Slots<f64>,
    histograms: BTreeMap<&'static str, HistData>,
}

impl Registry {
    const fn new() -> Registry {
        Registry {
            counters: Slots::new(),
            gauges: Slots::new(),
            histograms: BTreeMap::new(),
        }
    }
}

/// One `(name address, name length) → slot` entry; address 0 marks an
/// empty entry (a `&str` pointer is never null).
#[derive(Debug, Clone, Copy)]
struct AddrEntry {
    addr: usize,
    len: usize,
    slot: usize,
}

const EMPTY: AddrEntry = AddrEntry {
    addr: 0,
    len: 0,
    slot: 0,
};

/// The values of one metric kind, found by name address on the hot path
/// and by name otherwise.
#[derive(Debug)]
struct Slots<V> {
    values: Vec<V>,
    /// Name → slot, in name order: the fallback for a new address and
    /// the order snapshots read.
    by_name: BTreeMap<&'static str, usize>,
    /// Open-addressed with linear probing; the length is zero or a power
    /// of two at most half full.
    by_addr: Vec<AddrEntry>,
    addrs: usize,
}

impl<V: Copy + Default> Slots<V> {
    const fn new() -> Slots<V> {
        Slots {
            values: Vec::new(),
            by_name: BTreeMap::new(),
            by_addr: Vec::new(),
            addrs: 0,
        }
    }

    /// The entry for (`addr`, `len`), or the empty entry where it would go.
    fn probe(&self, addr: usize, len: usize) -> usize {
        let mask = self.by_addr.len() - 1;
        let mut i = (addr ^ len)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(32)
            & mask;
        loop {
            let e = self.by_addr[i];
            if e.addr == 0 || (e.addr == addr && e.len == len) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn find(&self, name: &str) -> Option<usize> {
        if self.by_addr.is_empty() {
            return None;
        }
        let e = self.by_addr[self.probe(name.as_ptr() as usize, name.len())];
        (e.addr != 0).then_some(e.slot)
    }

    /// The value slot of `name`, created (zeroed) on first use.
    fn slot(&mut self, name: &'static str) -> &mut V {
        let i = match self.find(name) {
            Some(i) => i,
            None => self.insert(name),
        };
        &mut self.values[i]
    }

    #[cold]
    fn insert(&mut self, name: &'static str) -> usize {
        if 2 * (self.addrs + 1) > self.by_addr.len() {
            let grown = vec![EMPTY; (2 * self.by_addr.len()).max(64)];
            let old = std::mem::replace(&mut self.by_addr, grown);
            for e in old.into_iter().filter(|e| e.addr != 0) {
                let i = self.probe(e.addr, e.len);
                self.by_addr[i] = e;
            }
        }
        let next = self.values.len();
        let slot = *self.by_name.entry(name).or_insert(next);
        if slot == next {
            self.values.push(V::default());
        }
        let (addr, len) = (name.as_ptr() as usize, name.len());
        let i = self.probe(addr, len);
        self.by_addr[i] = AddrEntry { addr, len, slot };
        self.addrs += 1;
        slot
    }

    /// Current value of `name`, if it was ever touched.
    fn get(&self, name: &str) -> Option<V> {
        self.find(name)
            .or_else(|| self.by_name.get(name).copied())
            .map(|i| self.values[i])
    }

    /// `(name, value)` pairs in name order.
    fn iter(&self) -> impl Iterator<Item = (&'static str, V)> + '_ {
        self.by_name.iter().map(|(k, &i)| (*k, self.values[i]))
    }
}

#[derive(Debug, Default, Clone)]
struct HistData {
    count: u64,
    sum: f64,
    /// Bucket exponent `e` → samples with `2^e <= v < 2^(e+1)`.
    buckets: BTreeMap<i32, u64>,
}

thread_local! {
    static REGISTRY: RefCell<Registry> = const { RefCell::new(Registry::new()) };
}

/// Handle to a named monotonic counter.
#[derive(Debug, Clone, Copy)]
pub struct Counter(&'static str);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        REGISTRY.with(|r| *r.borrow_mut().counters.slot(self.0) += n);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 if never touched).
    pub fn get(&self) -> u64 {
        REGISTRY.with(|r| r.borrow().counters.get(self.0).unwrap_or(0))
    }

    /// The registry key.
    pub fn name(&self) -> &'static str {
        self.0
    }
}

/// Handle to a named gauge (a signed `f64` accumulator).
#[derive(Debug, Clone, Copy)]
pub struct Gauge(&'static str);

impl Gauge {
    /// Adds `v` (may be negative).
    pub fn add(&self, v: f64) {
        REGISTRY.with(|r| *r.borrow_mut().gauges.slot(self.0) += v);
    }

    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        REGISTRY.with(|r| *r.borrow_mut().gauges.slot(self.0) = v);
    }

    /// Current value (0.0 if never touched).
    pub fn get(&self) -> f64 {
        REGISTRY.with(|r| r.borrow().gauges.get(self.0).unwrap_or(0.0))
    }

    /// The registry key.
    pub fn name(&self) -> &'static str {
        self.0
    }
}

/// Returns the counter named `name`, creating it lazily on first use.
pub fn counter(name: &'static str) -> Counter {
    Counter(name)
}

/// Returns the gauge named `name`, creating it lazily on first use.
pub fn gauge(name: &'static str) -> Gauge {
    Gauge(name)
}

/// Handle to a named log₂-bucketed histogram (IO sizes, modelled
/// service latencies).
#[derive(Debug, Clone, Copy)]
pub struct Histogram(&'static str);

impl Histogram {
    /// Records one sample. Non-positive and non-finite values all land
    /// in the lowest bucket (they carry no magnitude to classify).
    pub fn record(&self, v: f64) {
        REGISTRY.with(|r| {
            let mut r = r.borrow_mut();
            let h = r.histograms.entry(self.0).or_default();
            h.count += 1;
            h.sum += if v.is_finite() { v } else { 0.0 };
            *h.buckets.entry(log2_bucket(v)).or_insert(0) += 1;
        });
    }

    /// The registry key.
    pub fn name(&self) -> &'static str {
        self.0
    }
}

/// Returns the histogram named `name`, creating it lazily on first use.
pub fn histogram(name: &'static str) -> Histogram {
    Histogram(name)
}

/// Floor of log₂(v) for positive finite `v`, computed from the IEEE 754
/// exponent bits so the answer is exact and identical on every platform
/// (no libm). Everything without a usable magnitude — zero, negatives,
/// subnormals, NaN, infinities — collapses to the minimum bucket.
fn log2_bucket(v: f64) -> i32 {
    const MIN_BUCKET: i32 = -1023;
    if !v.is_finite() || v < f64::MIN_POSITIVE {
        return MIN_BUCKET;
    }
    ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Registry key.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (finite ones).
    pub sum: f64,
    /// `(bucket exponent e, samples)` pairs, ascending: samples with
    /// `2^e <= v < 2^(e+1)`.
    pub buckets: Vec<(i32, u64)>,
}

impl HistogramSnapshot {
    /// Upper edge (`2^(e+1)`) of the bucket containing the `q`-quantile
    /// sample, 0.0 when empty. An upper bound, as bucketed quantiles
    /// always are.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(e, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return (2.0f64).powi(e + 1);
            }
        }
        self.buckets
            .last()
            .map(|&(e, _)| (2.0f64).powi(e + 1))
            .unwrap_or(0.0)
    }

    /// Median upper bound.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Mean of the recorded samples (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Captures every histogram currently in the registry, sorted by name.
pub fn histogram_snapshots() -> Vec<HistogramSnapshot> {
    REGISTRY.with(|r| {
        r.borrow()
            .histograms
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.to_string(),
                count: h.count,
                sum: h.sum,
                buckets: h.buckets.iter().map(|(e, n)| (*e, *n)).collect(),
            })
            .collect()
    })
}

/// A point-in-time copy of every metric, as uniform `f64` readings.
///
/// This is the capture format span scopes diff at entry/exit: counters are
/// widened to `f64` (exact below 2^53 — far beyond any simulated byte
/// count) so a single reading vector covers both kinds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub readings: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// Value of `name` in this snapshot (0.0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.readings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    }
}

/// Captures every counter and gauge currently in the registry.
pub fn snapshot() -> MetricsSnapshot {
    REGISTRY
        .with(|r| {
            let r = r.borrow();
            let mut readings: Vec<(String, f64)> = r
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), v as f64))
                .chain(r.gauges.iter().map(|(k, v)| (k.to_string(), v)))
                .collect();
            readings.sort_by(|a, b| a.0.cmp(&b.0));
            readings
        })
        .into()
}

impl From<Vec<(String, f64)>> for MetricsSnapshot {
    fn from(readings: Vec<(String, f64)>) -> Self {
        MetricsSnapshot { readings }
    }
}

/// A point-in-time copy of every metric with counters and gauges kept
/// apart. [`MetricsSnapshot`] deliberately flattens the two kinds into
/// one reading vector; exporters that speak a typed wire format (the
/// OpenMetrics text exposition in [`crate::openmetrics`]) need the kind
/// preserved, because counters and gauges serialize differently.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypedSnapshot {
    /// `(name, value)` counter pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

/// Captures every counter and gauge with their kinds intact.
pub fn typed_snapshot() -> TypedSnapshot {
    REGISTRY.with(|r| {
        let r = r.borrow();
        TypedSnapshot {
            counters: r.counters.iter().map(|(k, v)| (k.to_string(), v)).collect(),
            gauges: r.gauges.iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    })
}

/// Clears every metric on this thread (test isolation).
pub fn reset() {
    REGISTRY.with(|r| *r.borrow_mut() = Registry::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        reset();
        let c = counter("test.bytes");
        c.add(100);
        c.inc();
        assert_eq!(c.get(), 101);
        assert_eq!(counter("test.bytes").get(), 101);
        assert_eq!(counter("test.other").get(), 0);
    }

    #[test]
    fn gauges_accumulate_and_set() {
        reset();
        let g = gauge("test.secs");
        g.add(1.5);
        g.add(-0.5);
        assert!((g.get() - 1.0).abs() < 1e-12);
        g.set(7.0);
        assert!((g.get() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_merges_both_kinds_sorted() {
        reset();
        counter("b.count").add(2);
        gauge("a.secs").add(0.25);
        let snap = snapshot();
        assert_eq!(
            snap.readings,
            vec![("a.secs".to_string(), 0.25), ("b.count".to_string(), 2.0)]
        );
        assert_eq!(snap.get("b.count"), 2.0);
        assert_eq!(snap.get("missing"), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        counter("x").inc();
        histogram("h").record(1.0);
        reset();
        assert_eq!(counter("x").get(), 0);
        assert!(snapshot().readings.is_empty());
        assert!(histogram_snapshots().is_empty());
    }

    #[test]
    fn equal_names_at_different_addresses_share_one_metric() {
        reset();
        let leaked: &'static str = Box::leak(String::from("test.shared").into_boxed_str());
        assert_ne!(leaked.as_ptr(), "test.shared".as_ptr());
        counter("test.shared").add(2);
        counter(leaked).add(3);
        assert_eq!(counter("test.shared").get(), 5);
        assert_eq!(counter(leaked).get(), 5);
        gauge(leaked).add(0.5);
        assert_eq!(
            snapshot().readings,
            vec![
                ("test.shared".to_string(), 5.0),
                ("test.shared".to_string(), 0.5)
            ]
        );
        assert_eq!(
            typed_snapshot().counters,
            vec![("test.shared".to_string(), 5)]
        );
    }

    #[test]
    fn gauge_set_and_add_share_a_slot() {
        reset();
        let leaked: &'static str = Box::leak(String::from("test.level").into_boxed_str());
        gauge("test.level").set(4.0);
        gauge(leaked).add(1.5);
        gauge("test.level").add(-0.5);
        assert_eq!(gauge(leaked).get(), 5.0);
        gauge(leaked).set(2.0);
        assert_eq!(gauge("test.level").get(), 2.0);
        assert_eq!(
            typed_snapshot().gauges,
            vec![("test.level".to_string(), 2.0)]
        );
    }

    #[test]
    fn reset_clears_the_address_index() {
        counter("test.cached").inc();
        gauge("test.cached.secs").add(1.0);
        reset();
        REGISTRY.with(|r| {
            let r = r.borrow();
            assert!(r.counters.by_addr.is_empty() && r.counters.addrs == 0);
            assert!(r.gauges.by_addr.is_empty() && r.gauges.addrs == 0);
        });
        assert_eq!(counter("test.cached").get(), 0);
        counter("test.cached").inc();
        assert_eq!(snapshot().readings, vec![("test.cached".to_string(), 1.0)]);
    }

    #[test]
    fn address_index_growth_keeps_every_slot() {
        reset();
        let names: Vec<&'static str> = (0..200)
            .map(|i| &*Box::leak(format!("test.n{i:03}").into_boxed_str()))
            .collect();
        for (i, n) in names.iter().enumerate() {
            counter(n).add(i as u64);
        }
        for (i, n) in names.iter().enumerate() {
            assert_eq!(counter(n).get(), i as u64);
        }
        let snap = snapshot();
        assert_eq!(snap.readings.len(), 200);
        assert!(snap.readings.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn log2_buckets_use_exact_exponents() {
        assert_eq!(log2_bucket(1.0), 0);
        assert_eq!(log2_bucket(1.5), 0);
        assert_eq!(log2_bucket(2.0), 1);
        assert_eq!(log2_bucket(4095.0), 11);
        assert_eq!(log2_bucket(4096.0), 12);
        assert_eq!(log2_bucket(0.25), -2);
        assert_eq!(log2_bucket(0.0), -1023);
        assert_eq!(log2_bucket(-3.0), -1023);
        assert_eq!(log2_bucket(f64::NAN), -1023);
        assert_eq!(log2_bucket(f64::INFINITY), -1023);
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        reset();
        let h = histogram("svc");
        // 90 fast samples around 1e-3, 10 slow around 1e-2.
        for _ in 0..90 {
            h.record(0.001);
        }
        for _ in 0..10 {
            h.record(0.012);
        }
        let snaps = histogram_snapshots();
        assert_eq!(snaps.len(), 1);
        let s = &snaps[0];
        assert_eq!(s.name, "svc");
        assert_eq!(s.count, 100);
        assert!((s.mean() - (90.0 * 0.001 + 10.0 * 0.012) / 100.0).abs() < 1e-12);
        // p50 bounds the fast cohort, p99 the slow one, and every
        // quantile upper bound is >= the value it covers.
        assert!(s.p50() >= 0.001 && s.p50() < 0.012);
        assert!(s.p95() >= 0.012);
        assert!(s.p99() >= 0.012);
        assert!(s.p99() <= 0.012 * 2.0);
        // The bucket list is ascending and totals the count.
        assert!(s.buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(s.buckets.iter().map(|(_, n)| n).sum::<u64>(), 100);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
    }
}
