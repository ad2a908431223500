//! The collecting [`MetricsRegistry`]: the counters group of the
//! workspace's one instrumentation surface (`st_trace::Instrument`).
//!
//! Engines report counters through their `*_with` entry points, behind
//! the instrument's hoisted `counters_live` check; `st-trace` implements
//! that group for [`MetricsRegistry`] by forwarding to
//! [`MetricsRegistry::incr`], [`MetricsRegistry::observe`] and
//! [`MetricsRegistry::absorb`].
//!
//! Unlike events (a *stream*), counters aggregate in place: counters are
//! monotonic sums keyed by a static name, histograms are fixed-bucket
//! distributions. Both live in `BTreeMap`s, so iteration — and therefore
//! every export — is deterministically name-ordered, and merging
//! per-worker registries in worker order yields the same snapshot on
//! every run regardless of thread scheduling.

use std::collections::BTreeMap;

use crate::hist::Histogram;

/// The counter collector: named monotonic counters plus named fixed-bucket
/// histograms, in deterministic (name) order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The value of a counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if anything was observed into it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &value)| (name, value))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&name, h)| (name, h))
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Adds `by` to the named monotonic counter.
    pub fn incr(&mut self, counter: &'static str, by: u64) {
        *self.counters.entry(counter).or_insert(0) += by;
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, histogram: &'static str, value: u64) {
        self.histograms.entry(histogram).or_default().observe(value);
    }

    /// Folds a whole registry in: counters added, histograms merged
    /// bucket-wise.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (&name, &value) in &other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (&name, histogram) in &other.histograms {
            self.histograms.entry(name).or_default().merge(histogram);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_accumulates() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.incr("net.gate_evals", 3);
        r.incr("net.gate_evals", 2);
        r.observe("batch.volley_nanos", 100);
        r.observe("batch.volley_nanos", 200);
        assert_eq!(r.counter("net.gate_evals"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.histogram("batch.volley_nanos").unwrap().count(), 2);
        assert!(r.histogram("missing").is_none());
    }

    #[test]
    fn absorb_merges_both_kinds_commutatively() {
        let mut a = MetricsRegistry::new();
        a.incr("c", 1);
        a.observe("h", 10);
        let mut b = MetricsRegistry::new();
        b.incr("c", 2);
        b.incr("d", 7);
        b.observe("h", 20);
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 3);
        assert_eq!(ab.counter("d"), 7);
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
        assert_eq!(ab.histogram("h").unwrap().sum(), 30);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut r = MetricsRegistry::new();
        r.incr("zeta", 1);
        r.incr("alpha", 1);
        r.incr("mid", 1);
        let names: Vec<&str> = r.counters().map(|(name, _)| name).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
