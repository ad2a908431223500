//! Algebraic properties of histogram and registry merging — the
//! foundation of the deterministic parallel-merge contract: because merge
//! is associative and commutative, any grouping of per-worker registries
//! absorbs to the same totals, and worker-order absorption is merely a
//! convention, not a correctness requirement.

use proptest::prelude::*;
use st_metrics::{Histogram, MetricsRegistry};

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.observe(s);
    }
    h
}

fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            4 => 0u64..1000,
            1 => (u64::MAX - 1000)..u64::MAX,
        ],
        0..32,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// merge is commutative: a ⊎ b == b ⊎ a.
    #[test]
    fn histogram_merge_is_commutative(a in arb_samples(), b in arb_samples()) {
        let mut ab = hist_of(&a);
        ab.merge(&hist_of(&b));
        let mut ba = hist_of(&b);
        ba.merge(&hist_of(&a));
        prop_assert_eq!(ab, ba);
    }

    /// merge is associative: (a ⊎ b) ⊎ c == a ⊎ (b ⊎ c).
    #[test]
    fn histogram_merge_is_associative(
        a in arb_samples(),
        b in arb_samples(),
        c in arb_samples(),
    ) {
        let mut left = hist_of(&a);
        left.merge(&hist_of(&b));
        left.merge(&hist_of(&c));

        let mut right_inner = hist_of(&b);
        right_inner.merge(&hist_of(&c));
        let mut right = hist_of(&a);
        right.merge(&right_inner);

        prop_assert_eq!(left, right);
    }

    /// merging is the same as observing the concatenated sample stream —
    /// split points never matter (the property that makes per-worker
    /// sharding sound).
    #[test]
    fn histogram_merge_equals_concatenation(
        a in arb_samples(),
        b in arb_samples(),
        split in 0usize..32,
    ) {
        let all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let at = split.min(all.len());
        let mut merged = hist_of(&all[..at]);
        merged.merge(&hist_of(&all[at..]));
        prop_assert_eq!(merged, hist_of(&all));
    }

    /// the empty histogram is a merge identity.
    #[test]
    fn histogram_merge_identity(a in arb_samples()) {
        let mut h = hist_of(&a);
        h.merge(&Histogram::new());
        prop_assert_eq!(&h, &hist_of(&a));
        let mut e = Histogram::new();
        e.merge(&hist_of(&a));
        prop_assert_eq!(&e, &h);
    }

    /// registry absorption inherits both properties: counters sum and
    /// histograms merge, in any order.
    #[test]
    fn registry_absorb_is_commutative(
        a in arb_samples(),
        b in arb_samples(),
        ka in 0u64..100,
        kb in 0u64..100,
    ) {
        let mut ra = MetricsRegistry::new();
        ra.incr("c", ka);
        for &s in &a { ra.observe("h", s); }
        let mut rb = MetricsRegistry::new();
        rb.incr("c", kb);
        for &s in &b { rb.observe("h", s); }

        let mut ab = ra.clone();
        ab.absorb(&rb);
        let mut ba = rb.clone();
        ba.absorb(&ra);

        prop_assert_eq!(ab.counter("c"), ba.counter("c"));
        prop_assert_eq!(ab.counter("c"), ka + kb);
        prop_assert_eq!(ab.histogram("h"), ba.histogram("h"));
    }
}
