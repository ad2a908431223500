//! The [`Instrument`] trait: the one hook surface every engine in the
//! workspace is observed through, with its null implementation and the
//! RAII [`SpanGuard`].
//!
//! An engine run can be watched three ways, and each is a hook group of
//! the trait, guarded by its own liveness check:
//!
//! | Group | Liveness | Hooks | Collector |
//! |---|---|---|---|
//! | events | [`Instrument::events_live`] | [`Instrument::record`] an [`ObsEvent`] | `st_obs::Recorder` |
//! | counters | [`Instrument::counters_live`] | [`Instrument::incr`], [`Instrument::observe`], [`Instrument::merge_counters`] | `st_metrics::MetricsRegistry` |
//! | spans | [`Instrument::spans_live`] | [`Instrument::begin`], [`Instrument::end`], [`Instrument::mark`], [`Instrument::truncate`], [`Instrument::worker`], [`Instrument::absorb`] | [`TraceBuffer`](crate::TraceBuffer) |
//!
//! Every method has a default that ignores its input, marked
//! `#[inline(always)]`: together they are the null implementation,
//! [`NullInstrument`] adds nothing to them, and each collector overrides
//! only its own group. Engines take one `&mut impl Instrument` on their
//! `*_with` entry point, hoist the liveness checks they need into local
//! `bool`s, and let their plain entry point pass [`NullInstrument`], so
//! after monomorphization the plain path is the uninstrumented code. The
//! workspace property suite pins the other half of the contract: an
//! instrumented run returns bit-identical results to a plain one.
//!
//! A new engine gets events, counters and spans by taking one
//! `&mut impl Instrument`; a new collector implements the group it
//! collects (or several — a test collector in `tests/obs_properties.rs`
//! implements all three at once).

use st_metrics::MetricsRegistry;
use st_obs::{ObsEvent, Recorder};

use crate::span::{SpanId, TraceMark};

/// The hook surface engines report events, counters and spans through.
///
/// Engines call a group's hooks only when its liveness check returns
/// `true` (span `begin`/`end` may also be called unconditionally — on a
/// dead instrument they inline to nothing), and never let the instrument
/// influence their results.
pub trait Instrument {
    /// The instrument handed to a scoped batch worker, which records the
    /// worker's spans; the caller [`absorb`](Instrument::absorb)s it
    /// after the join. An instrument that collects no spans uses
    /// [`NullInstrument`], so its workers are dead.
    type Worker: Instrument + Default + Send + 'static;

    /// Whether this instrument wants [`ObsEvent`]s. Engines guard event
    /// construction behind this, so a dead instrument pays nothing.
    #[inline(always)]
    fn events_live(&self) -> bool {
        false
    }

    /// Accepts one event. Only called when
    /// [`Instrument::events_live`] is `true`.
    #[inline(always)]
    fn record(&mut self, event: ObsEvent) {
        let _ = event;
    }

    /// Whether this instrument wants counters and histograms. Engines
    /// hoist this into a local `bool` at entry, so a dead instrument
    /// pays nothing — not even the bookkeeping behind the numbers.
    #[inline(always)]
    fn counters_live(&self) -> bool {
        false
    }

    /// Adds `by` to the named monotonic counter.
    #[inline(always)]
    fn incr(&mut self, counter: &'static str, by: u64) {
        let _ = (counter, by);
    }

    /// Records one observation into the named histogram.
    #[inline(always)]
    fn observe(&mut self, histogram: &'static str, value: u64) {
        let _ = (histogram, value);
    }

    /// Folds a whole registry in (counters added, histograms merged
    /// bucket-wise). The batch engine's workers count into private
    /// registries and the calling thread merges them, in worker order,
    /// once the whole batch has succeeded.
    #[inline(always)]
    fn merge_counters(&mut self, counters: &MetricsRegistry) {
        let _ = counters;
    }

    /// Whether this instrument wants spans. Hot loops (per-packet spans)
    /// guard on this to skip even the argument construction.
    #[inline(always)]
    fn spans_live(&self) -> bool {
        false
    }

    /// Opens a span named `name` under `parent` (or as a root when
    /// `parent` is [`SpanId::NONE`]) and returns its id.
    #[inline(always)]
    fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let _ = (name, parent);
        SpanId::NONE
    }

    /// Closes the span `id` opened by this instrument. Ending
    /// [`SpanId::NONE`] is a no-op.
    #[inline(always)]
    fn end(&mut self, id: SpanId) {
        let _ = id;
    }

    /// A restore point for [`Instrument::truncate`].
    #[inline(always)]
    fn mark(&self) -> TraceMark {
        TraceMark::default()
    }

    /// Discards every span recorded after `mark`. Batch engines call
    /// this on error so failed batches record nothing.
    #[inline(always)]
    fn truncate(&mut self, mark: TraceMark) {
        let _ = mark;
    }

    /// Mints the instrument for scoped worker `tid` (worker index + 1;
    /// tid 0 is the calling thread).
    #[inline(always)]
    fn worker(&mut self, tid: u32) -> Self::Worker {
        let _ = tid;
        Self::Worker::default()
    }

    /// Folds a worker's instrument back in. Callers absorb post-join in
    /// worker order, keeping merged output deterministic up to
    /// timestamps.
    #[inline(always)]
    fn absorb(&mut self, worker: Self::Worker) {
        let _ = worker;
    }

    /// Opens a span and returns an RAII [`SpanGuard`] that closes it on
    /// drop. Nested spans are opened through [`SpanGuard::child`] or by
    /// passing [`SpanGuard::id`] as an explicit parent.
    fn span(&mut self, name: &'static str, parent: SpanId) -> SpanGuard<'_, Self>
    where
        Self: Sized,
    {
        let id = self.begin(name, parent);
        SpanGuard { inst: self, id }
    }
}

/// The dead instrument: every group off, every hook the trait's
/// `#[inline(always)]` default. Plain engine entry points pass it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NullInstrument;

impl Instrument for NullInstrument {
    type Worker = NullInstrument;
}

/// The events group: every event, in arrival order.
impl Instrument for Recorder {
    type Worker = NullInstrument;

    #[inline]
    fn events_live(&self) -> bool {
        true
    }

    #[inline]
    fn record(&mut self, event: ObsEvent) {
        Recorder::record(self, event);
    }
}

/// The counters group: named counters and histograms, name-ordered.
impl Instrument for MetricsRegistry {
    type Worker = NullInstrument;

    #[inline]
    fn counters_live(&self) -> bool {
        true
    }

    #[inline]
    fn incr(&mut self, counter: &'static str, by: u64) {
        MetricsRegistry::incr(self, counter, by);
    }

    #[inline]
    fn observe(&mut self, histogram: &'static str, value: u64) {
        MetricsRegistry::observe(self, histogram, value);
    }

    fn merge_counters(&mut self, counters: &MetricsRegistry) {
        MetricsRegistry::absorb(self, counters);
    }
}

/// RAII guard returned by [`Instrument::span`]: holds the instrument
/// borrow for the span's extent and closes the span on drop, so a span
/// cannot leak open past its lexical scope.
#[derive(Debug)]
pub struct SpanGuard<'a, I: Instrument> {
    inst: &'a mut I,
    id: SpanId,
}

impl<I: Instrument> SpanGuard<'_, I> {
    /// The guarded span's id — pass this as the explicit parent when
    /// spans must cross a function or thread boundary.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Opens a child span under this one, returning its guard. The
    /// child borrows through this guard, so it must close first — the
    /// borrow checker enforces proper nesting.
    pub fn child(&mut self, name: &'static str) -> SpanGuard<'_, I> {
        let id = self.inst.begin(name, self.id);
        SpanGuard {
            inst: self.inst,
            id,
        }
    }
}

impl<I: Instrument> Drop for SpanGuard<'_, I> {
    fn drop(&mut self) {
        self.inst.end(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_instrument_ignores_events() {
        let mut null = NullInstrument;
        assert!(!null.events_live());
        null.record(ObsEvent::VolleyStart { index: 0 }); // must be a no-op
    }

    #[test]
    fn null_instrument_ignores_counters() {
        let mut null = NullInstrument;
        assert!(!null.counters_live());
        null.incr("x", 1); // must be no-ops
        null.observe("y", 2);
        null.merge_counters(&MetricsRegistry::new());
    }

    #[test]
    fn each_collector_is_live_for_its_own_group_only() {
        let recorder = Recorder::new();
        let registry = MetricsRegistry::new();
        let buffer = crate::TraceBuffer::new();
        assert!(recorder.events_live() && !recorder.counters_live() && !recorder.spans_live());
        assert!(!registry.events_live() && registry.counters_live() && !registry.spans_live());
        assert!(!buffer.events_live() && !buffer.counters_live() && buffer.spans_live());
    }

    #[test]
    fn collectors_accept_their_group_through_the_trait() {
        fn feed<I: Instrument>(inst: &mut I) {
            if inst.events_live() {
                inst.record(ObsEvent::VolleyStart { index: 0 });
            }
            if inst.counters_live() {
                inst.incr("net.runs", 2);
                inst.observe("net.queue_peak_depth", 3);
                let mut other = MetricsRegistry::new();
                other.incr("net.runs", 1);
                inst.merge_counters(&other);
            }
            let _span = inst.span("compile", SpanId::NONE);
        }
        let mut recorder = Recorder::new();
        feed(&mut recorder);
        assert_eq!(recorder.len(), 1);
        let mut registry = MetricsRegistry::new();
        feed(&mut registry);
        assert_eq!(registry.counter("net.runs"), 3);
        assert_eq!(
            registry.histogram("net.queue_peak_depth").unwrap().count(),
            1
        );
        let mut buffer = crate::TraceBuffer::new();
        feed(&mut buffer);
        assert_eq!(buffer.len(), 1);
    }
}
