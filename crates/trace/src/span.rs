//! Span identity, records and the collecting [`TraceBuffer`]: the spans
//! group of [`Instrument`].
//!
//! Spans carry explicit parent [`SpanId`]s, so a caller can open a span,
//! hand its id across a `std::thread::scope` boundary, and have every
//! worker's `batch.chunk` and `kernel.packet` span nest under the
//! dispatching stage span even though the workers append into private
//! per-thread buffers. After join, the calling thread
//! [`absorb`](Instrument::absorb)s the worker buffers in worker order —
//! the same determinism discipline the batch engine keeps for counters.

use std::time::Instant;

use crate::instrument::Instrument;

/// Sentinel `end_nanos` for a span that has not closed yet.
pub const OPEN: u64 = u64::MAX;

/// Bits reserved for per-buffer sequence numbers; each spawned worker
/// buffer allocates ids in its own `namespace << ID_NAMESPACE_BITS`
/// range, so ids stay unique after [`Instrument::absorb`] without any
/// cross-thread coordination.
const ID_NAMESPACE_BITS: u32 = 40;

/// Identifier of one recorded span. `SpanId::NONE` (zero) means "no
/// span": it is what a dead instrument mints and what roots use as
/// parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(u64);

impl SpanId {
    /// The absent span: root parents and everything a dead instrument
    /// returns.
    pub const NONE: SpanId = SpanId(0);

    /// Rebuilds an id from its raw value (0 = none) — for fixtures and
    /// tooling that re-ingests the JSONL dump.
    #[must_use]
    pub fn from_raw(raw: u64) -> SpanId {
        SpanId(raw)
    }

    /// `true` if this is [`SpanId::NONE`].
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The raw id value (0 = none).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One completed (or still-open) span: a named interval on a thread's
/// monotonic clock, with an explicit parent edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id (never [`SpanId::NONE`]).
    pub id: SpanId,
    /// The enclosing span, or [`SpanId::NONE`] for a root. The parent
    /// may live in a *different* thread's buffer — that is how chunk
    /// spans nest under the stage span that dispatched them.
    pub parent: SpanId,
    /// Span name from the typed vocabulary (`compile`, `opt.pass.*`,
    /// `batch.chunk`, `kernel.packet`, ...).
    pub name: &'static str,
    /// Logical thread id: 0 for the calling thread, worker index + 1
    /// for scoped batch workers.
    pub tid: u32,
    /// Start offset in nanoseconds from the buffer's shared origin.
    pub start_nanos: u64,
    /// End offset, or [`OPEN`] while the span is still running.
    pub end_nanos: u64,
}

impl SpanRecord {
    /// `true` once the span has closed.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.end_nanos != OPEN
    }

    /// Wall-clock duration in nanoseconds (0 for open spans).
    #[must_use]
    pub fn duration_nanos(&self) -> u64 {
        if self.is_closed() {
            self.end_nanos.saturating_sub(self.start_nanos)
        } else {
            0
        }
    }
}

/// Restore point for [`Instrument::truncate`]: everything recorded after
/// the mark is discarded, so failed batches record nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceMark {
    own: usize,
    absorbed: usize,
}

/// The concrete collector: a per-thread append-only span buffer with
/// monotonic timestamps measured from a shared origin instant.
///
/// A profiling run owns one root buffer (tid 0). Parallel stages mint
/// one [`TraceBuffer::worker`] per scoped thread; workers append
/// privately and the caller absorbs them post-join. Timestamps within a
/// buffer are strictly increasing (equal clock readings are nudged
/// forward a nanosecond), so within one thread parents strictly enclose
/// their children.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    origin: Instant,
    tid: u32,
    namespace: u64,
    next_seq: u64,
    spawned: u64,
    last_nanos: u64,
    own: Vec<SpanRecord>,
    absorbed: Vec<SpanRecord>,
}

impl TraceBuffer {
    /// A fresh root buffer (tid 0) whose clock starts now.
    #[must_use]
    pub fn new() -> TraceBuffer {
        TraceBuffer::with_namespace(Instant::now(), 0, 0)
    }

    fn with_namespace(origin: Instant, tid: u32, namespace: u64) -> TraceBuffer {
        TraceBuffer {
            origin,
            tid,
            namespace,
            next_seq: 0,
            spawned: 0,
            last_nanos: 0,
            own: Vec::new(),
            absorbed: Vec::new(),
        }
    }

    /// Nanoseconds elapsed since the shared origin, nudged to stay
    /// strictly increasing within this buffer.
    fn now(&mut self) -> u64 {
        let nanos = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX - 1);
        self.last_nanos = nanos.max(self.last_nanos + 1);
        self.last_nanos
    }

    /// All records — own plus absorbed — in recording order.
    #[must_use]
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut all = self.own.clone();
        all.extend(self.absorbed.iter().copied());
        all
    }

    /// Consumes the buffer, returning every record sorted by start time
    /// (ties broken by id) — the order renderers expect.
    #[must_use]
    pub fn into_records(mut self) -> Vec<SpanRecord> {
        self.own.append(&mut self.absorbed);
        self.own
            .sort_by_key(|record| (record.start_nanos, record.id));
        self.own
    }

    /// Number of recorded spans (own plus absorbed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.own.len() + self.absorbed.len()
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.own.is_empty() && self.absorbed.is_empty()
    }
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::new()
    }
}

impl Instrument for TraceBuffer {
    type Worker = TraceBuffer;

    #[inline]
    fn spans_live(&self) -> bool {
        true
    }

    fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = SpanId(self.namespace + seq + 1);
        let start_nanos = self.now();
        self.own.push(SpanRecord {
            id,
            parent,
            name,
            tid: self.tid,
            start_nanos,
            end_nanos: OPEN,
        });
        id
    }

    fn end(&mut self, id: SpanId) {
        if id.is_none() {
            return;
        }
        let end_nanos = self.now();
        let record = (id.0 - 1)
            .checked_sub(self.namespace)
            .and_then(|seq| usize::try_from(seq).ok())
            .and_then(|seq| self.own.get_mut(seq));
        // Out-of-range ids are ignored: a span opened after a mark may
        // have been truncated away before its guard dropped, and an id
        // from another buffer's namespace is not ours to close.
        if let Some(record) = record {
            debug_assert_eq!(record.id, id, "span id {id:?} not from this buffer");
            debug_assert!(!record.is_closed(), "span {id:?} ended twice");
            record.end_nanos = end_nanos;
        }
    }

    /// Worker buffers share the origin instant and take the next free
    /// id namespace, so a second parallel stage in the same run cannot
    /// collide with the first even though both label workers 1..=N.
    fn worker(&mut self, tid: u32) -> TraceBuffer {
        self.spawned += 1;
        let namespace = (self.namespace >> ID_NAMESPACE_BITS) + self.spawned;
        TraceBuffer::with_namespace(self.origin, tid, namespace << ID_NAMESPACE_BITS)
    }

    fn absorb(&mut self, worker: TraceBuffer) {
        self.spawned += worker.spawned;
        self.absorbed.extend(worker.own);
        self.absorbed.extend(worker.absorbed);
    }

    fn mark(&self) -> TraceMark {
        TraceMark {
            own: self.own.len(),
            absorbed: self.absorbed.len(),
        }
    }

    fn truncate(&mut self, mark: TraceMark) {
        self.own.truncate(mark.own);
        self.absorbed.truncate(mark.absorbed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_disabled_and_free() {
        let mut t = crate::NullInstrument;
        assert!(!t.spans_live());
        let id = t.begin("compile", SpanId::NONE);
        assert!(id.is_none());
        t.end(id);
        let w = t.worker(1);
        t.absorb(w);
        let mark = t.mark();
        t.truncate(mark);
        let guard = t.span("compile", SpanId::NONE);
        assert!(guard.id().is_none());
    }

    #[test]
    fn guards_nest_and_close_in_reverse_order() {
        let mut buffer = TraceBuffer::new();
        {
            let mut root = buffer.span("compile", SpanId::NONE);
            let _inner = root.child("plan.build");
        }
        let records = buffer.into_records();
        assert_eq!(records.len(), 2);
        let (outer, inner) = (&records[0], &records[1]);
        assert_eq!(outer.name, "compile");
        assert_eq!(inner.parent, outer.id);
        assert!(outer.is_closed() && inner.is_closed());
        // Strict enclosure on one thread: nudged monotonic timestamps.
        assert!(outer.start_nanos < inner.start_nanos);
        assert!(inner.end_nanos < outer.end_nanos);
    }

    #[test]
    fn worker_buffers_keep_ids_unique_and_parents_cross_threads() {
        let mut root = TraceBuffer::new();
        let stage = root.begin("batch.eval", SpanId::NONE);
        let mut first = root.worker(1);
        let mut second = root.worker(2);
        let a = first.begin("batch.chunk", stage);
        let b = second.begin("batch.chunk", stage);
        assert_ne!(a, b);
        first.end(a);
        second.end(b);
        root.absorb(first);
        root.absorb(second);
        root.end(stage);
        // A later stage's workers must not reuse the first stage's ids.
        let mut third = root.worker(1);
        let c = third.begin("batch.chunk", stage);
        assert!(c != a && c != b);
        third.end(c);
        root.absorb(third);

        let records = root.into_records();
        assert_eq!(records.len(), 4);
        let mut ids: Vec<u64> = records.iter().map(|r| r.id.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "span ids must stay unique after absorb");
        assert!(records.iter().all(SpanRecord::is_closed));
        assert_eq!(
            records
                .iter()
                .filter(|r| r.parent == stage && r.name == "batch.chunk")
                .count(),
            3
        );
    }

    #[test]
    fn truncate_discards_spans_recorded_after_the_mark() {
        let mut buffer = TraceBuffer::new();
        let kept = buffer.begin("compile", SpanId::NONE);
        buffer.end(kept);
        let mark = buffer.mark();
        let dropped = buffer.begin("batch.chunk", SpanId::NONE);
        let mut w = buffer.worker(1);
        let wid = w.begin("kernel.packet", dropped);
        w.end(wid);
        buffer.absorb(w);
        buffer.end(dropped);
        buffer.truncate(mark);
        let records = buffer.into_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "compile");
    }

    #[test]
    fn ending_another_buffers_id_is_ignored() {
        let mut root = TraceBuffer::new();
        let kept = root.begin("batch.eval", SpanId::NONE);
        // A worker's namespace starts above every root id, so a root id
        // lies below it and must not wrap around.
        let mut worker = root.worker(1);
        worker.end(kept);
        worker.end(SpanId::from_raw(1));
        assert!(worker.is_empty());
        root.end(kept);
        assert!(root.records()[0].is_closed());
    }
}
