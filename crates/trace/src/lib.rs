//! `st-trace`: the workspace's one instrumentation hook surface,
//! [`Instrument`], and the hierarchical span profiler behind
//! `spacetime profile` — causal timelines, flamegraph export, self-time
//! attribution.
//!
//! Everything the paper computes is a *when* (§ III volley coding makes
//! spike timing the value itself). An engine run is observed three ways:
//! `st-obs` events say *what* happened (gate firings, wire falls, WTA
//! decisions), `st-metrics` counters say *how much* (including the § VI
//! transition-count energy proxy), and this crate's spans say **where
//! wall-clock time goes**: compile → lint → optimize (with the verifier's
//! proof obligations inside each pass) → plan build → batch and kernel
//! evaluation, as one tree of timed spans. All three reach an engine
//! through one parameter, `&mut impl Instrument`, whose three hook groups
//! are each guarded by a liveness check (see [`instrument`]).
//!
//! The design requirements:
//!
//! 1. **Zero overhead when off.** Every hook defaults to an
//!    `#[inline(always)]` no-op, and [`NullInstrument`] keeps them all;
//!    monomorphized engine code with a dead instrument is the
//!    uninstrumented code, and the workspace property suite pins
//!    instrumented and plain runs bit-identical.
//! 2. **Causal across threads.** Spans carry explicit parent
//!    [`SpanId`]s, so batch chunks and kernel packets recorded in
//!    per-worker [`TraceBuffer`]s nest under the dispatching stage span
//!    across `std::thread::scope`; the caller absorbs worker buffers
//!    post-join in worker order.
//! 3. **Renderable three ways.** [`collapsed_stacks`] emits
//!    inferno-compatible flamegraph text, [`chrome_spans`] emits
//!    properly-nested Chrome `trace_event` B/E pairs with pid/tid, and
//!    [`top_table`] renders per-name self-time attribution.
//!
//! # Span vocabulary
//!
//! | Span | Recorded by |
//! |---|---|
//! | `compile` | CLI artifact construction |
//! | `lint.pass.*` | each `st-lint` graph pass |
//! | `opt.pass.*` | each verified optimizer pass (`st-opt`) |
//! | `verify.check_equiv` | the proof obligation gating a pass |
//! | `verify.window` | each input extent enumerated by the prover |
//! | `plan.build` | `st-kernel` plan construction |
//! | `batch.eval` | one batch dispatch (the volley stage) |
//! | `batch.chunk` | one worker's contiguous chunk |
//! | `kernel.packet` | one 8-volley SWAR packet |
//!
//! # Example
//!
//! ```
//! use st_trace::{collapsed_stacks, Instrument, SpanId, TraceBuffer};
//!
//! let mut trace = TraceBuffer::new();
//! {
//!     let mut compile = trace.span("compile", SpanId::NONE);
//!     let _plan = compile.child("plan.build");
//! }
//! let records = trace.into_records();
//! assert!(collapsed_stacks(&records).contains("compile;plan.build"));
//! ```

pub mod instrument;
mod render;
mod span;

pub use instrument::{Instrument, NullInstrument, SpanGuard};

pub use render::{
    chrome_spans, collapsed_stacks, self_times, span_counts, spans_jsonl, top_rows, top_table,
    well_formed, TopRow,
};
pub use span::{SpanId, SpanRecord, TraceBuffer, TraceMark, OPEN};

/// [`Instrument`] under its old name, kept for `benchmark/`, which
/// writes `T: Tracer` bounds. New code names [`Instrument`].
pub use instrument::Instrument as Tracer;
/// [`NullInstrument`] under its old name, kept for `benchmark/`. New
/// code names [`NullInstrument`].
pub use instrument::NullInstrument as NullTracer;
