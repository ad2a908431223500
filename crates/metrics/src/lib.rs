//! `st-metrics`: engine performance counters, histograms, and the bench
//! report schema for the space-time computing workspace.
//!
//! Where `st-obs` answers *what happened* (event streams, rasters,
//! traces), this crate answers *how much and how fast*: every engine
//! reports, through the counters group of the workspace's one
//! instrumentation surface (`st_trace::Instrument`), named monotonic
//! counters (gate evaluations, event-queue traffic, GRL wire transitions
//! — the ISCA 2018 paper's energy proxy — SRM0 potential updates, STDP
//! weight deltas) and fixed-bucket [`Histogram`]s (queue depth,
//! per-volley/per-chunk wall clocks), collected by a [`MetricsRegistry`].
//!
//! The design requirements, in order:
//!
//! 1. **Zero overhead when off.** Engines hoist the instrument's
//!    `counters_live` check into a local `bool`; with the dead
//!    `st_trace::NullInstrument` every metric branch constant-folds away
//!    (the workspace property suite pins instrumented and plain runs
//!    bit-identical).
//! 2. **Deterministic under parallelism.** Batch workers aggregate into
//!    private [`MetricsRegistry`] instances; the calling thread
//!    [`absorb`](MetricsRegistry::absorb)s them in worker order after join.
//!    Histogram [`merge`](Histogram::merge) is associative and
//!    commutative, registries iterate name-ordered — so snapshots are
//!    identical run-to-run regardless of scheduling.
//! 3. **Machine-readable.** [`MetricsSnapshot::to_prom_text`] renders
//!    Prometheus exposition text; [`BenchReport`] round-trips the
//!    schema-versioned `BENCH_<label>.json` the `spacetime bench`
//!    harness writes, and [`compare`] gates regressions against a
//!    committed baseline.

pub mod hist;
pub mod prom;
pub mod registry;
pub mod report;
pub mod trend;

pub use hist::{bucket_index, bucket_upper_bound, nearest_rank, Histogram, BUCKET_COUNT};
pub use prom::{prom_help, prom_name, MetricsSnapshot};
pub use registry::MetricsRegistry;
pub use report::{
    compare, BenchReport, CompareOutcome, CompareRow, HistSummary, MachineInfo, Scenario,
    WallStats, SCHEMA,
};
pub use trend::{parse_history, render_trend, TrendRow, TREND_SCHEMA};
