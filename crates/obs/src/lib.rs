//! # st-obs — unified observability for the space-time stack
//!
//! The paper's constructions are all *temporal*: the interesting behavior
//! is **when** each wire falls, each neuron fires, each WTA winner is
//! chosen. This crate gives every engine in the workspace one shared way
//! to expose those moments without paying for them when nobody is
//! watching:
//!
//! | Module | Contents |
//! |---|---|
//! | [`probe`] | the collecting [`Recorder`] |
//! | [`event`] | the typed [`ObsEvent`] vocabulary every engine shares |
//! | [`export`] | spike-raster CSV, JSONL, Chrome `trace_event` exporters |
//! | [`stats`] | [`RunStats`] run summaries (spikes/volley, winner histograms, latency percentiles) |
//!
//! Engines report events through the events group of
//! `st_trace::Instrument` — the one hook surface that also carries
//! `st-metrics` counters and `st-trace` spans — and `st-trace` implements
//! that group for [`Recorder`].
//!
//! ## The zero-overhead contract
//!
//! An engine's `*_with` entry point guards every event construction
//! behind the instrument's `events_live` check; its plain entry point
//! passes `st_trace::NullInstrument`, whose hooks are `#[inline(always)]`
//! constants, so the optimizer erases the instrumentation entirely. The
//! workspace property suite pins the semantic half of the contract: a
//! [`Recorder`]-instrumented run returns bit-identical results to an
//! uninstrumented one, across every engine and any thread count.
//!
//! ## Example
//!
//! ```
//! use st_obs::{spike_raster_csv, ObsEvent, Recorder, RunStats};
//! use st_core::Time;
//!
//! // An engine records what happened…
//! let mut recorder = Recorder::new();
//! recorder.begin_volley(0);
//! recorder.record(ObsEvent::GateFired { gate: 2, op: "min", at: Time::finite(3) });
//!
//! // …and the same trace renders as a raster or aggregates into stats.
//! assert!(spike_raster_csv(recorder.events()).contains("0,3,net,gate2:min"));
//! let stats = RunStats::from_events(recorder.events());
//! assert_eq!(stats.spikes, 1);
//! ```

pub mod event;
pub mod export;
pub mod probe;
pub mod stats;

pub use event::ObsEvent;
pub use export::{
    chrome_trace, events_jsonl, events_jsonl_with_dropped, spike_raster_csv, JSONL_SCHEMA,
};
pub use probe::Recorder;
pub use stats::RunStats;
