//! Parallel batched volley evaluation across the workspace's engines.
//!
//! Every engine in the workspace follows the same shape: *compile* a
//! specification once (normalize a table, prepare a gate network,
//! lower to a race-logic netlist), then *evaluate* it against many input
//! volleys. The per-volley loops scattered through the experiment binaries
//! redo the compile step each iteration and run on one core; this module
//! hoists compilation out of the hot path and fans evaluation out across
//! worker threads.
//!
//! [`CompiledArtifact`] is the compile-once half: one enum over the five
//! evaluable forms (normalized function table, gate network, SRM0/WTA
//! column, GRL netlist, flattened SWAR kernel plan), each stored in its
//! pre-indexed representation. [`Engine`] names the five, and
//! [`CompiledArtifact::select`] compiles a parsed artifact file for one
//! of them, refusing the pairings that engine cannot run.
//! [`BatchEvaluator`] is the evaluate-many half: it splits a
//! [`VolleyBatch`] — one row-major array of same-width volleys — into
//! contiguous chunks of rows, one per worker thread (`std::thread::scope`,
//! no dependencies), and evaluates each chunk against the shared artifact
//! straight into the matching rows of one preallocated output batch.
//! [`BatchEvaluator::eval_with`] runs that loop under one
//! [`Instrument`], which sees timing events, engine counters and chunk
//! spans at once; [`BatchEvaluator::eval_batch`] runs it uninstrumented.
//! The `&[Volley]` entry point [`BatchEvaluator::eval`] stages its volleys
//! as a batch and calls the same loop.
//!
//! Results are **bit-identical to the sequential engines** regardless of
//! thread count — each output is a pure function of one input volley, so
//! parallelism never reorders anything observable. The cross-engine
//! property suite (`tests/cross_properties.rs`) pins this down at 1, 2,
//! and N threads.
//!
//! ```
//! use spacetime::batch::{BatchEvaluator, CompiledArtifact};
//! use spacetime::core::{FunctionTable, Time, Volley, VolleyBatch};
//!
//! let table = FunctionTable::parse("0 1 2 -> 3\n1 0 ∞ -> 2\n2 2 0 -> 2\n")?;
//! let artifact = CompiledArtifact::from(table.compile());
//! let t = Time::finite;
//! let volleys = VolleyBatch::parse("3 4 5\n1 0 inf\n", "volleys.txt", 3)?;
//! let outputs = BatchEvaluator::with_threads(2).eval_batch(&artifact, &volleys)?;
//! assert_eq!(outputs.row(0), &[t(6)]);
//! assert_eq!(outputs.row(1), &[t(2)]);
//!
//! // The same through the one-Vec-per-volley adapter.
//! let volleys = vec![Volley::new(vec![t(3), t(4), t(5)])];
//! let outputs = BatchEvaluator::with_threads(2).eval(&artifact, &volleys)?;
//! assert_eq!(outputs[0].times(), &[t(6)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::str::FromStr;
use std::time::Instant;

pub use st_core::BatchError;
use st_core::{lane, CompiledTable, CoreError, FunctionTable, Time, Volley, VolleyBatch};
use st_grl::{compile_network, GrlNetlist, GrlSim};
use st_kernel::{PacketStats, Plan, Scratch};
use st_metrics::MetricsRegistry;
use st_net::synth::{synthesize, SynthesisOptions};
use st_net::{CompiledNetwork, EventSim, NetScratch, Network};
use st_obs::ObsEvent;
use st_tnn::Column;
use st_trace::{Instrument, NullInstrument, SpanId};
use st_verify::{Artifact, Kind};

/// The five evaluation engines, one per [`CompiledArtifact`] form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The compiled function table.
    Table,
    /// The event-driven gate network.
    Net,
    /// The cycle-accurate race-logic netlist.
    Grl,
    /// The SRM0 column.
    Column,
    /// The flattened SWAR plan.
    Kernel,
}

impl Engine {
    const ALL: [Engine; 5] = [
        Engine::Table,
        Engine::Net,
        Engine::Grl,
        Engine::Column,
        Engine::Kernel,
    ];

    /// The lowercase engine name, as `--engine` takes it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Table => "table",
            Engine::Net => "net",
            Engine::Grl => "grl",
            Engine::Column => "column",
            Engine::Kernel => "kernel",
        }
    }

    /// The engine that runs an artifact of `kind` as written: the table
    /// engine for a table, the net engine for a netlist, the column engine
    /// for a column.
    #[must_use]
    pub fn native(kind: Kind) -> Engine {
        match kind {
            Kind::Table => Engine::Table,
            Kind::Net => Engine::Net,
            Kind::Column => Engine::Column,
        }
    }

    /// Whether the engine evaluates a gate network (net, grl, kernel).
    #[must_use]
    pub fn is_gate_level(self) -> bool {
        matches!(self, Engine::Net | Engine::Grl | Engine::Kernel)
    }

    /// The error for an artifact this engine cannot run.
    #[must_use]
    pub fn cannot_run(self, kind: Kind) -> String {
        format!("the {self} engine cannot run a {kind} file")
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        Engine::ALL
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| format!("unknown engine {s:?}; expected table|net|grl|column|kernel"))
    }
}

/// A specification compiled into its evaluate-many form.
///
/// Construct via the `From` impls (when you already hold the compiled
/// representation) or the `from_*` helpers (which run the compile step for
/// you). The artifact is immutable, so one instance can back any number of
/// concurrent [`BatchEvaluator::eval`] calls.
#[derive(Debug, Clone)]
pub enum CompiledArtifact {
    /// A normalized function table, indexed by finite-support mask
    /// ([`FunctionTable::compile`]). Outputs are width-1 volleys.
    Table(CompiledTable),
    /// A gate network prepared for repeated runs ([`EventSim::compile`]).
    Network(CompiledNetwork),
    /// An SRM0 column with lateral inhibition ([`Column::eval`]).
    Column(Column),
    /// A race-logic netlist, cycle-accurately simulated ([`GrlSim`]).
    Grl(GrlNetlist),
    /// A flattened SWAR execution plan ([`Plan`]). Batches whose inputs
    /// fit the plan's lane bound take the eight-volleys-per-packet SWAR
    /// path; everything else falls back to the bit-identical scalar
    /// plan evaluator.
    Kernel(Plan),
}

impl CompiledArtifact {
    /// Compiles a function table (see [`FunctionTable::compile`]).
    #[must_use]
    pub fn from_table(table: &FunctionTable) -> CompiledArtifact {
        CompiledArtifact::Table(table.compile())
    }

    /// Prepares a network for repeated runs (see [`EventSim::compile`]).
    #[must_use]
    pub fn from_network(network: &Network) -> CompiledArtifact {
        CompiledArtifact::Network(EventSim::new().compile(network))
    }

    /// Lowers a network to a GRL netlist (see [`compile_network`]).
    ///
    /// # Panics
    ///
    /// Panics on a gate kind with no CMOS mapping; use
    /// [`CompiledArtifact::try_from_grl_network`] when the network comes
    /// from outside the workspace builders.
    #[must_use]
    pub fn from_grl_network(network: &Network) -> CompiledArtifact {
        CompiledArtifact::Grl(compile_network(network))
    }

    /// Fallible [`CompiledArtifact::from_grl_network`]: an unsupported
    /// gate kind comes back as an error naming the gate.
    ///
    /// # Errors
    ///
    /// The rendered [`st_grl::GrlCompileError`] when a gate has no CMOS
    /// mapping.
    pub fn try_from_grl_network(network: &Network) -> Result<CompiledArtifact, String> {
        st_grl::try_compile_network(network)
            .map(CompiledArtifact::Grl)
            .map_err(|e| e.to_string())
    }

    /// Flattens a network into a SWAR execution plan (see
    /// [`Plan::from_network`]).
    #[must_use]
    pub fn from_kernel_network(network: &Network) -> CompiledArtifact {
        CompiledArtifact::Kernel(Plan::from_network(network))
    }

    /// Flattens a race-logic netlist into a SWAR execution plan (see
    /// [`Plan::from_grl`]).
    #[must_use]
    pub fn from_kernel_grl(netlist: &GrlNetlist) -> CompiledArtifact {
        CompiledArtifact::Kernel(Plan::from_grl(netlist))
    }

    /// Compiles `artifact` for `engine`: a table runs on the table engine
    /// and, through its Theorem 1 synthesis, on the gate-level engines; a
    /// netlist runs on the gate-level engines; a column runs on the
    /// column engine.
    ///
    /// # Errors
    ///
    /// [`Engine::cannot_run`] for any other pairing, or the GRL lowering
    /// error for a gate with no CMOS mapping.
    pub fn select(engine: Engine, artifact: &Artifact) -> Result<CompiledArtifact, String> {
        CompiledArtifact::select_traced(engine, artifact, &mut NullInstrument, SpanId::NONE)
    }

    /// [`CompiledArtifact::select`] with the kernel engine's plan build
    /// recorded as a `plan.build` span under `parent`.
    ///
    /// # Errors
    ///
    /// As [`CompiledArtifact::select`].
    pub fn select_traced(
        engine: Engine,
        artifact: &Artifact,
        tracer: &mut impl Instrument,
        parent: SpanId,
    ) -> Result<CompiledArtifact, String> {
        let synthesized;
        let network = match (engine, artifact) {
            (Engine::Table, Artifact::Table(table)) => return Ok(Self::from_table(table)),
            (Engine::Column, Artifact::Column(column)) => return Ok(column.clone().into()),
            (_, Artifact::Table(table)) if engine.is_gate_level() => {
                synthesized = synthesize(table, SynthesisOptions::default());
                &synthesized
            }
            (_, Artifact::Net(network)) if engine.is_gate_level() => network,
            _ => return Err(engine.cannot_run(artifact.kind())),
        };
        Ok(match engine {
            Engine::Grl => Self::try_from_grl_network(network)?,
            Engine::Kernel => Plan::from_network_traced(network, tracer, parent).into(),
            _ => Self::from_network(network),
        })
    }

    /// The input width every volley must have.
    #[must_use]
    pub fn input_width(&self) -> usize {
        match self {
            CompiledArtifact::Table(t) => t.arity(),
            CompiledArtifact::Network(n) => n.input_count(),
            CompiledArtifact::Column(c) => c.input_width(),
            CompiledArtifact::Grl(g) => g.input_count(),
            CompiledArtifact::Kernel(p) => p.input_count(),
        }
    }

    /// The width of each output volley.
    #[must_use]
    pub fn output_width(&self) -> usize {
        match self {
            CompiledArtifact::Table(_) => 1,
            CompiledArtifact::Network(n) => n.output_count(),
            CompiledArtifact::Column(c) => c.output_width(),
            CompiledArtifact::Grl(g) => g.outputs().len(),
            CompiledArtifact::Kernel(p) => p.output_width(),
        }
    }

    /// Evaluates one volley sequentially — the unit of work the batch
    /// engine distributes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if the volley's width differs
    /// from [`CompiledArtifact::input_width`].
    pub fn eval_one(&self, volley: &Volley) -> Result<Volley, CoreError> {
        self.eval_one_with(volley, &mut NullInstrument)
    }

    /// [`CompiledArtifact::eval_one`] under an instrument: routes to the
    /// engine's `*_with` entry point (its events and its `net.*`,
    /// `grl.*`, `kernel.*` or `srm0.*`/`tnn.*` counters) or, for function
    /// tables, counts `table.lookups`. With [`NullInstrument`] this
    /// compiles to exactly [`CompiledArtifact::eval_one`]; results are
    /// identical for any instrument.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if the volley's width differs
    /// from [`CompiledArtifact::input_width`].
    pub fn eval_one_with(
        &self,
        volley: &Volley,
        inst: &mut impl Instrument,
    ) -> Result<Volley, CoreError> {
        let mut out = vec![Time::INFINITY; self.output_width()];
        self.eval_row(volley.times(), &mut out, &mut NetScratch::default(), inst)?;
        Ok(Volley::new(out))
    }

    /// Evaluates one row of input times into `out`, one
    /// [`CompiledArtifact::output_width`]-wide output row; a gate network
    /// keeps its firing times in `scratch`, which callers reuse across
    /// rows.
    fn eval_row(
        &self,
        row: &[Time],
        out: &mut [Time],
        scratch: &mut NetScratch,
        inst: &mut impl Instrument,
    ) -> Result<(), CoreError> {
        match self {
            CompiledArtifact::Table(t) => {
                out[0] = t.eval(row)?;
                if inst.counters_live() {
                    inst.incr("table.lookups", 1);
                }
            }
            CompiledArtifact::Network(n) => n.eval_into(row, out, scratch, inst)?,
            CompiledArtifact::Column(c) => out.copy_from_slice(c.eval_with(row, inst)?.times()),
            CompiledArtifact::Grl(g) => {
                out.copy_from_slice(&GrlSim::new().run_with(g, row, inst)?.outputs);
            }
            CompiledArtifact::Kernel(p) => out.copy_from_slice(&p.eval_with(row, inst)?),
        }
        Ok(())
    }
}

impl From<CompiledTable> for CompiledArtifact {
    fn from(table: CompiledTable) -> CompiledArtifact {
        CompiledArtifact::Table(table)
    }
}

impl From<CompiledNetwork> for CompiledArtifact {
    fn from(network: CompiledNetwork) -> CompiledArtifact {
        CompiledArtifact::Network(network)
    }
}

impl From<Column> for CompiledArtifact {
    fn from(column: Column) -> CompiledArtifact {
        CompiledArtifact::Column(column)
    }
}

impl From<GrlNetlist> for CompiledArtifact {
    fn from(netlist: GrlNetlist) -> CompiledArtifact {
        CompiledArtifact::Grl(netlist)
    }
}

impl From<Plan> for CompiledArtifact {
    fn from(plan: Plan) -> CompiledArtifact {
        CompiledArtifact::Kernel(plan)
    }
}

/// Multi-threaded evaluate-many engine over a [`CompiledArtifact`].
///
/// The batch is split into contiguous chunks, one per worker; workers
/// write into disjoint slices of the output vector, so no locks or
/// channels are involved and the output order equals the input order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEvaluator {
    threads: usize,
}

impl Default for BatchEvaluator {
    fn default() -> BatchEvaluator {
        BatchEvaluator::new()
    }
}

impl BatchEvaluator {
    /// An evaluator using all available cores
    /// ([`std::thread::available_parallelism`]; 1 if unknown).
    #[must_use]
    pub fn new() -> BatchEvaluator {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        BatchEvaluator { threads }
    }

    /// An evaluator with an explicit worker count (clamped to ≥ 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> BatchEvaluator {
        BatchEvaluator {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates every row of `input` against the artifact into a new
    /// output batch, row `i` of which is the output of input row `i`.
    ///
    /// Spawns at most `min(threads, input.len())` scoped workers; a
    /// single-thread evaluator (or a single-volley batch) runs inline
    /// without spawning.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`BatchError`]: an input batch whose
    /// width is not [`CompiledArtifact::input_width`] fails at index 0,
    /// and a GRL netlist fails on a volley whose simulation horizon
    /// passes the largest finite time. The error is identical for every
    /// thread count.
    pub fn eval_batch(
        &self,
        artifact: &CompiledArtifact,
        input: &VolleyBatch,
    ) -> Result<VolleyBatch, BatchError> {
        let mut out = VolleyBatch::default();
        self.eval_with(artifact, input, &mut out, &mut NullInstrument, SpanId::NONE)?;
        Ok(out)
    }

    /// Evaluates every volley against the artifact, preserving order:
    /// [`BatchEvaluator::eval_batch`] for volleys held one `Vec` apiece.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`BatchError`] if any volley fails
    /// (in practice: a width mismatch against
    /// [`CompiledArtifact::input_width`]). The error is identical for
    /// every thread count.
    pub fn eval(
        &self,
        artifact: &CompiledArtifact,
        volleys: &[Volley],
    ) -> Result<Vec<Volley>, BatchError> {
        self.eval_volleys(artifact, volleys, &mut NullInstrument)
    }

    /// [`BatchEvaluator::eval`] counting into a [`MetricsRegistry`], kept
    /// for `benchmark/`. New code calls [`BatchEvaluator::eval_with`].
    ///
    /// # Errors
    ///
    /// As [`BatchEvaluator::eval`]; a failed batch records no metrics.
    pub fn eval_metered(
        &self,
        artifact: &CompiledArtifact,
        volleys: &[Volley],
        sink: &mut MetricsRegistry,
    ) -> Result<Vec<Volley>, BatchError> {
        self.eval_volleys(artifact, volleys, sink)
    }

    /// The `&[Volley]` adapter behind [`BatchEvaluator::eval`]: stages the
    /// volleys as a [`VolleyBatch`], runs [`BatchEvaluator::eval_with`],
    /// and splits the output batch back into volleys.
    ///
    /// A batch holds one width, so the volleys before the first
    /// wrong-width one are staged alone. A failure among them has the
    /// lower index and wins; otherwise the wrong-width volley is the
    /// error. Either way the failed batch records nothing.
    fn eval_volleys(
        &self,
        artifact: &CompiledArtifact,
        volleys: &[Volley],
        inst: &mut impl Instrument,
    ) -> Result<Vec<Volley>, BatchError> {
        let width = artifact.input_width();
        let rows = volleys
            .iter()
            .position(|v| v.width() != width)
            .unwrap_or(volleys.len());
        let input = VolleyBatch::from_fn(width, rows, |row, line| volleys[row].times()[line]);
        let ragged = volleys.get(rows).map(|volley| BatchError {
            index: rows,
            source: CoreError::ArityMismatch {
                expected: width,
                actual: volley.width(),
            },
        });
        let mut out = VolleyBatch::default();
        if let Some(error) = ragged {
            self.eval_with(
                artifact,
                &input,
                &mut out,
                &mut NullInstrument,
                SpanId::NONE,
            )?;
            return Err(error);
        }
        self.eval_with(artifact, &input, &mut out, inst, SpanId::NONE)?;
        Ok(out.to_volleys())
    }

    /// The one evaluation loop behind every entry point: evaluates each
    /// row of `input` into the matching row of `out`, which is reset to
    /// `input.len()` rows of [`CompiledArtifact::output_width`], under
    /// one instrument.
    ///
    /// A kernel artifact whose batch fits its lane bound (an O(1) check of
    /// the batch's recorded maximum) takes the eight-rows-per-packet SWAR
    /// path, a GRL netlist the bit-sliced 64-rows-per-word simulator
    /// ([`GrlSim::run_rows`], one call per chunk); every other batch runs
    /// each engine's row evaluator.
    ///
    /// On success the instrument gets, per live group:
    /// - events: one [`ObsEvent::VolleyTimed`] per volley (wall-clock
    ///   latency and output spike count), one [`ObsEvent::ChunkTiming`]
    ///   per worker and a closing `"eval"` [`ObsEvent::StageTiming`];
    /// - counters: the engine counters of
    ///   [`CompiledArtifact::eval_one_with`] (the `kernel.*` packet counts
    ///   on the SWAR path) plus `batch.volleys`, `batch.chunks` and the
    ///   `batch.volley_nanos`/`batch.chunk_nanos` histograms;
    /// - spans: one `batch.chunk` span per worker (with one
    ///   `kernel.packet` span per packet on the SWAR path) under
    ///   `parent`, the dispatching stage span whose id the caller carries
    ///   across the `std::thread::scope` boundary.
    ///
    /// Workers count into private registries and record spans into the
    /// private instruments minted by [`Instrument::worker`]; the calling
    /// thread merges them post-join in worker order and records the
    /// timing events after the join (volleys in index order, chunks in
    /// worker order), so events, counters and spans are deterministic for
    /// a given run, and engine counters identical at every thread count.
    /// Timestamps are captured only when some group is live; with
    /// [`NullInstrument`] this is exactly [`BatchEvaluator::eval_batch`].
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`BatchError`] (see
    /// [`BatchEvaluator::eval_batch`]) and leaves `out` empty; no timing
    /// events, metrics, or spans are recorded for a failed batch (spans
    /// are truncated back to their state at entry).
    pub fn eval_with(
        &self,
        artifact: &CompiledArtifact,
        input: &VolleyBatch,
        out: &mut VolleyBatch,
        inst: &mut impl Instrument,
        parent: SpanId,
    ) -> Result<(), BatchError> {
        let width = artifact.input_width();
        let result = if input.width() != width && !input.is_empty() {
            Err(BatchError {
                index: 0,
                source: CoreError::ArityMismatch {
                    expected: width,
                    actual: input.width(),
                },
            })
        } else {
            out.reset(artifact.output_width(), input.len());
            match artifact {
                CompiledArtifact::Kernel(plan)
                    if !input.is_empty() && plan.lane_capable_batch(input) =>
                {
                    let runner = Packets { plan, input };
                    self.fan_out(&runner, out, inst, parent)
                }
                CompiledArtifact::Grl(netlist) => {
                    let runner = GrlPacks { netlist, input };
                    self.fan_out(&runner, out, inst, parent)
                }
                _ => {
                    let runner = Rows { artifact, input };
                    self.fan_out(&runner, out, inst, parent)
                }
            }
        };
        match result {
            Ok(()) => out.refresh_max(),
            Err(_) => out.reset(artifact.output_width(), 0),
        }
        result
    }

    /// Splits the rows of `out` into contiguous chunks, one per worker
    /// (multiples of [`ChunkRunner::ALIGN`] rows), runs `runner` on each —
    /// inline for one worker, on scoped threads otherwise — and, once the
    /// whole batch has succeeded, records the timings, metrics and spans
    /// [`BatchEvaluator::eval_with`] describes.
    fn fan_out<R: ChunkRunner, I: Instrument>(
        &self,
        runner: &R,
        out: &mut VolleyBatch,
        inst: &mut I,
        parent: SpanId,
    ) -> Result<(), BatchError> {
        let enabled = inst.events_live();
        let metered = inst.counters_live();
        let timed = enabled || metered || inst.spans_live();
        let trace_mark = inst.mark();
        let stage_start = Instant::now(); // cheap; read only when timed
        let (rows, out_width) = (out.len(), out.width());
        let units = rows.div_ceil(R::ALIGN);
        let workers = self.threads.min(units).max(1);
        let mut chunks: Vec<Chunk> = Vec::with_capacity(workers);

        if workers == 1 {
            let mut chunk = ChunkInst::open(inst, metered, parent);
            let result = runner.run(0, rows, out.times_mut(), timed, &mut chunk);
            let registry = chunk.close();
            match result {
                Ok(timings) => chunks.push(Chunk {
                    worker: 0,
                    base: 0,
                    len: rows,
                    start_nanos: 0,
                    nanos: if timed {
                        stage_start.elapsed().as_nanos() as u64
                    } else {
                        0
                    },
                    timings,
                    registry,
                }),
                Err(error) => {
                    inst.truncate(trace_mark);
                    return Err(error);
                }
            }
        } else {
            let chunk_len = units.div_ceil(workers) * R::ALIGN;
            let failure = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for (w, (base, len, out_chunk)) in
                    row_chunks_mut(out.times_mut(), out_width, rows, chunk_len).enumerate()
                {
                    // The chunk span's parent is the dispatching stage span,
                    // carried across the scope boundary by explicit id.
                    let mut winst = inst.worker(w as u32 + 1);
                    handles.push(scope.spawn(move || {
                        let chunk_start = timed.then(Instant::now);
                        let mut chunk = ChunkInst::open(&mut winst, metered, parent);
                        let result = runner.run(base, len, out_chunk, timed, &mut chunk);
                        let registry = chunk.close();
                        let (start_nanos, nanos) = chunk_start.map_or((0, 0), |t0| {
                            (
                                (t0 - stage_start).as_nanos() as u64,
                                t0.elapsed().as_nanos() as u64,
                            )
                        });
                        let chunk = result.map(|timings| Chunk {
                            worker: w,
                            base,
                            len,
                            start_nanos,
                            nanos,
                            timings,
                            registry,
                        });
                        (chunk, winst)
                    }));
                }
                // Joining in worker order keeps the merge below
                // deterministic whichever worker finished first. A chunk
                // stops at its first failure; the lowest index wins.
                let mut failure: Option<BatchError> = None;
                for handle in handles {
                    let (chunk, winst) = handle.join().expect("batch worker panicked");
                    inst.absorb(winst);
                    match chunk {
                        Ok(chunk) => chunks.push(chunk),
                        Err(e) => {
                            failure = match failure.take() {
                                Some(best) if best.index < e.index => Some(best),
                                _ => Some(e),
                            };
                        }
                    }
                }
                failure
            });
            if let Some(error) = failure {
                // The whole batch fails, so its spans are truncated away.
                inst.truncate(trace_mark);
                return Err(error);
            }
        }

        // Chunks are in worker order and each chunk's timings in row
        // order, so the concatenation is in row order.
        let timings = || {
            chunks
                .iter()
                .flat_map(|chunk| chunk.timings.iter().copied())
        };
        if metered {
            let mut merged = MetricsRegistry::new();
            for registry in chunks.iter().filter_map(|chunk| chunk.registry.as_ref()) {
                merged.absorb(registry);
            }
            merged.incr("batch.volleys", rows as u64);
            merged.incr("batch.chunks", chunks.len() as u64);
            for (_, nanos, _) in timings() {
                merged.observe("batch.volley_nanos", nanos);
            }
            for chunk in &chunks {
                merged.observe("batch.chunk_nanos", chunk.nanos);
            }
            inst.merge_counters(&merged);
        }
        if enabled {
            for (index, nanos, spikes) in timings() {
                inst.record(ObsEvent::VolleyTimed {
                    index,
                    nanos,
                    spikes,
                });
            }
            for chunk in &chunks {
                inst.record(ObsEvent::ChunkTiming {
                    worker: chunk.worker,
                    start: chunk.base,
                    len: chunk.len,
                    start_nanos: chunk.start_nanos,
                    nanos: chunk.nanos,
                });
            }
            inst.record(ObsEvent::StageTiming {
                stage: "eval",
                start_nanos: 0,
                nanos: stage_start.elapsed().as_nanos() as u64,
            });
        }
        Ok(())
    }
}

/// One volley's wall-clock record: `(index, nanos, output spikes)`.
type Timing = (usize, u64, usize);

/// What one worker's chunk yielded.
struct Chunk {
    worker: usize,
    base: usize,
    len: usize,
    start_nanos: u64,
    nanos: u64,
    timings: Vec<Timing>,
    registry: Option<MetricsRegistry>,
}

/// What one chunk records into: its engine counters, kept apart until
/// the whole batch has succeeded, and its spans, recorded under its
/// `batch.chunk` span straight into `spans` (the caller's instrument
/// inline, the worker's on a scoped thread).
struct ChunkInst<'a, S> {
    counters: Option<MetricsRegistry>,
    spans: &'a mut S,
    span: SpanId,
}

impl<'a, S: Instrument> ChunkInst<'a, S> {
    /// Opens the chunk's `batch.chunk` span under `parent`, with a
    /// private registry when counters are live.
    fn open(spans: &'a mut S, metered: bool, parent: SpanId) -> ChunkInst<'a, S> {
        let span = spans.begin("batch.chunk", parent);
        ChunkInst {
            counters: metered.then(MetricsRegistry::new),
            spans,
            span,
        }
    }

    /// Closes the chunk span and hands back the chunk's counters.
    fn close(self) -> Option<MetricsRegistry> {
        self.spans.end(self.span);
        self.counters
    }
}

/// One evaluation strategy for [`BatchEvaluator::fan_out`]: evaluates a
/// contiguous chunk of input rows into the matching output rows.
trait ChunkRunner: Sync {
    /// Chunks are multiples of this many rows (the last one excepted).
    const ALIGN: usize;

    /// Evaluates rows `base..base + len` into `out` (their output rows),
    /// recording into `chunk` and, when `timed`, returning one [`Timing`]
    /// per row.
    fn run<S: Instrument>(
        &self,
        base: usize,
        len: usize,
        out: &mut [Time],
        timed: bool,
        chunk: &mut ChunkInst<'_, S>,
    ) -> Result<Vec<Timing>, BatchError>;
}

/// Every engine's own row evaluator, row by row (a gate network's firing
/// times in one buffer per chunk).
struct Rows<'a> {
    artifact: &'a CompiledArtifact,
    input: &'a VolleyBatch,
}

impl ChunkRunner for Rows<'_> {
    const ALIGN: usize = 1;

    fn run<S: Instrument>(
        &self,
        base: usize,
        len: usize,
        out: &mut [Time],
        timed: bool,
        chunk: &mut ChunkInst<'_, S>,
    ) -> Result<Vec<Timing>, BatchError> {
        let mut timings = Vec::with_capacity(if timed { len } else { 0 });
        let out_width = self.artifact.output_width();
        let mut scratch = NetScratch::default();
        for (offset, _, slot) in row_chunks_mut(out, out_width, len, 1) {
            let index = base + offset;
            let t0 = timed.then(Instant::now);
            let row = self.input.row(index);
            match chunk.counters.as_mut() {
                Some(registry) => self.artifact.eval_row(row, slot, &mut scratch, registry),
                None => self
                    .artifact
                    .eval_row(row, slot, &mut scratch, &mut NullInstrument),
            }
            .map_err(|source| BatchError { index, source })?;
            if let Some(t0) = t0 {
                timings.push((index, t0.elapsed().as_nanos() as u64, spikes(slot)));
            }
        }
        Ok(timings)
    }
}

/// The kernel's lane-packed path for batches within the plan's lane bound
/// (so it cannot fail — width and bound are pre-checked): eight rows per
/// packet, straight from the input batch into the output rows, one
/// `kernel.packet` span per packet. Chunks are **packet-aligned**, so the
/// packet partition — and with it every deterministic `kernel.*` counter
/// — is identical at every thread count. A volley's
/// [`ObsEvent::VolleyTimed`] reports its even share of its packet's time.
struct Packets<'a> {
    plan: &'a Plan,
    input: &'a VolleyBatch,
}

impl ChunkRunner for Packets<'_> {
    const ALIGN: usize = lane::LANES;

    fn run<S: Instrument>(
        &self,
        base: usize,
        len: usize,
        out: &mut [Time],
        timed: bool,
        chunk: &mut ChunkInst<'_, S>,
    ) -> Result<Vec<Timing>, BatchError> {
        let traced = chunk.spans.spans_live();
        let out_width = self.plan.output_width();
        let mut scratch = Scratch::default();
        let mut stats = PacketStats::default();
        let mut timings = Vec::with_capacity(if timed { len } else { 0 });
        for (start, members, out_packet) in row_chunks_mut(out, out_width, len, lane::LANES) {
            let first = base + start;
            let t0 = timed.then(Instant::now);
            let packet_span = if traced {
                chunk.spans.begin("kernel.packet", chunk.span)
            } else {
                SpanId::NONE
            };
            stats.absorb(self.plan.eval_packet_batch(
                &mut scratch,
                self.input,
                first..first + members,
                out_packet,
            ));
            if traced {
                chunk.spans.end(packet_span);
            }
            if let Some(t0) = t0 {
                let share = t0.elapsed().as_nanos() as u64 / members as u64;
                for (k, _, slot) in row_chunks_mut(out_packet, out_width, members, 1) {
                    timings.push((first + k, share, spikes(slot)));
                }
            }
        }
        if let Some(registry) = &mut chunk.counters {
            registry.incr("kernel.packets", len.div_ceil(lane::LANES) as u64);
            registry.incr("kernel.gates_swar", stats.gates_swar);
            registry.incr("kernel.gates_skipped", stats.gates_skipped);
        }
        Ok(timings)
    }
}

/// GRL's bit-sliced path: one [`GrlSim::run_rows`] call per chunk, which
/// simulates 64 volleys per wire word. Its counters are sums over rows,
/// so they are identical at every thread count without aligning chunks.
/// A volley's [`ObsEvent::VolleyTimed`] reports its even share of its
/// chunk's time.
struct GrlPacks<'a> {
    netlist: &'a GrlNetlist,
    input: &'a VolleyBatch,
}

impl ChunkRunner for GrlPacks<'_> {
    const ALIGN: usize = 1;

    fn run<S: Instrument>(
        &self,
        base: usize,
        len: usize,
        out: &mut [Time],
        timed: bool,
        chunk: &mut ChunkInst<'_, S>,
    ) -> Result<Vec<Timing>, BatchError> {
        let t0 = timed.then(Instant::now);
        let rows = base..base + len;
        let sim = GrlSim::new();
        match chunk.counters.as_mut() {
            Some(registry) => sim.run_rows(self.netlist, self.input, rows, out, registry),
            None => sim.run_rows(self.netlist, self.input, rows, out, &mut NullInstrument),
        }?;
        let Some(t0) = t0 else {
            return Ok(Vec::new());
        };
        let share = t0.elapsed().as_nanos() as u64 / len.max(1) as u64;
        let width = self.netlist.outputs().len();
        Ok(row_chunks_mut(out, width, len, 1)
            .map(|(k, _, slot)| (base + k, share, spikes(slot)))
            .collect())
    }
}

/// Splits `times`, `rows` rows of `width` times each, into consecutive
/// chunks of at most `chunk_rows` (≥ 1) rows: `(first row, rows, times)`.
/// Works for zero-width rows too, which own no times.
fn row_chunks_mut(
    times: &mut [Time],
    width: usize,
    rows: usize,
    chunk_rows: usize,
) -> impl Iterator<Item = (usize, usize, &mut [Time])> {
    let mut rest = times;
    let mut base = 0;
    std::iter::from_fn(move || {
        if base >= rows {
            return None;
        }
        let len = chunk_rows.min(rows - base);
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len * width);
        rest = tail;
        let chunk = (base, len, head);
        base += len;
        Some(chunk)
    })
}

/// How many lines of an output row carry a spike.
fn spikes(row: &[Time]) -> usize {
    row.iter().filter(|t| t.is_finite()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_table() -> FunctionTable {
        FunctionTable::parse("0 1 2 -> 3\n1 0 ∞ -> 2\n2 2 0 -> 2\n").unwrap()
    }

    fn volleys3(window: u64) -> Vec<Volley> {
        st_core::enumerate_inputs(3, window)
            .map(Volley::new)
            .collect()
    }

    #[test]
    fn table_artifact_matches_sequential_eval_at_any_thread_count() {
        let table = paper_table();
        let artifact = CompiledArtifact::from_table(&table);
        assert_eq!(artifact.input_width(), 3);
        assert_eq!(artifact.output_width(), 1);
        let volleys = volleys3(2);
        let expected: Vec<Volley> = volleys
            .iter()
            .map(|v| Volley::new(vec![table.eval(v.times()).unwrap()]))
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = BatchEvaluator::with_threads(threads)
                .eval(&artifact, &volleys)
                .unwrap();
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn error_reports_lowest_index_regardless_of_threads() {
        let artifact = CompiledArtifact::from_table(&paper_table());
        let mut volleys = volleys3(1);
        volleys[5] = Volley::silent(2); // wrong width
        volleys[9] = Volley::silent(7); // also wrong, later
        for threads in [1, 2, 3, 8] {
            let err = BatchEvaluator::with_threads(threads)
                .eval(&artifact, &volleys)
                .unwrap_err();
            assert_eq!(err.index, 5, "threads = {threads}");
            assert!(matches!(
                err.source,
                CoreError::ArityMismatch {
                    expected: 3,
                    actual: 2
                }
            ));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let artifact = CompiledArtifact::from_table(&paper_table());
        assert_eq!(BatchEvaluator::new().eval(&artifact, &[]).unwrap(), vec![]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(BatchEvaluator::with_threads(0).threads(), 1);
    }

    #[test]
    fn probed_eval_matches_and_times_every_volley() {
        use st_obs::Recorder;
        let artifact = CompiledArtifact::from_table(&paper_table());
        let volleys = volleys3(2);
        let expected = BatchEvaluator::with_threads(1)
            .eval(&artifact, &volleys)
            .unwrap();
        for threads in [1, 3] {
            let mut recorder = Recorder::new();
            let got = BatchEvaluator::with_threads(threads)
                .eval_volleys(&artifact, &volleys, &mut recorder)
                .unwrap();
            assert_eq!(got, expected, "threads = {threads}");
            let timed: Vec<usize> = recorder
                .events()
                .iter()
                .filter_map(|e| match *e {
                    ObsEvent::VolleyTimed { index, .. } => Some(index),
                    _ => None,
                })
                .collect();
            // Every volley timed exactly once, in index order.
            assert_eq!(timed, (0..volleys.len()).collect::<Vec<_>>());
            let chunks: Vec<(usize, usize, usize)> = recorder
                .events()
                .iter()
                .filter_map(|e| match *e {
                    ObsEvent::ChunkTiming {
                        worker, start, len, ..
                    } => Some((worker, start, len)),
                    _ => None,
                })
                .collect();
            assert_eq!(chunks.len(), threads.min(volleys.len()));
            assert_eq!(
                chunks.iter().map(|&(_, _, len)| len).sum::<usize>(),
                volleys.len()
            );
            // The stage timing closes the stream.
            assert!(matches!(
                recorder.events().last(),
                Some(ObsEvent::StageTiming { stage: "eval", .. })
            ));
        }

        // A failed batch records nothing.
        let mut bad = volleys3(1);
        bad[2] = Volley::silent(1);
        let mut recorder = Recorder::new();
        assert!(BatchEvaluator::with_threads(2)
            .eval_volleys(&artifact, &bad, &mut recorder)
            .is_err());
        assert!(recorder.is_empty());
    }

    #[test]
    fn metered_eval_merges_worker_registries_deterministically() {
        let artifact = CompiledArtifact::from_table(&paper_table());
        let volleys = volleys3(2);
        let expected = BatchEvaluator::with_threads(1)
            .eval(&artifact, &volleys)
            .unwrap();
        let mut baseline: Option<MetricsRegistry> = None;
        for threads in [1, 2, 3, 8] {
            let mut sink = MetricsRegistry::new();
            let got = BatchEvaluator::with_threads(threads)
                .eval_volleys(&artifact, &volleys, &mut sink)
                .unwrap();
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(sink.counter("batch.volleys"), volleys.len() as u64);
            assert_eq!(
                sink.counter("batch.chunks"),
                threads.min(volleys.len()) as u64
            );
            assert_eq!(sink.counter("table.lookups"), volleys.len() as u64);
            // Histograms are asserted through `map_or` rather than
            // `unwrap` so a missing stream reads as a count of zero and
            // fails the equality with a useful message instead of
            // panicking the whole test.
            assert_eq!(
                sink.histogram("batch.volley_nanos")
                    .map_or(0, st_metrics::Histogram::count),
                volleys.len() as u64,
                "threads = {threads}"
            );
            assert_eq!(
                sink.histogram("batch.chunk_nanos")
                    .map_or(0, st_metrics::Histogram::count),
                threads.min(volleys.len()) as u64,
                "threads = {threads}"
            );
            // Engine counters (everything except wall-clock noise) are
            // identical at every thread count.
            if let Some(base) = &baseline {
                let base_counts: Vec<_> = base
                    .counters()
                    .filter(|(n, _)| *n != "batch.chunks")
                    .collect();
                let these: Vec<_> = sink
                    .counters()
                    .filter(|(n, _)| *n != "batch.chunks")
                    .collect();
                assert_eq!(these, base_counts, "threads = {threads}");
            } else {
                baseline = Some(sink.clone());
            }
        }

        // A failed batch records no metrics at any thread count.
        let mut bad = volleys3(1);
        bad[2] = Volley::silent(1);
        for threads in [1, 4] {
            let mut sink = MetricsRegistry::new();
            assert!(BatchEvaluator::with_threads(threads)
                .eval_volleys(&artifact, &bad, &mut sink)
                .is_err());
            assert!(sink.is_empty(), "threads = {threads}");
        }
    }

    #[test]
    fn network_and_grl_artifacts_agree_with_each_other() {
        use st_net::synth::{synthesize, SynthesisOptions};
        let table = paper_table();
        let network = synthesize(&table, SynthesisOptions::pure());
        let net_artifact = CompiledArtifact::from_network(&network);
        let grl_artifact = CompiledArtifact::from_grl_network(&network);
        let volleys = volleys3(2);
        let evaluator = BatchEvaluator::with_threads(4);
        let via_net = evaluator.eval(&net_artifact, &volleys).unwrap();
        let via_grl = evaluator.eval(&grl_artifact, &volleys).unwrap();
        assert_eq!(via_net, via_grl);
    }

    fn batch_of(width: usize, volleys: &[Volley]) -> VolleyBatch {
        let mut batch = VolleyBatch::new(width);
        for v in volleys {
            batch.push_row(v.times()).unwrap();
        }
        batch
    }

    #[test]
    fn flat_batches_match_the_volley_adapter_on_every_engine() {
        use st_net::sorting::sorting_network;
        let table = paper_table();
        let network = st_net::synth::synthesize(&table, st_net::synth::SynthesisOptions::pure());
        let sorter = sorting_network(4);
        let t = Time::finite;
        let wide: Vec<Volley> = (0..21u64)
            .map(|i| Volley::new(vec![t(i % 5), Time::INFINITY, t(9 - i % 7), t(i)]))
            .collect();
        let cases = [
            (CompiledArtifact::from_table(&table), volleys3(2)),
            (CompiledArtifact::from_network(&network), volleys3(2)),
            (CompiledArtifact::from_grl_network(&network), volleys3(2)),
            (CompiledArtifact::from_kernel_network(&network), volleys3(2)),
            (CompiledArtifact::from_kernel_network(&sorter), wide),
        ];
        for (artifact, volleys) in &cases {
            let input = batch_of(artifact.input_width(), volleys);
            for threads in [1, 2, 3] {
                let evaluator = BatchEvaluator::with_threads(threads);
                let flat = evaluator.eval_batch(artifact, &input).unwrap();
                assert_eq!(flat.width(), artifact.output_width());
                assert_eq!(
                    flat.to_volleys(),
                    evaluator.eval(artifact, volleys).unwrap()
                );
                let exact = flat.times().iter().filter_map(|t| t.value()).max();
                assert_eq!(flat.max_finite(), exact, "threads = {threads}");
            }
        }
    }

    #[test]
    fn kernel_batches_past_the_lane_bound_take_the_scalar_path() {
        let sorter = st_net::sorting::sorting_network(4);
        let kernel = CompiledArtifact::from_kernel_network(&sorter);
        let net = CompiledArtifact::from_network(&sorter);
        let t = Time::finite;
        let mut input = VolleyBatch::new(4);
        for i in 0..10 {
            input
                .push_row(&[t(i), t(255 + i), Time::INFINITY, t(3)])
                .unwrap();
        }
        let CompiledArtifact::Kernel(plan) = &kernel else {
            unreachable!()
        };
        assert!(!plan.lane_capable_batch(&input));
        for threads in [1, 2] {
            let evaluator = BatchEvaluator::with_threads(threads);
            let mut registry = MetricsRegistry::new();
            let mut out = VolleyBatch::default();
            evaluator
                .eval_with(&kernel, &input, &mut out, &mut registry, SpanId::NONE)
                .unwrap();
            assert_eq!(out, evaluator.eval_batch(&net, &input).unwrap());
            assert_eq!(registry.counter("kernel.packets"), 0);
            assert_eq!(registry.counter("batch.volleys"), 10);
        }
    }

    #[test]
    fn the_lowest_failure_wins_whether_it_is_a_width_or_an_engine_error() {
        use st_obs::Recorder;
        let artifact = CompiledArtifact::from_table(&paper_table());
        let t = Time::finite;
        // A whole batch of the wrong width fails at index 0; an empty one
        // has nothing to fail.
        let narrow = batch_of(2, &[Volley::new(vec![t(0), t(1)])]);
        let err = BatchEvaluator::with_threads(2)
            .eval_batch(&artifact, &narrow)
            .unwrap_err();
        assert_eq!(
            err,
            BatchError {
                index: 0,
                source: CoreError::ArityMismatch {
                    expected: 3,
                    actual: 2
                }
            }
        );
        let empty = BatchEvaluator::new()
            .eval_batch(&artifact, &VolleyBatch::new(2))
            .unwrap();
        assert!(empty.is_empty());

        // Through the volley adapter, a GRL horizon overflow before a
        // wrong-width volley is the error, and after one it is not.
        let mut b = st_grl::GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.and2(x, y);
        let grl = CompiledArtifact::from(b.build([m]));
        let ok = Volley::new(vec![t(1), t(2)]);
        let huge = Volley::new(vec![t(u64::MAX - 1), t(2)]);
        let ragged = Volley::new(vec![t(1)]);
        for (volleys, want) in [
            (
                vec![ok.clone(), huge.clone(), ragged.clone()],
                CoreError::HorizonOverflow {
                    latest: u64::MAX - 1,
                    settle: 1,
                },
            ),
            (
                vec![ok.clone(), ragged, huge],
                CoreError::ArityMismatch {
                    expected: 2,
                    actual: 1,
                },
            ),
        ] {
            for threads in [1, 2] {
                let mut recorder = Recorder::new();
                let err = BatchEvaluator::with_threads(threads)
                    .eval_volleys(&grl, &volleys, &mut recorder)
                    .unwrap_err();
                assert_eq!((err.index, &err.source), (1, &want));
                assert!(recorder.is_empty());
            }
        }
    }
}
