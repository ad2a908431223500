//! Observability equivalence properties: instrumenting any engine with a
//! live [`Recorder`], [`MetricsRegistry`] or [`TraceBuffer`] — or with one
//! collector that is all three at once — produces **bit-identical
//! outputs** to the uninstrumented (`NullInstrument`) run, across every
//! engine and at 1 and N batch worker threads. This is the
//! zero-perturbation contract of `st_trace::Instrument`: an instrument may
//! watch a computation, never steer it.

mod common;

use common::arbitrary::{arb_neuron, arb_volley};
use common::eval_with;
use proptest::prelude::*;
use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::core::Volley;
use spacetime::grl::{compile_network, GrlSim};
use spacetime::net::EventSim;
use spacetime::neuron::structural::srm0_network;
use spacetime::neuron::Srm0Neuron;
use spacetime::obs::{ObsEvent, Recorder};
use spacetime::tnn::data::PatternDataset;
use spacetime::tnn::train::{fresh_column, train_column, train_column_with, TrainConfig};
use spacetime::tnn::{Column, Inhibition};
use spacetime::trace::SpanId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Event-driven network simulation: the probed run returns the same
    /// report as the plain run, and records one gate firing per event the
    /// report counts.
    #[test]
    fn net_probed_run_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let compiled = EventSim::new().compile(&srm0_network(&neuron));
        let plain = compiled.run(inputs).unwrap();
        let mut recorder = Recorder::new();
        let probed = compiled.run_with(inputs, &mut recorder).unwrap();
        prop_assert_eq!(&probed, &plain);
        prop_assert_eq!(recorder.len(), plain.total_events);
    }

    /// Cycle-accurate GRL simulation: probed ≡ plain, and the recorded
    /// wire falls are exactly the report's eval transitions.
    #[test]
    fn grl_probed_run_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let netlist = compile_network(&srm0_network(&neuron));
        let sim = GrlSim::new();
        let plain = sim.run(&netlist, inputs).unwrap();
        let mut recorder = Recorder::new();
        let probed = sim.run_with(&netlist, inputs, &mut recorder).unwrap();
        prop_assert_eq!(&probed, &plain);
        let falls = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, ObsEvent::WireFell { .. }))
            .count();
        prop_assert_eq!(falls, plain.eval_transitions);
    }

    /// Behavioral SRM0 evaluation: probed ≡ plain, and a spike event is
    /// recorded iff the neuron fires.
    #[test]
    fn srm0_probed_eval_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let plain = neuron.eval(inputs);
        let mut recorder = Recorder::new();
        let probed = neuron.eval_with(inputs, 0, &mut recorder);
        prop_assert_eq!(probed, plain);
        let spiked = recorder.events().iter().any(ObsEvent::is_spike);
        prop_assert_eq!(spiked, plain.is_finite());
    }

    /// Column evaluation (SRM0 + WTA): probed ≡ plain.
    #[test]
    fn column_probed_eval_is_identical(
        neurons in prop::collection::vec(arb_neuron(), 2..4),
        inputs in arb_volley(3),
    ) {
        let width = neurons.iter().map(|n| n.synapses().len()).min().unwrap();
        let neurons: Vec<Srm0Neuron> = neurons
            .into_iter()
            .map(|n| Srm0Neuron::new(
                n.unit_response().clone(),
                n.synapses()[..width].to_vec(),
                n.threshold(),
            ))
            .collect();
        let column = Column::new(neurons, Inhibition::one_wta());
        let volley = Volley::new(inputs[..width].to_vec());
        let plain = column.eval(&volley);
        let mut recorder = Recorder::new();
        let probed = column.eval_with(volley.times(), &mut recorder).unwrap();
        prop_assert_eq!(probed, plain);
        // Exactly one WTA decision per evaluation.
        let decisions = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, ObsEvent::WtaDecision { .. }))
            .count();
        prop_assert_eq!(decisions, 1);
    }

    /// The batch engine at 1 and N threads: a live recorder never changes
    /// any output volley, and the timing stream covers the whole batch.
    #[test]
    fn batch_probed_eval_is_identical_across_thread_counts(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
        threads in 2usize..8,
    ) {
        let width = neuron.synapses().len();
        let volleys: Vec<Volley> = raw_volleys
            .iter()
            .map(|v| Volley::new(v[..width].to_vec()))
            .collect();
        let network = srm0_network(&neuron);
        for artifact in [
            CompiledArtifact::from_network(&network),
            CompiledArtifact::from_grl_network(&network),
        ] {
            let plain = BatchEvaluator::with_threads(1)
                .eval(&artifact, &volleys)
                .unwrap();
            for workers in [1, threads] {
                let mut recorder = Recorder::new();
                let probed = eval_with(
                    &BatchEvaluator::with_threads(workers),
                    &artifact,
                    &volleys,
                    &mut recorder,
                    SpanId::NONE,
                )
                .unwrap();
                prop_assert_eq!(&probed, &plain, "workers = {}", workers);
                let timed = recorder
                    .events()
                    .iter()
                    .filter(|e| matches!(e, ObsEvent::VolleyTimed { .. }))
                    .count();
                prop_assert_eq!(timed, volleys.len());
            }
        }
    }
}

/// STDP training with a live recorder is bit-identical to plain training —
/// same report, same trained weights, same thresholds — because the probe
/// never touches the tie-breaking RNG.
#[test]
fn probed_training_is_bit_identical() {
    for seed in 0..4u64 {
        let mut ds = PatternDataset::new(3, 16, 7, 1, 0.2, seed);
        let config = TrainConfig {
            seed: seed.wrapping_mul(31),
            ..TrainConfig::default()
        };
        let stream = ds.stream(150, 0.85);

        let mut plain = fresh_column(3, 16, 0.25, &config);
        let plain_report = train_column(&mut plain, &stream, &config);

        let mut probed = fresh_column(3, 16, 0.25, &config);
        let mut recorder = Recorder::new();
        let probed_report = train_column_with(&mut probed, &stream, &config, &mut recorder);

        assert_eq!(probed_report, plain_report, "seed {seed}");
        for (a, b) in plain.neurons().iter().zip(probed.neurons()) {
            assert_eq!(a.synapses(), b.synapses(), "seed {seed}");
            assert_eq!(a.threshold(), b.threshold(), "seed {seed}");
        }
        assert_eq!(
            recorder
                .events()
                .iter()
                .filter(|e| matches!(e, ObsEvent::WeightDelta { .. }))
                .count(),
            plain_report.weight_changes,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------------
// The same contract for st-metrics: a live MetricsRegistry never changes any
// output — across all four engines, training, and the batch evaluator at
// every thread count (where the engine counters must also be thread-count
// invariant).

use spacetime::metrics::MetricsRegistry;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Event-driven network simulation: metered ≡ plain, and the firing
    /// counter matches the report.
    #[test]
    fn net_metered_run_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let compiled = EventSim::new().compile(&srm0_network(&neuron));
        let plain = compiled.run(inputs).unwrap();
        let mut registry = MetricsRegistry::new();
        let metered = compiled.run_with(inputs, &mut registry).unwrap();
        prop_assert_eq!(&metered, &plain);
        prop_assert_eq!(registry.counter("net.runs"), 1);
        prop_assert_eq!(registry.counter("net.gate_firings"), plain.total_events as u64);
    }

    /// Cycle-accurate GRL simulation: metered ≡ plain, and the transition
    /// counter is exactly the report's eval transitions.
    #[test]
    fn grl_metered_run_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let netlist = compile_network(&srm0_network(&neuron));
        let sim = GrlSim::new();
        let plain = sim.run(&netlist, inputs).unwrap();
        let mut registry = MetricsRegistry::new();
        let metered = sim.run_with(&netlist, inputs, &mut registry).unwrap();
        prop_assert_eq!(&metered, &plain);
        prop_assert_eq!(
            registry.counter("grl.wire_transitions"),
            plain.eval_transitions as u64
        );
    }

    /// Behavioral SRM0 evaluation: metered ≡ plain, and the spike counter
    /// fires iff the neuron does.
    #[test]
    fn srm0_metered_eval_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let plain = neuron.eval(inputs);
        let mut registry = MetricsRegistry::new();
        let metered = neuron.eval_with(inputs, 0, &mut registry);
        prop_assert_eq!(metered, plain);
        prop_assert_eq!(registry.counter("srm0.spikes"), u64::from(plain.is_finite()));
    }

    /// Column evaluation (SRM0 + WTA): metered ≡ plain, and exactly one
    /// decision counter ticks per volley.
    #[test]
    fn column_metered_eval_is_identical(
        neurons in prop::collection::vec(arb_neuron(), 2..4),
        inputs in arb_volley(3),
    ) {
        let width = neurons.iter().map(|n| n.synapses().len()).min().unwrap();
        let neurons: Vec<Srm0Neuron> = neurons
            .into_iter()
            .map(|n| Srm0Neuron::new(
                n.unit_response().clone(),
                n.synapses()[..width].to_vec(),
                n.threshold(),
            ))
            .collect();
        let column = Column::new(neurons, Inhibition::one_wta());
        let volley = Volley::new(inputs[..width].to_vec());
        let plain = column.eval(&volley);
        let mut registry = MetricsRegistry::new();
        let metered = column.eval_with(volley.times(), &mut registry).unwrap();
        prop_assert_eq!(metered, plain);
        prop_assert_eq!(
            registry.counter("tnn.wta_decisions") + registry.counter("tnn.silent_decisions"),
            1
        );
    }

    /// The batch engine: a live metrics sink never changes any output
    /// volley, and the engine counters (everything except the
    /// chunking-dependent `batch.chunks`) are identical at every thread
    /// count — the deterministic-merge contract.
    #[test]
    fn batch_metered_eval_is_identical_across_thread_counts(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
        threads in 2usize..8,
    ) {
        let width = neuron.synapses().len();
        let volleys: Vec<Volley> = raw_volleys
            .iter()
            .map(|v| Volley::new(v[..width].to_vec()))
            .collect();
        let network = srm0_network(&neuron);
        for artifact in [
            CompiledArtifact::from_network(&network),
            CompiledArtifact::from_grl_network(&network),
        ] {
            let plain = BatchEvaluator::with_threads(1)
                .eval(&artifact, &volleys)
                .unwrap();
            let mut baseline: Option<Vec<(&'static str, u64)>> = None;
            for workers in [1, threads] {
                let mut registry = MetricsRegistry::new();
                let metered = eval_with(
                    &BatchEvaluator::with_threads(workers),
                    &artifact,
                    &volleys,
                    &mut registry,
                    SpanId::NONE,
                )
                .unwrap();
                prop_assert_eq!(&metered, &plain, "workers = {}", workers);
                prop_assert_eq!(registry.counter("batch.volleys"), volleys.len() as u64);
                let counters: Vec<(&'static str, u64)> = registry
                    .counters()
                    .filter(|(name, _)| *name != "batch.chunks")
                    .collect();
                match &baseline {
                    None => baseline = Some(counters),
                    Some(expected) => prop_assert_eq!(
                        &counters, expected, "workers = {}", workers
                    ),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The same contract a third time for st-trace: a live span tracer never
// changes any output volley, every trace is structurally well-formed (all
// spans closed, parents enclose children), and the span profile — every name
// except the chunking-dependent `batch.chunk` — is identical at every thread
// count.

use spacetime::trace::{span_counts, well_formed, Instrument, TraceBuffer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batch engine under the span profiler: traced ≡ plain on the
    /// event-driven, race-logic, and SWAR kernel engines at 1 and N
    /// worker threads; the trace passes the structural invariants; and
    /// per-name span counts are thread-count invariant except
    /// `batch.chunk` (which mirrors the `batch.chunks` metric).
    #[test]
    fn batch_traced_eval_is_identical_across_thread_counts(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
        threads in 2usize..8,
    ) {
        let width = neuron.synapses().len();
        let volleys: Vec<Volley> = raw_volleys
            .iter()
            .map(|v| Volley::new(v[..width].to_vec()))
            .collect();
        let network = srm0_network(&neuron);
        for artifact in [
            CompiledArtifact::from_network(&network),
            CompiledArtifact::from_grl_network(&network),
            CompiledArtifact::from_kernel_network(&network),
        ] {
            let plain = BatchEvaluator::with_threads(1)
                .eval(&artifact, &volleys)
                .unwrap();
            let mut baseline: Option<Vec<(&'static str, u64)>> = None;
            for workers in [1, threads] {
                let mut tracer = TraceBuffer::new();
                let stage = tracer.begin("batch.eval", SpanId::NONE);
                let traced = eval_with(
                    &BatchEvaluator::with_threads(workers),
                    &artifact,
                    &volleys,
                    &mut tracer,
                    stage,
                )
                .unwrap();
                tracer.end(stage);
                prop_assert_eq!(&traced, &plain, "workers = {}", workers);

                let records = tracer.into_records();
                // Every opened span closed, ids unique, parent edges
                // resolvable, children enclosed by their parents.
                if let Err(violation) = well_formed(&records) {
                    return Err(TestCaseError::fail(
                        format!("workers = {workers}: {violation}")
                    ));
                }
                // Every chunk (and through it every packet) nests under
                // the dispatching stage span.
                prop_assert!(
                    records
                        .iter()
                        .filter(|r| r.name == "batch.chunk")
                        .all(|r| r.parent == stage),
                    "workers = {}", workers
                );
                let counts: Vec<(&'static str, u64)> = span_counts(&records)
                    .into_iter()
                    .filter(|(name, _)| *name != "batch.chunk")
                    .collect();
                match &baseline {
                    None => baseline = Some(counts),
                    Some(expected) => prop_assert_eq!(
                        &counts, expected, "workers = {}", workers
                    ),
                }
            }
        }
    }

    /// A failed batch records no trace at any thread count: every span
    /// opened inside the evaluator is truncated away, leaving only the
    /// caller's own stage span.
    #[test]
    fn failed_batch_traces_nothing(
        neuron in arb_neuron(),
        threads in 1usize..6,
    ) {
        let width = neuron.synapses().len();
        let artifact = CompiledArtifact::from_network(&srm0_network(&neuron));
        // A batch of the wrong width.
        let volleys = vec![Volley::new(vec![spacetime::core::Time::ZERO; width + 1]); 2];
        let mut tracer = TraceBuffer::new();
        let stage = tracer.begin("batch.eval", SpanId::NONE);
        prop_assert!(eval_with(
            &BatchEvaluator::with_threads(threads),
            &artifact,
            &volleys,
            &mut tracer,
            stage,
        )
        .is_err());
        tracer.end(stage);
        let records = tracer.into_records();
        prop_assert_eq!(records.len(), 1);
        prop_assert_eq!(records[0].name, "batch.eval");
    }
}

/// STDP training with a live metrics sink is bit-identical to plain
/// training, and the stdp.* counters mirror the report.
#[test]
fn metered_training_is_bit_identical() {
    for seed in 0..4u64 {
        let mut ds = PatternDataset::new(3, 16, 7, 1, 0.2, seed);
        let config = TrainConfig {
            seed: seed.wrapping_mul(31),
            ..TrainConfig::default()
        };
        let stream = ds.stream(150, 0.85);

        let mut plain = fresh_column(3, 16, 0.25, &config);
        let plain_report = train_column(&mut plain, &stream, &config);

        let mut metered = fresh_column(3, 16, 0.25, &config);
        let mut registry = MetricsRegistry::new();
        let metered_report = train_column_with(&mut metered, &stream, &config, &mut registry);

        assert_eq!(metered_report, plain_report, "seed {seed}");
        for (a, b) in plain.neurons().iter().zip(metered.neurons()) {
            assert_eq!(a.synapses(), b.synapses(), "seed {seed}");
            assert_eq!(a.threshold(), b.threshold(), "seed {seed}");
        }
        assert_eq!(
            registry.counter("stdp.presentations"),
            plain_report.presentations as u64,
            "seed {seed}"
        );
        assert_eq!(
            registry.counter("stdp.weight_deltas"),
            plain_report.weight_changes as u64,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------------
// One collector with all three groups live: a single instrument that records
// events, counters and spans at once changes no output and sees exactly what
// separate Recorder, MetricsRegistry and TraceBuffer runs see, on every
// engine at 1, 2 and N worker threads.

use spacetime::core::FunctionTable;
use spacetime::trace::{SpanRecord, TraceMark};

/// A test-only instrument with every hook group live.
#[derive(Debug, Default)]
struct Everything {
    recorder: Recorder,
    registry: MetricsRegistry,
    buffer: TraceBuffer,
}

impl Instrument for Everything {
    type Worker = TraceBuffer;

    fn events_live(&self) -> bool {
        true
    }

    fn record(&mut self, event: ObsEvent) {
        self.recorder.record(event);
    }

    fn counters_live(&self) -> bool {
        true
    }

    fn incr(&mut self, counter: &'static str, by: u64) {
        self.registry.incr(counter, by);
    }

    fn observe(&mut self, histogram: &'static str, value: u64) {
        self.registry.observe(histogram, value);
    }

    fn merge_counters(&mut self, counters: &MetricsRegistry) {
        self.registry.absorb(counters);
    }

    fn spans_live(&self) -> bool {
        true
    }

    fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        self.buffer.begin(name, parent)
    }

    fn end(&mut self, id: SpanId) {
        self.buffer.end(id);
    }

    fn mark(&self) -> TraceMark {
        self.buffer.mark()
    }

    fn truncate(&mut self, mark: TraceMark) {
        self.buffer.truncate(mark);
    }

    fn worker(&mut self, tid: u32) -> TraceBuffer {
        self.buffer.worker(tid)
    }

    fn absorb(&mut self, worker: TraceBuffer) {
        self.buffer.absorb(worker);
    }
}

/// An event with its wall-clock fields zeroed.
fn without_clock(event: &ObsEvent) -> ObsEvent {
    match *event {
        ObsEvent::VolleyTimed { index, spikes, .. } => ObsEvent::VolleyTimed {
            index,
            nanos: 0,
            spikes,
        },
        ObsEvent::ChunkTiming {
            worker, start, len, ..
        } => ObsEvent::ChunkTiming {
            worker,
            start,
            len,
            start_nanos: 0,
            nanos: 0,
        },
        ObsEvent::StageTiming { stage, .. } => ObsEvent::StageTiming {
            stage,
            start_nanos: 0,
            nanos: 0,
        },
        ref other => other.clone(),
    }
}

/// Every span as `(name, parent name, tid)`, sorted.
fn span_edges(records: &[SpanRecord]) -> Vec<(&'static str, &'static str, u32)> {
    let name = |id: SpanId| records.iter().find(|r| r.id == id).map_or("", |r| r.name);
    let mut edges: Vec<_> = records
        .iter()
        .map(|r| (r.name, name(r.parent), r.tid))
        .collect();
    edges.sort_unstable();
    edges
}

/// Counters exactly, then histograms by name and observation count
/// (their values include wall clocks).
fn counts(registry: &MetricsRegistry) -> Vec<(&'static str, u64)> {
    registry
        .counters()
        .chain(registry.histograms().map(|(name, h)| (name, h.count())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn one_collector_with_every_group_matches_three_separate_ones(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
        threads in 3usize..8,
    ) {
        let width = neuron.synapses().len();
        let volleys: Vec<Volley> = raw_volleys
            .iter()
            .map(|v| Volley::new(v[..width].to_vec()))
            .collect();
        let network = srm0_network(&neuron);
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        for artifact in [
            CompiledArtifact::from_table(&table),
            CompiledArtifact::from_network(&network),
            CompiledArtifact::from_grl_network(&network),
            CompiledArtifact::from(Column::new(vec![neuron.clone()], Inhibition::one_wta())),
            CompiledArtifact::from_kernel_network(&network),
        ] {
            let plain = BatchEvaluator::with_threads(1)
                .eval(&artifact, &volleys)
                .unwrap();
            for workers in [1, 2, threads] {
                let evaluator = BatchEvaluator::with_threads(workers);
                let mut all = Everything::default();
                let stage = all.begin("batch.eval", SpanId::NONE);
                let got = eval_with(&evaluator, &artifact, &volleys, &mut all, stage).unwrap();
                all.end(stage);
                prop_assert_eq!(&got, &plain, "workers = {}", workers);

                let mut recorder = Recorder::new();
                eval_with(&evaluator, &artifact, &volleys, &mut recorder, SpanId::NONE).unwrap();
                let mut registry = MetricsRegistry::new();
                eval_with(&evaluator, &artifact, &volleys, &mut registry, SpanId::NONE).unwrap();
                let mut buffer = TraceBuffer::new();
                let stage = buffer.begin("batch.eval", SpanId::NONE);
                eval_with(&evaluator, &artifact, &volleys, &mut buffer, stage).unwrap();
                buffer.end(stage);

                let events = |r: &Recorder| r.events().iter().map(without_clock).collect::<Vec<_>>();
                prop_assert_eq!(events(&all.recorder), events(&recorder), "workers = {}", workers);
                prop_assert_eq!(counts(&all.registry), counts(&registry), "workers = {}", workers);
                prop_assert_eq!(
                    span_edges(&all.buffer.into_records()),
                    span_edges(&buffer.into_records()),
                    "workers = {}", workers
                );
            }
        }
    }
}
