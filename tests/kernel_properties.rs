//! Differential battery for the SWAR kernel engine: on random artifacts
//! and random volleys, `kernel ≡ net ≡ grl ≡ table` bit-for-bit at 1, 2,
//! and 7 worker threads; the entry points under a live instrument are
//! observationally identical to the plain ones; and the deterministic
//! `kernel.*` counters never depend on the thread count.

mod common;

use common::arbitrary::{arb_neuron, arb_volley};
use common::eval_with;
use proptest::prelude::*;
use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::core::{FunctionTable, Time, Volley, VolleyBatch};
use spacetime::grl::compile_network;
use spacetime::kernel::Plan;
use spacetime::metrics::MetricsRegistry;
use spacetime::net::synth::{synthesize, SynthesisOptions};
use spacetime::net::NetworkBuilder;
use spacetime::neuron::structural::srm0_network;
use spacetime::obs::{ObsEvent, Recorder};
use spacetime::trace::SpanId;

fn to_volleys(raw: &[Vec<Time>], width: usize) -> Vec<Volley> {
    raw.iter()
        .map(|v| Volley::new(v[..width].to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Four-way agreement on synthesized artifacts: a random neuron is
    /// tabulated, the table is synthesized to a network (Theorem 1), and
    /// the compiled table / event-sim network / GRL netlist / SWAR
    /// kernel evaluate random volleys bit-identically at every thread
    /// count.
    #[test]
    fn kernel_matches_net_grl_and_table(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..40),
    ) {
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        let network = synthesize(&table, SynthesisOptions::default());
        let volleys = to_volleys(&raw_volleys, network.input_count());
        let artifacts = [
            CompiledArtifact::from_table(&table),
            CompiledArtifact::from_network(&network),
            CompiledArtifact::from_grl_network(&network),
            CompiledArtifact::from_kernel_network(&network),
        ];
        let reference = BatchEvaluator::with_threads(1)
            .eval(&artifacts[0], &volleys)
            .unwrap();
        for artifact in &artifacts {
            for threads in [1usize, 2, 7] {
                let got = BatchEvaluator::with_threads(threads)
                    .eval(artifact, &volleys)
                    .unwrap();
                prop_assert_eq!(&got, &reference, "{} threads", threads);
            }
        }
    }

    /// Both plan extraction paths agree with the engines they flatten:
    /// `Plan::from_network` against the event sim and `Plan::from_grl`
    /// (delay-chain fusion included) against the GRL simulator, on raw
    /// structural SRM0 networks.
    #[test]
    fn both_plan_extractions_match_their_source_engines(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
    ) {
        let network = srm0_network(&neuron);
        let netlist = compile_network(&network);
        let volleys = to_volleys(&raw_volleys, network.input_count());
        let reference = BatchEvaluator::with_threads(1)
            .eval(&CompiledArtifact::from_network(&network), &volleys)
            .unwrap();
        let from_net = CompiledArtifact::from_kernel_network(&network);
        let from_grl = CompiledArtifact::from_kernel_grl(&netlist);
        for threads in [1usize, 2, 7] {
            let evaluator = BatchEvaluator::with_threads(threads);
            prop_assert_eq!(
                &evaluator.eval(&from_net, &volleys).unwrap(),
                &reference,
                "from_network, {} threads", threads
            );
            prop_assert_eq!(
                &evaluator.eval(&from_grl, &volleys).unwrap(),
                &reference,
                "from_grl, {} threads", threads
            );
        }
    }

    /// The st-opt verified pipeline joins the battery: optimizing a
    /// synthesized network must not change what any engine computes —
    /// the optimized network and its SWAR kernel plan agree with the
    /// raw source on random volleys at every thread count.
    #[test]
    fn optimized_networks_join_the_differential_battery(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
    ) {
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        let network = synthesize(&table, SynthesisOptions::default());
        let outcome = spacetime::opt::optimize_network(
            &network,
            &spacetime::opt::OptOptions::default(),
        ).unwrap();
        prop_assert_eq!(outcome.rejected(), 0, "report:\n{}", outcome.render());
        let spacetime::verify::Artifact::Net(optimized) = &outcome.artifact else {
            panic!("network optimized into a non-net");
        };
        let volleys = to_volleys(&raw_volleys, network.input_count());
        let reference = BatchEvaluator::with_threads(1)
            .eval(&CompiledArtifact::from_network(&network), &volleys)
            .unwrap();
        for artifact in [
            CompiledArtifact::from_network(optimized),
            CompiledArtifact::from_kernel_network(optimized),
        ] {
            for threads in [1usize, 2, 7] {
                let got = BatchEvaluator::with_threads(threads)
                    .eval(&artifact, &volleys)
                    .unwrap();
                prop_assert_eq!(&got, &reference, "{} threads", threads);
            }
        }
    }

    /// The kernel's metered and probed batch entry points return exactly
    /// the plain outputs; the probe stream has the batch shape (every
    /// volley timed once, in order; a closing `"eval"` stage) and the
    /// deterministic `kernel.*` counters are identical at every thread
    /// count.
    #[test]
    fn kernel_metered_and_probed_match_plain(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..40),
    ) {
        let network = srm0_network(&neuron);
        let volleys = to_volleys(&raw_volleys, network.input_count());
        let artifact = CompiledArtifact::from_kernel_network(&network);
        let plain = BatchEvaluator::with_threads(1)
            .eval(&artifact, &volleys)
            .unwrap();
        let mut baseline: Option<Vec<(String, u64)>> = None;
        for threads in [1usize, 2, 7] {
            let evaluator = BatchEvaluator::with_threads(threads);

            let mut sink = MetricsRegistry::new();
            let metered = eval_with(&evaluator, &artifact, &volleys, &mut sink, SpanId::NONE).unwrap();
            prop_assert_eq!(&metered, &plain, "metered, {} threads", threads);
            prop_assert_eq!(sink.counter("batch.volleys"), volleys.len() as u64);
            prop_assert_eq!(
                sink.counter("kernel.packets"),
                volleys.len().div_ceil(8) as u64,
                "packet partition must be thread-invariant"
            );
            let counters: Vec<(String, u64)> = sink
                .counters()
                .filter(|(name, _)| *name != "batch.chunks")
                .map(|(name, value)| (name.to_owned(), value))
                .collect();
            if let Some(base) = &baseline {
                prop_assert_eq!(&counters, base, "counters at {} threads", threads);
            } else {
                baseline = Some(counters);
            }

            let mut recorder = Recorder::new();
            let probed = eval_with(&evaluator, &artifact, &volleys, &mut recorder, SpanId::NONE).unwrap();
            prop_assert_eq!(&probed, &plain, "probed, {} threads", threads);
            let timed: Vec<usize> = recorder
                .events()
                .iter()
                .filter_map(|e| match *e {
                    ObsEvent::VolleyTimed { index, .. } => Some(index),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(timed, (0..volleys.len()).collect::<Vec<_>>());
            prop_assert!(matches!(
                recorder.events().last(),
                Some(ObsEvent::StageTiming { stage: "eval", .. })
            ));
        }
    }

    /// The scalar plan entry points (used for single volleys and for
    /// batches outside the lane bound) are also observationally
    /// identical: probed ≡ metered ≡ plain.
    #[test]
    fn scalar_plan_instrumented_entry_points_match_plain(
        neuron in arb_neuron(),
        volley in arb_volley(3),
    ) {
        let network = srm0_network(&neuron);
        let inputs = &volley[..network.input_count()];
        let plan = Plan::from_network(&network);
        let plain = plan.eval(inputs).unwrap();
        let mut sink = MetricsRegistry::new();
        prop_assert_eq!(&plan.eval_with(inputs, &mut sink).unwrap(), &plain);
        prop_assert_eq!(sink.counter("kernel.volleys"), 1);
        prop_assert_eq!(sink.counter("kernel.gates"), plan.gate_count() as u64);
        let mut recorder = Recorder::new();
        prop_assert_eq!(&plan.eval_with(inputs, &mut recorder).unwrap(), &plain);
        // Every recorded firing is a finite-valued gate in plan order.
        let mut last = None;
        for event in recorder.events() {
            if let ObsEvent::GateFired { gate, at, .. } = *event {
                prop_assert!(at.is_finite());
                prop_assert!(last.is_none_or(|g| g < gate));
                last = Some(gate);
            }
        }
    }
}

/// Errors (width mismatches) report the same lowest index through the
/// kernel engine as through every other engine, at every thread count.
#[test]
fn kernel_error_reports_lowest_index() {
    let network = srm0_network(&spacetime::neuron::Srm0Neuron::new(
        spacetime::neuron::ResponseFn::step(1),
        vec![
            spacetime::neuron::Synapse::excitatory(1),
            spacetime::neuron::Synapse::excitatory(1),
        ],
        1,
    ));
    let artifact = CompiledArtifact::from_kernel_network(&network);
    let t = Time::finite;
    let mut volleys = vec![Volley::new(vec![t(1), t(2)]); 12];
    volleys[4] = Volley::silent(3);
    volleys[9] = Volley::silent(1);
    for threads in [1usize, 2, 7] {
        let err = BatchEvaluator::with_threads(threads)
            .eval(&artifact, &volleys)
            .unwrap_err();
        assert_eq!(err.index, 4, "threads = {threads}");
    }
    // A failed batch records no metrics and no events.
    let mut sink = MetricsRegistry::new();
    let mut recorder = Recorder::new();
    let narrow = VolleyBatch::from_fn(1, 12, |_, _| t(1));
    let mut out = VolleyBatch::default();
    assert!(BatchEvaluator::with_threads(2)
        .eval_with(&artifact, &narrow, &mut out, &mut sink, SpanId::NONE)
        .is_err());
    assert!(BatchEvaluator::with_threads(2)
        .eval_with(&artifact, &narrow, &mut out, &mut recorder, SpanId::NONE)
        .is_err());
    assert!(sink.is_empty());
    assert!(recorder.is_empty());
}

/// Regression pin for the saturation bug class: a network whose delays
/// sum past 254 must leave the lane domain entirely — the kernel falls
/// back to its scalar path and reports exactly the scalar engines'
/// finite (not saturated!) outputs, and `∞` stays `∞`.
#[test]
fn saturation_past_254_matches_scalar_engines() {
    let mut b = NetworkBuilder::new();
    let input = b.input();
    let d1 = b.inc(input, 200);
    let d2 = b.inc(d1, 100); // 300 total: past the u8 lane domain
    let network = b.build([d2]);
    let plan = Plan::from_network(&network);
    assert_eq!(
        plan.lane_input_limit(),
        None,
        "a 300-tick delay chain must rule the lane path out"
    );

    let t = Time::finite;
    let volleys = vec![
        Volley::new(vec![t(0)]),
        Volley::new(vec![t(5)]),
        Volley::new(vec![Time::INFINITY]),
        Volley::new(vec![t(254)]),
    ];
    let kernel = CompiledArtifact::Kernel(plan);
    let net = CompiledArtifact::from_network(&network);
    for threads in [1usize, 2, 7] {
        let evaluator = BatchEvaluator::with_threads(threads);
        let via_kernel = evaluator.eval(&kernel, &volleys).unwrap();
        let via_net = evaluator.eval(&net, &volleys).unwrap();
        assert_eq!(via_kernel, via_net, "threads = {threads}");
        // The interesting values really are past the lane domain.
        assert_eq!(via_kernel[0].times(), &[t(300)]);
        assert_eq!(via_kernel[1].times(), &[t(305)]);
        assert_eq!(via_kernel[2].times(), &[Time::INFINITY]);
        assert_eq!(via_kernel[3].times(), &[t(554)]);
    }
}

/// The twin pin just inside the boundary: a plan whose delay slack
/// leaves a small lane budget takes the lane path for batches within it
/// and the scalar path for batches outside it — and both agree with the
/// event sim bit-for-bit.
#[test]
fn lane_budget_boundary_is_exact() {
    let mut b = NetworkBuilder::new();
    let input = b.input();
    let d = b.inc(input, 250);
    let network = b.build([d]);
    let plan = Plan::from_network(&network);
    assert_eq!(plan.lane_input_limit(), Some(4));

    let t = Time::finite;
    let inside = vec![Volley::new(vec![t(4)]); 9];
    let outside = vec![Volley::new(vec![t(4)]), Volley::new(vec![t(5)])];
    assert!(plan.lane_capable(&inside));
    assert!(!plan.lane_capable(&outside));

    let kernel = CompiledArtifact::Kernel(plan);
    let net = CompiledArtifact::from_network(&network);
    let evaluator = BatchEvaluator::with_threads(2);
    for batch in [&inside, &outside] {
        assert_eq!(
            evaluator.eval(&kernel, batch).unwrap(),
            evaluator.eval(&net, batch).unwrap()
        );
    }

    // The lane batch really took the packet path, the other didn't.
    let mut sink = MetricsRegistry::new();
    eval_with(&evaluator, &kernel, &inside, &mut sink, SpanId::NONE).unwrap();
    assert_eq!(sink.counter("kernel.packets"), 2);
    let mut sink = MetricsRegistry::new();
    eval_with(&evaluator, &kernel, &outside, &mut sink, SpanId::NONE).unwrap();
    assert_eq!(sink.counter("kernel.packets"), 0);
    assert_eq!(sink.counter("kernel.volleys"), 2);
}
