//! Property battery for st-insight: provenance witnesses really replay,
//! self-diffs are clean, and mutant diffs localize real divergences.
//!
//! The witness property is the load-bearing one: for every gate of a
//! random network, the `why` witness volley — replayed through the
//! *batch* engine on a network that exposes the queried gate as an
//! output — must reproduce the exact queried outcome, firing time and
//! silence alike. That closes the loop between the cone rules, the
//! recorded event stream, and an independent evaluator.

mod common;

use common::arbitrary::arb_volley;
use proptest::prelude::*;
use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::core::{Time, Volley};
use spacetime::insight::{diff_gate_runs, eval_graph, why, SpikeDb};
use spacetime::net::lint::to_lint_graph;
use spacetime::net::{network_to_text, parse_network, EventSim, Network, NetworkBuilder};
use spacetime::obs::Recorder;
use spacetime::verify::mutate::net_mutants;

/// One random gate over already-built nodes (drawn modulo node count).
#[derive(Debug, Clone)]
enum GateSpec {
    Const(Time),
    Min(usize, usize),
    Max(usize, usize),
    Lt(usize, usize),
    Inc(usize, u64),
}

const DRAW: std::ops::Range<usize> = 0..1 << 16;

fn arb_gate_spec() -> impl Strategy<Value = GateSpec> {
    prop_oneof![
        (0u64..4).prop_map(|t| GateSpec::Const(Time::finite(t))),
        (DRAW, DRAW).prop_map(|(a, b)| GateSpec::Min(a, b)),
        (DRAW, DRAW).prop_map(|(a, b)| GateSpec::Max(a, b)),
        (DRAW, DRAW).prop_map(|(a, b)| GateSpec::Lt(a, b)),
        (DRAW, 1u64..4).prop_map(|(a, d)| GateSpec::Inc(a, d)),
    ]
}

/// A random 2-input network of up to a dozen gates, with plenty of
/// shared operands, inhibition, and delay chains.
fn arb_network() -> impl Strategy<Value = Network> {
    (
        prop::collection::vec(arb_gate_spec(), 1..12),
        prop::collection::vec(DRAW, 1..=2),
    )
        .prop_map(|(specs, outs)| {
            let mut b = NetworkBuilder::new();
            let mut ids = b.inputs(2);
            for spec in specs {
                let id = match spec {
                    GateSpec::Const(t) => b.constant(t),
                    GateSpec::Min(a, c) => b.min2(ids[a % ids.len()], ids[c % ids.len()]),
                    GateSpec::Max(a, c) => b.max2(ids[a % ids.len()], ids[c % ids.len()]),
                    GateSpec::Lt(a, c) => b.lt(ids[a % ids.len()], ids[c % ids.len()]),
                    GateSpec::Inc(a, d) => b.inc(ids[a % ids.len()], d),
                };
                ids.push(id);
            }
            let outputs: Vec<_> = outs.iter().map(|&o| ids[o % ids.len()]).collect();
            b.build(outputs)
        })
}

/// Records a probed event-simulation run into a spike database — the
/// same pipeline `spacetime inspect` uses.
fn record_db(network: &Network, volleys: &[Vec<Time>]) -> SpikeDb {
    let compiled = EventSim::new().compile(network);
    let mut recorder = Recorder::new();
    for (index, volley) in volleys.iter().enumerate() {
        recorder.begin_volley(index);
        compiled.run_with(volley, &mut recorder).expect("run");
    }
    SpikeDb::from_events_with_dropped(recorder.events(), recorder.dropped())
}

/// Rewrites `network`'s text so `gate` is an output, exactly as the CLI
/// `--witness` writer does, and compiles it for the batch engine.
/// Returns the artifact and the output column the gate landed on.
fn expose_gate(network: &Network, gate: usize) -> (CompiledArtifact, usize) {
    let token = format!("g{gate}");
    let mut column = 0;
    let text: Vec<String> = network_to_text(network)
        .lines()
        .map(|line| {
            let Some(rest) = line.strip_prefix("outputs") else {
                return line.to_owned();
            };
            let outs: Vec<&str> = rest.split_whitespace().collect();
            match outs.iter().position(|&o| o == token) {
                Some(k) => {
                    column = k;
                    line.to_owned()
                }
                None => {
                    column = outs.len();
                    format!("{line} {token}")
                }
            }
        })
        .collect();
    let witness_net = parse_network(&(text.join("\n") + "\n")).expect("witness net parses");
    (CompiledArtifact::from_network(&witness_net), column)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `(gate, time)` event of a recorded volley — silences
    /// included — yields a witness that reproduces the queried outcome
    /// through the independent batch engine.
    #[test]
    fn why_witnesses_replay_through_the_batch_engine(
        network in arb_network(),
        volley in arb_volley(2),
    ) {
        let graph = to_lint_graph(&network);
        let db = record_db(&network, std::slice::from_ref(&volley));
        let vt = db.volley(0).expect("volley 0 recorded");
        let waveform = vt.gate_waveform(graph.len());
        prop_assert_eq!(&waveform, &eval_graph(&graph, &volley).expect("eval"));

        let evaluator = BatchEvaluator::new();
        for gate in 0..graph.len() {
            let at = waveform[gate];
            let prov = why(&graph, &waveform, 0, gate, at)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let (artifact, column) = expose_gate(&network, gate);
            let outputs = evaluator
                .eval(&artifact, &[Volley::new(prov.witness.clone())])
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(
                outputs[0].times()[column], at,
                "g{} queried at {}, witness `{}` (minimized: {}) replayed to {}",
                gate, at, prov.witness_line(), prov.minimized, outputs[0].times()[column]
            );
        }
    }

    /// A run diffed against an identical re-run reports zero divergence.
    #[test]
    fn diffing_a_run_against_itself_is_clean(
        network in arb_network(),
        volleys in prop::collection::vec(arb_volley(2), 1..5),
    ) {
        let graph = to_lint_graph(&network);
        let a = record_db(&network, &volleys);
        let b = record_db(&network, &volleys);
        prop_assert_eq!(diff_gate_runs(&graph, &a, &b).expect("diffable"), None);
    }

    /// Diffing against a text-level mutant either localizes a *real*
    /// first divergence — both recorded times check out against forward
    /// re-evaluation, and every earlier (volley, gate) position agrees —
    /// or the mutant is genuinely indistinguishable on these volleys.
    #[test]
    fn mutant_diffs_localize_a_real_first_divergence(
        network in arb_network(),
        volleys in prop::collection::vec(arb_volley(2), 1..4),
    ) {
        let text = network_to_text(&network);
        let graph = to_lint_graph(&network);
        let db_a = record_db(&network, &volleys);
        for m in net_mutants(&text) {
            let mutant = parse_network(&m.text)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", m.label)))?;
            let mutant_graph = to_lint_graph(&mutant);
            let db_b = record_db(&mutant, &volleys);
            let diff = diff_gate_runs(&graph, &db_a, &db_b)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            match diff {
                Some(d) => {
                    let wave_a = eval_graph(&graph, &volleys[d.volley]).expect("eval a");
                    let wave_b = eval_graph(&mutant_graph, &volleys[d.volley]).expect("eval b");
                    prop_assert_eq!(wave_a[d.gate], d.in_a, "{}", m.label);
                    prop_assert_eq!(wave_b[d.gate], d.in_b, "{}", m.label);
                    prop_assert_ne!(d.in_a, d.in_b, "{}", m.label);
                    // Firstness: every earlier position agrees.
                    for (v, volley) in volleys.iter().enumerate().take(d.volley + 1) {
                        let ea = eval_graph(&graph, volley).expect("eval a");
                        let eb = eval_graph(&mutant_graph, volley).expect("eval b");
                        let upto = if v == d.volley { d.gate } else { graph.len() };
                        prop_assert_eq!(&ea[..upto], &eb[..upto], "{} volley {v}", m.label);
                    }
                }
                None => {
                    // No divergence must mean no observable difference.
                    for volley in &volleys {
                        prop_assert_eq!(
                            eval_graph(&graph, volley).expect("eval a"),
                            eval_graph(&mutant_graph, volley).expect("eval b"),
                            "{} claimed clean", m.label
                        );
                    }
                }
            }
        }
    }
}
