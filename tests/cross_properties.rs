//! Cross-crate property tests: randomized neurons and random volleys flow
//! through every representation — behavioral, structural, event-driven,
//! and CMOS — and all agree; Lemma 1 holds for the composed systems.

mod common;

use common::arbitrary::{arb_neuron, arb_volley};
use proptest::prelude::*;
use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::core::{verify_space_time, FunctionTable, Time, Volley, VolleyBatch};
use spacetime::grl::{compile_network, GrlSim};
use spacetime::net::{EventSim, NetScratch};
use spacetime::neuron::structural::srm0_network;
use spacetime::neuron::Srm0Neuron;
use spacetime::tnn::{Column, Inhibition};
use spacetime::trace::NullInstrument;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Four-way agreement on random neurons and inputs.
    #[test]
    fn four_representations_agree(neuron in arb_neuron()) {
        let width = neuron.synapses().len();
        let network = srm0_network(&neuron);
        let netlist = compile_network(&network);
        let event = EventSim::new();
        let cmos = GrlSim::new();
        for inputs in spacetime::core::enumerate_inputs(width, 3) {
            let behavioral = neuron.eval(&inputs);
            prop_assert_eq!(network.eval(&inputs).unwrap()[0], behavioral);
            prop_assert_eq!(event.run(&network, &inputs).unwrap().outputs[0], behavioral);
            prop_assert_eq!(cmos.run(&netlist, &inputs).unwrap().outputs[0], behavioral);
        }
    }

    /// A WTA column of random neurons is still a space-time function per
    /// output line (Lemma 1 applied to the composed system).
    #[test]
    fn columns_are_space_time_functions(
        neurons in prop::collection::vec(arb_neuron(), 2..4),
    ) {
        // Make widths agree by truncating to the narrowest.
        let width = neurons.iter().map(|n| n.synapses().len()).min().unwrap();
        let neurons: Vec<Srm0Neuron> = neurons
            .into_iter()
            .map(|n| {
                Srm0Neuron::new(
                    n.unit_response().clone(),
                    n.synapses()[..width].to_vec(),
                    n.threshold(),
                )
            })
            .collect();
        let column = Column::new(neurons, Inhibition::one_wta());
        let network = column.to_network();
        for line in 0..column.output_width() {
            verify_space_time(&network.as_function(line), 2, 2, None)
                .map_err(|v| TestCaseError::fail(format!("line {line}: {v}")))?;
        }
    }

    /// Column behavioral evaluation matches its compiled network on random
    /// volleys (not just enumerated windows).
    #[test]
    fn column_matches_network_on_random_volleys(
        neuron_a in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron_a.synapses().len();
        let inputs = &inputs[..width];
        let column = Column::new(vec![neuron_a], Inhibition::one_wta());
        let network = column.to_network();
        let behavioral = column.eval(&Volley::new(inputs.to_vec()));
        prop_assert_eq!(network.eval(inputs).unwrap(), behavioral.times());
    }

    /// The batched engine is bit-identical to sequential `EventSim` /
    /// `GrlSim` / `Srm0Neuron` loops at 1, 2, and N worker threads — the
    /// thread count is never observable in the outputs.
    #[test]
    fn batch_network_and_grl_match_sequential_loops(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
    ) {
        let width = neuron.synapses().len();
        let volleys: Vec<Volley> = raw_volleys
            .iter()
            .map(|v| Volley::new(v[..width].to_vec()))
            .collect();
        let network = srm0_network(&neuron);
        let netlist = compile_network(&network);

        // The sequential reference loops the batch engine must reproduce.
        let event = EventSim::new();
        let cmos = GrlSim::new();
        let seq_neuron: Vec<Time> = volleys.iter().map(|v| neuron.eval(v.times())).collect();
        let seq_net: Vec<Volley> = volleys
            .iter()
            .map(|v| Volley::new(event.run(&network, v.times()).unwrap().outputs))
            .collect();
        let seq_grl: Vec<Volley> = volleys
            .iter()
            .map(|v| Volley::new(cmos.run(&netlist, v.times()).unwrap().outputs))
            .collect();
        // The network realizes the neuron, so all references agree.
        for (v, &t) in seq_net.iter().zip(&seq_neuron) {
            prop_assert_eq!(v.times(), &[t]);
        }

        let net_artifact = CompiledArtifact::from_network(&network);
        let grl_artifact = CompiledArtifact::Grl(netlist.clone());
        for threads in [1usize, 2, 7] {
            let evaluator = BatchEvaluator::with_threads(threads);
            prop_assert_eq!(
                &evaluator.eval(&net_artifact, &volleys).unwrap(),
                &seq_net,
                "net engine, {} threads", threads
            );
            prop_assert_eq!(
                &evaluator.eval(&grl_artifact, &volleys).unwrap(),
                &seq_grl,
                "grl engine, {} threads", threads
            );
        }

        // The per-crate hooks run the same loops.
        prop_assert_eq!(neuron.eval_batch(&volleys).unwrap(), seq_neuron);
        let compiled = event.compile(&network);
        let mut scratch = NetScratch::default();
        let hook_net: Vec<Volley> = volleys
            .iter()
            .map(|v| {
                let mut out = vec![Time::INFINITY; compiled.output_count()];
                compiled
                    .eval_into(v.times(), &mut out, &mut scratch, &mut NullInstrument)
                    .unwrap();
                Volley::new(out)
            })
            .collect();
        prop_assert_eq!(hook_net, seq_net);
        let input = VolleyBatch::from_fn(width, volleys.len(), |row, line| volleys[row].times()[line]);
        let mut hook_grl = VolleyBatch::default();
        cmos.run_batch(&netlist, &input, &mut hook_grl, &mut NullInstrument)
            .unwrap();
        prop_assert_eq!(hook_grl.to_volleys(), seq_grl);
    }

    /// A compiled table artifact reproduces sequential `FunctionTable::eval`
    /// bit-for-bit at every thread count.
    #[test]
    fn batch_table_matches_sequential_table_eval(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
    ) {
        let width = neuron.synapses().len();
        // Sample the neuron into a normalized table; SRM0 neurons are
        // space-time functions, so this always succeeds.
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        let volleys: Vec<Volley> = raw_volleys
            .iter()
            .map(|v| Volley::new(v[..width].to_vec()))
            .collect();
        let seq: Vec<Volley> = volleys
            .iter()
            .map(|v| Volley::new(vec![table.eval(v.times()).unwrap()]))
            .collect();
        let artifact = CompiledArtifact::from_table(&table);
        for threads in [1usize, 2, 7] {
            let evaluator = BatchEvaluator::with_threads(threads);
            prop_assert_eq!(
                &evaluator.eval(&artifact, &volleys).unwrap(),
                &seq,
                "{} threads", threads
            );
        }
    }

    /// A WTA column artifact reproduces the sequential `Column::eval` loop
    /// at every thread count, as does the `Column::eval_batch` hook.
    #[test]
    fn batch_column_matches_sequential_column(
        neurons in prop::collection::vec(arb_neuron(), 2..4),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
    ) {
        let width = neurons.iter().map(|n| n.synapses().len()).min().unwrap();
        let neurons: Vec<Srm0Neuron> = neurons
            .into_iter()
            .map(|n| {
                Srm0Neuron::new(
                    n.unit_response().clone(),
                    n.synapses()[..width].to_vec(),
                    n.threshold(),
                )
            })
            .collect();
        let column = Column::new(neurons, Inhibition::one_wta());
        let volleys: Vec<Volley> = raw_volleys
            .iter()
            .map(|v| Volley::new(v[..width].to_vec()))
            .collect();
        let seq: Vec<Volley> = volleys.iter().map(|v| column.eval(v)).collect();
        prop_assert_eq!(&column.eval_batch(&volleys).unwrap(), &seq);
        let artifact = CompiledArtifact::from(column);
        for threads in [1usize, 2, 7] {
            let evaluator = BatchEvaluator::with_threads(threads);
            prop_assert_eq!(
                &evaluator.eval(&artifact, &volleys).unwrap(),
                &seq,
                "{} threads", threads
            );
        }
    }
}
