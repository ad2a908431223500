//! E13 — § VI conjecture 1: the minimal-transition property and the
//! sparse-coding energy argument, measured as switching activity.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_bench::{banner, f3, print_table};
use st_core::Time;
use st_grl::{
    binary_baseline_transitions, compile_network, estimate_energy, measure_energy, EnergyModel,
    GrlSim,
};
use st_net::gate_counts;
use st_neuron::structural::srm0_network;
use st_neuron::{ResponseFn, Srm0Neuron, Synapse};

fn main() {
    banner(
        "E13 switching activity",
        "§ VI conjecture 1",
        "every wire switches at most once per computation; sparse volleys \
         leave most wires untouched — activity scales with input density",
    );

    // Fixture: a structural SRM0 neuron compiled to CMOS.
    let neuron = Srm0Neuron::new(
        ResponseFn::fig11_biexponential(),
        vec![
            Synapse::excitatory(1),
            Synapse::excitatory(1),
            Synapse::excitatory(1),
            Synapse::excitatory(1),
        ],
        8,
    );
    let network = srm0_network(&neuron);
    let netlist = compile_network(&network);
    println!(
        "\nfixture: 4-input fig11 SRM0, θ=8 → {} algebraic ops, {} CMOS wires",
        gate_counts(&network).operators(),
        netlist.wire_count()
    );

    // Minimal-transition property: wires fall at most once.
    let sim = GrlSim::new();
    let dense = [Time::ZERO, Time::finite(1), Time::finite(2), Time::ZERO];
    let report = sim.run(&netlist, &dense).unwrap();
    assert!(report.eval_transitions <= netlist.wire_count());
    println!(
        "dense volley: {} of {} wires switched exactly once (activity {}), none twice.",
        report.eval_transitions,
        netlist.wire_count(),
        f3(report.activity_factor())
    );

    // Density sweep.
    println!("\nswitching activity vs input density (200 random volleys per row):");
    let mut rng = StdRng::seed_from_u64(99);
    let mut rows = Vec::new();
    for &density in &[1.0f64, 0.75, 0.5, 0.25, 0.1, 0.0] {
        let volleys: Vec<Vec<Time>> = (0..200)
            .map(|_| {
                (0..4)
                    .map(|_| {
                        if rng.random_bool(density) {
                            Time::finite(rng.random_range(0..8))
                        } else {
                            Time::INFINITY
                        }
                    })
                    .collect()
            })
            .collect();
        let stats = measure_energy(&netlist, volleys.iter().map(Vec::as_slice)).unwrap();
        rows.push(vec![
            f3(density),
            f3(stats.mean_eval_transitions),
            f3(stats.mean_total_transitions),
            f3(stats.mean_activity_factor),
            stats.max_eval_transitions.to_string(),
        ]);
    }
    print_table(
        &[
            "density",
            "eval transitions",
            "with reset",
            "activity",
            "max",
        ],
        &rows,
    );

    // The paper's § V.B caveat, quantified: clocked shift registers pay
    // energy every cycle, data or not.
    println!("\nclock-overhead split (per-gate energy model, § V.B caveat):");
    let model = EnergyModel::default();
    let mut rows = Vec::new();
    for (name, inputs) in [
        (
            "dense volley",
            vec![Time::ZERO, Time::finite(1), Time::finite(2), Time::ZERO],
        ),
        (
            "sparse volley",
            vec![
                Time::INFINITY,
                Time::finite(1),
                Time::INFINITY,
                Time::INFINITY,
            ],
        ),
        ("silent volley", vec![Time::INFINITY; 4]),
    ] {
        let report = sim.run(&netlist, &inputs).unwrap();
        let e = estimate_energy(&netlist, &report, &model);
        rows.push(vec![
            name.to_string(),
            f3(e.switching),
            f3(e.clocking),
            f3(e.clock_fraction()),
        ]);
    }
    // A delay-heavy circuit (race-logic shortest path) for contrast.
    {
        let dag = st_grl::shortest_path::WeightedDag::random(32, 4, 0.5, 6, 32);
        let spnet = compile_network(&dag.to_network(0));
        let report = sim.run(&spnet, &[Time::ZERO]).unwrap();
        let e = estimate_energy(&spnet, &report, &model);
        rows.push(vec![
            "shortest-path circuit (delay-heavy)".to_string(),
            f3(e.switching),
            f3(e.clocking),
            f3(e.clock_fraction()),
        ]);
    }
    print_table(
        &["workload", "switching", "clocking", "clock fraction"],
        &rows,
    );
    println!(
        "\nthe sparser the data, the more the clocked delay elements \
         dominate — the effect the paper flags as needing quantification."
    );

    // Binary strawman comparison at matched (low) resolution.
    let ops = gate_counts(&network).operators();
    println!("\nbinary-datapath strawman (same operator count, per § VI's framing):");
    let rows: Vec<Vec<String>> = [3u32, 4, 8, 16, 32]
        .iter()
        .map(|&bits| vec![bits.to_string(), f3(binary_baseline_transitions(ops, bits))])
        .collect();
    print_table(&["binary width (bits)", "est. transitions/eval"], &rows);
    println!(
        "\nshape check: unary GRL activity falls with sparsity and is \
         bounded by one switch per wire; a binary datapath's switching \
         grows with word width regardless of sparsity — the crossover \
         favours GRL exactly in the paper's low-resolution, sparse regime."
    );

    if let Some(trace_path) = st_bench::trace_out_arg() {
        // Probed cycle-accurate runs of the three § V.B workloads: the
        // wire-fall events are the transitions the tables above count.
        let mut recorder = st_obs::Recorder::new();
        for (index, inputs) in [
            vec![Time::ZERO, Time::finite(1), Time::finite(2), Time::ZERO],
            vec![
                Time::INFINITY,
                Time::finite(1),
                Time::INFINITY,
                Time::INFINITY,
            ],
            vec![Time::INFINITY; 4],
        ]
        .iter()
        .enumerate()
        {
            recorder.begin_volley(index);
            sim.run_with(&netlist, inputs, &mut recorder).unwrap();
        }
        st_bench::write_trace(&trace_path, recorder.events());
    }
}
