//! E26 — § V energy accounting from live performance counters
//! (extension): the `grl.*` metrics the cycle-accurate simulator streams
//! into an `st-metrics` registry regenerate the Section V
//! transition-count (energy-proxy) tables, and agree exactly with the
//! per-run `GrlReport` numbers E13 derives offline.

use st_bench::{banner, f3, print_table};
use st_core::Time;
use st_grl::{compile_network, estimate_energy, EnergyModel, GrlBuilder, GrlNetlist, GrlSim};
use st_metrics::MetricsRegistry;
use st_net::sorting::sorting_network;
use st_neuron::structural::srm0_network;
use st_neuron::{ResponseFn, Srm0Neuron, Synapse};

fn t(v: u64) -> Time {
    Time::finite(v)
}

/// Fig. 16's four primitives on two shared inputs.
fn primitives_netlist() -> GrlNetlist {
    let mut b = GrlBuilder::new();
    let x = b.input();
    let y = b.input();
    let mn = b.and2(x, y);
    let mx = b.or2(x, y);
    let less = b.lt(x, y);
    let inc2 = b.shift_register(x, 2);
    b.build([mn, mx, less, inc2])
}

fn main() {
    banner(
        "E26 counter-driven energy tables",
        "§ V.A–B + § VI conjecture 1 (extension)",
        "the grl.* performance counters reproduce the switching-activity \
         energy proxy live, with zero drift from the offline reports",
    );

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
    let circuits: Vec<(&str, GrlNetlist)> = vec![
        ("fig16 primitives", primitives_netlist()),
        ("bitonic sorter n=4", compile_network(&sorting_network(4))),
        ("fig11 SRM0 neuron", compile_network(&srm0_network(&neuron))),
    ];

    let workloads = |width: usize| -> Vec<(&'static str, Vec<Time>)> {
        vec![
            ("dense", (0..width).map(|i| t(i as u64 % 4)).collect()),
            (
                "sparse",
                (0..width)
                    .map(|i| if i == 0 { t(1) } else { Time::INFINITY })
                    .collect(),
            ),
            ("silent", vec![Time::INFINITY; width]),
        ]
    };

    println!(
        "\ntransition counts straight from the metrics registry \
         (energy proxy: one unit per 1→0 switch, § VI conjecture 1):"
    );
    let sim = GrlSim::new();
    let model = EnergyModel::default();
    let mut rows = Vec::new();
    for (name, netlist) in &circuits {
        for (load, inputs) in workloads(netlist.input_count()) {
            let mut registry = MetricsRegistry::new();
            let report = sim.run_with(netlist, &inputs, &mut registry).unwrap();

            // The live counters must agree exactly with the offline report.
            let counter = |key: &'static str| registry.counter(key);
            assert_eq!(
                counter("grl.wire_transitions"),
                report.eval_transitions as u64
            );
            assert_eq!(
                counter("grl.reset_transitions"),
                report.reset_transitions as u64
            );
            assert_eq!(counter("grl.cycles"), report.cycles);
            assert_eq!(counter("grl.runs"), 1);

            let energy = estimate_energy(netlist, &report, &model);
            rows.push(vec![
                name.to_string(),
                load.to_string(),
                counter("grl.wire_transitions").to_string(),
                counter("grl.reset_transitions").to_string(),
                counter("grl.latch_captures").to_string(),
                counter("grl.cycles").to_string(),
                f3(energy.switching),
                f3(energy.clocking),
            ]);
        }
    }
    print_table(
        &[
            "circuit",
            "volley",
            "grl.wire_transitions",
            "grl.reset_transitions",
            "grl.latch_captures",
            "grl.cycles",
            "switching E",
            "clocking E",
        ],
        &rows,
    );

    println!(
        "\nshape check: counters fall with input sparsity (most wires idle \
         on sparse volleys) while cycle counts — the clocking energy the \
         § V.B caveat flags — do not; every row's counters matched the \
         offline GrlReport bit-for-bit. The same counters stream from \
         `spacetime bench` and `spacetime trace --format prom` \
         (docs/metrics.md)."
    );
}
