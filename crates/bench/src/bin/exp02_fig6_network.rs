//! E02 — Fig. 6: the three primitive blocks and the example network, with
//! per-gate spike times and space-time property verification.

use st_bench::{banner, print_table};
use st_core::{ops, verify_space_time, Time};
use st_net::{EventSim, NetworkBuilder};

fn t(v: u64) -> Time {
    Time::finite(v)
}

fn main() {
    banner(
        "E02 primitive blocks + example network",
        "Fig. 6(a) and 6(b)",
        "inc/min/lt satisfy causality and invariance, and compose into \
         feedforward networks whose spike times follow the algebra",
    );

    println!("\nFig. 6(a) primitive behaviours:");
    let rows = vec![
        vec![
            "inc (+1)".to_string(),
            "3".to_string(),
            "-".to_string(),
            ops::inc(t(3), 1).to_string(),
        ],
        vec![
            "min (∧)".to_string(),
            "3".to_string(),
            "5".to_string(),
            ops::min(t(3), t(5)).to_string(),
        ],
        vec![
            "lt (≺)".to_string(),
            "3".to_string(),
            "5".to_string(),
            ops::lt(t(3), t(5)).to_string(),
        ],
        vec![
            "lt (≺)".to_string(),
            "5".to_string(),
            "3".to_string(),
            ops::lt(t(5), t(3)).to_string(),
        ],
        vec![
            "lt (≺)".to_string(),
            "4".to_string(),
            "4".to_string(),
            ops::lt(t(4), t(4)).to_string(),
        ],
    ];
    print_table(&["block", "a", "b", "out"], &rows);

    // Fig. 6(b): y = lt(min(a + 1, b), c).
    let mut b = NetworkBuilder::new();
    let a = b.input();
    let x = b.input();
    let c = b.input();
    let a1 = b.inc(a, 1);
    let m = b.min([a1, x]).unwrap();
    let y = b.lt(m, c);
    let net = b.build([y]);

    println!("\nFig. 6(b) network y = lt(min(a+1, b), c), spike times per gate:");
    let cases = [
        [t(0), t(3), t(2)],
        [t(2), t(1), t(5)],
        [t(0), t(0), t(0)],
        [t(1), Time::INFINITY, Time::INFINITY],
    ];
    let mut rows = Vec::new();
    for inputs in &cases {
        let trace = net.trace(inputs).unwrap();
        rows.push(vec![
            format!("[{}, {}, {}]", inputs[0], inputs[1], inputs[2]),
            trace[3].to_string(),
            trace[4].to_string(),
            trace[5].to_string(),
        ]);
    }
    print_table(&["inputs [a,b,c]", "a+1", "min", "y"], &rows);

    // Both evaluators agree; the network is a space-time function.
    let sim = EventSim::new();
    for inputs in st_core::enumerate_inputs(3, 5) {
        assert_eq!(
            sim.run(&net, &inputs).unwrap().outputs,
            net.eval(&inputs).unwrap()
        );
    }
    verify_space_time(&net.as_function(0), 4, 3, None).unwrap();
    println!("\nverified: causality + invariance over window 4, shifts 1..=3;");
    println!("functional and event-driven evaluators agree on all 216 inputs.");

    if let Some(trace_path) = st_bench::trace_out_arg() {
        let compiled = sim.compile(&net);
        let mut recorder = st_obs::Recorder::new();
        for (index, inputs) in cases.iter().enumerate() {
            recorder.begin_volley(index);
            compiled.run_with(inputs, &mut recorder).unwrap();
        }
        st_bench::write_trace(&trace_path, recorder.events());
    }
}
