//! E10 — Fig. 15 / § IV.C: winner-take-all lateral inhibition, including
//! the τ-window and k-winner generalizations the paper sketches.

use st_bench::{banner, print_table};
use st_core::{Time, Volley};
use st_net::wta::{k_wta_network, wta_network};

fn t(v: u64) -> Time {
    Time::finite(v)
}

fn main() {
    banner(
        "E10 winner-take-all",
        "Fig. 15 / § IV.C",
        "min + unit delay + per-line lt pass only the first spikes; the \
         window widens with the delay τ, and sorting yields k-WTA",
    );

    let volley = [t(2), t(5), t(2), t(7), Time::INFINITY];
    println!("\ninput volley: {}", Volley::new(volley.to_vec()));

    println!("\nτ sweep (Fig. 15 is τ = 1):");
    let mut rows = Vec::new();
    for tau in 1..=4u64 {
        let net = wta_network(5, tau);
        let out = Volley::new(net.eval(&volley).unwrap());
        rows.push(vec![
            tau.to_string(),
            out.to_string(),
            out.spike_count().to_string(),
        ]);
    }
    print_table(&["τ", "surviving volley", "spikes"], &rows);

    println!("\nk-WTA via a sorting network:");
    let mut rows = Vec::new();
    for k in 1..=4usize {
        let net = k_wta_network(5, k);
        let out = Volley::new(net.eval(&volley).unwrap());
        rows.push(vec![
            k.to_string(),
            out.to_string(),
            out.spike_count().to_string(),
        ]);
    }
    print_table(&["k", "surviving volley", "spikes"], &rows);

    // Tie handling: coincident winners all survive.
    let tie = [t(3), t(3), t(9)];
    let out = Volley::new(wta_network(3, 1).eval(&tie).unwrap());
    println!("\ntie handling: input [3, 3, 9] → {out} (coincident firsts both survive —");
    println!("temporal coding cannot order simultaneous events).");

    println!(
        "\nshape check: exactly the spikes strictly inside [first, first+τ) \
         survive; k-WTA passes the k earliest (ties included), matching the \
         paper's parameterized notion of \"first\"."
    );

    if let Some(trace_path) = st_bench::trace_out_arg() {
        // One probed event-driven run per τ on the Fig. 15 volley.
        let sim = st_net::EventSim::new();
        let mut recorder = st_obs::Recorder::new();
        for (index, tau) in (1..=4u64).enumerate() {
            recorder.begin_volley(index);
            sim.compile(&wta_network(5, tau))
                .run_with(&volley, &mut recorder)
                .unwrap();
        }
        st_bench::write_trace(&trace_path, recorder.events());
    }
}
