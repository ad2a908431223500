//! E14 — § II.A + refs \[20]\[21]\[37]: STDP emergence. A WTA column trained
//! unsupervised on volleys containing repeating patterns becomes
//! pattern-selective, and trained neurons fire *early* on their pattern.

use st_bench::{banner, f3, print_table};
use st_tnn::data::PatternDataset;
use st_tnn::stdp::StdpParams;
use st_tnn::train::{evaluate_column, fresh_column, train_column, TrainConfig};

fn main() {
    banner(
        "E14 STDP emergence",
        "§ II.A and the Guyonneau/Masquelier-Thorpe results it builds on",
        "purely local, unsupervised STDP + WTA partitions repeating \
         patterns across neurons; trained neurons spike early on their \
         learned pattern and late-or-never otherwise",
    );

    // Accuracy vs training length.
    println!("\naccuracy vs presentations (4 patterns, 24 lines, jitter 1, 20% noise volleys):");
    let mut rows = Vec::new();
    for &presentations in &[0usize, 50, 100, 200, 400, 800] {
        let mut ds = PatternDataset::new(4, 24, 7, 1, 0.2, 7);
        let config = TrainConfig {
            stdp: StdpParams::default(),
            seed: 11,
            rescue: true,
            adapt_threshold: false,
        };
        let mut col = fresh_column(4, 24, 0.25, &config);
        let stream = ds.stream(presentations, 0.8);
        let report = train_column(&mut col, &stream, &config);
        let test = ds.stream(300, 1.0);
        let assignment = evaluate_column(&col, &test, 4);
        rows.push(vec![
            presentations.to_string(),
            report.updates.to_string(),
            f3(assignment.accuracy()),
            f3(assignment.normalized_mutual_information()),
            f3(assignment.silence_rate()),
            format!("{}/4", assignment.coverage()),
        ]);
    }
    print_table(
        &[
            "presentations",
            "updates",
            "accuracy",
            "NMI",
            "silence",
            "classes covered",
        ],
        &rows,
    );

    // Early-spike claim: output latency on learned vs unfamiliar patterns.
    println!("\noutput latency after training (learned pattern vs noise volleys):");
    let mut ds = PatternDataset::new(2, 24, 7, 0, 0.5, 21);
    let config = TrainConfig {
        stdp: StdpParams::default(),
        seed: 3,
        rescue: true,
        adapt_threshold: false,
    };
    let mut col = fresh_column(2, 24, 0.25, &config);
    let stream = ds.stream(600, 0.8);
    if let Some(trace_path) = st_bench::trace_out_arg() {
        // Traced variant of the same run: WTA decisions and STDP weight
        // deltas per presentation (bit-identical to the untraced training).
        let mut recorder = st_obs::Recorder::new();
        st_tnn::train::train_column_with(&mut col, &stream, &config, &mut recorder);
        st_bench::write_trace(&trace_path, recorder.events());
    } else {
        train_column(&mut col, &stream, &config);
    }
    let mut rows = Vec::new();
    for k in 0..2 {
        let sample = ds.present(k);
        let out = col.eval_raw(&sample.volley);
        let winner = col.winner(&sample.volley);
        rows.push(vec![
            format!("pattern {k}"),
            out.to_string(),
            winner.map_or("-".to_string(), |w| w.to_string()),
        ]);
    }
    for i in 0..3 {
        let noise = ds.noise();
        let out = col.eval_raw(&noise.volley);
        rows.push(vec![
            format!("noise {i}"),
            out.to_string(),
            col.winner(&noise.volley)
                .map_or("-".to_string(), |w| w.to_string()),
        ]);
    }
    print_table(&["input", "raw outputs", "winner"], &rows);

    println!(
        "\nshape check: accuracy climbs from chance to ≈1.0 with exposure; \
         each pattern is owned by a distinct neuron; learned patterns elicit \
         early spikes while unfamiliar volleys elicit late spikes or none — \
         the emergent behaviour the paper attributes to the uniform passage \
         of global time (§ VI conjecture 2)."
    );
}
