//! E20 (extension) — § II.C deep TNNs (Kheradpisheh-style): a two-stage
//! hierarchy — local receptive-field columns feeding a WTA classifier —
//! trained purely by local STDP on latency-encoded oriented-bar images.

use st_bench::{banner, f3, print_table};
use st_tnn::images::{Orientation, OrientedBarDataset};
use st_tnn::metrics::Assignment;
use st_tnn::patch::PatchLayer;
use st_tnn::stdp::StdpParams;
use st_tnn::train::{fresh_column, train_column, TrainConfig};

fn main() {
    banner(
        "E20 vision hierarchy",
        "§ II.C (Kheradpisheh et al.; Masquelier-Thorpe architectures)",
        "a receptive-field layer + WTA classifier, trained layer-by-layer \
         with unsupervised STDP, classifies oriented bars from spike \
         latencies alone",
    );

    let size = 8;
    let mut demo = OrientedBarDataset::new(size, 0, 0.05, 3, 99);
    println!(
        "\nworkload: {size}×{size} latency-encoded images, 4 orientations, \
         5% pixel noise (plus a ±1 px translation-stress variant)."
    );
    let sample = demo.sample_of(Orientation::Diagonal);
    println!(
        "example ‘\\’ sample (█ = early spike):\n{}",
        demo.ascii(&sample.volley)
    );

    let config = TrainConfig {
        stdp: StdpParams::default(),
        seed: 21,
        rescue: true,
        adapt_threshold: false,
    };

    let run = |ds: &mut OrientedBarDataset, n_train: usize| -> Assignment {
        // Layer 1: 2×2 grid of 4×4 receptive fields, 8 features each.
        // A bar contributes ~4 lit pixels per crossed patch, so θ is
        // sized to that activity (0.15 · 16 · w_max ≈ 17).
        let mut layer1 = PatchLayer::tiled_image(size, size, 4, 8, 0.15, &config);
        // Layer 2: a 4-neuron WTA classifier over the 32 feature lines.
        // The feature volley is sparse (one winner per active patch,
        // typically 2–4 spikes), so θ must be reachable from ~2 lines.
        let mut layer2 = fresh_column(4, layer1.output_width(), 0.05, &config);

        let stream = ds.stream(n_train);
        layer1.train(&stream, &config);
        let transformed = layer1.transform(&stream);
        for _ in 0..2 {
            train_column(&mut layer2, &transformed, &config);
        }

        let test = ds.stream(400);
        let mut assignment = Assignment::new(4, 4);
        for s in &test {
            let features = layer1.eval(&s.volley);
            assignment.record(layer2.winner(&features), s.label.unwrap());
        }
        assignment
    };

    println!("accuracy vs training stream length (fresh model per row, centered bars):");
    let mut rows = Vec::new();
    for &n_train in &[0usize, 100, 300, 600, 1200] {
        let mut ds = OrientedBarDataset::new(size, 0, 0.05, 3, 99);
        let a = run(&mut ds, n_train);
        rows.push(vec![
            n_train.to_string(),
            f3(a.accuracy()),
            f3(a.silence_rate()),
            format!("{}/4", a.coverage()),
        ]);
    }
    print_table(
        &["training samples", "accuracy", "silence", "classes covered"],
        &rows,
    );

    println!("\ntranslation stress: same pipeline, bars shifted ±1 px per sample:");
    let mut rows = Vec::new();
    for &n_train in &[600usize, 1200] {
        let mut ds = OrientedBarDataset::new(size, 1, 0.05, 3, 99);
        let a = run(&mut ds, n_train);
        rows.push(vec![
            n_train.to_string(),
            f3(a.accuracy()),
            f3(a.silence_rate()),
            format!("{}/4", a.coverage()),
        ]);
    }
    print_table(
        &["training samples", "accuracy", "silence", "classes covered"],
        &rows,
    );

    println!(
        "\nshape check: the untrained hierarchy is at chance; a few hundred \
         unlabeled samples take the local-STDP stack to high accuracy on \
         centered bars — the qualitative Kheradpisheh result (feature layer \
         + WTA decisions, all learning local) on a synthetic stand-in. \
         Translation costs accuracy, as expected for a shallow hierarchy \
         without the deeper pooling stages of the full architectures."
    );

    if let Some(trace_path) = st_bench::trace_out_arg() {
        // Probe the classifier column of a freshly trained hierarchy on a
        // handful of test images: potentials, spikes, and WTA decisions.
        let mut ds = OrientedBarDataset::new(size, 0, 0.05, 3, 99);
        let mut layer1 = PatchLayer::tiled_image(size, size, 4, 8, 0.15, &config);
        let mut layer2 = fresh_column(4, layer1.output_width(), 0.05, &config);
        let stream = ds.stream(300);
        layer1.train(&stream, &config);
        let transformed = layer1.transform(&stream);
        for _ in 0..2 {
            train_column(&mut layer2, &transformed, &config);
        }
        let mut recorder = st_obs::Recorder::new();
        for (index, s) in ds.stream(8).iter().enumerate() {
            recorder.begin_volley(index);
            layer2
                .eval_with(layer1.eval(&s.volley).times(), &mut recorder)
                .expect("layer 1 emits layer 2's input width");
        }
        st_bench::write_trace(&trace_path, recorder.events());
    }
}
