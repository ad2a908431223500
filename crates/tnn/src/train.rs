//! Unsupervised WTA + STDP training of columns.
//!
//! The learning scheme common to the TNN architectures the paper surveys
//! (§ II.C): present volleys; the column's first-spiking neuron wins the
//! lateral-inhibition race and is the only one to receive an STDP update.
//! Training is fully local and unsupervised; labels are used only for
//! *evaluation* (assigning trained neurons to classes by majority vote).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_neuron::{ResponseFn, Srm0Neuron, Synapse};
use st_obs::ObsEvent;
use st_trace::{Instrument, NullInstrument};

use crate::column::{Column, Inhibition};
use crate::data::LabelledVolley;
use crate::metrics::Assignment;
use crate::stdp::{apply_stdp, StdpParams};

/// Configuration for unsupervised column training.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// The STDP rule parameters.
    pub stdp: StdpParams,
    /// Random seed for weight initialization.
    pub seed: u64,
    /// Homeostatic rescue: when *no* neuron fires on a volley, the neuron
    /// with the highest final potential receives a potentiation-only
    /// update. Without some homeostasis, a pattern whose responders all
    /// depress below threshold goes permanently silent (STDP requires a
    /// postsynaptic spike); this is the integer-weight analogue of the
    /// adaptive-threshold/homeostasis mechanisms used throughout the TNN
    /// literature the paper surveys.
    pub rescue: bool,
    /// Adaptive-threshold homeostasis (the Diehl-&-Cook-style
    /// alternative): each win raises the winner's threshold by one, each
    /// all-silent volley lowers every threshold by one (floored at 1) —
    /// frequent winners get harder to excite, silent columns easier.
    /// Composable with `rescue`; the E22 ablation compares the variants.
    pub adapt_threshold: bool,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            stdp: StdpParams::default(),
            seed: 0,
            rescue: true,
            adapt_threshold: false,
        }
    }
}

/// Summary statistics of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Number of volleys presented.
    pub presentations: usize,
    /// Presentations on which some neuron fired (and learned).
    pub updates: usize,
    /// Per-neuron win counts.
    pub wins: Vec<usize>,
    /// Total weight changes applied.
    pub weight_changes: usize,
}

/// Builds an untrained column of `n_neurons` step-response neurons over
/// `width` inputs with random initial weights in the upper half of the
/// weight range (so untrained neurons fire readily and STDP can begin —
/// the standard initialization in the Masquelier-Thorpe line of work).
///
/// The threshold is set to `threshold_fraction` of the maximum achievable
/// potential (`width × w_max`), clamped to at least 1.
///
/// # Panics
///
/// Panics if `n_neurons == 0` or `width == 0`, or if
/// `threshold_fraction ∉ (0, 1]`.
#[must_use]
pub fn fresh_column(
    n_neurons: usize,
    width: usize,
    threshold_fraction: f64,
    config: &TrainConfig,
) -> Column {
    assert!(n_neurons > 0 && width > 0, "column shape must be non-empty");
    assert!(
        threshold_fraction > 0.0 && threshold_fraction <= 1.0,
        "threshold fraction must be in (0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let w_max = config.stdp.w_max;
    let theta = ((width as f64 * f64::from(w_max) * threshold_fraction).round() as u32).max(1);
    let neurons = (0..n_neurons)
        .map(|_| {
            let synapses = (0..width)
                .map(|_| Synapse::new(0, rng.random_range(w_max / 2..=w_max)))
                .collect();
            Srm0Neuron::new(ResponseFn::step(1), synapses, theta)
        })
        .collect();
    Column::new(neurons, Inhibition::one_wta())
}

/// Trains a column on a stream of volleys: per presentation, the winning
/// neuron receives one STDP update. Simultaneous first spikes are broken
/// *randomly* (seeded by `config.seed + 1`): under temporal coding,
/// coincident spikes carry no ordering information, and a deterministic
/// tie-break would let one neuron monopolize the early WTA races.
pub fn train_column(
    column: &mut Column,
    stream: &[LabelledVolley],
    config: &TrainConfig,
) -> TrainReport {
    train_column_with(column, stream, config, &mut NullInstrument)
}

/// [`train_column`] under an instrument. The events mark each
/// presentation ([`ObsEvent::VolleyStart`]), record the WTA outcome of
/// every volley ([`ObsEvent::WtaDecision`], silent decisions included) and
/// one [`ObsEvent::WeightDelta`] per synapse weight an STDP (or rescue)
/// update actually changed; the counters are the `stdp.*` counts —
/// presentations, winner STDP updates, individual weight deltas, and
/// homeostatic rescues. With [`NullInstrument`] this is exactly
/// [`train_column`] — the instrument never touches the RNG, so trained
/// weights are identical.
pub fn train_column_with(
    column: &mut Column,
    stream: &[LabelledVolley],
    config: &TrainConfig,
    inst: &mut impl Instrument,
) -> TrainReport {
    let params = &config.stdp;
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut rescues = 0u64;
    let mut report = TrainReport {
        presentations: 0,
        updates: 0,
        wins: vec![0; column.output_width()],
        weight_changes: 0,
    };
    for (index, sample) in stream.iter().enumerate() {
        if inst.events_live() {
            inst.record(ObsEvent::VolleyStart { index });
        }
        report.presentations += 1;
        let tied = column.tied_winners(&sample.volley);
        if tied.is_empty() {
            if inst.events_live() {
                inst.record(ObsEvent::WtaDecision {
                    winner: None,
                    tied: 0,
                });
            }
            if config.rescue {
                let before = report.weight_changes;
                rescue_update(column, &sample.volley, params, &mut report, inst);
                if inst.counters_live() && report.weight_changes > before {
                    rescues += 1;
                }
            }
            if config.adapt_threshold && sample.volley.spike_count() > 0 {
                for neuron in column.neurons_mut() {
                    let theta = neuron.threshold();
                    if theta > 1 {
                        neuron.set_threshold(theta - 1);
                    }
                }
            }
            continue;
        }
        let winner = tied[rng.random_range(0..tied.len())];
        if inst.events_live() {
            inst.record(ObsEvent::WtaDecision {
                winner: Some(winner),
                tied: tied.len(),
            });
        }
        let output = column.neurons()[winner].eval(sample.volley.times());
        report.updates += 1;
        report.wins[winner] += 1;
        report.weight_changes += stdp_update(
            &mut column.neurons_mut()[winner],
            winner,
            &sample.volley,
            output,
            params,
            inst,
        );
        if config.adapt_threshold {
            let neuron = &mut column.neurons_mut()[winner];
            let theta = neuron.threshold();
            neuron.set_threshold(theta + 1);
        }
    }
    if inst.counters_live() {
        inst.incr("stdp.presentations", report.presentations as u64);
        inst.incr("stdp.updates", report.updates as u64);
        inst.incr("stdp.weight_deltas", report.weight_changes as u64);
        inst.incr("stdp.rescues", rescues);
    }
    report
}

/// Applies STDP to one neuron, emitting a [`ObsEvent::WeightDelta`] per
/// synapse whose weight actually moved. Snapshots weights only when
/// events are live, so the plain path stays allocation-free.
fn stdp_update(
    neuron: &mut Srm0Neuron,
    index: usize,
    volley: &st_core::Volley,
    output: st_core::Time,
    params: &StdpParams,
    inst: &mut impl Instrument,
) -> usize {
    let before: Vec<i32> = if inst.events_live() {
        neuron.synapses().iter().map(|s| s.weight).collect()
    } else {
        Vec::new()
    };
    let changes = apply_stdp(neuron, volley, output, params);
    if inst.events_live() {
        for (synapse, (&b, s)) in before.iter().zip(neuron.synapses()).enumerate() {
            if b != s.weight {
                inst.record(ObsEvent::WeightDelta {
                    neuron: index,
                    synapse,
                    before: b,
                    after: s.weight,
                });
            }
        }
    }
    changes
}

/// Potentiation-only update for the best-matching neuron of a volley on
/// which nothing fired.
fn rescue_update(
    column: &mut Column,
    volley: &st_core::Volley,
    params: &StdpParams,
    report: &mut TrainReport,
    inst: &mut impl Instrument,
) {
    let pseudo_output = volley.last_spike();
    if pseudo_output.is_infinite() {
        return; // empty volley: nothing to learn from
    }
    // Best match = highest potential *ever reached* (not the potential at
    // the last input spike: responses rise after arrival, so that reading
    // would be 0 for every neuron and mistarget the rescue).
    let best = (0..column.output_width())
        .max_by_key(|&i| column.neurons()[i].max_potential(volley.times()));
    if let Some(best) = best {
        let potentiate_only = StdpParams {
            a_minus: 0,
            ..*params
        };
        report.weight_changes += stdp_update(
            &mut column.neurons_mut()[best],
            best,
            volley,
            pseudo_output,
            &potentiate_only,
            inst,
        );
    }
}

/// Evaluates a trained column on labelled data: assigns each neuron to a
/// class by majority vote over the winners, then scores accuracy.
#[must_use]
pub fn evaluate_column(column: &Column, stream: &[LabelledVolley], n_classes: usize) -> Assignment {
    let mut assignment = Assignment::new(column.output_width(), n_classes);
    for sample in stream {
        if let Some(label) = sample.label {
            assignment.record(column.winner(&sample.volley), label);
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::PatternDataset;
    use st_core::Volley;

    #[test]
    fn fresh_column_shape_and_thresholds() {
        let config = TrainConfig::default();
        let col = fresh_column(4, 10, 0.3, &config);
        assert_eq!(col.output_width(), 4);
        assert_eq!(col.input_width(), 10);
        let theta = col.neurons()[0].threshold();
        assert_eq!(theta, 21); // 10 × 7 × 0.3 = 21
        for n in col.neurons() {
            for s in n.synapses() {
                assert!((3..=7).contains(&s.weight));
            }
        }
    }

    #[test]
    fn fresh_column_is_seed_deterministic() {
        let config = TrainConfig::default();
        let a = fresh_column(2, 5, 0.4, &config);
        let b = fresh_column(2, 5, 0.4, &config);
        for (x, y) in a.neurons().iter().zip(b.neurons()) {
            assert_eq!(x.synapses(), y.synapses());
        }
    }

    #[test]
    fn training_specializes_neurons_to_patterns() {
        // Two distinct patterns; a 2-neuron column should partition them.
        let mut ds = PatternDataset::new(2, 16, 7, 0, 0.0, 42);
        let config = TrainConfig {
            stdp: StdpParams::default(),
            seed: 7,
            rescue: true,
            adapt_threshold: false,
        };
        let mut col = fresh_column(2, 16, 0.25, &config);
        let stream = ds.stream(400, 1.0);
        let report = train_column(&mut col, &stream, &config);
        assert_eq!(report.presentations, 400);
        assert!(report.updates > 0);

        // Evaluate on fresh presentations.
        let test = ds.stream(100, 1.0);
        let assignment = evaluate_column(&col, &test, 2);
        let accuracy = assignment.accuracy();
        assert!(
            accuracy > 0.9,
            "expected specialization, accuracy {accuracy} ({assignment:?})"
        );
    }

    #[test]
    fn training_report_accounts_wins() {
        let mut ds = PatternDataset::new(1, 8, 5, 0, 0.0, 3);
        let config = TrainConfig::default();
        let mut col = fresh_column(2, 8, 0.25, &config);
        let stream = ds.stream(50, 1.0);
        let report = train_column(&mut col, &stream, &config);
        assert_eq!(report.wins.iter().sum::<usize>(), report.updates);
        assert!(report.weight_changes > 0);
    }

    #[test]
    fn adaptive_threshold_balances_wins() {
        // Single pattern, two neurons: without adaptation the same neuron
        // wins forever; with adaptation its rising threshold lets the
        // other neuron take a share.
        let mut ds = PatternDataset::new(1, 8, 5, 0, 0.0, 3);
        let config = TrainConfig {
            adapt_threshold: true,
            rescue: true,
            ..TrainConfig::default()
        };
        let mut col = fresh_column(2, 8, 0.25, &config);
        let stream = ds.stream(120, 1.0);
        let report = train_column(&mut col, &stream, &config);
        assert!(
            report.wins[0] > 0 && report.wins[1] > 0,
            "{:?}",
            report.wins
        );
        // Thresholds moved off their initial value.
        assert_ne!(
            col.neurons()[0].threshold() + col.neurons()[1].threshold(),
            2 * 14 // initial θ = 8 × 7 × 0.25 = 14 each
        );
    }

    #[test]
    fn probed_training_matches_and_accounts_every_weight_change() {
        use st_obs::{ObsEvent, Recorder};
        let mut ds = PatternDataset::new(2, 12, 6, 0, 0.0, 11);
        let config = TrainConfig::default();
        let stream = ds.stream(80, 1.0);

        let mut plain = fresh_column(3, 12, 0.25, &config);
        let plain_report = train_column(&mut plain, &stream, &config);

        let mut probed = fresh_column(3, 12, 0.25, &config);
        let mut recorder = Recorder::new();
        let probed_report = train_column_with(&mut probed, &stream, &config, &mut recorder);

        // The probe never perturbs training.
        assert_eq!(probed_report, plain_report);
        for (a, b) in plain.neurons().iter().zip(probed.neurons()) {
            assert_eq!(a.synapses(), b.synapses());
        }
        // One marker + one decision per presentation, one delta per change.
        let count = |f: fn(&ObsEvent) -> bool| recorder.events().iter().filter(|e| f(e)).count();
        assert_eq!(
            count(|e| matches!(e, ObsEvent::VolleyStart { .. })),
            stream.len()
        );
        assert_eq!(
            count(|e| matches!(e, ObsEvent::WtaDecision { .. })),
            stream.len()
        );
        assert_eq!(
            count(|e| matches!(e, ObsEvent::WeightDelta { .. })),
            plain_report.weight_changes
        );
        // Every delta records a genuine change.
        for e in recorder.events() {
            if let ObsEvent::WeightDelta { before, after, .. } = e {
                assert_ne!(before, after);
            }
        }
    }

    #[test]
    fn metered_training_matches_and_counts_updates() {
        use st_metrics::MetricsRegistry;
        let mut ds = PatternDataset::new(2, 12, 6, 0, 0.0, 11);
        let config = TrainConfig::default();
        let stream = ds.stream(80, 1.0);

        let mut plain = fresh_column(3, 12, 0.25, &config);
        let plain_report = train_column(&mut plain, &stream, &config);

        let mut metered = fresh_column(3, 12, 0.25, &config);
        let mut sink = MetricsRegistry::new();
        let metered_report = train_column_with(&mut metered, &stream, &config, &mut sink);

        // The sink never perturbs training (RNG untouched).
        assert_eq!(metered_report, plain_report);
        for (a, b) in plain.neurons().iter().zip(metered.neurons()) {
            assert_eq!(a.synapses(), b.synapses());
        }
        assert_eq!(
            sink.counter("stdp.presentations"),
            plain_report.presentations as u64
        );
        assert_eq!(sink.counter("stdp.updates"), plain_report.updates as u64);
        assert_eq!(
            sink.counter("stdp.weight_deltas"),
            plain_report.weight_changes as u64
        );
    }

    #[test]
    fn silent_stream_changes_nothing() {
        let config = TrainConfig::default();
        let mut col = fresh_column(2, 4, 1.0, &config);
        // threshold = full potential; an empty volley can't fire anything.
        let stream = vec![LabelledVolley {
            volley: Volley::silent(4),
            label: None,
        }];
        let before: Vec<Vec<Synapse>> = col
            .neurons()
            .iter()
            .map(|n| n.synapses().to_vec())
            .collect();
        let report = train_column(&mut col, &stream, &config);
        assert_eq!(report.updates, 0);
        let after: Vec<Vec<Synapse>> = col
            .neurons()
            .iter()
            .map(|n| n.synapses().to_vec())
            .collect();
        assert_eq!(before, after);
    }
}
