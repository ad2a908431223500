//! The behavioral SRM0 neuron model (§ II.A, Fig. 1).
//!
//! Input spikes pass through per-synapse delays and weights, each producing
//! a response function; responses are summed into the body potential; an
//! output spike is emitted when (and if) the potential first reaches the
//! threshold `θ`.
//!
//! [`Srm0Neuron::eval`] computes this directly by accumulating discrete
//! up/down steps — it is the *reference semantics* against which the
//! structural, primitives-only construction of Fig. 12
//! ([`crate::structural`]) is verified.
//!
//! Tie convention: ups and downs occurring at the same tick are both
//! counted, matching the strict-`lt` threshold logic of the structural
//! network ("the `θ+i`-th up step occurs *before* the `i`-th down step").

use st_core::{CoreError, SpaceTimeFunction, Time, Volley};
use st_obs::ObsEvent;
use st_trace::{Instrument, NullInstrument};

use crate::response::ResponseFn;

/// One synapse: an axonal/dendritic delay plus a signed integer weight.
///
/// Positive weights are excitatory, negative weights inhibitory (the unit
/// response is mirrored, § II.A). A zero weight silences the synapse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Synapse {
    /// Conduction delay applied to the input spike (the `δ_i` of Fig. 1).
    pub delay: u64,
    /// Signed synaptic weight (`w_i`); scales the unit response amplitude.
    pub weight: i32,
}

impl Synapse {
    /// A synapse with the given delay and weight.
    #[must_use]
    pub fn new(delay: u64, weight: i32) -> Synapse {
        Synapse { delay, weight }
    }

    /// An undelayed excitatory synapse of the given weight.
    #[must_use]
    pub fn excitatory(weight: u32) -> Synapse {
        Synapse {
            delay: 0,
            weight: weight as i32,
        }
    }
}

/// A behavioral SRM0 neuron: shared unit response, per-synapse delays and
/// weights, and a firing threshold.
///
/// # Examples
///
/// ```
/// use st_neuron::{ResponseFn, Srm0Neuron, Synapse};
/// use st_core::Time;
///
/// // Two inputs, unit biexponential responses, threshold 6: the neuron
/// // fires only when both inputs spike close together.
/// let neuron = Srm0Neuron::new(
///     ResponseFn::fig11_biexponential(),
///     vec![Synapse::excitatory(1), Synapse::excitatory(1)],
///     6,
/// );
/// let coincident = neuron.eval(&[Time::finite(0), Time::finite(0)]);
/// assert!(coincident.is_finite());
/// let apart = neuron.eval(&[Time::finite(0), Time::finite(9)]);
/// assert!(apart.is_infinite());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Srm0Neuron {
    unit_response: ResponseFn,
    synapses: Vec<Synapse>,
    threshold: u32,
}

impl Srm0Neuron {
    /// Creates a neuron with one synapse per input line.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` (a zero threshold would fire
    /// spontaneously, violating causality) or if `synapses` is empty.
    #[must_use]
    pub fn new(unit_response: ResponseFn, synapses: Vec<Synapse>, threshold: u32) -> Srm0Neuron {
        assert!(threshold > 0, "a zero threshold would fire spontaneously");
        assert!(!synapses.is_empty(), "a neuron needs at least one synapse");
        Srm0Neuron {
            unit_response,
            synapses,
            threshold,
        }
    }

    /// The shared unit response function.
    #[must_use]
    pub fn unit_response(&self) -> &ResponseFn {
        &self.unit_response
    }

    /// The synapses, in input-line order.
    #[must_use]
    pub fn synapses(&self) -> &[Synapse] {
        &self.synapses
    }

    /// The firing threshold `θ`.
    #[must_use]
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Replaces the firing threshold (used by homeostatic rules).
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`.
    pub fn set_threshold(&mut self, threshold: u32) {
        assert!(threshold > 0, "a zero threshold would fire spontaneously");
        self.threshold = threshold;
    }

    /// Replaces the weight of synapse `index` (used by training rules).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_weight(&mut self, index: usize, weight: i32) {
        self.synapses[index].weight = weight;
    }

    /// The effective response function of synapse `index`:
    /// the unit response scaled by `|w|` and mirrored if `w < 0`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn synapse_response(&self, index: usize) -> ResponseFn {
        let s = self.synapses[index];
        let scaled = self.unit_response.scaled(s.weight.unsigned_abs());
        if s.weight < 0 {
            scaled.negated()
        } else {
            scaled
        }
    }

    /// The up/down step event streams produced by an input volley: all
    /// `(time, is_up)` step events, unsorted. This is exactly the wire set
    /// the Fig. 12 construction feeds to its two sorting networks.
    #[must_use]
    pub fn step_events(&self, inputs: &[Time]) -> (Vec<Time>, Vec<Time>) {
        let mut ups = Vec::new();
        let mut downs = Vec::new();
        for (i, (&x, syn)) in inputs.iter().zip(&self.synapses).enumerate() {
            if x.is_infinite() || syn.weight == 0 {
                continue;
            }
            let arrival = x + syn.delay;
            let response = self.synapse_response(i);
            for &u in response.up_steps() {
                ups.push(arrival + u);
            }
            for &d in response.down_steps() {
                downs.push(arrival + d);
            }
        }
        (ups, downs)
    }

    /// The body potential at tick `t` for an input volley (steps at `t`
    /// included).
    #[must_use]
    pub fn potential_at(&self, inputs: &[Time], t: Time) -> i64 {
        let (ups, downs) = self.step_events(inputs);
        let count = |steps: &[Time]| steps.iter().filter(|&&s| s <= t).count() as i64;
        count(&ups) - count(&downs)
    }

    /// The highest body potential the input volley ever produces (with the
    /// same tie convention as [`Srm0Neuron::eval`]): how close the neuron
    /// comes to firing. Used by homeostatic mechanisms to find the
    /// best-matching neuron among non-firing ones.
    #[must_use]
    pub fn max_potential(&self, inputs: &[Time]) -> i64 {
        let (mut ups, mut downs) = self.step_events(inputs);
        ups.sort_unstable();
        downs.sort_unstable();
        let mut ui = 0usize;
        let mut di = 0usize;
        let mut potential = 0i64;
        let mut peak = 0i64;
        while ui < ups.len() || di < downs.len() {
            let tu = ups.get(ui).copied().unwrap_or(Time::INFINITY);
            let td = downs.get(di).copied().unwrap_or(Time::INFINITY);
            let t = tu.min(td);
            while ups.get(ui) == Some(&t) {
                potential += 1;
                ui += 1;
            }
            while downs.get(di) == Some(&t) {
                potential -= 1;
                di += 1;
            }
            peak = peak.max(potential);
        }
        peak
    }

    /// Evaluates the neuron: the first time the body potential reaches the
    /// threshold, or `∞` if it never does.
    #[must_use]
    pub fn eval(&self, inputs: &[Time]) -> Time {
        self.eval_with(inputs, 0, &mut NullInstrument)
    }

    /// [`Srm0Neuron::eval`] under an instrument: the events are the body
    /// potential at every distinct step tick ([`ObsEvent::Potential`]) and
    /// the output spike, if any ([`ObsEvent::NeuronSpike`]), attributed to
    /// `neuron` (a lone neuron does not know its position in a column);
    /// the counters are the `srm0.*` counts — step events generated,
    /// body-potential updates (distinct ticks swept), and output spikes.
    /// With [`NullInstrument`] this compiles to exactly
    /// [`Srm0Neuron::eval`]; results are identical for any instrument.
    pub fn eval_with(&self, inputs: &[Time], neuron: usize, inst: &mut impl Instrument) -> Time {
        let metered = inst.counters_live();
        let mut potential_updates = 0u64;
        let (mut ups, mut downs) = self.step_events(inputs);
        if metered {
            inst.incr("srm0.evals", 1);
            inst.incr("srm0.step_events", (ups.len() + downs.len()) as u64);
        }
        ups.sort_unstable();
        downs.sort_unstable();
        let theta = i64::from(self.threshold);
        // Sweep event times in order; at each distinct tick apply all ups
        // and downs, then test the threshold.
        let mut ui = 0usize;
        let mut di = 0usize;
        let mut potential = 0i64;
        let mut fired = Time::INFINITY;
        while ui < ups.len() {
            let t = match downs.get(di) {
                Some(&d) if d < ups[ui] => d,
                _ => ups[ui],
            };
            while ups.get(ui) == Some(&t) {
                potential += 1;
                ui += 1;
            }
            while downs.get(di) == Some(&t) {
                potential -= 1;
                di += 1;
            }
            if metered {
                potential_updates += 1;
            }
            if inst.events_live() {
                inst.record(ObsEvent::Potential {
                    neuron,
                    at: t,
                    potential,
                });
            }
            if potential >= theta {
                if inst.events_live() {
                    inst.record(ObsEvent::NeuronSpike { neuron, at: t });
                }
                fired = t;
                break;
            }
        }
        if metered {
            inst.incr("srm0.potential_updates", potential_updates);
            if fired.is_finite() {
                inst.incr("srm0.spikes", 1);
            }
        }
        fired
    }

    /// Evaluates one input volley per entry of `volleys`.
    ///
    /// Unlike [`Srm0Neuron::eval`] (which zips inputs with synapses and so
    /// silently truncates), the batched form checks each volley's width —
    /// the batch engine's contract is that a malformed volley is reported,
    /// not absorbed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] for the first (lowest-index)
    /// volley whose width differs from the synapse count.
    pub fn eval_batch(&self, volleys: &[Volley]) -> Result<Vec<Time>, CoreError> {
        volleys
            .iter()
            .map(|v| {
                if v.width() != self.synapses.len() {
                    return Err(CoreError::ArityMismatch {
                        expected: self.synapses.len(),
                        actual: v.width(),
                    });
                }
                Ok(self.eval(v.times()))
            })
            .collect()
    }

    /// The width of the sorting networks a Fig. 12 structural realization
    /// of this neuron needs: total up steps (and down steps) across all
    /// synapses at their current weights.
    #[must_use]
    pub fn structural_width(&self) -> (usize, usize) {
        let mut ups = 0;
        let mut downs = 0;
        for i in 0..self.synapses.len() {
            let r = self.synapse_response(i);
            ups += r.up_steps().len();
            downs += r.down_steps().len();
        }
        (ups, downs)
    }
}

impl SpaceTimeFunction for Srm0Neuron {
    fn arity(&self) -> usize {
        self.synapses.len()
    }

    fn apply(&self, inputs: &[Time]) -> Result<Time, CoreError> {
        if inputs.len() != self.synapses.len() {
            return Err(CoreError::ArityMismatch {
                expected: self.synapses.len(),
                actual: inputs.len(),
            });
        }
        Ok(self.eval(inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::verify_space_time;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    const INF: Time = Time::INFINITY;

    fn fig11_neuron(weights: &[i32], threshold: u32) -> Srm0Neuron {
        Srm0Neuron::new(
            ResponseFn::fig11_biexponential(),
            weights.iter().map(|&w| Synapse::new(0, w)).collect(),
            threshold,
        )
    }

    #[test]
    fn eval_batch_matches_per_volley_eval() {
        let n = fig11_neuron(&[2, 1], 4);
        let volleys = vec![
            Volley::new(vec![t(0), t(0)]),
            Volley::new(vec![t(3), INF]),
            Volley::silent(2),
        ];
        let outs = n.eval_batch(&volleys).unwrap();
        assert_eq!(outs.len(), 3);
        for (v, &out) in volleys.iter().zip(&outs) {
            assert_eq!(out, n.eval(v.times()));
        }
        // Width mismatches are reported instead of silently truncated.
        assert!(matches!(
            n.eval_batch(&[Volley::silent(1)]),
            Err(CoreError::ArityMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn single_input_crosses_when_threshold_low() {
        // Unit fig11 response reaches 2 at t=1, 4 at t=2, peak 5 at t=5.
        let n = fig11_neuron(&[1], 2);
        assert_eq!(n.eval(&[t(0)]), t(1));
        let n = fig11_neuron(&[1], 4);
        assert_eq!(n.eval(&[t(0)]), t(2));
        // The transient ups-first peak of 5 at t=5 does NOT trigger a
        // θ=5 crossing: the 5th up step is not *strictly* before the 1st
        // down step (both at t=5), matching the strict-lt threshold logic
        // of the Fig. 12 construction.
        let n = fig11_neuron(&[1], 5);
        assert_eq!(n.eval(&[t(0)]), INF);
        let n = fig11_neuron(&[1], 6);
        assert_eq!(n.eval(&[t(0)]), INF);
    }

    #[test]
    fn invariance_of_single_input() {
        let n = fig11_neuron(&[1], 4);
        for s in 0..20u64 {
            assert_eq!(n.eval(&[t(s)]), t(2 + s));
        }
    }

    #[test]
    fn coincidence_detection() {
        // Threshold 6 needs both inputs: each contributes ≤ 5.
        let n = fig11_neuron(&[1, 1], 6);
        assert_eq!(n.eval(&[t(0), t(0)]), t(2)); // 2+2 = 4 at t=1? no: 2+2=4 < 6; at t=2 4+4=8 ≥ 6
        assert!(n.eval(&[t(0), t(2)]).is_finite());
        assert_eq!(n.eval(&[t(0), t(9)]), INF); // responses no longer overlap enough
        assert_eq!(n.eval(&[t(0), INF]), INF);
    }

    #[test]
    fn weights_scale_contributions() {
        // Weight 3 triples the response: threshold 12 reachable alone.
        let n = fig11_neuron(&[3], 12);
        assert_eq!(n.eval(&[t(0)]), t(2)); // 3*4 = 12 at t=2
        let n = fig11_neuron(&[2], 12);
        assert_eq!(n.eval(&[t(0)]), INF); // peak 2*5 = 10 < 12
    }

    #[test]
    fn inhibitory_synapse_delays_or_blocks_firing() {
        // Excitatory alone fires at t=2 with θ=4.
        let excite_only = fig11_neuron(&[1], 4);
        assert_eq!(excite_only.eval(&[t(0)]), t(2));
        // Simultaneous inhibition cancels it entirely.
        let n = fig11_neuron(&[1, -1], 4);
        assert_eq!(n.eval(&[t(0), t(0)]), INF);
        // Late inhibition arrives after the crossing: firing unaffected.
        assert_eq!(n.eval(&[t(0), t(4)]), t(2));
    }

    #[test]
    fn delays_shift_responses() {
        let n = Srm0Neuron::new(
            ResponseFn::fig11_biexponential(),
            vec![Synapse::new(3, 1)],
            4,
        );
        assert_eq!(n.eval(&[t(0)]), t(5)); // 2 (crossing) + 3 (delay)
    }

    #[test]
    fn zero_weight_synapse_is_silent() {
        let n = fig11_neuron(&[0, 1], 4);
        assert_eq!(n.eval(&[t(0), t(0)]), t(2));
        assert_eq!(n.eval(&[t(0), INF]), INF);
    }

    #[test]
    fn non_leaky_step_response_integrates_forever() {
        // Step responses never decay: two spikes far apart still add up.
        let n = Srm0Neuron::new(
            ResponseFn::step(1),
            vec![Synapse::excitatory(1), Synapse::excitatory(1)],
            2,
        );
        assert_eq!(n.eval(&[t(0), t(50)]), t(51));
    }

    #[test]
    fn neuron_is_a_space_time_function() {
        let n = fig11_neuron(&[1, 1], 4);
        verify_space_time(&n, 4, 2, None).unwrap();
        let with_inhibition = fig11_neuron(&[2, -1], 4);
        verify_space_time(&with_inhibition, 4, 2, None).unwrap();
    }

    #[test]
    fn arity_checked_through_trait() {
        let n = fig11_neuron(&[1, 1], 4);
        assert_eq!(n.arity(), 2);
        assert!(n.apply(&[t(0)]).is_err());
        assert_eq!(n.apply(&[t(0), t(0)]).unwrap(), n.eval(&[t(0), t(0)]));
    }

    #[test]
    fn accessors_and_mutation() {
        let mut n = fig11_neuron(&[1, 2], 4);
        assert_eq!(n.threshold(), 4);
        n.set_threshold(6);
        assert_eq!(n.threshold(), 6);
        n.set_threshold(4);
        assert_eq!(n.synapses()[1].weight, 2);
        assert_eq!(n.unit_response().peak_amplitude(), 5);
        n.set_weight(1, 5);
        assert_eq!(n.synapses()[1].weight, 5);
        assert_eq!(n.synapse_response(1).peak_amplitude(), 25);
        assert_eq!(n.structural_width(), (5 + 25, 5 + 25));
    }

    #[test]
    fn potential_inspection() {
        let n = fig11_neuron(&[1], 10);
        assert_eq!(n.potential_at(&[t(0)], t(2)), 4);
        assert_eq!(n.potential_at(&[t(0)], t(20)), 0);
        assert_eq!(n.potential_at(&[INF], t(5)), 0);
    }

    #[test]
    fn probed_eval_traces_potential_and_spike() {
        use st_obs::Recorder;
        let n = fig11_neuron(&[1], 4);
        let mut recorder = Recorder::new();
        let out = n.eval_with(&[t(0)], 7, &mut recorder);
        assert_eq!(out, n.eval(&[t(0)]));
        // The potential trajectory matches potential_at at each tick, and
        // the spike lands at the returned time, attributed to neuron 7.
        let mut saw_spike = false;
        for e in recorder.events() {
            match *e {
                ObsEvent::Potential {
                    neuron,
                    at,
                    potential,
                } => {
                    assert_eq!(neuron, 7);
                    assert_eq!(potential, n.potential_at(&[t(0)], at));
                }
                ObsEvent::NeuronSpike { neuron, at } => {
                    assert_eq!((neuron, at), (7, out));
                    saw_spike = true;
                }
                ref other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(saw_spike);

        // A silent run records potentials but no spike.
        let quiet = fig11_neuron(&[1], 6);
        let mut recorder = Recorder::new();
        assert_eq!(quiet.eval_with(&[t(0)], 0, &mut recorder), INF);
        assert!(!recorder.is_empty());
        assert!(recorder.events().iter().all(|e| !e.is_spike()));
    }

    #[test]
    fn metered_eval_counts_updates_without_perturbing_results() {
        use st_metrics::MetricsRegistry;
        let n = fig11_neuron(&[1], 4);
        let mut sink = MetricsRegistry::new();
        let out = n.eval_with(&[t(0)], 0, &mut sink);
        assert_eq!(out, n.eval(&[t(0)]));
        assert_eq!(sink.counter("srm0.evals"), 1);
        assert_eq!(sink.counter("srm0.spikes"), 1);
        // fig11 unit response has 5 up + 5 down steps.
        assert_eq!(sink.counter("srm0.step_events"), 10);
        assert!(sink.counter("srm0.potential_updates") > 0);
        // A silent run spikes nothing but still sweeps ticks.
        let quiet = fig11_neuron(&[1], 6);
        let mut sink = MetricsRegistry::new();
        assert_eq!(quiet.eval_with(&[t(0)], 0, &mut sink), INF);
        assert_eq!(sink.counter("srm0.spikes"), 0);
        assert!(sink.counter("srm0.potential_updates") > 0);
    }

    #[test]
    #[should_panic(expected = "zero threshold")]
    fn zero_threshold_rejected() {
        let _ = fig11_neuron(&[1], 0);
    }

    #[test]
    #[should_panic(expected = "at least one synapse")]
    fn empty_synapses_rejected() {
        let _ = Srm0Neuron::new(ResponseFn::step(1), vec![], 1);
    }
}
