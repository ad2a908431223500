//! Event-level evaluation of space-time networks.
//!
//! In the paper's § III.B a single wave of spikes sweeps through a
//! feedforward network and each gate fires at most once, so a gate's
//! firing time is a pure function of its sources' firing times.
//! [`CompiledNetwork`] computes all of them in one pass over the gates in
//! index order — the pass behind [`Network::trace`] and
//! [`Network::eval`] — and derives from those times, when an instrument
//! asks for them, what an event-driven simulation observes: every firing
//! as an [`ObsEvent::GateFired`], and the paper's efficiency statistic —
//! how many events (spikes / level transitions) a computation expends,
//! which underpins the minimal-transition energy argument of § VI.
//!
//! # The event schedule
//!
//! The firing times imply one schedule of `(time, gate)` evaluation
//! tokens. Inputs and constants fire first; a gate that fires at `t` then
//! sends one token to each consumer slot, due at `t` (or `t + c` at an
//! `inc c`), and tokens are taken in `(time, gate)` order. A gate is
//! decided on the first of its tokens taken once all its sources have
//! fired, and fires then; tokens taken before that evaluate it without
//! firing it, and later ones are stale. That token is due at the gate's
//! firing time, except at a `max`: inputs and constants fired before any
//! token was taken, and a `max` fires at its latest source's time
//! whenever it is decided, so a `max` can be decided on an earlier token.
//! The `net.*` counters count the schedule:
//!
//! - `net.gate_firings`: gates with a finite firing time;
//! - `net.queue_pushes` = `net.queue_pops`: the tokens, one per fan-out
//!   slot of every firing gate;
//! - `net.gate_evals`: per gate, its tokens taken before it is decided
//!   plus the deciding one, or all of its tokens if it never fires;
//! - `net.queue_peak_depth`: the most tokens outstanding at once.
//!
//! Firing events come in the schedule's order: inputs and constants
//! first, in index order, then every internal firing in the order it is
//! decided. The numbers and the order are those of a priority-queue
//! simulation of the same wave, kept as the test oracle.
//!
//! # Simultaneity
//!
//! Ties matter: `lt(a, b)` must not fire when `a` and `b` arrive at the
//! same instant, even when one of them arrives through a zero-delay path.
//! Builders only ever wire a gate to earlier-created gates, so every
//! source's time is known before its gate is evaluated, and simultaneous
//! arrivals are always visible to the firing decision. A decision at `∞`
//! (an `inc` that saturates) is no firing: no event, no count, no tokens.

use st_core::{CoreError, Time};
use st_obs::ObsEvent;
use st_trace::{Instrument, NullInstrument};

use crate::graph::{GateKind, Network};

/// The observability label for a gate kind.
fn op_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Input(_) => "input",
        GateKind::Const(_) => "const",
        GateKind::Inc(_) => "inc",
        GateKind::Min => "min",
        GateKind::Max => "max",
        GateKind::Lt => "lt",
    }
}

/// Whether a gate fires unprompted (an input or a constant).
fn is_seed(kind: GateKind) -> bool {
    matches!(kind, GateKind::Input(_) | GateKind::Const(_))
}

/// Result of an event-level run: per-output times plus activity counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventReport {
    /// Event time on each output line (same as `Network::eval`).
    pub outputs: Vec<Time>,
    /// Firing time of every gate, indexed by [`crate::GateId::index`];
    /// `∞` for gates that never fired.
    pub firings: Vec<Time>,
    /// Total number of gate firings (spikes) during the computation,
    /// including input and constant events.
    pub total_events: usize,
    /// Firings on non-source gates only (excludes inputs and constants):
    /// the work the network itself performed.
    pub internal_events: usize,
}

impl EventReport {
    /// Fraction of gates that fired at all — the activity factor that the
    /// paper's sparse-coding energy argument (§ VI) aims to minimize.
    #[must_use]
    pub fn activity_factor(&self) -> f64 {
        if self.firings.is_empty() {
            0.0
        } else {
            self.total_events as f64 / self.firings.len() as f64
        }
    }
}

/// Event-level evaluator for [`Network`]s.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventSim;

impl EventSim {
    /// Creates an evaluator.
    #[must_use]
    pub fn new() -> EventSim {
        EventSim
    }

    /// Plays the computation out in time and reports outputs + activity.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the network's input count.
    pub fn run(&self, network: &Network, inputs: &[Time]) -> Result<EventReport, CoreError> {
        self.compile(network).run(inputs)
    }

    /// Prepares the network for repeated runs as a [`CompiledNetwork`],
    /// counting each gate's fan-out once — the compile-once half of the
    /// batched engine's compile-once/evaluate-many contract.
    #[must_use]
    pub fn compile(&self, network: &Network) -> CompiledNetwork {
        let mut fanout = vec![0; network.gate_count()];
        for (id, _) in network.iter_gates() {
            for s in network.sources_of(id.index()) {
                fanout[s.index()] += 1;
            }
        }
        CompiledNetwork {
            network: network.clone(),
            fanout,
        }
    }
}

/// A [`Network`] prepared for evaluate-many workloads. Immutable and cheap
/// to share across threads.
///
/// Built with [`EventSim::compile`]; [`CompiledNetwork::run`] produces the
/// same [`EventReport`] as [`EventSim::run`] on the source network.
#[derive(Debug, Clone)]
pub struct CompiledNetwork {
    network: Network,
    /// Tokens each gate's firing schedules: one per consumer slot.
    fanout: Vec<u64>,
}

/// Reusable buffers for [`CompiledNetwork::eval_into`]: one volley's
/// firing times and, while an instrument is live, its event schedule.
/// Once they have grown to the network's size, a run reusing them
/// allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct NetScratch {
    /// Every gate's firing time, `∞` if it never fired.
    firings: Vec<Time>,
    /// Every gate's decided time (see [`CompiledNetwork::schedule`]).
    decided: Vec<Time>,
    /// Every token as `(due, key)`, in the order they are taken.
    tokens: Vec<(Time, usize)>,
}

impl CompiledNetwork {
    /// The number of input lines.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.network.input_count()
    }

    /// The number of output lines.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.network.output_count()
    }

    /// The number of gates in the source network.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.network.gate_count()
    }

    /// Plays one computation out in time, bit-identically to
    /// [`EventSim::run`] on the source network.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the network's input count.
    pub fn run(&self, inputs: &[Time]) -> Result<EventReport, CoreError> {
        self.run_with(inputs, &mut NullInstrument)
    }

    /// [`CompiledNetwork::run`] under an instrument: every gate firing
    /// (inputs and constants included) is an [`ObsEvent::GateFired`], and
    /// the counters are the `net.*` counts of the event schedule (gate
    /// evaluations, firings, queue pushes/pops) plus the
    /// `net.queue_peak_depth` histogram; see the [module docs](self).
    /// Results are identical for any instrument.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the network's input count.
    pub fn run_with(
        &self,
        inputs: &[Time],
        inst: &mut impl Instrument,
    ) -> Result<EventReport, CoreError> {
        let mut scratch = NetScratch::default();
        self.fire(inputs, &mut scratch, inst)?;
        let firings = scratch.firings;
        let mut total_events = 0;
        let mut internal_events = 0;
        for ((_, kind), at) in self.network.iter_gates().zip(&firings) {
            if at.is_finite() {
                total_events += 1;
                internal_events += usize::from(!is_seed(kind));
            }
        }
        Ok(EventReport {
            outputs: self.outputs(&firings).collect(),
            firings,
            total_events,
            internal_events,
        })
    }

    /// Evaluates one volley into `out`, one time per output line, with
    /// the events and counters of [`CompiledNetwork::run_with`]. The
    /// buffers in `scratch` are reused, so after the first volley an
    /// uninstrumented run allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the network's input count.
    pub fn eval_into(
        &self,
        inputs: &[Time],
        out: &mut [Time],
        scratch: &mut NetScratch,
        inst: &mut impl Instrument,
    ) -> Result<(), CoreError> {
        debug_assert_eq!(out.len(), self.output_count());
        self.fire(inputs, scratch, inst)?;
        for (slot, at) in out.iter_mut().zip(self.outputs(&scratch.firings)) {
            *slot = at;
        }
        Ok(())
    }

    /// The output lines' times among `firings`.
    fn outputs<'a>(&'a self, firings: &'a [Time]) -> impl Iterator<Item = Time> + 'a {
        self.network.outputs().iter().map(|o| firings[o.index()])
    }

    /// Computes every firing time into `scratch.firings`, then records
    /// the firing events and `net.*` counters of the groups that are live.
    fn fire(
        &self,
        inputs: &[Time],
        scratch: &mut NetScratch,
        inst: &mut impl Instrument,
    ) -> Result<(), CoreError> {
        self.network.trace_into(inputs, &mut scratch.firings)?;
        let events = inst.events_live();
        let metered = inst.counters_live();
        if !events && !metered {
            return Ok(());
        }
        let counts = self.schedule(scratch);
        let NetScratch {
            firings, tokens, ..
        } = scratch;
        if events {
            for ((id, kind), &at) in self.network.iter_gates().zip(firings.iter()) {
                if is_seed(kind) && at.is_finite() {
                    inst.record(ObsEvent::GateFired {
                        gate: id.index(),
                        op: op_name(kind),
                        at,
                    });
                }
            }
            for &(_, key) in tokens.iter().filter(|&&(_, key)| key % 2 == 0) {
                let gate = key / 2;
                inst.record(ObsEvent::GateFired {
                    gate,
                    op: op_name(self.network.kind_of(gate)),
                    at: firings[gate],
                });
            }
        }
        if metered {
            // Replay the schedule for its depth: a firing gate's deciding
            // token pushes its fan-out as it is taken.
            let mut depth = counts.seed_tokens;
            let mut peak = depth;
            for &(_, key) in tokens.iter() {
                depth -= 1;
                if key % 2 == 0 {
                    depth += self.fanout[key / 2];
                    peak = peak.max(depth);
                }
            }
            let pushes = tokens.len() as u64;
            inst.incr("net.runs", 1);
            inst.incr("net.gate_evals", counts.gate_evals);
            inst.incr("net.gate_firings", counts.gate_firings);
            inst.incr("net.queue_pushes", pushes);
            inst.incr("net.queue_pops", pushes);
            inst.observe("net.queue_peak_depth", peak);
        }
        Ok(())
    }

    /// Lays out the event schedule `scratch.firings` implies: every token
    /// into `scratch.tokens` in the order it is taken, as `(due, key)`
    /// with `key` = `2 × gate`, plus 1 unless it is the token the gate is
    /// decided on (so a deciding token goes before its duplicates).
    ///
    /// A gate is decided on the first of its tokens taken once all its
    /// sources have fired, and fires then. That token is due at its
    /// firing time, except at a `max`. Inputs and constants fire before
    /// any token is taken, and a `max` decided early fires at its latest
    /// source's time, so a `max` is decided on its first token due no
    /// earlier than its other sources were decided.
    fn schedule(&self, scratch: &mut NetScratch) -> ScheduleCounts {
        let NetScratch {
            firings,
            decided,
            tokens,
        } = scratch;
        let mut counts = ScheduleCounts::default();
        decided.clear();
        decided.extend_from_slice(firings);
        tokens.clear();
        for (id, kind) in self.network.iter_gates() {
            let gate = id.index();
            let at = firings[gate];
            let delay = match kind {
                GateKind::Input(_) | GateKind::Const(_) => {
                    if at.is_finite() {
                        counts.gate_firings += 1;
                        counts.seed_tokens += self.fanout[gate];
                    }
                    continue;
                }
                GateKind::Inc(c) => c,
                _ => 0,
            };
            let sources = self.network.sources_of(gate);
            if kind == GateKind::Max && at.is_finite() {
                let ready = Time::max_of(
                    sources
                        .iter()
                        .filter(|s| !is_seed(self.network.kind_of(s.index())))
                        .map(|s| decided[s.index()]),
                );
                decided[gate] = Time::min_of(
                    sources
                        .iter()
                        .map(|s| firings[s.index()])
                        .filter(|&due| due >= ready),
                );
            }
            let mut undecided = at.is_finite();
            for s in sources {
                let from = firings[s.index()];
                if from.is_infinite() {
                    continue;
                }
                let due = from + delay;
                let deciding = undecided && due == decided[gate];
                undecided &= !deciding;
                tokens.push((due, 2 * gate + usize::from(!deciding)));
                // Taken before the decision (or with none to come), a
                // token evaluates the gate; later ones are stale.
                if at.is_infinite() || due < decided[gate] {
                    counts.gate_evals += 1;
                }
            }
            if at.is_finite() {
                counts.gate_firings += 1;
                counts.gate_evals += 1;
            }
        }
        tokens.sort_unstable();
        counts
    }
}

/// Tallies of one event schedule (see [`CompiledNetwork::schedule`]).
#[derive(Debug, Default)]
struct ScheduleCounts {
    /// Gates with a finite firing time.
    gate_firings: u64,
    /// Token takings that evaluate a gate.
    gate_evals: u64,
    /// Tokens the inputs and constants push before any is taken.
    seed_tokens: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Network, NetworkBuilder};

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    fn fig6() -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.input();
        let x = b.input();
        let c = b.input();
        let a1 = b.inc(a, 1);
        let m = b.min([a1, x]).unwrap();
        let y = b.lt(m, c);
        b.build([y])
    }

    #[test]
    fn matches_functional_eval_on_fig6() {
        let net = fig6();
        let sim = EventSim::new();
        for inputs in st_core::enumerate_inputs(3, 4) {
            let functional = net.eval(&inputs).unwrap();
            let report = sim.run(&net, &inputs).unwrap();
            assert_eq!(report.outputs, functional, "at {inputs:?}");
        }
    }

    #[test]
    fn activity_counts_firing_gates_only() {
        let net = fig6();
        let sim = EventSim::new();
        // All three inputs spike; inc, min fire; lt fires (1 < 2).
        let report = sim.run(&net, &[t(0), t(3), t(2)]).unwrap();
        assert_eq!(report.total_events, 6);
        assert_eq!(report.internal_events, 3);
        assert!((report.activity_factor() - 1.0).abs() < 1e-12);
        // A silent input volley produces zero events anywhere.
        let report = sim.run(&net, &[Time::INFINITY; 3]).unwrap();
        assert_eq!(report.total_events, 0);
        assert_eq!(report.outputs, vec![Time::INFINITY]);
        // Sparse volley: only input 1 spikes → min fires, lt uninhibited
        // (c = ∞) so it fires too.
        let report = sim
            .run(&net, &[Time::INFINITY, t(3), Time::INFINITY])
            .unwrap();
        assert_eq!(report.outputs, vec![t(3)]);
        assert_eq!(report.total_events, 3); // input1, min, lt
    }

    #[test]
    fn lt_tie_does_not_fire() {
        let mut b = NetworkBuilder::new();
        let a = b.input();
        let c = b.input();
        let y = b.lt(a, c);
        let net = b.build([y]);
        let sim = EventSim::new();
        assert_eq!(
            sim.run(&net, &[t(2), t(2)]).unwrap().outputs,
            vec![Time::INFINITY]
        );
        assert_eq!(sim.run(&net, &[t(2), t(3)]).unwrap().outputs, vec![t(2)]);
        assert_eq!(
            sim.run(&net, &[t(3), t(2)]).unwrap().outputs,
            vec![Time::INFINITY]
        );
    }

    #[test]
    fn zero_delay_tie_is_resolved_correctly() {
        // lt(x, inc0(x)) must not fire: both events are simultaneous even
        // though one arrives through a gate.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let same = b.inc(x, 0);
        let y = b.lt(x, same);
        let net = b.build([y]);
        let report = EventSim::new().run(&net, &[t(3)]).unwrap();
        assert_eq!(report.outputs, vec![Time::INFINITY]);
        assert_eq!(report.outputs, net.eval(&[t(3)]).unwrap());
    }

    #[test]
    fn max_waits_for_all_sources() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(3);
        let mx = b.max(ins).unwrap();
        let net = b.build([mx]);
        let sim = EventSim::new();
        let report = sim.run(&net, &[t(1), t(5), t(3)]).unwrap();
        assert_eq!(report.outputs, vec![t(5)]);
        // If one source never fires, max never fires.
        let report = sim.run(&net, &[t(1), Time::INFINITY, t(3)]).unwrap();
        assert_eq!(report.outputs, vec![Time::INFINITY]);
        assert_eq!(report.total_events, 2);
    }

    #[test]
    fn firings_expose_waveform() {
        let net = fig6();
        let report = EventSim::new().run(&net, &[t(0), t(3), t(2)]).unwrap();
        assert_eq!(report.firings, net.trace(&[t(0), t(3), t(2)]).unwrap());
    }

    #[test]
    fn constants_seed_events() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let zero = b.constant(Time::ZERO);
        let never = b.constant(Time::INFINITY);
        let gated_off = b.lt(x, zero); // always ∞
        let gated_on = b.lt(x, never); // passes x
        let net = b.build([gated_off, gated_on]);
        let report = EventSim::new().run(&net, &[t(4)]).unwrap();
        assert_eq!(report.outputs, vec![Time::INFINITY, t(4)]);
        // Events: input, const-zero, gated_on.
        assert_eq!(report.total_events, 3);
    }

    #[test]
    fn arity_is_checked() {
        let net = fig6();
        assert!(EventSim::new().run(&net, &[t(0)]).is_err());
    }

    #[test]
    fn compiled_network_matches_run() {
        let net = fig6();
        let compiled = EventSim::new().compile(&net);
        assert_eq!(compiled.input_count(), 3);
        assert_eq!(compiled.output_count(), 1);
        assert_eq!(compiled.gate_count(), net.gate_count());
        for inputs in st_core::enumerate_inputs(3, 3) {
            assert_eq!(
                compiled.run(&inputs).unwrap(),
                EventSim::new().run(&net, &inputs).unwrap(),
                "at {inputs:?}"
            );
        }
        assert!(compiled.run(&[t(0)]).is_err());
    }

    #[test]
    fn reused_scratch_matches_per_volley_runs() {
        let net = fig6();
        let compiled = EventSim::new().compile(&net);
        let mut scratch = NetScratch::default();
        let mut out = [Time::ZERO];
        for inputs in st_core::enumerate_inputs(3, 3) {
            compiled
                .eval_into(&inputs, &mut out, &mut scratch, &mut NullInstrument)
                .unwrap();
            assert_eq!(
                out[..],
                compiled.run(&inputs).unwrap().outputs,
                "at {inputs:?}"
            );
        }
        // A wrong-width volley fails without touching `out`.
        let before = out;
        assert!(compiled
            .eval_into(&[t(0), t(1)], &mut out, &mut scratch, &mut NullInstrument)
            .is_err());
        assert_eq!(out, before);
    }

    #[test]
    fn a_saturating_inc_is_no_firing() {
        use st_metrics::MetricsRegistry;
        use st_obs::Recorder;
        // g1 = inc (2^64 - 6) g0 saturates to ∞ at input 5, so only the
        // input fires; g2 = min g1 g1 gets no token at all.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let late = b.inc(x, u64::MAX - 5);
        let y = b.min2(late, late);
        let net = b.build([y]);
        let compiled = EventSim::new().compile(&net);
        let mut recorder = Recorder::new();
        let report = compiled.run_with(&[t(5)], &mut recorder).unwrap();
        assert_eq!(report.outputs, vec![Time::INFINITY]);
        assert_eq!(report.firings, vec![t(5), Time::INFINITY, Time::INFINITY]);
        assert_eq!((report.total_events, report.internal_events), (1, 0));
        assert_eq!(
            recorder.events(),
            &[ObsEvent::GateFired {
                gate: 0,
                op: "input",
                at: t(5)
            }]
        );
        let mut sink = MetricsRegistry::new();
        compiled.run_with(&[t(5)], &mut sink).unwrap();
        // One token to the inc, evaluated once, deciding ∞.
        assert_eq!(sink.counter("net.gate_firings"), 1);
        assert_eq!(sink.counter("net.queue_pushes"), 1);
        assert_eq!(sink.counter("net.queue_pops"), 1);
        assert_eq!(sink.counter("net.gate_evals"), 1);
        assert_eq!(
            sink.histogram("net.queue_peak_depth").unwrap().max(),
            Some(1)
        );
    }

    #[test]
    fn probed_run_records_every_firing_without_perturbing_results() {
        use st_obs::Recorder;
        let net = fig6();
        let compiled = EventSim::new().compile(&net);
        for inputs in st_core::enumerate_inputs(3, 3) {
            let mut recorder = Recorder::new();
            let probed = compiled.run_with(&inputs, &mut recorder).unwrap();
            let plain = compiled.run(&inputs).unwrap();
            assert_eq!(probed, plain, "at {inputs:?}");
            // One GateFired event per firing, times matching the report.
            assert_eq!(recorder.len(), plain.total_events, "at {inputs:?}");
            for event in recorder.events() {
                let st_obs::ObsEvent::GateFired { gate, at, .. } = *event else {
                    panic!("unexpected event {event:?}");
                };
                assert_eq!(plain.firings[gate], at);
            }
        }
        // Ops are labelled by kind.
        let mut recorder = Recorder::new();
        let _ = compiled
            .run_with(&[t(0), t(3), t(2)], &mut recorder)
            .unwrap();
        let ops: Vec<&str> = recorder
            .events()
            .iter()
            .filter_map(|e| match e {
                st_obs::ObsEvent::GateFired { op, .. } => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["input", "input", "input", "inc", "min", "lt"]);
    }

    #[test]
    fn metered_run_counts_activity_without_perturbing_results() {
        use st_metrics::MetricsRegistry;
        let net = fig6();
        let compiled = EventSim::new().compile(&net);
        let mut sink = MetricsRegistry::new();
        let mut runs = 0u64;
        for inputs in st_core::enumerate_inputs(3, 3) {
            let metered = compiled.run_with(&inputs, &mut sink).unwrap();
            assert_eq!(metered, compiled.run(&inputs).unwrap(), "at {inputs:?}");
            runs += 1;
        }
        assert_eq!(sink.counter("net.runs"), runs);
        assert!(sink.counter("net.gate_firings") > 0);
        assert!(sink.counter("net.queue_pushes") >= sink.counter("net.gate_evals"));
        assert_eq!(
            sink.counter("net.queue_pops"),
            sink.counter("net.queue_pushes")
        );
        let depth = sink.histogram("net.queue_peak_depth").unwrap();
        assert_eq!(depth.count(), runs);
        // A single all-finite volley: 3 seeds + 3 internal firings, and
        // every push is eventually popped.
        let mut one = MetricsRegistry::new();
        let report = compiled.run_with(&[t(0), t(3), t(2)], &mut one).unwrap();
        assert_eq!(report.total_events, 6);
        assert_eq!(one.counter("net.gate_firings"), 6);
        assert_eq!(one.counter("net.runs"), 1);
        // The sink never influences results even when pre-populated.
        one.incr("net.gate_firings", 1000);
        let again = compiled.run_with(&[t(0), t(3), t(2)], &mut one).unwrap();
        assert_eq!(again, report);
    }

    #[test]
    fn inc_chains_delay_events() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d1 = b.inc(x, 2);
        let d2 = b.inc(d1, 3);
        let net = b.build([d2]);
        let report = EventSim::new().run(&net, &[t(1)]).unwrap();
        assert_eq!(report.outputs, vec![t(6)]);
        assert_eq!(report.firings, vec![t(1), t(3), t(6)]);
    }

    #[test]
    fn diamond_with_unequal_delays() {
        // x splits into a fast and a slow path that reconverge at lt:
        // fast = x+1, slow = x+4; lt(fast, slow) = x+1.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let fast = b.inc(x, 1);
        let slow = b.inc(x, 4);
        let y = b.lt(fast, slow);
        let net = b.build([y]);
        let report = EventSim::new().run(&net, &[t(10)]).unwrap();
        assert_eq!(report.outputs, vec![t(11)]);
        assert_eq!(report.outputs, net.eval(&[t(10)]).unwrap());
    }
}
