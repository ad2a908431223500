//! The bit-sliced simulator against a one-volley-at-a-time boolean
//! oracle, and the soundness of the settle bound it runs to.
//!
//! The oracle steps every wire of one volley as a `bool`, cycle by cycle,
//! to a horizon the caller chooses. Run to a horizon far past
//! [`GrlNetlist::settle_bound`], it shows no wire falls and no latch
//! captures after the bound; run to the bound itself, it is the reference
//! [`GrlSim`] must match on outputs, fall times, transition counts,
//! `grl.*` counters and the event sequence, one volley or 64 at a time.

use proptest::prelude::*;
use st_core::{BatchError, CoreError, Time, VolleyBatch};
use st_grl::{GrlBuilder, GrlGate, GrlNetlist, GrlReport, GrlSim, WireId};
use st_metrics::MetricsRegistry;
use st_obs::{ObsEvent, Recorder};
use st_trace::{Instrument, NullInstrument};

/// Simulates one volley cycle by cycle through `horizon`, one `bool` per
/// wire, recording events and `grl.*` counters into `inst`.
fn oracle(
    netlist: &GrlNetlist,
    inputs: &[Time],
    horizon: u64,
    inst: &mut impl Instrument,
) -> GrlReport {
    let n = netlist.wire_count();
    let mut level = vec![true; n];
    let mut prev_level = vec![true; n];
    let mut blocked = vec![false; n];
    let mut fall = vec![Time::INFINITY; n];
    let mut lt_latched = 0usize;
    for cycle in 0..=horizon {
        let t = Time::finite(cycle);
        for (id, gate) in netlist.iter_gates() {
            let i = id.index();
            let new_level = match gate {
                GrlGate::Input(p) => t < inputs[p],
                GrlGate::High => true,
                GrlGate::FallAt(c) => cycle < c,
                GrlGate::And(a, b) => level[a.index()] && level[b.index()],
                GrlGate::Or(a, b) => level[a.index()] || level[b.index()],
                GrlGate::LtLatch { a, b } => {
                    if !level[b.index()] && prev_level[a.index()] && !blocked[i] {
                        blocked[i] = true;
                        lt_latched += 1;
                        inst.record(ObsEvent::LatchBlocked { wire: i, at: t });
                    }
                    level[a.index()] || blocked[i]
                }
                GrlGate::Delay(a) => prev_level[a.index()],
                _ => unreachable!("every gate kind is covered"),
            };
            if level[i] && !new_level {
                fall[i] = t;
                inst.record(ObsEvent::WireFell { wire: i, at: t });
            }
            level[i] = new_level;
        }
        prev_level.copy_from_slice(&level);
    }
    let eval_transitions = fall.iter().filter(|f| f.is_finite()).count();
    inst.incr("grl.runs", 1);
    inst.incr("grl.cycles", horizon + 1);
    inst.incr("grl.wire_transitions", eval_transitions as u64);
    inst.incr(
        "grl.reset_transitions",
        (eval_transitions + lt_latched) as u64,
    );
    inst.incr("grl.latch_captures", lt_latched as u64);
    GrlReport {
        outputs: netlist.outputs().iter().map(|o| fall[o.index()]).collect(),
        fall_times: fall,
        eval_transitions,
        reset_transitions: eval_transitions + lt_latched,
        cycles: horizon + 1,
    }
}

/// One gate of a random netlist: `(kind, a, b, constant)`, where `a` and
/// `b` pick earlier wires modulo the wires built so far.
type Step = (u8, usize, usize, u64);

/// Builds `inputs` pads, then one gate per step, mixing constants (`∞`
/// and `FallAt`), AND, OR, latches (ties included: `a` and `b` may pick
/// the same wire) and flip-flop chains. The outputs are the last three
/// wires and a repeat of the first.
fn build(inputs: usize, steps: &[Step]) -> GrlNetlist {
    let mut b = GrlBuilder::new();
    let mut wires: Vec<WireId> = b.inputs(inputs);
    for &(kind, x, y, c) in steps {
        let (x, y) = (wires[x % wires.len()], wires[y % wires.len()]);
        let wire = match kind {
            0 => b.high(),
            1 => b.fall_at(c),
            2 => b.and2(x, y),
            3 => b.or2(x, y),
            4 | 5 => b.lt(x, y),
            _ => b.shift_register(x, c % 4 + 1),
        };
        wires.push(wire);
    }
    let outputs: Vec<WireId> = wires.iter().rev().take(3).copied().collect();
    b.build(outputs.iter().copied().chain([wires[0]]))
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..8, 0usize..64, 0usize..64, 0u64..12), 1..40)
}

fn small_time() -> impl Strategy<Value = Time> {
    prop_oneof![
        4 => (0u64..8).prop_map(Time::finite),
        1 => Just(Time::INFINITY),
    ]
}

/// Every counter, in name order.
fn counts(registry: &MetricsRegistry) -> Vec<(&'static str, u64)> {
    registry.counters().collect()
}

/// The largest fall or capture cycle among `events`.
fn last_cycle(events: &[ObsEvent]) -> Option<u64> {
    events
        .iter()
        .filter_map(|e| match *e {
            ObsEvent::WireFell { at, .. } | ObsEvent::LatchBlocked { at, .. } => at.value(),
            _ => None,
        })
        .max()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every finite fall and every latch capture happens at or before
    /// `settle_bound`, checked by running the oracle to the old loose
    /// horizon (every flip-flop in the netlist past the latest event).
    #[test]
    fn no_wire_falls_or_latch_captures_past_the_settle_bound(
        width in 1usize..4,
        steps in arb_steps(),
        raw in prop::collection::vec(small_time(), 4),
    ) {
        let netlist = build(width, &steps);
        let inputs = &raw[..width];
        let bound = netlist.settle_bound(inputs).unwrap();
        let flipflops = netlist.gate_census().3 as u64;
        let latest_const = netlist
            .iter_gates()
            .filter_map(|(_, g)| match g {
                GrlGate::FallAt(c) => Some(c),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let latest_input = inputs.iter().filter_map(|t| t.value()).max().unwrap_or(0);
        let loose = latest_input.max(latest_const) + flipflops + 1;
        prop_assert!(bound <= loose, "bound {} above the loose horizon {}", bound, loose);
        let mut recorder = Recorder::new();
        let report = oracle(&netlist, inputs, loose, &mut recorder);
        if let Some(last) = last_cycle(recorder.events()) {
            prop_assert!(last <= bound, "an event at {} past the bound {}", last, bound);
        }
        // Running to the bound instead loses nothing.
        let tight = oracle(&netlist, inputs, bound, &mut NullInstrument);
        prop_assert_eq!(tight.fall_times, report.fall_times);
        prop_assert_eq!(tight.reset_transitions, report.reset_transitions);
    }

    /// `GrlSim::run_with` (a one-volley pack) and `GrlSim::run_batch`
    /// (64-volley packs, each run to its own largest bound) reproduce the
    /// oracle on every volley: outputs, fall times, both transition
    /// counts, every `grl.*` counter and the event sequence. Batches of
    /// 1–130 rows straddle the 64-lane boundary.
    #[test]
    fn bit_sliced_runs_match_the_oracle(
        width in 1usize..4,
        steps in arb_steps(),
        rows in prop::collection::vec(prop::collection::vec(small_time(), 4), 1..130),
        bad in 0usize..200,
    ) {
        let netlist = build(width, &steps);
        let sim = GrlSim::new();
        let mut input = VolleyBatch::new(width);
        let mut want_events = Recorder::new();
        let mut want_counters = MetricsRegistry::new();
        let mut want_outputs = Vec::new();
        for row in &rows {
            let inputs = &row[..width];
            input.push_row(inputs).unwrap();
            let horizon = netlist.settle_bound(inputs).unwrap();
            let mut events = Recorder::new();
            let mut counters = MetricsRegistry::new();
            let want = oracle(&netlist, inputs, horizon, &mut events);
            oracle(&netlist, inputs, horizon, &mut counters);
            let mut got_events = Recorder::new();
            let mut got_counters = MetricsRegistry::new();
            prop_assert_eq!(&sim.run_with(&netlist, inputs, &mut got_events).unwrap(), &want);
            prop_assert_eq!(&sim.run_with(&netlist, inputs, &mut got_counters).unwrap(), &want);
            prop_assert_eq!(got_events.events(), events.events());
            prop_assert_eq!(counts(&got_counters), counts(&counters));
            oracle(&netlist, inputs, horizon, &mut want_events);
            oracle(&netlist, inputs, horizon, &mut want_counters);
            want_outputs.extend(want.outputs);
        }

        let mut out = VolleyBatch::default();
        let mut events = Recorder::new();
        let mut counters = MetricsRegistry::new();
        sim.run_batch(&netlist, &input, &mut out, &mut events).unwrap();
        prop_assert_eq!(out.times(), &want_outputs[..]);
        sim.run_batch(&netlist, &input, &mut out, &mut counters).unwrap();
        prop_assert_eq!(out.times(), &want_outputs[..]);
        prop_assert_eq!(events.events(), want_events.events());
        prop_assert_eq!(counts(&counters), counts(&want_counters));

        // A row whose horizon overflows, mid-batch and again later: the
        // lowest one is the error, and the rows before it still run.
        let bad = bad % rows.len();
        let huge = Time::finite(u64::MAX - 1);
        let poisoned = VolleyBatch::from_fn(width, rows.len(), |row, line| {
            if (row == bad || row == rows.len() - 1) && line == 0 { huge } else { rows[row][line] }
        });
        let mut counters = MetricsRegistry::new();
        let err = sim.run_batch(&netlist, &poisoned, &mut out, &mut counters).unwrap_err();
        prop_assert_eq!(
            err,
            BatchError { index: bad, source: netlist.settle_bound(poisoned.row(bad)).unwrap_err() }
        );
        prop_assert!(matches!(err.source, CoreError::HorizonOverflow { .. }));
        let outputs = netlist.outputs().len();
        prop_assert_eq!(out.row_range(0..bad), &want_outputs[..bad * outputs]);
        prop_assert_eq!(counters.counter("grl.runs"), bad as u64);
    }
}
