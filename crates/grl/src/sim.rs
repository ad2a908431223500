//! Cycle-accurate simulation of GRL netlists, with transition counting.
//!
//! The simulator models the § V.B scheme: a clock demarks idealized unit
//! time; combinational gates (AND/OR/latch) are zero-delay within a cycle;
//! each flip-flop stage contributes exactly one cycle. Every computation
//! is preceded by a **reset phase** that drives all wires high and makes
//! the `lt` latches transparent — exactly the reset the paper's Fig. 16
//! requires — and the simulator accounts reset transitions separately from
//! evaluation transitions, matching the paper's caveat that reset energy
//! must be paid before the next computation.
//!
//! Every wire falls at most once per computation (the minimal-transition
//! property of § VI conjecture 1), so a wire needs one bit per cycle and
//! a run is over at [`GrlNetlist::settle_bound`], the netlist's critical
//! flip-flop path past the latest input. The simulator is **bit-sliced**:
//! one `u64` per wire carries 64 volleys, one per bit, so AND is
//! `&`, OR is `|`, a flip-flop is the previous cycle's word, and a latch
//! is `blocked |= !b & prev_a; out = a | blocked`. Each pack of up to 64
//! volleys runs to the largest of its volleys' bounds; a volley's wires
//! are quiet past its own bound, so the extra cycles change nothing.
//! [`GrlSim::run`] is the same loop on a one-volley pack.
//!
//! The test suites check the one-fall property, the bound's soundness,
//! the bit-sliced loop against a one-volley-at-a-time boolean oracle, and
//! cycle-exact equivalence with the algebraic evaluator in `st-net`.

use core::ops::Range;

use st_core::{BatchError, CoreError, Time, VolleyBatch};
use st_metrics::MetricsRegistry;
use st_obs::ObsEvent;
use st_trace::{Instrument, NullInstrument};

use crate::netlist::{GrlGate, GrlNetlist};

/// Volleys per pack: one per bit of a `u64` wire word.
const LANES: usize = 64;

/// Result of simulating one computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrlReport {
    /// Event time (fall cycle) on each output wire; `∞` if it never fell.
    pub outputs: Vec<Time>,
    /// Fall time of every wire, by wire index; `∞` for wires that stayed
    /// high.
    pub fall_times: Vec<Time>,
    /// `1→0` transitions during evaluation (= wires that fell; each wire
    /// switches at most once).
    pub eval_transitions: usize,
    /// `0→1` transitions the subsequent reset phase must pay to restore
    /// the fallen wires (equal to `eval_transitions`) plus latch resets.
    pub reset_transitions: usize,
    /// Cycles simulated: [`GrlNetlist::settle_bound`] + 1.
    pub cycles: u64,
}

impl GrlReport {
    /// Total switching activity per computation (evaluation + reset).
    #[must_use]
    pub fn total_transitions(&self) -> usize {
        self.eval_transitions + self.reset_transitions
    }

    /// Fraction of wires that switched during evaluation — the sparse-
    /// coding activity factor of § VI.
    #[must_use]
    pub fn activity_factor(&self) -> f64 {
        if self.fall_times.is_empty() {
            0.0
        } else {
            self.eval_transitions as f64 / self.fall_times.len() as f64
        }
    }
}

/// Cycle-accurate GRL simulator.
#[derive(Debug, Default, Clone, Copy)]
pub struct GrlSim;

impl GrlSim {
    /// Creates a simulator.
    #[must_use]
    pub fn new() -> GrlSim {
        GrlSim
    }

    /// Simulates one computation: reset, then run until every transition
    /// has settled ([`GrlNetlist::settle_bound`]), recording each wire's
    /// fall time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the netlist's input count, and [`CoreError::HorizonOverflow`] if
    /// the run would pass the largest finite time.
    pub fn run(&self, netlist: &GrlNetlist, inputs: &[Time]) -> Result<GrlReport, CoreError> {
        self.run_with(netlist, inputs, &mut NullInstrument)
    }

    /// [`GrlSim::run`] under an instrument: every wire fall is an
    /// [`ObsEvent::WireFell`] and every `lt` latch capture an
    /// [`ObsEvent::LatchBlocked`], in (cycle, wire) order with a latch's
    /// capture before any fall; the counters are the `grl.*` counts —
    /// simulated cycles, wire transitions (the paper's § VI energy proxy),
    /// reset transitions, and latch captures. With [`NullInstrument`] this
    /// compiles to exactly [`GrlSim::run`]; results are identical for any
    /// instrument.
    ///
    /// # Errors
    ///
    /// As [`GrlSim::run`].
    pub fn run_with(
        &self,
        netlist: &GrlNetlist,
        inputs: &[Time],
        inst: &mut impl Instrument,
    ) -> Result<GrlReport, CoreError> {
        if inputs.len() != netlist.input_count() {
            return Err(CoreError::ArityMismatch {
                expected: netlist.input_count(),
                actual: inputs.len(),
            });
        }
        let horizon = netlist.settle_bound(inputs)?;
        let mut fall_times = vec![Time::INFINITY; netlist.wire_count()];
        let mut events = inst.events_live().then(Vec::new);
        let mut tally = Tally::new(None, &mut fall_times, netlist.wire_count(), events.as_mut());
        simulate(
            netlist,
            inputs,
            1,
            horizon,
            &mut Lanes::default(),
            &mut tally,
        );
        let (transitions, captures) = (tally.transitions, tally.captures);
        if let Some(events) = &mut events {
            replay(inst, events);
        }
        count(inst, 1, horizon + 1, transitions, captures);
        let outputs = netlist
            .outputs()
            .iter()
            .map(|o| fall_times[o.index()])
            .collect();
        Ok(GrlReport {
            outputs,
            fall_times,
            eval_transitions: transitions as usize,
            // Reset must raise every fallen wire and clear captured latches.
            reset_transitions: (transitions + captures) as usize,
            cycles: horizon + 1,
        })
    }

    /// [`GrlSim::run_with`] into a [`MetricsRegistry`], kept for
    /// `benchmark/`. New code calls [`GrlSim::run_with`].
    ///
    /// # Errors
    ///
    /// As [`GrlSim::run_with`].
    pub fn run_metered(
        &self,
        netlist: &GrlNetlist,
        inputs: &[Time],
        sink: &mut MetricsRegistry,
    ) -> Result<GrlReport, CoreError> {
        self.run_with(netlist, inputs, sink)
    }

    /// Simulates every row of `input`, 64 per pack, into `out`, which is
    /// reset to one row of output fall times per input row.
    ///
    /// # Errors
    ///
    /// As [`GrlSim::run_rows`]; `out` then holds the outputs of the rows
    /// before the failing one and `∞` after it.
    pub fn run_batch(
        &self,
        netlist: &GrlNetlist,
        input: &VolleyBatch,
        out: &mut VolleyBatch,
        inst: &mut impl Instrument,
    ) -> Result<(), BatchError> {
        out.reset(netlist.outputs().len(), input.len());
        let result = self.run_rows(netlist, input, 0..input.len(), out.times_mut(), inst);
        out.refresh_max();
        result
    }

    /// Simulates input rows `rows`, 64 per pack, into `out`, their output
    /// rows (`rows.len()` × output count times, preset to `∞` by the
    /// caller). Each pack runs to the largest [`GrlNetlist::settle_bound`]
    /// among its rows.
    ///
    /// The results, events and counters are exactly those of
    /// [`GrlSim::run_with`] on each row in turn, stopping at the first
    /// failure: events are replayed volley by volley, and the counters
    /// are sums over rows (`grl.cycles` adds each row's own bound + 1), so
    /// neither depends on how rows are packed.
    ///
    /// # Errors
    ///
    /// The lowest-index failing row: [`CoreError::ArityMismatch`] at
    /// `rows.start` if the batch is not the netlist's input width, or a
    /// row's [`CoreError::HorizonOverflow`]. The rows before it are
    /// simulated and recorded.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not within the batch or `out` is too short.
    pub fn run_rows(
        &self,
        netlist: &GrlNetlist,
        input: &VolleyBatch,
        rows: Range<usize>,
        out: &mut [Time],
        inst: &mut impl Instrument,
    ) -> Result<(), BatchError> {
        if input.width() != netlist.input_count() && !rows.is_empty() {
            return Err(BatchError {
                index: rows.start,
                source: CoreError::ArityMismatch {
                    expected: netlist.input_count(),
                    actual: input.width(),
                },
            });
        }
        // Only the output wires' fall times are kept, one column per
        // distinct wire.
        let outputs = netlist.outputs();
        let mut column = vec![UNWATCHED; netlist.wire_count()];
        let mut columns = 0;
        for o in outputs {
            if column[o.index()] == UNWATCHED {
                column[o.index()] = columns as u32;
                columns += 1;
            }
        }
        let mut falls = vec![Time::INFINITY; LANES * columns];
        let mut lanes = Lanes::default();
        let mut events = inst.events_live().then(Vec::new);
        let (mut runs, mut cycles, mut transitions, mut captures) = (0, 0, 0, 0);
        let mut result = Ok(());
        let mut start = rows.start;
        while start < rows.end && result.is_ok() {
            let mut end = (start + LANES).min(rows.end);
            let mut horizon = 0;
            for row in start..end {
                match netlist.settle_bound(input.row(row)) {
                    Ok(bound) => {
                        horizon = horizon.max(bound);
                        cycles += bound + 1;
                    }
                    Err(source) => {
                        result = Err(BatchError { index: row, source });
                        end = row;
                        break;
                    }
                }
            }
            let count = end - start;
            if count > 0 {
                falls.fill(Time::INFINITY);
                let mut tally = Tally::new(Some(&column), &mut falls, columns, events.as_mut());
                simulate(
                    netlist,
                    input.row_range(start..end),
                    count,
                    horizon,
                    &mut lanes,
                    &mut tally,
                );
                transitions += tally.transitions;
                captures += tally.captures;
                let width = outputs.len();
                let pack_out = &mut out[(start - rows.start) * width..(end - rows.start) * width];
                for (lane, slot) in pack_out.chunks_exact_mut(width.max(1)).enumerate() {
                    for (time, o) in slot.iter_mut().zip(outputs) {
                        *time = falls[lane * columns + column[o.index()] as usize];
                    }
                }
                if let Some(events) = &mut events {
                    replay(inst, events);
                }
                runs += count as u64;
            }
            start = end;
        }
        count(inst, runs, cycles, transitions, captures);
        result
    }
}

/// Records one pack's `(lane, event)` list volley by volley. The pack
/// produced them in (cycle, wire) order across lanes, so a stable sort by
/// lane gives each volley's events in the order a one-volley run would.
fn replay(inst: &mut impl Instrument, events: &mut Vec<(usize, ObsEvent)>) {
    events.sort_by_key(|&(lane, _)| lane);
    for (_, event) in events.drain(..) {
        inst.record(event);
    }
}

/// Adds the `grl.*` counters of `runs` runs.
fn count(inst: &mut impl Instrument, runs: u64, cycles: u64, transitions: u64, captures: u64) {
    if inst.counters_live() && runs > 0 {
        inst.incr("grl.runs", runs);
        inst.incr("grl.cycles", cycles);
        inst.incr("grl.wire_transitions", transitions);
        inst.incr("grl.reset_transitions", transitions + captures);
        inst.incr("grl.latch_captures", captures);
    }
}

/// A wire whose fall times a run does not keep.
const UNWATCHED: u32 = u32::MAX;

/// Reusable bit-sliced wire state: bit `k` of a word is lane `k`.
#[derive(Debug, Default)]
struct Lanes {
    /// This cycle's level of every wire (1 = high).
    level: Vec<u64>,
    /// The previous cycle's levels, for flip-flops and latches.
    prev: Vec<u64>,
    /// Lanes in which each `lt` latch has captured.
    blocked: Vec<u64>,
    /// The level of each input pad.
    pads: Vec<u64>,
    /// Input falls in cycle order: `(cycle, pad, lane bit)`.
    schedule: Vec<(u64, usize, u64)>,
}

/// What a pack's run keeps: fall times of the watched wires, per lane,
/// the replayable events, and the transition and capture totals.
struct Tally<'a> {
    /// Each wire's column in `falls` ([`UNWATCHED`]: none); `None` keeps
    /// every wire, in wire order.
    column: Option<&'a [u32]>,
    /// `falls[lane * columns + column]`, preset to `∞`.
    falls: &'a mut [Time],
    columns: usize,
    /// `(lane, event)` in the order the pack produced them.
    events: Option<&'a mut Vec<(usize, ObsEvent)>>,
    transitions: u64,
    captures: u64,
}

impl<'a> Tally<'a> {
    fn new(
        column: Option<&'a [u32]>,
        falls: &'a mut [Time],
        columns: usize,
        events: Option<&'a mut Vec<(usize, ObsEvent)>>,
    ) -> Tally<'a> {
        Tally {
            column,
            falls,
            columns,
            events,
            transitions: 0,
            captures: 0,
        }
    }

    /// `lanes` of latch `wire` captured at `cycle`.
    fn captured(&mut self, wire: usize, cycle: u64, lanes: u64) {
        self.captures += u64::from(lanes.count_ones());
        if let Some(events) = self.events.as_deref_mut() {
            let at = Time::finite(cycle);
            events.extend(bits(lanes).map(|lane| (lane, ObsEvent::LatchBlocked { wire, at })));
        }
    }

    /// `lanes` of `wire` fell at `cycle`.
    fn fell(&mut self, wire: usize, cycle: u64, lanes: u64) {
        self.transitions += u64::from(lanes.count_ones());
        let column = self.column.map_or(wire as u32, |column| column[wire]);
        let at = Time::finite(cycle);
        if column != UNWATCHED {
            for lane in bits(lanes) {
                self.falls[lane * self.columns + column as usize] = at;
            }
        }
        if let Some(events) = self.events.as_deref_mut() {
            events.extend(bits(lanes).map(|lane| (lane, ObsEvent::WireFell { wire, at })));
        }
    }
}

/// The set bits of `word`, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let lane = word.trailing_zeros() as usize;
            word &= word - 1;
            lane
        })
    })
}

/// The one GRL cycle loop: runs `count` (1..=64) volleys, `rows` holding
/// them row-major, from reset through cycle `horizon`, reporting every
/// capture and fall to `tally` in (cycle, wire) order.
fn simulate(
    netlist: &GrlNetlist,
    rows: &[Time],
    count: usize,
    horizon: u64,
    lanes: &mut Lanes,
    tally: &mut Tally<'_>,
) {
    let n = netlist.wire_count();
    let live = u64::MAX >> (LANES - count);
    // Reset state: every wire high, latches transparent, in live lanes only.
    let Lanes {
        level,
        prev,
        blocked,
        pads,
        schedule,
    } = lanes;
    for words in [&mut *level, &mut *prev] {
        words.clear();
        words.resize(n, live);
    }
    blocked.clear();
    blocked.resize(n, 0);
    pads.clear();
    pads.resize(netlist.input_count(), live);
    schedule.clear();
    if !pads.is_empty() {
        for (lane, row) in rows.chunks_exact(pads.len()).enumerate() {
            for (pad, t) in row.iter().enumerate() {
                if let Some(cycle) = t.value() {
                    schedule.push((cycle, pad, 1 << lane));
                }
            }
        }
    }
    schedule.sort_unstable_by_key(|&(cycle, ..)| cycle);

    let mut next = schedule.iter().peekable();
    for cycle in 0..=horizon {
        while let Some(&(_, pad, bit)) = next.next_if(|&&(at, ..)| at == cycle) {
            pads[pad] &= !bit;
        }
        for (i, gate) in netlist.gates.iter().enumerate() {
            let new = match *gate {
                GrlGate::Input(p) => pads[p],
                GrlGate::High => live,
                GrlGate::FallAt(c) => {
                    if cycle < c {
                        live
                    } else {
                        0
                    }
                }
                GrlGate::And(a, b) => level[a.index()] & level[b.index()],
                GrlGate::Or(a, b) => level[a.index()] | level[b.index()],
                GrlGate::LtLatch { a, b } => {
                    // Block once b is low while a was still high at the
                    // previous cycle (strictly earlier, or a tie).
                    let capture = !level[b.index()] & prev[a.index()] & !blocked[i];
                    if capture != 0 {
                        blocked[i] |= capture;
                        tally.captured(i, cycle, capture);
                    }
                    level[a.index()] | blocked[i]
                }
                GrlGate::Delay(a) => prev[a.index()],
            };
            let fell = level[i] & !new;
            if fell != 0 {
                tally.fell(i, cycle, fell);
            }
            level[i] = new;
        }
        prev.copy_from_slice(level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GrlBuilder;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    const INF: Time = Time::INFINITY;

    fn run1(netlist: &GrlNetlist, inputs: &[Time]) -> Vec<Time> {
        GrlSim::new().run(netlist, inputs).unwrap().outputs
    }

    #[test]
    fn and_computes_min() {
        // Falling-edge encoding: AND goes low with its *first* input.
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.and2(x, y);
        let net = b.build([m]);
        assert_eq!(run1(&net, &[t(2), t(5)]), vec![t(2)]);
        assert_eq!(run1(&net, &[t(5), t(2)]), vec![t(2)]);
        assert_eq!(run1(&net, &[t(3), t(3)]), vec![t(3)]);
        assert_eq!(run1(&net, &[t(2), INF]), vec![t(2)]);
        assert_eq!(run1(&net, &[INF, INF]), vec![INF]);
    }

    #[test]
    fn or_computes_max() {
        // Falling-edge encoding: OR stays high until its *last* input falls.
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.or2(x, y);
        let net = b.build([m]);
        assert_eq!(run1(&net, &[t(2), t(5)]), vec![t(5)]);
        assert_eq!(run1(&net, &[INF, t(5)]), vec![INF]);
        assert_eq!(run1(&net, &[INF, INF]), vec![INF]);
    }

    #[test]
    fn latch_computes_strict_lt() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.lt(x, y);
        let net = b.build([m]);
        assert_eq!(run1(&net, &[t(2), t(5)]), vec![t(2)]);
        assert_eq!(run1(&net, &[t(5), t(2)]), vec![INF]);
        assert_eq!(run1(&net, &[t(3), t(3)]), vec![INF]); // tie blocks
        assert_eq!(run1(&net, &[t(3), INF]), vec![t(3)]);
        assert_eq!(run1(&net, &[INF, t(3)]), vec![INF]);
        assert_eq!(run1(&net, &[t(0), t(0)]), vec![INF]); // tie at reset edge
        assert_eq!(run1(&net, &[t(0), t(1)]), vec![t(0)]);
    }

    #[test]
    fn latch_output_stays_low_after_b_falls() {
        // a falls at 1, b falls at 4: output falls at 1 and must remain
        // low when b later falls (the latch's raison d'être).
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.lt(x, y);
        let net = b.build([m]);
        let report = GrlSim::new().run(&net, &[t(1), t(4)]).unwrap();
        assert_eq!(report.outputs, vec![t(1)]);
        // The wire fell exactly once.
        assert_eq!(
            report.fall_times.iter().filter(|f| f.is_finite()).count(),
            3
        );
    }

    #[test]
    fn shift_register_delays() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let d = b.shift_register(x, 4);
        let net = b.build([d]);
        assert_eq!(run1(&net, &[t(2)]), vec![t(6)]);
        assert_eq!(run1(&net, &[INF]), vec![INF]);
    }

    #[test]
    fn constants() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let hi = b.high();
        let k = b.fall_at(3);
        let pass = b.lt(x, hi); // always passes x
        let gated = b.and2(x, k); // min(x, 3)
        let net = b.build([pass, gated]);
        assert_eq!(run1(&net, &[t(5)]), vec![t(5), t(3)]);
        assert_eq!(run1(&net, &[t(1)]), vec![t(1), t(1)]);
    }

    #[test]
    fn every_wire_falls_at_most_once_and_counts_match() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let d = b.shift_register(x, 1);
        let mn = b.and2(d, y);
        let out = b.lt(mn, z);
        let net = b.build([out]);
        let report = GrlSim::new().run(&net, &[t(0), t(3), t(2)]).unwrap();
        assert_eq!(report.outputs, vec![t(1)]);
        // inputs x,y,z fall; delay falls; or falls; lt falls → 6.
        assert_eq!(report.eval_transitions, 6);
        assert_eq!(report.reset_transitions, 6); // no latch captured
        assert_eq!(report.total_transitions(), 12);
        assert!(report.activity_factor() > 0.99);
    }

    #[test]
    fn silent_computation_switches_nothing() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.and2(x, y);
        let d = b.shift_register(m, 2);
        let net = b.build([d]);
        let report = GrlSim::new().run(&net, &[INF, INF]).unwrap();
        assert_eq!(report.outputs, vec![INF]);
        assert_eq!(report.eval_transitions, 0);
        assert_eq!(report.total_transitions(), 0);
        assert_eq!(report.activity_factor(), 0.0);
    }

    #[test]
    fn latch_capture_costs_a_reset_transition() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.lt(x, y);
        let net = b.build([m]);
        // b first: latch captures, output never falls.
        let report = GrlSim::new().run(&net, &[t(5), t(1)]).unwrap();
        assert_eq!(report.outputs, vec![INF]);
        // transitions: both inputs fell; lt stayed high.
        assert_eq!(report.eval_transitions, 2);
        assert_eq!(report.reset_transitions, 2 + 1); // + latch clear
    }

    #[test]
    fn arity_is_checked() {
        let mut b = GrlBuilder::new();
        let _ = b.input();
        let x = b.input();
        let net = b.build([x]);
        assert!(GrlSim::new().run(&net, &[t(0)]).is_err());
    }

    #[test]
    fn probed_run_records_falls_and_latch_captures() {
        use st_obs::Recorder;
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.lt(x, y);
        let net = b.build([m]);
        let sim = GrlSim::new();
        // b falls first: latch captures, two wires fall.
        let mut recorder = Recorder::new();
        let probed = sim.run_with(&net, &[t(5), t(1)], &mut recorder).unwrap();
        assert_eq!(probed, sim.run(&net, &[t(5), t(1)]).unwrap());
        let falls: Vec<(usize, Time)> = recorder
            .events()
            .iter()
            .filter_map(|e| match *e {
                st_obs::ObsEvent::WireFell { wire, at } => Some((wire, at)),
                _ => None,
            })
            .collect();
        assert_eq!(falls.len(), probed.eval_transitions);
        for (wire, at) in falls {
            assert_eq!(probed.fall_times[wire], at);
        }
        let captures = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, st_obs::ObsEvent::LatchBlocked { .. }))
            .count();
        assert_eq!(captures, 1);
        // Falls arrive in cycle order.
        let times: Vec<Time> = recorder
            .events()
            .iter()
            .filter_map(st_obs::ObsEvent::model_time)
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn metered_run_counts_transitions_without_perturbing_results() {
        use st_metrics::MetricsRegistry;
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.lt(x, y);
        let net = b.build([m]);
        let sim = GrlSim::new();
        // b falls first: latch captures, two wires fall.
        let mut sink = MetricsRegistry::new();
        let metered = sim.run_with(&net, &[t(5), t(1)], &mut sink).unwrap();
        let plain = sim.run(&net, &[t(5), t(1)]).unwrap();
        assert_eq!(metered, plain);
        assert_eq!(sink.counter("grl.runs"), 1);
        assert_eq!(sink.counter("grl.cycles"), plain.cycles);
        assert_eq!(
            sink.counter("grl.wire_transitions"),
            plain.eval_transitions as u64
        );
        assert_eq!(
            sink.counter("grl.reset_transitions"),
            plain.reset_transitions as u64
        );
        assert_eq!(sink.counter("grl.latch_captures"), 1);
        // Counters accumulate across runs into the same sink.
        let _ = sim.run_with(&net, &[t(5), t(1)], &mut sink).unwrap();
        assert_eq!(sink.counter("grl.runs"), 2);
        assert_eq!(
            sink.counter("grl.wire_transitions"),
            2 * plain.eval_transitions as u64
        );
    }

    #[test]
    fn run_batch_matches_per_volley_runs() {
        use st_core::VolleyBatch;
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let d = b.shift_register(x, 2);
        let mn = b.and2(d, y);
        let out = b.lt(mn, z);
        let net = b.build([out, d, out]);
        let sim = GrlSim::new();
        // 5^3 = 125 volleys: one full pack and one partial one.
        let volleys: Vec<Vec<Time>> = st_core::enumerate_inputs(3, 3).collect();
        let input = VolleyBatch::from_fn(3, volleys.len(), |row, line| volleys[row][line]);
        let mut out = VolleyBatch::default();
        sim.run_batch(&net, &input, &mut out, &mut NullInstrument)
            .unwrap();
        assert_eq!(out.len(), volleys.len());
        for (v, row) in volleys.iter().zip(out.rows()) {
            assert_eq!(row, sim.run(&net, v).unwrap().outputs, "at {v:?}");
        }
        // A batch of the wrong width fails at its first row.
        let narrow = VolleyBatch::from_fn(1, 2, |_, _| t(0));
        let err = sim
            .run_batch(&net, &narrow, &mut out, &mut NullInstrument)
            .unwrap_err();
        assert_eq!(err.index, 0);
    }

    #[test]
    fn a_horizon_past_the_largest_time_is_an_error_not_a_wrapped_run() {
        // One flip-flop stage: the run settles two cycles after its
        // latest event, which must still be a finite time.
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let d = b.shift_register(x, 1);
        let m = b.and2(d, y);
        let net = b.build([m]);
        for latest in [u64::MAX - 1, u64::MAX - 2] {
            assert_eq!(
                GrlSim::new().run(&net, &[t(latest), t(5)]),
                Err(CoreError::HorizonOverflow { latest, settle: 2 })
            );
        }
        assert_eq!(run1(&net, &[t(7), t(5)]), vec![t(5)]);
    }
}
