//! The one-pass event engine against a priority-queue simulation.
//!
//! The oracle plays the wave of spikes out token by token: a firing gate
//! pushes one `(due, consumer)` token per fan-out slot onto a binary
//! heap, tokens are popped in `(time, gate)` order, and a popped gate
//! fires as soon as its decision is a finite time. [`CompiledNetwork`]
//! computes the firing times in one topological pass and derives its
//! events and counters from them; it must reproduce the oracle exactly:
//! the report, the `GateFired` sequence, every `net.*` counter and each
//! run's `net.queue_peak_depth`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use st_core::{Expr, FunctionTable, Time};
use st_metrics::MetricsRegistry;
use st_net::compile::compile_exprs;
use st_net::synth::{synthesize, SynthesisOptions};
use st_net::{CompiledNetwork, EventReport, EventSim, GateKind, NetScratch, Network};
use st_obs::{ObsEvent, Recorder};
use st_trace::{Instrument, NullInstrument};

/// The observability label for a gate kind.
fn op_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Input(_) => "input",
        GateKind::Const(_) => "const",
        GateKind::Inc(_) => "inc",
        GateKind::Min => "min",
        GateKind::Max => "max",
        GateKind::Lt => "lt",
        _ => unreachable!("every gate kind is covered"),
    }
}

/// Simulates one volley with a binary heap of `(time, gate)` tokens,
/// recording events and `net.*` counters into `inst`. A decision at `∞`
/// (a saturating `inc`) is no firing.
fn oracle(network: &Network, inputs: &[Time], inst: &mut impl Instrument) -> EventReport {
    let n = network.gate_count();
    let kinds: Vec<GateKind> = network.iter_gates().map(|(_, kind)| kind).collect();
    let sources: Vec<Vec<usize>> = network
        .iter_gates()
        .map(|(id, _)| {
            let srcs = network.sources(id).unwrap();
            srcs.iter().map(|s| s.index()).collect()
        })
        .collect();
    let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gate, srcs) in sources.iter().enumerate() {
        for &s in srcs {
            fanout[s].push(gate);
        }
    }

    let mut fired = vec![Time::INFINITY; n];
    let mut total_events = 0usize;
    let mut internal_events = 0usize;
    let mut queue: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    let mut queue_pushes = 0u64;
    let mut queue_pops = 0u64;
    let mut gate_evals = 0u64;
    let mut peak_depth = 0usize;
    let events_live = inst.events_live();
    let mut events = Vec::new();
    let mut fire = |gate: usize,
                    at: Time,
                    fired: &mut Vec<Time>,
                    queue: &mut BinaryHeap<Reverse<(Time, usize)>>| {
        fired[gate] = at;
        total_events += 1;
        if events_live {
            events.push(ObsEvent::GateFired {
                gate,
                op: op_name(kinds[gate]),
                at,
            });
        }
        for &consumer in &fanout[gate] {
            let due = match kinds[consumer] {
                GateKind::Inc(c) => at + c,
                _ => at,
            };
            queue.push(Reverse((due, consumer)));
            queue_pushes += 1;
            peak_depth = peak_depth.max(queue.len());
        }
    };

    // Seed: inputs and constants fire unconditionally at their times.
    for (gate, kind) in kinds.iter().enumerate() {
        let at = match *kind {
            GateKind::Input(p) => inputs[p],
            GateKind::Const(t) => t,
            _ => continue,
        };
        if at.is_finite() {
            fire(gate, at, &mut fired, &mut queue);
        }
    }
    while let Some(Reverse((now, gate))) = queue.pop() {
        queue_pops += 1;
        if fired[gate].is_finite() {
            continue;
        }
        gate_evals += 1;
        let decision = match kinds[gate] {
            GateKind::Inc(_) | GateKind::Min => now,
            GateKind::Max => {
                let times: Vec<Time> = sources[gate].iter().map(|&s| fired[s]).collect();
                if times.iter().all(|t| t.is_finite()) {
                    Time::max_of(times)
                } else {
                    Time::INFINITY
                }
            }
            GateKind::Lt => {
                let a = fired[sources[gate][0]];
                let b = fired[sources[gate][1]];
                a.lt_gate(b)
            }
            _ => unreachable!("sources get no tokens"),
        };
        if decision.is_finite() {
            internal_events += 1;
            fire(gate, decision, &mut fired, &mut queue);
        }
    }

    for event in events {
        inst.record(event);
    }
    if inst.counters_live() {
        inst.incr("net.runs", 1);
        inst.incr("net.gate_evals", gate_evals);
        inst.incr("net.gate_firings", total_events as u64);
        inst.incr("net.queue_pushes", queue_pushes);
        inst.incr("net.queue_pops", queue_pops);
        inst.observe("net.queue_peak_depth", peak_depth as u64);
    }
    EventReport {
        outputs: network.outputs().iter().map(|o| fired[o.index()]).collect(),
        firings: fired,
        total_events,
        internal_events,
    }
}

/// Events and counters live at once, as a profile collects them.
#[derive(Debug, Default)]
struct Both {
    events: Recorder,
    counters: MetricsRegistry,
}

impl Instrument for Both {
    type Worker = NullInstrument;

    fn events_live(&self) -> bool {
        true
    }

    fn record(&mut self, event: ObsEvent) {
        self.events.record(event);
    }

    fn counters_live(&self) -> bool {
        true
    }

    fn incr(&mut self, counter: &'static str, by: u64) {
        self.counters.incr(counter, by);
    }

    fn observe(&mut self, histogram: &'static str, value: u64) {
        self.counters.observe(histogram, value);
    }
}

/// Checks `compiled` (built from `network`) against the oracle on every
/// row, one run at a time under each instrument, then over all rows with
/// one reused [`NetScratch`], as the batch engine runs them.
fn check_against_oracle(
    network: &Network,
    compiled: &CompiledNetwork,
    rows: &[Vec<Time>],
) -> Result<(), TestCaseError> {
    let mut want_all = MetricsRegistry::new();
    let mut got_all = MetricsRegistry::new();
    let mut scratch = NetScratch::default();
    let mut out = vec![Time::ZERO; network.output_count()];
    for inputs in rows {
        let mut want = Both::default();
        let report = oracle(network, inputs, &mut want);
        prop_assert_eq!(&report, &oracle(network, inputs, &mut NullInstrument));
        prop_assert_eq!(&report.firings, &network.trace(inputs).unwrap());

        prop_assert_eq!(&compiled.run(inputs).unwrap(), &report);
        let mut got = Both::default();
        prop_assert_eq!(&compiled.run_with(inputs, &mut got).unwrap(), &report);
        prop_assert_eq!(got.events.events(), want.events.events(), "at {:?}", inputs);
        prop_assert_eq!(&got.counters, &want.counters, "at {:?}", inputs);
        let mut events = Recorder::new();
        prop_assert_eq!(&compiled.run_with(inputs, &mut events).unwrap(), &report);
        prop_assert_eq!(events.events(), want.events.events());
        let mut counters = MetricsRegistry::new();
        prop_assert_eq!(&compiled.run_with(inputs, &mut counters).unwrap(), &report);
        prop_assert_eq!(&counters, &want.counters);

        oracle(network, inputs, &mut want_all);
        compiled
            .eval_into(inputs, &mut out, &mut scratch, &mut got_all)
            .unwrap();
        prop_assert_eq!(&out, &report.outputs);
        compiled
            .eval_into(inputs, &mut out, &mut scratch, &mut NullInstrument)
            .unwrap();
        prop_assert_eq!(&out, &report.outputs);
    }
    prop_assert_eq!(got_all, want_all);
    Ok(())
}

fn small_time() -> impl Strategy<Value = Time> {
    prop_oneof![
        6 => (0u64..6).prop_map(Time::finite),
        2 => Just(Time::INFINITY),
        1 => (0u64..4).prop_map(|d| Time::finite(u64::MAX - 1 - d)),
    ]
}

/// Expressions with finite constants, `inc 0` wires, delays that
/// saturate, and duplicate sources (`min(y, y)`, `lt(y, y)`).
fn arb_expr(arity: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        8 => (0..arity).prop_map(Expr::input),
        1 => Just(Expr::constant(Time::INFINITY)),
        1 => (0u64..4).prop_map(|c| Expr::constant(Time::finite(c))),
    ];
    leaf.prop_recursive(5, 40, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.lt(b)),
            inner.clone().prop_map(|a| a.clone().min(a)),
            inner.clone().prop_map(|a| a.clone().max(a)),
            inner.clone().prop_map(|a| a.clone().lt(a)),
            (inner.clone(), 0u64..3).prop_map(|(a, c)| a.inc(c)),
            (inner, 0u64..3).prop_map(|(a, d)| a.inc(u64::MAX - 8 - d)),
        ]
    })
}

/// A normalized table row: inputs with a `0`, finite entries no later
/// than the output.
fn arb_row(arity: usize) -> impl Strategy<Value = (Vec<Time>, Time)> {
    (
        prop::collection::vec(
            prop_oneof![3 => (0u64..4).prop_map(Time::finite), 1 => Just(Time::INFINITY)],
            arity,
        ),
        0usize..arity,
        0u64..3,
    )
        .prop_map(|(mut inputs, zero, extra)| {
            inputs[zero] = Time::ZERO;
            let latest = inputs.iter().filter_map(|t| t.value()).max().unwrap_or(0);
            (inputs, Time::finite(latest + extra))
        })
}

/// A table of distinct random rows (duplicate input patterns dropped).
fn arb_table(arity: usize) -> impl Strategy<Value = FunctionTable> {
    prop::collection::vec(arb_row(arity), 1..8).prop_map(move |rows| {
        let mut distinct: Vec<(Vec<Time>, Time)> = Vec::new();
        for row in rows {
            if distinct.iter().all(|(inputs, _)| *inputs != row.0) {
                distinct.push(row);
            }
        }
        FunctionTable::from_rows(arity, distinct).expect("rows are normalized")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compiled expressions: finite constants, `inc 0` and `lt` ties, `∞`
    /// inputs, duplicate sources and saturating delays.
    #[test]
    fn expression_networks_match_the_heap_oracle(
        exprs in prop::collection::vec(arb_expr(3), 1..4),
        rows in prop::collection::vec(prop::collection::vec(small_time(), 3), 1..12),
    ) {
        let network = compile_exprs(&exprs, 3);
        let compiled = EventSim::new().compile(&network);
        check_against_oracle(&network, &compiled, &rows)?;
    }

    /// Theorem 1 syntheses of random tables (wide `max`/`min` fan-in),
    /// run on shifted, partial and silent volleys.
    #[test]
    fn synthesized_tables_match_the_heap_oracle(
        table in arb_table(3),
        pure in (0u8..2).prop_map(|b| b == 1),
        rows in prop::collection::vec(prop::collection::vec(small_time(), 3), 1..12),
    ) {
        let options = if pure { SynthesisOptions::pure() } else { SynthesisOptions::default() };
        let network = synthesize(&table, options);
        let compiled = EventSim::new().compile(&network);
        let mut rows = rows;
        rows.extend(table.iter().map(|row| row.inputs().to_vec()));
        check_against_oracle(&network, &compiled, &rows)?;
    }
}

#[test]
fn a_saturating_inc_fires_nowhere_in_the_oracle_either() {
    let network = st_net::parse_network(
        "g0 = input\ng1 = inc 18446744073709551610 g0\ng2 = min g1 g1\noutputs g2\n",
    )
    .unwrap();
    let mut want = Both::default();
    let report = oracle(&network, &[Time::finite(5)], &mut want);
    assert_eq!(report.total_events, 1);
    assert_eq!(want.events.len(), 1);
    assert_eq!(want.counters.counter("net.gate_firings"), 1);
    let compiled = EventSim::new().compile(&network);
    check_against_oracle(&network, &compiled, &[vec![Time::finite(5)]]).unwrap();
}
