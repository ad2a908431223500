//! Flattened execution plans: struct-of-arrays gate storage in
//! precomputed topological order, plus the scalar reference evaluator.

use st_core::{lane, CoreError, Time, Volley, VolleyBatch};
use st_grl::GrlNetlist;
use st_lint::{LintGraph, LintOp};
use st_net::{GateKind, Network};
use st_obs::ObsEvent;
use st_trace::{Instrument, NullInstrument, SpanId};

/// One flattened gate operation.
///
/// The per-gate immediate lives in the plan's `args` arena: an input
/// line for [`Op::Input`], a side-table index for [`Op::Const`] and
/// [`Op::Inc`], unused otherwise. Fan-ins live in the shared `sources`
/// arena, delimited by `src_start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Primary input line (fan-in 0).
    Input,
    /// Constant event time (fan-in 0).
    Const,
    /// n-ary `∧`: first-arriving source.
    Min,
    /// n-ary `∨`: last-arriving source.
    Max,
    /// Binary `≺`: first source iff strictly before the second.
    Lt,
    /// Unary `+c`: the source delayed by a constant.
    Inc,
}

impl Op {
    /// The op's stable lowercase tag, matching the event-simulator
    /// vocabulary used in [`ObsEvent::GateFired`].
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Const => "const",
            Op::Min => "min",
            Op::Max => "max",
            Op::Lt => "lt",
            Op::Inc => "inc",
        }
    }
}

/// A network compiled into its flattened, evaluate-many form.
///
/// Gates are stored struct-of-arrays in a topological order fixed at
/// build time: one `Vec` per field (`ops`, `args`), a shared fan-in
/// arena (`sources` + `src_start` offsets), and side tables for the
/// values that don't fit an index (`consts`, `delays`). Build once with
/// [`Plan::from_network`] / [`Plan::from_grl`], then evaluate many
/// volleys with [`Plan::eval`] (scalar) or
/// [`Plan::eval_packet`](crate::packet) (eight lanes per pass).
#[derive(Debug, Clone)]
pub struct Plan {
    input_count: usize,
    ops: Vec<Op>,
    args: Vec<u32>,
    src_start: Vec<u32>,
    sources: Vec<u32>,
    consts: Vec<Time>,
    delays: Vec<u64>,
    outputs: Vec<u32>,
    lane_input_limit: Option<u64>,
    lane_consts: Vec<u64>,
    lane_delays: Vec<u8>,
}

impl Plan {
    /// Flattens a gate network (already topologically ordered by
    /// construction) into a plan. Bit-identical semantics to
    /// [`Network::eval`].
    ///
    /// # Panics
    ///
    /// Panics if the network uses a gate kind this crate does not know
    /// (none exist today; `GateKind` is `#[non_exhaustive]`).
    #[must_use]
    pub fn from_network(network: &Network) -> Plan {
        let mut b = Builder::new(network.input_count());
        for (id, kind) in network.iter_gates() {
            let srcs: Vec<u32> = network
                .sources(id)
                .expect("gate id from iter_gates")
                .iter()
                .map(|s| gate_index(s.index()))
                .collect();
            match kind {
                GateKind::Input(n) => b.push_input(n),
                GateKind::Const(t) => b.push_const(t),
                GateKind::Min => b.push(Op::Min, 0, &srcs),
                GateKind::Max => b.push(Op::Max, 0, &srcs),
                GateKind::Lt => b.push(Op::Lt, 0, &srcs),
                GateKind::Inc(c) => b.push_inc(c, srcs[0]),
                other => unreachable!("unsupported gate kind {other:?}"),
            }
        }
        b.finish(network.outputs().iter().map(|o| gate_index(o.index())))
    }

    /// [`Plan::from_network`] under a `plan.build` span, so profiles
    /// attribute flattening cost separately from evaluation. With a
    /// [`NullInstrument`] this is exactly [`Plan::from_network`].
    ///
    /// # Panics
    ///
    /// See [`Plan::from_network`].
    #[must_use]
    pub fn from_network_traced(
        network: &Network,
        tracer: &mut impl Instrument,
        parent: SpanId,
    ) -> Plan {
        let _span = tracer.span("plan.build", parent);
        Plan::from_network(network)
    }

    /// Lowers a race-logic netlist into a plan via the Fig. 16
    /// correspondence: falling-edge `AND`/`OR` compute `min`/`max`, the
    /// `lt` latch computes `≺`, a flip-flop stage is `+1`, a tied-high
    /// wire is `∞`, and a configuration fall is a finite constant.
    ///
    /// Flip-flop **delay chains are fused** through the shared `st-opt`
    /// rewrites ([`st_opt::graphopt::fuse_delay_chains`] followed by
    /// [`st_opt::graphopt::sweep_unreachable`]): a `Delay` whose source
    /// is itself a delay is emitted as one `Inc` with the summed delay,
    /// and the dead intermediate stages never reach the plan, so an
    /// `N`-cycle chain costs one gate instead of `N`.
    #[must_use]
    pub fn from_grl(netlist: &GrlNetlist) -> Plan {
        let graph = st_grl::lint::to_lint_graph(netlist);
        let (fused, _) = st_opt::graphopt::fuse_delay_chains(&graph);
        let (swept, _) = st_opt::graphopt::sweep_unreachable(&fused);
        Plan::from_lint_graph(&swept)
    }

    /// [`Plan::from_grl`] under a `plan.build` span; see
    /// [`Plan::from_network_traced`].
    #[must_use]
    pub fn from_grl_traced(
        netlist: &GrlNetlist,
        tracer: &mut impl Instrument,
        parent: SpanId,
    ) -> Plan {
        let _span = tracer.span("plan.build", parent);
        Plan::from_grl(netlist)
    }

    /// Flattens a lint-IR graph (already in definition-before-use order,
    /// as the `st-opt` rewrites guarantee) into a plan.
    fn from_lint_graph(graph: &LintGraph) -> Plan {
        let mut b = Builder::new(graph.input_count());
        for node in graph.nodes() {
            let srcs: Vec<u32> = node.sources.iter().map(|&s| gate_index(s)).collect();
            match node.op {
                LintOp::Input(n) => b.push_input(n),
                LintOp::Const(t) => b.push_const(t),
                LintOp::Min => b.push(Op::Min, 0, &srcs),
                LintOp::Max => b.push(Op::Max, 0, &srcs),
                LintOp::Lt => b.push(Op::Lt, 0, &srcs),
                LintOp::Inc(d) => b.push_inc(d, srcs[0]),
            }
        }
        b.finish(graph.outputs().iter().map(|&o| gate_index(o)))
    }

    /// The input width every volley must have.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The width of each output volley.
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gates in the flattened plan (after dead-gate sweeps).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// The largest finite input time for which the lane-packed path is
    /// exact, or `None` if some constant already exceeds the lane
    /// domain.
    ///
    /// Computed by a one-pass dataflow analysis at build time: for every
    /// gate, an upper bound of its value given inputs `≤ W` has the form
    /// `max(W + slack, const_bound)` (delays accumulate `slack` along
    /// input paths; constants start `const_bound` chains). The limit is
    /// the largest `W` keeping every gate `≤` [`lane::MAX_FINITE`], so
    /// within it no lane ever saturates and SWAR equals scalar exactly.
    #[must_use]
    pub fn lane_input_limit(&self) -> Option<u64> {
        self.lane_input_limit
    }

    /// Whether `batch` can take the lane-packed path: its largest finite
    /// time ([`VolleyBatch::max_finite`], recorded when the batch was
    /// made) is within [`Plan::lane_input_limit`]. One comparison,
    /// whatever the batch size; silent `∞` inputs always fit.
    #[must_use]
    pub fn lane_capable_batch(&self, batch: &VolleyBatch) -> bool {
        self.lane_admits(batch.max_finite())
    }

    /// [`Plan::lane_capable_batch`] for volleys held one `Vec` apiece.
    /// (Volley widths are the caller's concern.)
    #[must_use]
    pub fn lane_capable(&self, volleys: &[Volley]) -> bool {
        self.lane_admits(
            volleys
                .iter()
                .flat_map(Volley::times)
                .filter_map(|t| t.value())
                .max(),
        )
    }

    fn lane_admits(&self, max_finite: Option<u64>) -> bool {
        self.lane_input_limit
            .is_some_and(|limit| max_finite.is_none_or(|max| max <= limit))
    }

    /// Evaluates one volley through the flattened plan at full `u64`
    /// precision — the scalar reference path, bit-identical to
    /// [`Network::eval`] on the source network.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs` has the wrong
    /// width.
    pub fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, CoreError> {
        self.eval_with(inputs, &mut NullInstrument)
    }

    /// [`Plan::eval`] under an instrument: one [`ObsEvent::GateFired`] per
    /// gate whose value is finite, in plan order — the same vocabulary as
    /// the event simulator, so exporters need no new cases — and the
    /// `kernel.volleys` and `kernel.gates` (scalar gate evaluations)
    /// counters. With [`NullInstrument`] this is exactly [`Plan::eval`];
    /// results are identical for any instrument.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs` has the wrong
    /// width.
    pub fn eval_with(
        &self,
        inputs: &[Time],
        inst: &mut impl Instrument,
    ) -> Result<Vec<Time>, CoreError> {
        if inputs.len() != self.input_count {
            return Err(CoreError::ArityMismatch {
                expected: self.input_count,
                actual: inputs.len(),
            });
        }
        let enabled = inst.events_live();
        let mut values: Vec<Time> = Vec::with_capacity(self.ops.len());
        for g in 0..self.ops.len() {
            let v = match self.ops[g] {
                Op::Input => inputs[self.args[g] as usize],
                Op::Const => self.consts[self.args[g] as usize],
                Op::Min => Time::min_of(self.fan_in(g).iter().map(|&s| values[s as usize])),
                Op::Max => Time::max_of(self.fan_in(g).iter().map(|&s| values[s as usize])),
                Op::Lt => {
                    let srcs = self.fan_in(g);
                    values[srcs[0] as usize].lt_gate(values[srcs[1] as usize])
                }
                Op::Inc => {
                    let srcs = self.fan_in(g);
                    values[srcs[0] as usize].inc(self.delays[self.args[g] as usize])
                }
            };
            if enabled && v.is_finite() {
                inst.record(ObsEvent::GateFired {
                    gate: g,
                    op: self.ops[g].tag(),
                    at: v,
                });
            }
            values.push(v);
        }
        if inst.counters_live() {
            inst.incr("kernel.volleys", 1);
            inst.incr("kernel.gates", self.ops.len() as u64);
        }
        Ok(self.outputs.iter().map(|&o| values[o as usize]).collect())
    }

    /// The fan-in slice of gate `g` within the shared source arena.
    #[inline]
    pub(crate) fn fan_in(&self, g: usize) -> &[u32] {
        &self.sources[self.src_start[g] as usize..self.src_start[g + 1] as usize]
    }

    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    pub(crate) fn args(&self) -> &[u32] {
        &self.args
    }

    pub(crate) fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    pub(crate) fn lane_consts(&self) -> &[u64] {
        &self.lane_consts
    }

    pub(crate) fn lane_delays(&self) -> &[u8] {
        &self.lane_delays
    }
}

/// Converts a gate index to the plan's `u32` arena index.
fn gate_index(index: usize) -> u32 {
    u32::try_from(index).expect("plans are limited to u32::MAX gates")
}

/// Incremental plan assembly; `finish` runs the bound analysis and
/// precomputes the lane-side constant/delay tables.
struct Builder {
    input_count: usize,
    ops: Vec<Op>,
    args: Vec<u32>,
    src_start: Vec<u32>,
    sources: Vec<u32>,
    consts: Vec<Time>,
    delays: Vec<u64>,
}

impl Builder {
    fn new(input_count: usize) -> Builder {
        Builder {
            input_count,
            ops: Vec::new(),
            args: Vec::new(),
            src_start: vec![0],
            sources: Vec::new(),
            consts: Vec::new(),
            delays: Vec::new(),
        }
    }

    fn push(&mut self, op: Op, arg: u32, srcs: &[u32]) {
        self.ops.push(op);
        self.args.push(arg);
        self.sources.extend_from_slice(srcs);
        self.src_start.push(gate_index(self.sources.len()));
    }

    fn push_input(&mut self, line: usize) {
        self.push(Op::Input, gate_index(line), &[]);
    }

    fn push_const(&mut self, t: Time) {
        let index = gate_index(self.consts.len());
        self.consts.push(t);
        self.push(Op::Const, index, &[]);
    }

    fn push_inc(&mut self, delay: u64, src: u32) {
        let index = gate_index(self.delays.len());
        self.delays.push(delay);
        self.push(Op::Inc, index, &[src]);
    }

    fn finish<I: IntoIterator<Item = u32>>(self, outputs: I) -> Plan {
        let mut plan = Plan {
            input_count: self.input_count,
            ops: self.ops,
            args: self.args,
            src_start: self.src_start,
            sources: self.sources,
            consts: self.consts,
            delays: self.delays,
            outputs: outputs.into_iter().collect(),
            lane_input_limit: None,
            lane_consts: Vec::new(),
            lane_delays: Vec::new(),
        };
        plan.lane_input_limit = compute_lane_limit(&plan);
        if plan.lane_input_limit.is_some() {
            // Within the limit no value leaves the lane domain, so every
            // constant and delay that can matter fits a byte; anything
            // larger is provably unreachable on the lane path and clamps
            // harmlessly.
            plan.lane_consts = plan
                .consts
                .iter()
                .map(|&t| lane::broadcast(lane::encode(t).unwrap_or(lane::INF)))
                .collect();
            plan.lane_delays = plan
                .delays
                .iter()
                .map(|&d| u8::try_from(d).unwrap_or(lane::MAX_FINITE))
                .collect();
        }
        plan
    }
}

/// The bound analysis behind [`Plan::lane_input_limit`]: one forward
/// pass computing, per gate, the pair `(slack, const_bound)` such that
/// with all finite inputs `≤ W` the gate's finite values are
/// `≤ max(W + slack, const_bound)` (`None` = no such path).
fn compute_lane_limit(plan: &Plan) -> Option<u64> {
    let max_opt = |a: Option<u64>, b: Option<u64>| match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let mut slack: Vec<Option<u64>> = Vec::with_capacity(plan.ops.len());
    let mut cbound: Vec<Option<u64>> = Vec::with_capacity(plan.ops.len());
    let mut worst_slack: Option<u64> = None;
    let mut worst_cbound: Option<u64> = None;
    for g in 0..plan.ops.len() {
        let (s, c) = match plan.ops[g] {
            Op::Input => (Some(0), None),
            Op::Const => (None, plan.consts[plan.args[g] as usize].value()),
            Op::Min | Op::Max => plan.fan_in(g).iter().fold((None, None), |(s, c), &src| {
                (
                    max_opt(s, slack[src as usize]),
                    max_opt(c, cbound[src as usize]),
                )
            }),
            Op::Lt => {
                let a = plan.fan_in(g)[0] as usize;
                (slack[a], cbound[a])
            }
            Op::Inc => {
                let src = plan.fan_in(g)[0] as usize;
                let d = plan.delays[plan.args[g] as usize];
                (
                    slack[src].map(|s| s.saturating_add(d)),
                    cbound[src].map(|c| c.saturating_add(d)),
                )
            }
        };
        worst_slack = max_opt(worst_slack, s);
        worst_cbound = max_opt(worst_cbound, c);
        slack.push(s);
        cbound.push(c);
    }
    let ceiling = u64::from(lane::MAX_FINITE);
    if worst_cbound.is_some_and(|c| c > ceiling) {
        return None;
    }
    worst_slack.map_or(Some(ceiling), |s| ceiling.checked_sub(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_net::NetworkBuilder;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    /// A canonical one-line-per-gate rendering of a plan's structure,
    /// used by the refactor pin tests below.
    fn dump(plan: &Plan) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for g in 0..plan.gate_count() {
            let srcs: Vec<String> = plan.fan_in(g).iter().map(|s| format!("g{s}")).collect();
            let arg = match plan.ops[g] {
                Op::Input => format!("line {}", plan.args[g]),
                Op::Const => format!("{}", plan.consts[plan.args[g] as usize]),
                Op::Inc => format!("+{}", plan.delays[plan.args[g] as usize]),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "g{g}: {} {arg} [{}]",
                plan.ops[g].tag(),
                srcs.join(", ")
            );
        }
        let outs: Vec<String> = plan.outputs.iter().map(|o| format!("g{o}")).collect();
        let _ = writeln!(out, "-> {}", outs.join(", "));
        out
    }

    /// The three pin netlists: a pure delay chain, a mixed network with
    /// every gate kind, and a comparator sorter.
    fn pin_netlists() -> Vec<(&'static str, st_grl::GrlNetlist)> {
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let d = b.inc(input, 9);
        let chain = st_grl::compile_network(&b.build([d]));

        let mut b = NetworkBuilder::new();
        let ins = b.inputs(3);
        let d = b.inc(ins[0], 2);
        let m = b.min2(d, ins[1]);
        let x = b.max2(m, ins[2]);
        let c = b.constant(Time::INFINITY);
        let l = b.lt(x, c);
        let d2 = b.inc(l, 3);
        let mixed = st_grl::compile_network(&b.build([m, d2]));

        let sorter = st_grl::compile_network(&st_net::sorting::sorting_network(4));
        vec![("chain", chain), ("mixed", mixed), ("sorter", sorter)]
    }

    /// Regression pin for the delay-fusion refactor: `from_grl` now
    /// lowers through the shared `st-opt` fusion pass, and these dumps
    /// were captured from the pre-refactor builder-local fusion — the
    /// two paths must produce byte-identical plans.
    #[test]
    fn from_grl_plans_are_pinned_across_the_fusion_refactor() {
        let expected = [
            (
                "chain",
                "g0: input line 0 []\n\
                 g1: inc +9 [g0]\n\
                 -> g1\n",
            ),
            (
                "mixed",
                "g0: input line 0 []\n\
                 g1: input line 1 []\n\
                 g2: input line 2 []\n\
                 g3: inc +2 [g0]\n\
                 g4: min  [g3, g1]\n\
                 g5: max  [g4, g2]\n\
                 g6: const ∞ []\n\
                 g7: lt  [g5, g6]\n\
                 g8: inc +3 [g7]\n\
                 -> g4, g8\n",
            ),
            (
                "sorter",
                "g0: input line 0 []\n\
                 g1: input line 1 []\n\
                 g2: input line 2 []\n\
                 g3: input line 3 []\n\
                 g4: min  [g0, g1]\n\
                 g5: max  [g0, g1]\n\
                 g6: min  [g2, g3]\n\
                 g7: max  [g2, g3]\n\
                 g8: min  [g4, g7]\n\
                 g9: max  [g4, g7]\n\
                 g10: min  [g5, g6]\n\
                 g11: max  [g5, g6]\n\
                 g12: min  [g8, g10]\n\
                 g13: max  [g8, g10]\n\
                 g14: min  [g9, g11]\n\
                 g15: max  [g9, g11]\n\
                 -> g12, g13, g14, g15\n",
            ),
        ];
        for ((name, netlist), (ename, egolden)) in pin_netlists().iter().zip(expected) {
            assert_eq!(*name, ename);
            assert_eq!(dump(&Plan::from_grl(netlist)), egolden, "netlist {name}");
        }
    }

    #[test]
    fn plan_matches_network_eval_on_a_mixed_network() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let d = b.inc(ins[0], 2);
        let m = b.min2(d, ins[1]);
        let c = b.constant(t(3));
        let x = b.max2(m, c);
        let l = b.lt(x, ins[1]);
        let network = b.build([m, l]);
        let plan = Plan::from_network(&network);
        assert_eq!(plan.input_count(), 2);
        assert_eq!(plan.output_width(), 2);
        for a in [t(0), t(2), t(9), Time::INFINITY] {
            for c in [t(0), t(4), Time::INFINITY] {
                let inputs = [a, c];
                assert_eq!(plan.eval(&inputs).unwrap(), network.eval(&inputs).unwrap());
            }
        }
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let plan = Plan::from_network(&st_net::sorting::sorting_network(3));
        assert!(matches!(
            plan.eval(&[t(1)]),
            Err(CoreError::ArityMismatch {
                expected: 3,
                actual: 1
            })
        ));
    }

    #[test]
    fn lane_limit_accounts_for_delays_and_constants() {
        // A pure comparator network accumulates no delay: limit is 254.
        let sorter = Plan::from_network(&st_net::sorting::sorting_network(4));
        assert_eq!(sorter.lane_input_limit(), Some(254));

        // Two chained +100 delays leave room for inputs up to 54.
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let d1 = b.inc(input, 100);
        let d2 = b.inc(d1, 100);
        let plan = Plan::from_network(&b.build([d2]));
        assert_eq!(plan.lane_input_limit(), Some(54));

        // A delay past the lane domain rules the lane path out entirely.
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let d = b.inc(input, 300);
        let plan = Plan::from_network(&b.build([d]));
        assert_eq!(plan.lane_input_limit(), None);

        // So does a finite constant past it; an ∞ constant does not.
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let c = b.constant(t(400));
        let m = b.min2(input, c);
        let plan = Plan::from_network(&b.build([m]));
        assert_eq!(plan.lane_input_limit(), None);

        let mut b = NetworkBuilder::new();
        let input = b.input();
        let c = b.constant(Time::INFINITY);
        let m = b.min2(input, c);
        let plan = Plan::from_network(&b.build([m]));
        assert_eq!(plan.lane_input_limit(), Some(254));
    }

    #[test]
    fn grl_plan_fuses_delay_chains() {
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let d = b.inc(input, 9);
        let network = b.build([d]);
        let netlist = st_grl::compile_network(&network);
        // The netlist spells the +9 as nine flip-flop stages…
        assert!(netlist.wire_count() > 9);
        let plan = Plan::from_grl(&netlist);
        // …the plan fuses them into one Inc and sweeps the rest.
        assert_eq!(plan.gate_count(), 2);
        assert_eq!(plan.eval(&[t(5)]).unwrap(), vec![t(14)]);
        assert_eq!(plan.eval(&[Time::INFINITY]).unwrap(), vec![Time::INFINITY]);
    }
}
