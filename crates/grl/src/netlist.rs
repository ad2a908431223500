//! Gate-level netlists for generalized race logic (§ V, Fig. 16).
//!
//! GRL implements the space-time algebra with off-the-shelf CMOS digital
//! logic. Information is carried by `1→0` *level transitions*: a wire
//! falling at cycle `t` is the event `t`; a wire that never falls is `∞`.
//! Under this encoding (Fig. 16):
//!
//! * a logical **AND** computes `min`: its output goes low as soon as the
//!   *first* input falls;
//! * a logical **OR** computes `max`: its output stays high until the
//!   *last* input falls;
//! * a small **latch** gadget computes `lt` — it must remember whether the
//!   inhibiting input fell first, and a reset restores it before each
//!   computation;
//! * a chain of clocked **flip-flops** (a shift register) computes `inc`,
//!   one cycle per unit time.
//!
//! [`GrlNetlist`] is the structural netlist; the cycle-accurate simulator
//! lives in [`crate::sim`]. Every wire falls at most once, so a run is
//! over once the latest possible fall has happened: [`GrlNetlist::settle_bound`]
//! finds that cycle from the netlist's critical flip-flop path, computed
//! once when the netlist is built.

use st_core::{CoreError, Time};

/// Identifies a wire (gate output) within one [`GrlNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireId(pub(crate) usize);

impl WireId {
    /// Position in the netlist's topological order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One CMOS gate in the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GrlGate {
    /// Primary input pad `n`: driven high at reset, falls at the input's
    /// event time.
    Input(usize),
    /// Tied high: the `∞` constant (never falls).
    High,
    /// A configuration wire that falls at a fixed cycle (realizes finite
    /// `Const` values, e.g. a disabled micro-weight falling at reset-end).
    FallAt(u64),
    /// 2-input AND: computes `min` (falls with the first input).
    And(WireId, WireId),
    /// 2-input OR: computes `max` (falls with the last input).
    Or(WireId, WireId),
    /// The Fig. 16 `lt` gadget: output falls with `a` iff `a` fell
    /// strictly before `b`; an internal latch (reset to transparent before
    /// each computation) blocks the output once `b` has fallen first.
    LtLatch {
        /// The data input `a`.
        a: WireId,
        /// The inhibiting input `b`.
        b: WireId,
    },
    /// One clocked flip-flop stage: output is the input delayed one cycle
    /// (initialized high at reset).
    Delay(WireId),
}

/// A feedforward gate-level netlist.
///
/// Built with [`GrlBuilder`]; wires are in topological order by
/// construction.
#[derive(Debug, Clone)]
pub struct GrlNetlist {
    pub(crate) gates: Vec<GrlGate>,
    pub(crate) input_count: usize,
    pub(crate) outputs: Vec<WireId>,
    /// The most flip-flops on any path from an input pad to a wire.
    depth: u64,
    /// The latest cycle a constant can make a wire fall: a `FallAt(c)`
    /// plus the flip-flops after it (0 without constants).
    const_latest: u64,
}

impl GrlNetlist {
    /// The number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The output wires.
    #[must_use]
    pub fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// The total number of wires (gate outputs).
    #[must_use]
    pub fn wire_count(&self) -> usize {
        self.gates.len()
    }

    /// The gate driving a wire.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn gate(&self, id: WireId) -> GrlGate {
        self.gates[id.0]
    }

    /// Iterates every gate with its [`WireId`], in topological order —
    /// the traversal plan extractors (e.g. `st-kernel`) flatten from.
    pub fn iter_gates(&self) -> impl Iterator<Item = (WireId, GrlGate)> + '_ {
        self.gates.iter().enumerate().map(|(i, &g)| (WireId(i), g))
    }

    /// Census: `(and, or, lt_latches, flipflops)` — the CMOS cost of the
    /// design.
    #[must_use]
    pub fn gate_census(&self) -> (usize, usize, usize, usize) {
        let mut and = 0;
        let mut or = 0;
        let mut lt = 0;
        let mut ff = 0;
        for g in &self.gates {
            match g {
                GrlGate::And(_, _) => and += 1,
                GrlGate::Or(_, _) => or += 1,
                GrlGate::LtLatch { .. } => lt += 1,
                GrlGate::Delay(_) => ff += 1,
                _ => {}
            }
        }
        (and, or, lt, ff)
    }

    /// An upper bound on the cycle at which the last transition can occur,
    /// given the inputs: `max(latest + depth, const_latest) + 1`, where
    /// `latest` is the latest finite input, `depth` the most flip-flops on
    /// any path from an input, and `const_latest` the latest fall a
    /// `FallAt` constant drives through the flip-flops after it. Both
    /// netlist numbers are computed once by [`GrlBuilder::build`], so this
    /// is O(inputs). No wire falls, and no `lt` latch captures, after it.
    ///
    /// The simulator steps every cycle up to the bound, so a run's cost
    /// grows linearly with its latest finite spike time, by design (cycle
    /// accuracy).
    ///
    /// # Errors
    ///
    /// [`CoreError::HorizonOverflow`] if the bound is not a finite
    /// [`Time`], i.e. the run would never reach it. Its `latest` is the
    /// latest finite input and its `settle` the path depth + 1, or, when a
    /// constant falls later than any input can reach, `const_latest` and 1.
    pub fn settle_bound(&self, inputs: &[Time]) -> Result<u64, CoreError> {
        let input_latest = inputs.iter().filter_map(|t| t.value()).max().unwrap_or(0);
        let (latest, settle) = if input_latest.saturating_add(self.depth) >= self.const_latest {
            (input_latest, self.depth + 1)
        } else {
            (self.const_latest, 1)
        };
        latest
            .checked_add(settle)
            .filter(|&bound| Time::try_finite(bound).is_some())
            .ok_or(CoreError::HorizonOverflow { latest, settle })
    }
}

/// Incremental builder for [`GrlNetlist`].
///
/// # Panics
///
/// All methods panic when handed a [`WireId`] not issued by this builder.
#[derive(Debug, Default)]
pub struct GrlBuilder {
    gates: Vec<GrlGate>,
    input_count: usize,
}

impl GrlBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> GrlBuilder {
        GrlBuilder::default()
    }

    fn push(&mut self, gate: GrlGate) -> WireId {
        let check = |id: WireId, len: usize| {
            assert!(id.0 < len, "wire {} does not belong to this builder", id.0);
        };
        match gate {
            GrlGate::And(a, b) | GrlGate::Or(a, b) | GrlGate::LtLatch { a, b } => {
                check(a, self.gates.len());
                check(b, self.gates.len());
            }
            GrlGate::Delay(a) => check(a, self.gates.len()),
            _ => {}
        }
        let id = WireId(self.gates.len());
        self.gates.push(gate);
        id
    }

    /// Adds the next primary input pad.
    pub fn input(&mut self) -> WireId {
        let n = self.input_count;
        self.input_count += 1;
        self.push(GrlGate::Input(n))
    }

    /// Adds `n` input pads.
    pub fn inputs(&mut self, n: usize) -> Vec<WireId> {
        (0..n).map(|_| self.input()).collect()
    }

    /// A wire tied high (the `∞` constant).
    pub fn high(&mut self) -> WireId {
        self.push(GrlGate::High)
    }

    /// A configuration wire falling at cycle `c`.
    pub fn fall_at(&mut self, c: u64) -> WireId {
        self.push(GrlGate::FallAt(c))
    }

    /// 2-input AND (`min`).
    pub fn and2(&mut self, a: WireId, b: WireId) -> WireId {
        self.push(GrlGate::And(a, b))
    }

    /// 2-input OR (`max`).
    pub fn or2(&mut self, a: WireId, b: WireId) -> WireId {
        self.push(GrlGate::Or(a, b))
    }

    /// n-ary AND as a chain (`min` over several wires).
    ///
    /// # Panics
    ///
    /// Panics on an empty list.
    pub fn and_all(&mut self, wires: &[WireId]) -> WireId {
        assert!(!wires.is_empty(), "and over an empty wire list");
        wires
            .iter()
            .copied()
            .reduce(|acc, w| self.and2(acc, w))
            .expect("non-empty")
    }

    /// n-ary OR as a chain (`max` over several wires).
    ///
    /// # Panics
    ///
    /// Panics on an empty list.
    pub fn or_all(&mut self, wires: &[WireId]) -> WireId {
        assert!(!wires.is_empty(), "or over an empty wire list");
        wires
            .iter()
            .copied()
            .reduce(|acc, w| self.or2(acc, w))
            .expect("non-empty")
    }

    /// The Fig. 16 `lt` gadget.
    pub fn lt(&mut self, a: WireId, b: WireId) -> WireId {
        self.push(GrlGate::LtLatch { a, b })
    }

    /// A `delay`-stage shift register (`inc` by `delay` unit times).
    /// `delay == 0` returns the wire unchanged.
    pub fn shift_register(&mut self, mut a: WireId, delay: u64) -> WireId {
        for _ in 0..delay {
            a = self.push(GrlGate::Delay(a));
        }
        a
    }

    /// Finalizes the netlist, computing its critical flip-flop path for
    /// [`GrlNetlist::settle_bound`].
    ///
    /// # Panics
    ///
    /// Panics if any output wire was not issued by this builder.
    #[must_use]
    pub fn build<I: IntoIterator<Item = WireId>>(self, outputs: I) -> GrlNetlist {
        let outputs: Vec<WireId> = outputs.into_iter().collect();
        for &o in &outputs {
            assert!(
                o.0 < self.gates.len(),
                "output wire {} does not belong to this builder",
                o.0
            );
        }
        // Per wire, in topological order: the most flip-flops after an
        // input, and the latest constant-driven fall (`None`: no such path).
        let mut depth: Vec<Option<u64>> = Vec::with_capacity(self.gates.len());
        let mut fall: Vec<Option<u64>> = Vec::with_capacity(self.gates.len());
        for gate in &self.gates {
            let (d, f) = match *gate {
                GrlGate::Input(_) => (Some(0), None),
                GrlGate::High => (None, None),
                GrlGate::FallAt(c) => (None, Some(c)),
                // A latch falls with `a` but captures when `b` falls.
                GrlGate::And(a, b) | GrlGate::Or(a, b) | GrlGate::LtLatch { a, b } => {
                    (depth[a.0].max(depth[b.0]), fall[a.0].max(fall[b.0]))
                }
                GrlGate::Delay(a) => (
                    depth[a.0].map(|d| d + 1),
                    fall[a.0].map(|f| f.saturating_add(1)),
                ),
            };
            depth.push(d);
            fall.push(f);
        }
        GrlNetlist {
            gates: self.gates,
            input_count: self.input_count,
            outputs,
            depth: depth.into_iter().flatten().max().unwrap_or(0),
            const_latest: fall.into_iter().flatten().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_fig16_primitives() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let mx = b.and2(x, y);
        let mn = b.or2(x, y);
        let less = b.lt(x, y);
        let delayed = b.shift_register(x, 3);
        let net = b.build([mx, mn, less, delayed]);
        assert_eq!(net.input_count(), 2);
        assert_eq!(net.outputs().len(), 4);
        assert_eq!(net.gate_census(), (1, 1, 1, 3));
        assert_eq!(net.wire_count(), 2 + 3 + 3);
        assert!(matches!(net.gate(WireId(2)), GrlGate::And(_, _)));
    }

    #[test]
    fn zero_delay_shift_register_is_a_wire() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let same = b.shift_register(x, 0);
        assert_eq!(same, x);
    }

    #[test]
    fn nary_chains() {
        let mut b = GrlBuilder::new();
        let ws = b.inputs(4);
        let a = b.and_all(&ws);
        let o = b.or_all(&ws);
        let net = b.build([a, o]);
        assert_eq!(net.gate_census().0, 3);
        assert_eq!(net.gate_census().1, 3);
    }

    #[test]
    fn settle_bound_accounts_for_delays_and_constants() {
        // A serial chain: the bound follows its five flip-flops.
        let mut b = GrlBuilder::new();
        let x = b.input();
        let d = b.shift_register(x, 5);
        let net = b.build([d]);
        assert_eq!(net.settle_bound(&[Time::finite(3)]), Ok(3 + 5 + 1));
        assert_eq!(net.settle_bound(&[Time::INFINITY]), Ok(5 + 1));

        // Parallel chains add nothing: only the deepest one counts.
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let short = b.shift_register(x, 2);
        let long = b.shift_register(y, 4);
        let deep = b.shift_register(long, 1);
        let o = b.or2(short, deep);
        let net = b.build([o]);
        assert_eq!(net.gate_census().3, 7);
        assert_eq!(
            net.settle_bound(&[Time::finite(1), Time::finite(2)]),
            Ok(2 + 5 + 1)
        );

        // A constant falls at 9 through two flip-flops: it sets the bound
        // until an input plus the path depth passes 11.
        let mut b = GrlBuilder::new();
        let x = b.input();
        let d = b.shift_register(x, 5);
        let c = b.fall_at(9);
        let dc = b.shift_register(c, 2);
        let o = b.or2(d, dc);
        let net = b.build([o]);
        assert_eq!(net.settle_bound(&[Time::finite(3)]), Ok(9 + 2 + 1));
        assert_eq!(net.settle_bound(&[Time::INFINITY]), Ok(9 + 2 + 1));
        assert_eq!(net.settle_bound(&[Time::finite(20)]), Ok(20 + 5 + 1));
        for latest in [u64::MAX - 1, u64::MAX - 6] {
            assert_eq!(
                net.settle_bound(&[Time::finite(latest)]),
                Err(CoreError::HorizonOverflow { latest, settle: 6 })
            );
        }
        assert_eq!(
            net.settle_bound(&[Time::finite(u64::MAX - 7)]),
            Ok(u64::MAX - 1)
        );

        // A constant past every input reports itself and one settle cycle.
        let mut b = GrlBuilder::new();
        let x = b.input();
        let c = b.fall_at(u64::MAX - 1);
        let o = b.and2(x, c);
        let net = b.build([o]);
        assert_eq!(
            net.settle_bound(&[Time::finite(3)]),
            Err(CoreError::HorizonOverflow {
                latest: u64::MAX - 1,
                settle: 1
            })
        );
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_wire_panics() {
        let mut b = GrlBuilder::new();
        let _ = b.and2(WireId(0), WireId(1));
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_output_panics() {
        let b = GrlBuilder::new();
        let _ = b.build([WireId(0)]);
    }
}
