//! The relational spike-time engine: a zone (difference-bound) domain
//! over `N0^∞`.
//!
//! The [`interval`] domain knows, per wire, a finite
//! firing window `[lo, hi]` plus possible silence — but nothing about
//! *differences* between wires, and the paper's core timing arguments
//! are relational: § IV's synchronization windows, Fig. 15's τ-WTA
//! inhibition margin, and every `lt` outcome hinge on bounds of
//! `t_a − t_b`. This module closes that gap with a difference-bound
//! matrix (DBM): for every pair of nodes `(i, j)` it maintains a
//! constraint
//!
//! > `t_i − t_j ≤ c`  *in every execution where both wires fire*,
//!
//! plus one distinguished zero variable `Z` (`t_Z = 0`) so absolute
//! bounds are the special cases `t_i − Z ≤ hi` and `Z − t_i ≤ −lo`.
//!
//! # Silence and soundness
//!
//! `N0^∞` is not a difference group: `∞ − t` is meaningless, so every
//! constraint here is guarded by "both endpoints finite" and silence is
//! tracked separately, exactly as in the interval domain. The guard has
//! a canonicalization consequence: the classic Floyd–Warshall step
//! `m[i][j] ≤ m[i][k] + m[k][j]` is only sound when the *intermediate*
//! wire `k` fires in every execution, so closure pivots are restricted
//! to provably non-silent nodes (plus `Z`). Paths through
//! possibly-silent wires are instead added by the per-operator transfer
//! functions, which know *why* the endpoint fired (a `min` that fired
//! took some source's event; an `inc` that fired delayed its source's
//! event; ...) and can therefore discharge the guard.
//!
//! # Firing implications
//!
//! Dropping an operand from a merge (`min(a, b) = a`) or deciding an
//! `lt` needs more than bounds: it needs *silence correlation* ("if `b`
//! fires then `a` fires"). The zone tracks, per node, a necessary and a
//! sufficient firing condition of the shape "all inputs in `mask` fire,
//! each no later than `MAX_FINITE − slack`" — exact for the delay
//! chains where relational reasoning matters and conservatively trivial
//! elsewhere. [`Zone::fires_implies`] compares the two, which lets the
//! analysis decide gates the interval domain cannot (e.g. that
//! `lt (inc 2 x) (inc 1 (inc 1 x))` never fires, despite both operands
//! spanning the full `[2, ∞]` range).
//!
//! Every transfer function is validated exhaustively against the
//! concrete `Time` evaluator in `tests/zone_validation.rs`, and
//! proptests check that the analysis is idempotent under closure and
//! never less precise than the interval domain.

use st_core::Time;

use crate::graph::{LintGraph, LintOp};
use crate::interval::{self, Interval};

/// The largest graph the relational analysis will take on. Incremental
/// closure is `O(n²)` per node (`O(n³)` per graph), so callers gate on
/// this bound; [`Zone::analyze`] returns `None` beyond it.
pub const MAX_RELATIONAL_NODES: usize = 512;

/// "No constraint" sentinel, kept far from `i128` overflow so that one
/// saturating addition can never wrap.
const UNBOUNDED: i128 = i128::MAX / 4;

/// Adds two difference bounds, saturating at [`UNBOUNDED`].
fn badd(a: i128, b: i128) -> i128 {
    if a >= UNBOUNDED || b >= UNBOUNDED {
        UNBOUNDED
    } else {
        a + b
    }
}

/// A conjunctive firing condition: "every input line in `mask` fires,
/// each no later than `MAX_FINITE − slack`". Used both as a necessary
/// condition (what a node's firing reveals about the inputs) and a
/// sufficient one (what input behavior forces the node to fire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FireCond {
    mask: u128,
    slack: u64,
}

impl FireCond {
    /// The vacuous necessary condition: an empty mask claims nothing,
    /// so the slack may be maximal.
    const TRIVIAL_NEEDS: FireCond = FireCond {
        mask: 0,
        slack: u64::MAX,
    };
}

/// How many input lines the firing-implication masks can track.
const MAX_MASK_INPUTS: usize = 128;

/// The result of a relational analysis: per-pair difference bounds,
/// per-node refined intervals, and firing implications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    /// Number of graph nodes; the zero variable has index `n`.
    n: usize,
    /// `(n + 1)²` row-major difference bounds: `bounds[i * (n+1) + j]`
    /// bounds `t_i − t_j` over executions where both are finite.
    bounds: Vec<i128>,
    /// The interval facts the zone refines (flags are shared verbatim).
    base: Vec<Interval>,
    /// Necessary firing condition per node.
    needs: Vec<FireCond>,
    /// Sufficient firing condition per node (`None` = nothing known).
    suffices: Vec<Option<FireCond>>,
    /// First node carrying each input line, for mask → node lookups.
    line_node: Vec<Option<usize>>,
}

impl Zone {
    /// Runs the relational abstract interpreter over a graph, assigning
    /// every primary input the abstract value `input` (the same input
    /// model as [`interval::analyze`]).
    ///
    /// Returns `None` when the graph exceeds
    /// [`MAX_RELATIONAL_NODES`] — the cubic closure makes very large
    /// graphs better served by the linear interval engine alone.
    ///
    /// Malformed nodes (dangling sources, wrong arity, cycles) degrade
    /// to their interval facts with no relational constraints, exactly
    /// mirroring the interval engine's tolerance.
    #[must_use]
    pub fn analyze(graph: &LintGraph, input: Interval) -> Option<Zone> {
        Zone::analyze_with(graph, &|_| input)
    }

    /// Like [`Zone::analyze`], but with a per-input-line abstract value
    /// (line `i` gets `inputs(i)`). The exhaustive validation suite uses
    /// this to pin inputs to exact concrete times.
    #[must_use]
    pub fn analyze_with(graph: &LintGraph, inputs: &dyn Fn(usize) -> Interval) -> Option<Zone> {
        if graph.len() > MAX_RELATIONAL_NODES {
            return None;
        }
        let n = graph.len();
        let dim = n + 1;
        let base = analyze_base(graph, inputs);
        let mut zone = Zone {
            n,
            bounds: vec![UNBOUNDED; dim * dim],
            base,
            needs: vec![FireCond::TRIVIAL_NEEDS; n],
            suffices: vec![None; n],
            line_node: vec![None; graph.input_count()],
        };
        for i in 0..dim {
            *zone.at_mut(i, i) = 0;
        }
        let mut processed = vec![false; n];
        // Closure pivots: nodes that provably fire in every execution
        // (so paths through them never cross a silent wire), plus Z.
        let mut pivots: Vec<usize> = vec![n];
        for id in interval::topological_order(graph) {
            zone.admit(graph, id, &processed, &pivots);
            processed[id] = true;
            if !zone.base[id].maybe_silent() {
                pivots.push(id);
            }
        }
        Some(zone)
    }

    /// The number of graph nodes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the zone covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The refined interval for a node: the interval fact tightened by
    /// the node's absolute difference bounds against `Z`. By
    /// construction this is never wider than the interval engine's
    /// result for the same graph and input model.
    #[must_use]
    pub fn interval(&self, node: usize) -> Interval {
        let Some(&base) = self.base.get(node) else {
            return Interval::free();
        };
        if base.is_never() {
            return base;
        }
        let mut lo = base.lo();
        let mut hi = base.hi();
        let up = self.at(node, self.n);
        if up < UNBOUNDED {
            let t = Time::try_finite(u64::try_from(up.max(0)).unwrap_or(u64::MAX))
                .unwrap_or(Time::MAX_FINITE);
            hi = hi.min(t);
        }
        let down = self.at(self.n, node);
        if down < UNBOUNDED {
            let t = Time::try_finite(u64::try_from((-down).max(0)).unwrap_or(u64::MAX))
                .unwrap_or(Time::MAX_FINITE);
            lo = lo.max(t);
        }
        Interval::bounded(lo, hi, base.maybe_silent())
    }

    /// The tightest proved upper bound on `t_a − t_b` over executions
    /// where both nodes fire; `None` when no finite bound is known.
    #[must_use]
    pub fn diff_hi(&self, a: usize, b: usize) -> Option<i128> {
        if a >= self.n || b >= self.n {
            return None;
        }
        let c = self.at(a, b);
        (c < UNBOUNDED).then_some(c)
    }

    /// The tightest proved lower bound on `t_a − t_b` over executions
    /// where both nodes fire.
    #[must_use]
    pub fn diff_lo(&self, a: usize, b: usize) -> Option<i128> {
        self.diff_hi(b, a).map(|c| -c)
    }

    /// Whether `t_a < t_b` holds in every execution where both fire.
    /// (Vacuously true when the two can never fire together.)
    #[must_use]
    pub fn proves_lt(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && self.at(a, b) <= -1
    }

    /// Whether `t_a ≤ t_b` holds in every execution where both fire.
    #[must_use]
    pub fn proves_le(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && self.at(a, b) <= 0
    }

    /// Whether the analysis fails to exclude `t_a = t_b` with both
    /// firing: both nodes can fire and neither strict ordering is
    /// proved. This is a *may* fact — the abstraction admits a tie, not
    /// a witness that one is reachable.
    #[must_use]
    pub fn can_tie(&self, a: usize, b: usize) -> bool {
        self.can_fire(a) && self.can_fire(b) && !self.proves_lt(a, b) && !self.proves_lt(b, a)
    }

    /// Whether "`a` fires" provably implies "`b` fires" (silence
    /// correlation: `t_a` finite ⟹ `t_b` finite).
    #[must_use]
    pub fn fires_implies(&self, a: usize, b: usize) -> bool {
        if a >= self.n || b >= self.n {
            return false;
        }
        if self.base[a].is_never() || !self.base[b].maybe_silent() {
            return true;
        }
        let Some(sufficient) = self.suffices[b] else {
            return false;
        };
        let necessary = self.needs[a];
        // a fires ⟹ every line in `necessary.mask` fires by
        // MAX − necessary.slack ⟹ (smaller mask, smaller slack) the
        // sufficient hypothesis for b holds ⟹ b fires.
        sufficient.mask & !necessary.mask == 0 && sufficient.slack <= necessary.slack
    }

    /// Whether the node can fire at all (interval liveness fact).
    #[must_use]
    pub fn can_fire(&self, node: usize) -> bool {
        self.base.get(node).is_some_and(|b| !b.is_never())
    }

    /// Whether silence is a possible outcome for the node.
    #[must_use]
    pub fn maybe_silent(&self, node: usize) -> bool {
        self.base.get(node).is_none_or(Interval::maybe_silent)
    }

    /// Re-canonicalizes the matrix with a full Floyd–Warshall sweep over
    /// the silence-safe pivot set. The incremental closure maintains
    /// canonical form already, so this is a fixpoint check: proptests
    /// assert `close()` changes nothing.
    pub fn close(&mut self) {
        let dim = self.n + 1;
        let pivots: Vec<usize> = (0..dim)
            .filter(|&p| p == self.n || !self.base[p].maybe_silent())
            .collect();
        for &p in &pivots {
            for i in 0..dim {
                let ip = self.at(i, p);
                if ip >= UNBOUNDED {
                    continue;
                }
                for j in 0..dim {
                    let cand = badd(ip, self.at(p, j));
                    if cand < self.at(i, j) {
                        *self.at_mut(i, j) = cand;
                    }
                }
            }
        }
    }

    fn at(&self, i: usize, j: usize) -> i128 {
        self.bounds[i * (self.n + 1) + j]
    }

    fn at_mut(&mut self, i: usize, j: usize) -> &mut i128 {
        &mut self.bounds[i * (self.n + 1) + j]
    }

    fn tighten(&mut self, i: usize, j: usize, c: i128) {
        if c < self.at(i, j) {
            *self.at_mut(i, j) = c;
        }
    }

    /// Admits node `id` into the zone: seeds its absolute bounds from
    /// the interval fact, derives its full row and column from the
    /// operator's semantics, then restores canonical form incrementally.
    fn admit(&mut self, graph: &LintGraph, id: usize, processed: &[bool], pivots: &[usize]) {
        let z = self.n;
        let fact = self.base[id];
        if fact.is_never() {
            // A silent wire satisfies every both-finite constraint
            // vacuously; leaving its row unconstrained is exact.
            return;
        }
        if let Some(v) = fact.hi().value() {
            self.tighten(id, z, i128::from(v));
        }
        if let Some(v) = fact.lo().value() {
            self.tighten(z, id, -i128::from(v));
        }

        let node = &graph.nodes()[id];
        // A usable source: in range, already visited (no cycle
        // back-edge), and not the node itself.
        let n = self.n;
        let wf = move |s: &usize| *s < n && processed[*s] && *s != id;
        match node.op {
            LintOp::Input(line) => {
                self.needs[id] = self.line_cond(line);
                self.suffices[id] = Some(self.line_cond(line));
                let twin = self.line_node.get(line).copied().flatten();
                if let Some(twin) = twin {
                    // Two nodes carrying the same input line are equal
                    // in every execution.
                    self.copy_row_col(twin, id, 0, 0);
                } else if let Some(slot) = self.line_node.get_mut(line) {
                    *slot = Some(id);
                }
            }
            LintOp::Const(_) => {
                // Exact by the seeded interval; pivot closure relates it
                // to everything else through Z.
                self.needs[id] = FireCond::TRIVIAL_NEEDS;
                self.suffices[id] = Some(FireCond { mask: 0, slack: 0 });
            }
            LintOp::Min if !node.sources.is_empty() && node.sources.iter().all(wf) => {
                self.admit_min(id, &node.sources);
            }
            LintOp::Max if !node.sources.is_empty() && node.sources.iter().all(wf) => {
                self.admit_max(id, &node.sources);
            }
            LintOp::Lt if node.sources.len() == 2 && wf(&node.sources[0]) => {
                let (a, b) = (node.sources[0], node.sources[1]);
                // The result, when it fires, is a's event.
                self.copy_row_col(a, id, 0, 0);
                self.needs[id] = self.needs[a];
                self.suffices[id] = None;
                if wf(&b) && !self.base[b].is_never() {
                    // ... and then it strictly preceded the inhibitor.
                    self.tighten(id, b, -1);
                }
            }
            LintOp::Inc(delta) if node.sources.len() == 1 && wf(&node.sources[0]) => {
                let s = node.sources[0];
                // When the result fires, no saturation happened, so the
                // delay is exact: t_id = t_s + delta.
                let d = i128::from(delta);
                self.copy_row_col(s, id, d, -d);
                self.needs[id] = self.inc_needs(s, delta);
                self.suffices[id] = self.inc_suffices(s, delta);
            }
            // Malformed nodes keep their interval fact and contribute no
            // relational constraints.
            _ => {}
        }

        self.restore_closure(id, pivots);
    }

    /// A single-line firing condition, or the trivial one when the line
    /// is beyond what the masks can track.
    fn line_cond(&self, line: usize) -> FireCond {
        if line < MAX_MASK_INPUTS {
            FireCond {
                mask: 1u128 << line,
                slack: 0,
            }
        } else {
            FireCond::TRIVIAL_NEEDS
        }
    }

    /// Copies `src`'s relational row/column onto `dst` shifted by
    /// `row_d` / `col_d`: sound whenever `dst` firing implies `src`
    /// fired with `t_dst = t_src + row_d` (equality-like operators).
    fn copy_row_col(&mut self, src: usize, dst: usize, row_d: i128, col_d: i128) {
        let dim = self.n + 1;
        for i in 0..dim {
            if i == dst {
                continue;
            }
            let row = badd(self.at(src, i), row_d);
            self.tighten(dst, i, row);
            let col = badd(self.at(i, src), col_d);
            self.tighten(i, dst, col);
        }
    }

    fn admit_min(&mut self, id: usize, sources: &[usize]) {
        let dim = self.n + 1;
        // min(a, never) = a: silent sources contribute nothing.
        let live: Vec<usize> = sources
            .iter()
            .copied()
            .filter(|&s| !self.base[s].is_never())
            .collect();
        if live.is_empty() {
            return;
        }
        let certain: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&s| !self.base[s].maybe_silent())
            .collect();
        for i in 0..dim {
            if i == id {
                continue;
            }
            // When the min fires it equals some (finite) source, so any
            // of them may bound the difference from above...
            let col = live
                .iter()
                .map(|&s| self.at(i, s))
                .fold(i128::MIN, i128::max);
            self.tighten(i, id, col.min(UNBOUNDED));
            // ... while from below, the realizing source again works,
            // and so does any source that *always* fires (the min can
            // only be earlier than it).
            let realizing = live
                .iter()
                .map(|&s| self.at(s, i))
                .fold(i128::MIN, i128::max);
            let deadline = certain
                .iter()
                .map(|&s| self.at(s, i))
                .fold(UNBOUNDED, i128::min);
            self.tighten(id, i, realizing.min(deadline).min(UNBOUNDED));
        }
        for &s in &live {
            // First event wins: the min is never later than any source.
            self.tighten(id, s, 0);
        }
        // Necessary: *some* source fired, so only what every source
        // agrees on is implied. Sufficient: any single firing source
        // forces the min to fire; pick the cheapest hypothesis.
        self.needs[id] = live
            .iter()
            .map(|&s| self.needs[s])
            .reduce(|a, b| FireCond {
                mask: a.mask & b.mask,
                slack: a.slack.min(b.slack),
            })
            .unwrap_or(FireCond::TRIVIAL_NEEDS);
        self.suffices[id] = live
            .iter()
            .filter_map(|&s| self.suffices[s])
            .min_by_key(|c| (c.slack, c.mask.count_ones()));
    }

    fn admit_max(&mut self, id: usize, sources: &[usize]) {
        let dim = self.n + 1;
        for i in 0..dim {
            if i == id {
                continue;
            }
            // The max equals its realizing source...
            let row = sources
                .iter()
                .map(|&s| self.at(s, i))
                .fold(i128::MIN, i128::max);
            self.tighten(id, i, row.min(UNBOUNDED));
            // ... and when it fires, *every* source fired no later.
            let col = sources
                .iter()
                .map(|&s| self.at(i, s))
                .fold(UNBOUNDED, i128::min);
            self.tighten(i, id, col);
        }
        for &s in sources {
            // Last event wins: the max is never earlier than any source.
            self.tighten(s, id, 0);
        }
        // The max fires iff every source fires.
        self.needs[id] = sources.iter().map(|&s| self.needs[s]).fold(
            FireCond {
                mask: 0,
                slack: u64::MAX,
            },
            |a, b| FireCond {
                mask: a.mask | b.mask,
                slack: a.slack.min(b.slack),
            },
        );
        self.suffices[id] = sources.iter().map(|&s| self.suffices[s]).try_fold(
            FireCond { mask: 0, slack: 0 },
            |a, b| {
                b.map(|b| FireCond {
                    mask: a.mask | b.mask,
                    slack: a.slack.max(b.slack),
                })
            },
        );
    }

    /// Necessary condition for `inc delta` firing: the source fired and
    /// kept `delta` of headroom below `∞`, which reflects back onto the
    /// inputs through their upper difference bounds against the source.
    fn inc_needs(&self, s: usize, delta: u64) -> FireCond {
        let inherited = self.needs[s];
        if inherited.mask == 0 {
            return inherited;
        }
        // For each line i in the mask: t_i ≤ t_s + m[i][s] ≤
        // MAX − delta + m[i][s]; a uniform slack must hold for all of
        // them, so take the weakest (the largest m[i][s]).
        let worst = self
            .mask_nodes(inherited.mask)
            .map(|node| node.map_or(UNBOUNDED, |nd| self.at(nd, s)))
            .fold(i128::MIN, i128::max);
        if worst >= UNBOUNDED {
            return inherited;
        }
        let extra = i128::from(delta) - worst;
        let extra = u64::try_from(extra.max(0)).unwrap_or(u64::MAX);
        FireCond {
            mask: inherited.mask,
            slack: inherited.slack.max(extra),
        }
    }

    /// Sufficient condition for `inc delta` firing: enough input
    /// headroom that the delayed event provably stays finite.
    fn inc_suffices(&self, s: usize, delta: u64) -> Option<FireCond> {
        let inherited = self.suffices[s]?;
        let max_finite = Time::MAX_FINITE.value().unwrap_or(u64::MAX);
        // Absolute bound: if the source can never get close enough to ∞
        // for the delay to saturate, the hypothesis needs no tightening.
        let ub = self.at(s, self.n);
        if ub < UNBOUNDED && ub.saturating_add(i128::from(delta)) <= i128::from(max_finite) {
            return Some(inherited);
        }
        if inherited.mask == 0 {
            return None;
        }
        // Relational bound: t_s ≤ t_i + m[s][i] for any hypothesis line
        // i, so demanding t_i ≤ MAX − delta − m[s][i] keeps the delayed
        // event finite. One line suffices; pick the cheapest.
        let best = self
            .mask_nodes(inherited.mask)
            .map(|node| node.map_or(UNBOUNDED, |nd| self.at(s, nd)))
            .fold(UNBOUNDED, i128::min);
        if best >= UNBOUNDED {
            return None;
        }
        let extra = i128::from(delta).saturating_add(best);
        let extra = u64::try_from(extra.max(0)).unwrap_or(u64::MAX);
        if extra >= max_finite {
            return None;
        }
        Some(FireCond {
            mask: inherited.mask,
            slack: inherited.slack.max(extra),
        })
    }

    /// The node carrying each input line in a mask (`None` when no
    /// Input node for the line has been admitted, keeping the caller
    /// conservative).
    fn mask_nodes(&self, mask: u128) -> impl Iterator<Item = Option<usize>> + '_ {
        (0..MAX_MASK_INPUTS)
            .filter(move |i| mask & (1u128 << i) != 0)
            .map(|line| self.line_node.get(line).copied().flatten())
    }

    /// Restores canonical (closed) form after admitting node `id`,
    /// using only silence-safe pivots as intermediates.
    fn restore_closure(&mut self, id: usize, pivots: &[usize]) {
        let dim = self.n + 1;
        // Phase A: tighten the pivot entries of id's row/column through
        // pivot-pivot paths (which are already mutually closed).
        let col0: Vec<i128> = pivots.iter().map(|&p| self.at(p, id)).collect();
        let row0: Vec<i128> = pivots.iter().map(|&p| self.at(id, p)).collect();
        for (pi, &p) in pivots.iter().enumerate() {
            let mut best_col = col0[pi];
            let mut best_row = row0[pi];
            for (qi, &q) in pivots.iter().enumerate() {
                best_col = best_col.min(badd(self.at(p, q), col0[qi]));
                best_row = best_row.min(badd(row0[qi], self.at(q, p)));
            }
            self.tighten(p, id, best_col);
            self.tighten(id, p, best_row);
        }
        // Phase B: tighten everything else against the now-final pivot
        // entries.
        for i in 0..dim {
            if i == id {
                continue;
            }
            for &p in pivots {
                let col = badd(self.at(i, p), self.at(p, id));
                self.tighten(i, id, col);
                let row = badd(self.at(id, p), self.at(p, i));
                self.tighten(id, i, row);
            }
        }
        // Phase C: if the new node is itself always-firing, it joins the
        // pivot set; route existing pairs through it once.
        if !self.base[id].maybe_silent() {
            for i in 0..dim {
                let iid = self.at(i, id);
                if iid >= UNBOUNDED {
                    continue;
                }
                for j in 0..dim {
                    let cand = badd(iid, self.at(id, j));
                    if cand < self.at(i, j) {
                        *self.at_mut(i, j) = cand;
                    }
                }
            }
        }
        // A negative cycle through the pivots means `id`'s constraints
        // are unsatisfiable: no execution lets it fire (e.g. an `lt`
        // whose operand provably never precedes its inhibitor). That is
        // a sound *never* fact — record it and retract the
        // contradictory row so the matrix stays canonical. Always-firing
        // nodes cannot get here: a concrete execution witnesses their
        // satisfiability.
        let mut cycle = 0;
        for &p in pivots {
            cycle = cycle.min(badd(self.at(id, p), self.at(p, id)));
        }
        if cycle < 0 {
            self.retract(id);
        }
        if !self.base[id].maybe_silent() {
            // Phase C may have exposed an older node's infeasibility.
            for i in 0..self.n {
                if i != id && self.at(i, i) < 0 {
                    self.retract(i);
                }
            }
        }
    }

    /// Downgrades a node whose constraints turned out unsatisfiable to
    /// the *never fires* fact, dropping its (vacuous) relational row.
    fn retract(&mut self, node: usize) {
        let dim = self.n + 1;
        for i in 0..dim {
            *self.at_mut(node, i) = UNBOUNDED;
            *self.at_mut(i, node) = UNBOUNDED;
        }
        *self.at_mut(node, node) = 0;
        self.base[node] = Interval::never();
        self.needs[node] = FireCond::TRIVIAL_NEEDS;
        self.suffices[node] = None;
    }
}

/// The interval facts the zone is seeded with: identical to
/// [`interval::analyze`] except for the per-line input model.
fn analyze_base(graph: &LintGraph, inputs: &dyn Fn(usize) -> Interval) -> Vec<Interval> {
    let n = graph.len();
    let mut values = vec![Interval::free(); n];
    let get = |values: &[Interval], s: usize| values.get(s).copied().unwrap_or_else(Interval::free);
    for id in interval::topological_order(graph) {
        let node = &graph.nodes()[id];
        let srcs = &node.sources;
        values[id] = match node.op {
            LintOp::Input(line) => inputs(line),
            LintOp::Const(t) => Interval::exact(t),
            LintOp::Min => {
                let vs: Vec<Interval> = srcs.iter().map(|&s| get(&values, s)).collect();
                if vs.is_empty() {
                    Interval::free()
                } else {
                    Interval::min_of(&vs)
                }
            }
            LintOp::Max => {
                let vs: Vec<Interval> = srcs.iter().map(|&s| get(&values, s)).collect();
                if vs.is_empty() {
                    Interval::free()
                } else {
                    Interval::max_of(&vs)
                }
            }
            LintOp::Lt => {
                if srcs.len() == 2 {
                    Interval::lt_gate(get(&values, srcs[0]), get(&values, srcs[1]))
                } else {
                    Interval::free()
                }
            }
            LintOp::Inc(c) => {
                if srcs.len() == 1 {
                    get(&values, srcs[0]).inc(c)
                } else {
                    Interval::free()
                }
            }
        };
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(ops: &[(LintOp, Vec<usize>)], input_count: usize) -> LintGraph {
        let mut g = LintGraph::new(input_count);
        for (op, sources) in ops {
            g.push(*op, sources.clone());
        }
        g
    }

    /// Ground truth: evaluate the graph on one concrete input volley
    /// with the real `Time` operators.
    fn concrete_eval(g: &LintGraph, inputs: &[Time]) -> Vec<Time> {
        let mut out = vec![Time::INFINITY; g.len()];
        for id in interval::topological_order(g) {
            let node = &g.nodes()[id];
            let src = |i: usize| out.get(node.sources[i]).copied().unwrap_or(Time::INFINITY);
            out[id] = match node.op {
                LintOp::Input(line) => inputs.get(line).copied().unwrap_or(Time::INFINITY),
                LintOp::Const(t) => t,
                LintOp::Min => Time::min_of(node.sources.iter().map(|&s| out[s])),
                LintOp::Max => Time::max_of(node.sources.iter().map(|&s| out[s])),
                LintOp::Lt => src(0).lt_gate(src(1)),
                LintOp::Inc(d) => src(0).inc(d),
            };
        }
        out
    }

    /// Checks every zone claim against one concrete execution.
    fn assert_sound(zone: &Zone, times: &[Time]) {
        for (i, &t) in times.iter().enumerate() {
            assert!(
                zone.interval(i).contains(t),
                "node {i}: {t:?} outside {:?}",
                zone.interval(i)
            );
            if t.is_finite() {
                assert!(zone.can_fire(i), "node {i} fired but zone says never");
            } else {
                assert!(zone.maybe_silent(i), "node {i} silent but zone says fires");
            }
        }
        for (a, &ta) in times.iter().enumerate() {
            for (b, &tb) in times.iter().enumerate() {
                if let (Some(va), Some(vb)) = (ta.value(), tb.value()) {
                    let d = i128::from(va) - i128::from(vb);
                    if let Some(hi) = zone.diff_hi(a, b) {
                        assert!(d <= hi, "t{a} - t{b} = {d} > proved bound {hi}");
                    }
                }
                if zone.fires_implies(a, b) && ta.is_finite() {
                    assert!(tb.is_finite(), "fires({a}) => fires({b}) violated");
                }
            }
        }
    }

    #[test]
    fn delay_chain_differences_are_exact() {
        // g0 = input, g1 = inc 2 g0, g2 = inc 1 g0, g3 = inc 1 g2.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Inc(2), vec![0]),
                (LintOp::Inc(1), vec![0]),
                (LintOp::Inc(1), vec![2]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        // t1 = t3 = t0 + 2 whenever finite.
        assert_eq!(zone.diff_hi(1, 3), Some(0));
        assert_eq!(zone.diff_hi(3, 1), Some(0));
        assert!(zone.proves_le(1, 3) && zone.proves_le(3, 1));
        // Equal delays saturate together: firing implications both ways.
        assert!(zone.fires_implies(1, 3));
        assert!(zone.fires_implies(3, 1));
        for t in [
            Time::ZERO,
            Time::finite(7),
            Time::MAX_FINITE,
            Time::INFINITY,
        ] {
            assert_sound(&zone, &concrete_eval(&g, &[t]));
        }
    }

    #[test]
    fn lt_on_equal_delay_chains_is_decided_never() {
        // lt (inc 2 x) (inc 1 (inc 1 x)) never fires: operands are equal.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Inc(2), vec![0]),
                (LintOp::Inc(1), vec![0]),
                (LintOp::Inc(1), vec![2]),
                (LintOp::Lt, vec![1, 3]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        // Statically decided: b ≤ a whenever both fire, and a firing
        // forces b to fire, so the gate's output is always ∞.
        assert!(zone.proves_le(3, 1));
        assert!(zone.fires_implies(1, 3));
        // The interval domain alone cannot decide this gate.
        let facts = interval::analyze(&g, Interval::free());
        assert!(facts[4].as_exact().is_none());
        for t in [
            Time::ZERO,
            Time::finite(9),
            Time::MAX_FINITE,
            Time::INFINITY,
        ] {
            let times = concrete_eval(&g, &[t]);
            assert!(times[4].is_infinite(), "gate fired at input {t:?}");
            assert_sound(&zone, &times);
        }
    }

    #[test]
    fn unequal_delays_saturate_differently() {
        // inc 1 x fires on inputs where inc 3 x saturates, so the
        // implication only holds in one direction.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Inc(1), vec![0]),
                (LintOp::Inc(3), vec![0]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        assert!(zone.fires_implies(2, 1), "larger delay implies smaller");
        assert!(!zone.fires_implies(1, 2), "smaller cannot imply larger");
        let near_max = Time::MAX_FINITE.saturating_sub(2);
        for t in [Time::ZERO, near_max, Time::MAX_FINITE, Time::INFINITY] {
            assert_sound(&zone, &concrete_eval(&g, &[t]));
        }
    }

    #[test]
    fn min_max_bounds_and_implications() {
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Input(1), vec![]),
                (LintOp::Min, vec![0, 1]),
                (LintOp::Max, vec![0, 1]),
                (LintOp::Inc(4), vec![2]),
            ],
            2,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        // min ≤ each source ≤ max, min ≤ max.
        assert!(zone.proves_le(2, 0) && zone.proves_le(2, 1));
        assert!(zone.proves_le(0, 3) && zone.proves_le(1, 3));
        assert!(zone.proves_le(2, 3));
        // max fires ⟹ min fires (all sources ⟹ some source).
        assert!(zone.fires_implies(3, 2));
        assert!(!zone.fires_implies(2, 3));
        for a in [Time::ZERO, Time::finite(5), Time::INFINITY] {
            for b in [Time::finite(2), Time::MAX_FINITE, Time::INFINITY] {
                assert_sound(&zone, &concrete_eval(&g, &[a, b]));
            }
        }
    }

    #[test]
    fn shared_input_lines_are_equal() {
        // Two Input nodes on the same line are the same wire, so
        // lt(x, x) never fires.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Input(0), vec![]),
                (LintOp::Lt, vec![0, 1]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        assert!(zone.proves_le(0, 1) && zone.proves_le(1, 0));
        assert!(zone.fires_implies(0, 1));
        for t in [Time::ZERO, Time::finite(3), Time::INFINITY] {
            let times = concrete_eval(&g, &[t]);
            assert!(times[2].is_infinite());
            assert_sound(&zone, &times);
        }
    }

    #[test]
    fn refines_interval_on_window_inputs() {
        // Under the § IV window premise, skew between two delayed copies
        // is pinned even though the absolute windows overlap.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Inc(3), vec![0]),
                (LintOp::Inc(5), vec![0]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::within(8)).expect("small graph");
        assert_eq!(zone.diff_hi(2, 1), Some(2));
        assert_eq!(zone.diff_lo(2, 1), Some(2));
        assert!(zone.proves_lt(1, 2));
        // And the absolute refinement is no worse than the intervals.
        let facts = interval::analyze(&g, Interval::within(8));
        for (i, fact) in facts.iter().enumerate() {
            let refined = zone.interval(i);
            assert!(fact.lo() <= refined.lo());
            assert!(refined.hi() <= fact.hi());
        }
    }

    #[test]
    fn close_is_a_fixpoint_after_analysis() {
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Input(1), vec![]),
                (LintOp::Const(Time::finite(4)), vec![]),
                (LintOp::Min, vec![0, 2]),
                (LintOp::Max, vec![1, 3]),
                (LintOp::Inc(2), vec![4]),
                (LintOp::Lt, vec![3, 5]),
            ],
            2,
        );
        let zone = Zone::analyze(&g, Interval::within(10)).expect("small graph");
        let mut closed = zone.clone();
        closed.close();
        assert_eq!(zone, closed, "incremental closure left slack");
    }

    #[test]
    fn oversized_graphs_are_declined() {
        let mut g = LintGraph::new(1);
        for _ in 0..=MAX_RELATIONAL_NODES {
            g.push(LintOp::Input(0), vec![]);
        }
        assert!(Zone::analyze(&g, Interval::free()).is_none());
    }

    #[test]
    fn malformed_nodes_degrade_gracefully() {
        // Dangling source, wrong arity, forward reference: no panics,
        // sound (trivial) answers.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Min, vec![0, 99]),
                (LintOp::Inc(1), vec![1, 0]),
                (LintOp::Lt, vec![3, 0]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        // Absolute bounds through Z survive, but no relational claim
        // stronger than them does.
        assert!(!zone.proves_le(1, 0));
        assert!(!zone.proves_lt(3, 0));
        assert!(!zone.fires_implies(0, 1));
    }
}
