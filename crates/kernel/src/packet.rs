//! The lane-packed packet executor: eight volleys per pass.
//!
//! A *packet* is up to [`lane::LANES`] consecutive rows of a
//! [`VolleyBatch`] evaluated together: the rows are packed straight into
//! lane words — line `l` of row `j` becomes lane `j` of input word `l` —
//! every gate computes its SWAR op on whole words in the plan's
//! flattened topological order, and each output word is unpacked lane by
//! lane into the matching output rows. The per-gate inner loop is
//! branch-free except for the **∞-dominance early-out**: a gate whose
//! entire fan-in is all-silent (`∞` in every lane of every source) is
//! skipped — its output is all-silent by the algebra's absorption laws —
//! which pays off on sparse volleys where silence dominates whole
//! subgraphs.
//!
//! The width and lane-bound contract is checked once per packet, in O(1),
//! from the batch's width and recorded maximum; the pack, gate and
//! unpack loops carry no checks.

use std::ops::Range;

use st_core::{lane, Time, Volley, VolleyBatch};

use crate::plan::{Op, Plan};

/// Reusable per-worker buffers for packet evaluation, so the hot loop
/// never allocates: one word per gate and one per input line, plus the
/// staging rows of the [`Plan::eval_packet`] adapter.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    values: Vec<u64>,
    inputs: Vec<u64>,
    staged_in: VolleyBatch,
    staged_out: Vec<Time>,
}

/// What one [`Plan::eval_packet_batch`] call did — deterministic counts,
/// the raw material for the `kernel.*` metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PacketStats {
    /// Gates evaluated with SWAR ops.
    pub gates_swar: u64,
    /// Gates skipped by the ∞-dominance early-out.
    pub gates_skipped: u64,
}

impl PacketStats {
    /// Accumulates another packet's counts into this one.
    pub fn absorb(&mut self, other: PacketStats) {
        self.gates_swar += other.gates_swar;
        self.gates_skipped += other.gates_skipped;
    }
}

impl Plan {
    /// Evaluates rows `rows` of `input` — one packet of up to eight — on
    /// the lane path, writing their outputs row-major into `out`
    /// ([`Plan::output_width`] times per row). Bit-identical to
    /// [`Plan::eval`] on each row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, longer than [`lane::LANES`] or outside
    /// the batch, if `out` is shorter than the packet's outputs, or if
    /// the batch breaks the plan's contract: its width must be
    /// [`Plan::input_count`] and it must be
    /// [`Plan::lane_capable_batch`]. All four checks are O(1).
    pub fn eval_packet_batch(
        &self,
        scratch: &mut Scratch,
        input: &VolleyBatch,
        rows: Range<usize>,
        out: &mut [Time],
    ) -> PacketStats {
        let members = rows.len();
        let (width, out_width) = (self.input_count(), self.output_width());
        assert!(
            (1..=lane::LANES).contains(&members),
            "1..=8 volleys per packet"
        );
        assert!(out.len() >= members * out_width, "output slice too short");
        assert_eq!(input.width(), width, "batch width must be the input count");
        assert!(
            self.lane_capable_batch(input),
            "batch exceeds the plan's lane bound"
        );

        // Pack: row j, line l → lane j of word l. Lanes past the packet
        // stay ∞. Within the lane bound, a time's low byte is its lane
        // encoding (∞'s all-ones bits included).
        let pad = if members == lane::LANES {
            0
        } else {
            lane::ALL_INF << (8 * members)
        };
        scratch.inputs.clear();
        scratch.inputs.resize(width, pad);
        for (j, row) in input.row_range(rows).chunks_exact(width.max(1)).enumerate() {
            for (word, t) in scratch.inputs.iter_mut().zip(row) {
                *word |= u64::from(t.value().map_or(lane::INF, |v| v as u8)) << (8 * j);
            }
        }

        let mut stats = PacketStats::default();
        let ops = self.ops();
        let args = self.args();
        scratch.values.clear();
        scratch.values.reserve(ops.len());
        for g in 0..ops.len() {
            let word = match ops[g] {
                Op::Input => scratch.inputs[args[g] as usize],
                Op::Const => self.lane_consts()[args[g] as usize],
                op => {
                    let srcs = self.fan_in(g);
                    let silent = !srcs.is_empty()
                        && srcs
                            .iter()
                            .all(|&s| scratch.values[s as usize] == lane::ALL_INF);
                    if silent {
                        // ∞-dominance: an all-silent fan-in forces an
                        // all-silent output for every op (∧, ∨, ≺, +c
                        // all map ∞ to ∞), so skip the SWAR work.
                        stats.gates_skipped += 1;
                        lane::ALL_INF
                    } else {
                        stats.gates_swar += 1;
                        match op {
                            Op::Min => srcs[1..]
                                .iter()
                                .fold(scratch.values[srcs[0] as usize], |acc, &s| {
                                    lane::min(acc, scratch.values[s as usize])
                                }),
                            Op::Max => srcs[1..]
                                .iter()
                                .fold(scratch.values[srcs[0] as usize], |acc, &s| {
                                    lane::max(acc, scratch.values[s as usize])
                                }),
                            Op::Lt => lane::lt_gate(
                                scratch.values[srcs[0] as usize],
                                scratch.values[srcs[1] as usize],
                            ),
                            Op::Inc => lane::inc(
                                scratch.values[srcs[0] as usize],
                                self.lane_delays()[args[g] as usize],
                            ),
                            Op::Input | Op::Const => unreachable!("handled above"),
                        }
                    }
                }
            };
            scratch.values.push(word);
        }

        // Unpack: lane j of output word o → line o of output row j.
        for (o, &gate) in self.outputs().iter().enumerate() {
            let word = scratch.values[gate as usize];
            for j in 0..members {
                out[j * out_width + o] = lane::decode((word >> (8 * j)) as u8);
            }
        }
        stats
    }

    /// [`Plan::eval_packet_batch`] for volleys held one `Vec` apiece:
    /// stages `volleys` as a batch, evaluates it as one packet, and writes
    /// one output [`Volley`] per input volley into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `volleys` is empty or longer than [`lane::LANES`], if
    /// `out` is shorter than `volleys`, or if a volley is not
    /// [`Plan::input_count`] wide or breaks [`Plan::lane_capable`].
    pub fn eval_packet(
        &self,
        scratch: &mut Scratch,
        volleys: &[Volley],
        out: &mut [Volley],
    ) -> PacketStats {
        assert!(out.len() >= volleys.len(), "output slice too short");
        let mut staged = std::mem::take(&mut scratch.staged_in);
        staged.reset(self.input_count(), 0);
        for volley in volleys {
            assert!(
                staged.push_row(volley.times()).is_ok(),
                "volley width must be the input count"
            );
        }
        let mut rows = std::mem::take(&mut scratch.staged_out);
        rows.clear();
        rows.resize(volleys.len() * self.output_width(), Time::INFINITY);
        let stats = self.eval_packet_batch(scratch, &staged, 0..volleys.len(), &mut rows);
        let out_width = self.output_width();
        for (j, slot) in out.iter_mut().enumerate().take(volleys.len()) {
            *slot = Volley::new(rows[j * out_width..(j + 1) * out_width].to_vec());
        }
        scratch.staged_in = staged;
        scratch.staged_out = rows;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Time;
    use st_net::sorting::sorting_network;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    #[test]
    fn packet_matches_scalar_on_a_sorter() {
        let plan = Plan::from_network(&sorting_network(4));
        let volleys: Vec<Volley> = (0..8)
            .map(|i| {
                Volley::new(vec![
                    t(7 - i % 8),
                    if i % 3 == 0 { Time::INFINITY } else { t(i) },
                    t(i * 31 % 254),
                    t(3),
                ])
            })
            .collect();
        assert!(plan.lane_capable(&volleys));
        let mut out = vec![Volley::new(Vec::new()); volleys.len()];
        let mut scratch = Scratch::default();
        plan.eval_packet(&mut scratch, &volleys, &mut out);
        for (volley, got) in volleys.iter().zip(&out) {
            let scalar = plan.eval(volley.times()).unwrap();
            assert_eq!(got.times(), &scalar[..], "volley {volley}");
        }
    }

    #[test]
    fn partial_packets_pad_with_silence() {
        let plan = Plan::from_network(&sorting_network(2));
        let volleys = vec![Volley::new(vec![t(5), t(1)])];
        let mut out = vec![Volley::new(Vec::new())];
        let mut scratch = Scratch::default();
        plan.eval_packet(&mut scratch, &volleys, &mut out);
        assert_eq!(out[0].times(), &[t(1), t(5)]);
    }

    #[test]
    fn all_silent_batch_skips_every_gate() {
        let plan = Plan::from_network(&sorting_network(4));
        let volleys = vec![Volley::silent(4); 8];
        let mut out = vec![Volley::new(Vec::new()); 8];
        let mut scratch = Scratch::default();
        let stats = plan.eval_packet(&mut scratch, &volleys, &mut out);
        assert_eq!(stats.gates_swar, 0);
        assert!(stats.gates_skipped > 0);
        for volley in &out {
            assert!(volley.times().iter().all(|t| t.is_infinite()));
        }
    }

    #[test]
    fn scratch_is_reusable_across_plans() {
        let small = Plan::from_network(&sorting_network(2));
        let big = Plan::from_network(&sorting_network(6));
        let mut scratch = Scratch::default();
        let v_small = vec![Volley::new(vec![t(2), t(0)]); 3];
        let v_big = vec![Volley::new(vec![t(5), t(4), t(3), t(2), t(1), t(0)]); 3];
        let mut out = vec![Volley::new(Vec::new()); 3];
        big.eval_packet(&mut scratch, &v_big, &mut out);
        assert_eq!(out[1].times(), &[t(0), t(1), t(2), t(3), t(4), t(5)]);
        small.eval_packet(&mut scratch, &v_small, &mut out);
        assert_eq!(out[2].times(), &[t(0), t(2)]);
    }

    #[test]
    fn batch_packets_read_their_rows_straight_from_the_batch() {
        let plan = Plan::from_network(&sorting_network(4));
        let batch = VolleyBatch::from_fn(4, 11, |r, l| match (r * 4 + l) % 7 {
            0 => Time::INFINITY,
            k => t((r as u64 * 37 + k as u64 * 11) % 255),
        });
        assert!(plan.lane_capable_batch(&batch));
        let mut scratch = Scratch::default();
        let mut out = vec![Time::ZERO; 3 * 4];
        plan.eval_packet_batch(&mut scratch, &batch, 8..11, &mut out);
        for (j, row) in (8..11).enumerate() {
            let scalar = plan.eval(batch.row(row)).unwrap();
            assert_eq!(&out[j * 4..(j + 1) * 4], &scalar[..], "row {row}");
        }
    }

    #[test]
    #[should_panic(expected = "lane bound")]
    fn batch_packets_refuse_a_batch_past_the_lane_bound() {
        let plan = Plan::from_network(&sorting_network(2));
        let mut batch = VolleyBatch::new(2);
        batch.push_row(&[t(255), t(0)]).unwrap();
        let mut out = vec![Time::ZERO; 2];
        plan.eval_packet_batch(&mut Scratch::default(), &batch, 0..1, &mut out);
    }
}
