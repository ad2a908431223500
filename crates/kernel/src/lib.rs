//! # st-kernel — flattened SWAR volley kernels
//!
//! The raw-speed engine for the space-time algebra: a gate network (or a
//! race-logic netlist) is compiled **once** into a flattened
//! [`Plan`] — topological order precomputed, struct-of-arrays gate
//! storage, fan-ins in one contiguous arena — and volleys are then
//! evaluated **eight at a time**: eight consecutive rows of a
//! [`st_core::VolleyBatch`] are packed straight into the u8 lanes of one
//! `u64` per input line (see [`st_core::lane`]). The four primitives
//! `min`/`max`/`lt`/`inc` become a handful of branch-free SWAR
//! instructions per packet, and an ∞-dominance early-out skips any gate
//! whose fan-in is all-silent across the whole packet.
//!
//! Correctness rides on two facts, both pinned by exhaustive and
//! differential tests:
//!
//! * the lane encoding is an order isomorphism, so unsigned byte ops
//!   equal the algebra's ops on encoded values;
//! * a plan-level bound (computed by a one-pass dataflow analysis over
//!   delays and constants, [`Plan::lane_input_limit`]) tells exactly
//!   which batches can be lane-packed without saturating — checked in
//!   O(1) against the batch's recorded largest finite time; everything
//!   else takes the scalar path ([`Plan::eval`]), which is bit-identical
//!   to [`st_net::Network::eval`] at full `u64` precision.
//!
//! ```
//! use st_core::{Time, VolleyBatch};
//! use st_kernel::{Plan, Scratch};
//! use st_net::sorting::sorting_network;
//!
//! let plan = Plan::from_network(&sorting_network(4));
//! let t = Time::finite;
//! let volley = [t(3), Time::INFINITY, t(0), t(2)];
//!
//! // Scalar path: one volley at full u64 precision.
//! assert_eq!(plan.eval(&volley)?, vec![t(0), t(2), t(3), Time::INFINITY]);
//!
//! // Lane path: up to eight rows of a batch per packet, written row-major
//! // into the output rows.
//! let mut batch = VolleyBatch::new(4);
//! batch.push_row(&volley)?;
//! batch.push_row(&volley)?;
//! let mut out = vec![Time::INFINITY; 2 * plan.output_width()];
//! assert!(plan.lane_capable_batch(&batch));
//! plan.eval_packet_batch(&mut Scratch::default(), &batch, 0..2, &mut out);
//! assert_eq!(&out[4..], &[t(0), t(2), t(3), Time::INFINITY]);
//! # Ok::<(), st_core::CoreError>(())
//! ```

pub mod packet;
pub mod plan;

pub use packet::{PacketStats, Scratch};
pub use plan::{Op, Plan};
