//! # st-tnn — temporal neural networks over the space-time algebra
//!
//! The full TNN stack of § II and § IV of Smith's "Space-Time Algebra"
//! (ISCA 2018): columns of SRM0 neurons with winner-take-all lateral
//! inhibition, unsupervised STDP training, multi-layer networks, and the
//! synthetic workloads that reproduce the emergent-learning results the
//! paper builds its case on.
//!
//! | Module | Contents |
//! |---|---|
//! | [`mod@column`] | excitatory columns + WTA, behavioral and structural |
//! | [`stdp`] | the local, low-resolution STDP rule |
//! | [`train`] | unsupervised WTA training and evaluation harness |
//! | [`network`] | multi-layer TNNs with layer-wise training |
//! | [`data`] | synthetic workloads (patterns, clusters, trajectories) |
//! | [`aer`] | Address-Event Representation streams and volley chunking |
//! | [`images`] | latency-encoded oriented-bar image workload |
//! | [`patch`] | receptive-field layers (local columns over sub-volleys) |
//! | [`io`] | text formats for trained columns and volley streams |
//! | [`metrics`] | neuron-to-class assignment and accuracy scoring |
//! | [`tempotron`] | the supervised Gütig-Sompolinsky timing classifier |
//!
//! ## Quick start
//!
//! ```
//! use st_tnn::data::PatternDataset;
//! use st_tnn::stdp::StdpParams;
//! use st_tnn::train::{evaluate_column, fresh_column, train_column, TrainConfig};
//!
//! // Two repeating spike patterns, one column of two neurons.
//! let mut data = PatternDataset::new(2, 16, 7, 0, 0.0, 42);
//! let config = TrainConfig { rescue: true, ..TrainConfig::default() };
//! let mut column = fresh_column(2, 16, 0.25, &config);
//!
//! // Unsupervised training: WTA winner learns via STDP.
//! let stream = data.stream(400, 1.0);
//! train_column(&mut column, &stream, &config);
//!
//! // The neurons specialize: accuracy well above chance.
//! let test = data.stream(100, 1.0);
//! let assignment = evaluate_column(&column, &test, 2);
//! assert!(assignment.accuracy() > 0.9);
//! ```
pub mod aer;
pub mod column;
pub mod data;
pub mod images;
pub mod io;
pub mod lint;
pub mod metrics;
pub mod network;
pub mod patch;
pub mod stdp;
pub mod tempotron;
pub mod train;

pub use aer::{AerEvent, AerStream};
pub use column::{Column, Inhibition};
pub use data::{ClusterDataset, LabelledVolley, PatternDataset, TrajectoryDataset};
pub use images::{Orientation, OrientedBarDataset};
pub use io::{column_to_text, parse_column, parse_stream, stream_to_text, ParseIoError};
pub use metrics::Assignment;
pub use network::TnnNetwork;
pub use patch::PatchLayer;
pub use stdp::{apply_stdp, StdpParams};
pub use tempotron::{Tempotron, TempotronParams};
pub use train::{
    evaluate_column, fresh_column, train_column, train_column_with, TrainConfig, TrainReport,
};
