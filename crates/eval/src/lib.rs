//! # sbp-eval — partition-quality metrics
//!
//! Implements the accuracy metrics used in the paper's evaluation:
//!
//! * [`mod@nmi`] — normalized mutual information between a candidate partition
//!   and the ground truth (Tables VI–VIII, Figs. 2 and 4);
//! * [`dlnorm`] — normalized description length `DL / DL_null`, the
//!   ground-truth-free metric used for the real-world graphs (Fig. 6);
//! * [`ari`] — adjusted Rand index, provided as a sanity cross-check
//!   (not reported in the paper but standard in the community-detection
//!   literature);
//! * [`pairwise`] — pairwise precision/recall/F1, the Graph Challenge's
//!   primary metrics (the paper's \[9\]).
//!
//! All metrics accept partitions as `&[u32]` label vectors; labels need not
//! be contiguous.

#![forbid(unsafe_code)]

pub mod ari;
pub mod contingency;
pub mod dlnorm;
pub mod nmi;
pub mod pairwise;

pub use ari::adjusted_rand_index;
pub use contingency::ContingencyTable;
pub use dlnorm::{dl_null, normalized_dl};
pub use nmi::{nmi, nmi_variant, NmiNormalization};
pub use pairwise::{pairwise_scores, PairwiseScores};
