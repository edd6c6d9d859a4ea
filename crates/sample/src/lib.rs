//! # sbp-sample — sampling-based data reduction for SBP
//!
//! The paper's discussion section (§V-F) points to sampling as the
//! practical answer to graphs that exceed memory: *"data reduction
//! techniques like sampling, which have been shown to preserve community
//! structure in graphs, are a promising means of reducing the memory
//! footprint"*, citing the authors' own HPEC'19 work ("Fast Stochastic
//! Block Partitioning via Sampling") and Maiya & Berger-Wolf's sampling
//! study. This crate implements that pipeline:
//!
//! 1. [`strategies`] — five samplers: uniform node, degree-weighted node,
//!    random edge, forest fire, and expansion snowball (the
//!    Maiya–Berger-Wolf method the paper cites);
//! 2. run SBP on the sampled subgraph (any engine from `sbp-core`);
//! 3. [`extend`] — propagate the sample's block labels to the unsampled
//!    vertices by weighted-majority label propagation in BFS order;
//! 4. fine-tune with [`solver::FINETUNE_SWEEPS`] full-graph MCMC sweeps.
//!
//! The [`Sampled`] solver decorator glues the stages together and
//! composes with any backend (sequential, hybrid, batch, DC-SBP,
//! EDiSt).

#![forbid(unsafe_code)]

pub mod extend;
pub mod solver;
pub mod strategies;

pub use extend::extend_partition;
pub use solver::Sampled;
pub use strategies::{sample_vertices, SamplingStrategy};
