//! # sbp-gen — synthetic graph generation
//!
//! A from-scratch reimplementation of the degree-corrected stochastic
//! blockmodel generator the paper used (via the `graph-tool` python library)
//! to produce every synthetic dataset in its evaluation:
//!
//! * [`dcsbm::generate`] — the planted-partition DC-SBM generator with the
//!   exact knobs the paper varies: Dirichlet(α) community sizes, truncated
//!   power-law degree sequences, in/out degree-sequence duplication, and a
//!   target intra-community edge fraction;
//! * [`families`] — named constructors for every dataset table:
//!   Graph-Challenge-style graphs (Table II), the 16-graph exhaustive
//!   parameter-search family `TTT33 … FFF150` (Table III), the 1M/2M/4M
//!   scaling graphs (Table IV), and stand-ins for the five SNAP/SuiteSparse
//!   real-world graphs (Table V) for offline runs;
//! * [`dist`] — the probability-distribution toolbox (Dirichlet, gamma,
//!   discrete truncated power law, binomial) implemented directly so the
//!   only external randomness dependency is `rand`'s core RNG;
//! * [`alias`] — Vose alias tables for O(1) weighted sampling of edge
//!   endpoints.
//!
//! All generation is deterministic given a seed.

#![forbid(unsafe_code)]

pub mod alias;
pub mod dcsbm;
pub mod dist;
pub mod families;

pub use dcsbm::{generate, DegreeConfig, PlantedGraph, SbmParams};
pub use families::{
    graph_challenge, param_study, realworld, scaling_graph, Difficulty, ParamStudySpec,
    RealWorldStandIn, ScalingGraph, PARAM_STUDY_BASE_VERTICES,
};
