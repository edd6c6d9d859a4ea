//! Name-keyed [`Solver`] registry.
//!
//! The CLI's `--backend` flag and the `sbp-serve` daemon's `Repartition`
//! request both resolve backend names through one [`SolverRegistry`], so
//! downstream crates can plug new execution strategies into every entry
//! point by registering a factory — no edits to the CLI or server
//! required. `sbp-core` seeds the registry with the single-node backends
//! ([`SolverRegistry::with_core_backends`]); `sbp_dist::register_solvers`
//! adds the distributed ones; the `edist` facade's `default_registry`
//! combines both.

use crate::run::{SingleNode, Solver};
use crate::sbp::McmcStrategy;
use std::collections::BTreeMap;

/// Backend-construction parameters a registry factory may consume.
/// Factories are free to ignore fields that don't apply to them (the
/// single-node backends ignore everything).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverSpec {
    /// Simulated MPI ranks for distributed backends.
    pub ranks: usize,
    /// Sweeps between allgather sync points (EDiSt).
    pub sync_period: usize,
}

impl Default for SolverSpec {
    fn default() -> Self {
        SolverSpec {
            ranks: 1,
            sync_period: 1,
        }
    }
}

/// Why a registry lookup or construction failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// No factory is registered under this name.
    UnknownBackend {
        /// The name that was looked up.
        name: String,
        /// Every registered name, sorted — for error messages.
        known: Vec<String>,
    },
    /// The factory rejected the spec (e.g. zero ranks).
    InvalidSpec {
        /// The backend whose factory rejected the spec.
        name: String,
        /// The factory's reason.
        reason: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownBackend { name, known } => {
                write!(f, "unknown backend '{name}' (known: {})", known.join(", "))
            }
            RegistryError::InvalidSpec { name, reason } => {
                write!(f, "invalid spec for backend '{name}': {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

type Factory = Box<dyn Fn(&SolverSpec) -> Result<Box<dyn Solver>, String> + Send + Sync>;

/// A name → solver-factory map. Names are matched exactly (the callers
/// lowercase user input before lookup by convention).
#[derive(Default)]
pub struct SolverRegistry {
    factories: BTreeMap<String, Factory>,
}

impl std::fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl SolverRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry holding the single-node backends: `sequential` (alias
    /// `sbp`), `hybrid`, and `batch`.
    pub fn with_core_backends() -> Self {
        let mut reg = Self::new();
        for (name, strategy) in [
            ("sequential", McmcStrategy::MetropolisHastings),
            ("sbp", McmcStrategy::MetropolisHastings),
            ("hybrid", McmcStrategy::Hybrid),
            ("batch", McmcStrategy::Batch),
        ] {
            reg.register(name, move |_| Ok(Box::new(SingleNode(strategy))));
        }
        reg
    }

    /// Registers (or replaces) the factory for `name`.
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F)
    where
        F: Fn(&SolverSpec) -> Result<Box<dyn Solver>, String> + Send + Sync + 'static,
    {
        self.factories.insert(name.into(), Box::new(factory));
    }

    /// Every registered name, sorted.
    pub fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Builds the backend registered under `name` with the given spec.
    pub fn build(&self, name: &str, spec: &SolverSpec) -> Result<Box<dyn Solver>, RegistryError> {
        let factory = self
            .factories
            .get(name)
            .ok_or_else(|| RegistryError::UnknownBackend {
                name: name.to_string(),
                known: self.names(),
            })?;
        factory(spec).map_err(|reason| RegistryError::InvalidSpec {
            name: name.to_string(),
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{NoProgress, RunConfig, RunOutcome};
    use sbp_graph::fixtures::two_cliques;

    #[test]
    fn core_backends_resolve_and_solve() {
        let reg = SolverRegistry::with_core_backends();
        let g = two_cliques(6);
        let cfg = RunConfig::seeded(3);
        for name in ["sequential", "sbp", "hybrid", "batch"] {
            let solver = reg.build(name, &SolverSpec::default()).unwrap();
            assert!(solver.supports_warm_start(), "{name}");
            let want = if name == "sbp" { "sequential" } else { name };
            assert_eq!(solver.name(), want);
            let out = solver.solve(&g, &cfg, &mut NoProgress);
            assert_eq!(out.num_blocks, 2, "{name}");
        }
    }

    #[test]
    fn unknown_backend_lists_known_names() {
        let reg = SolverRegistry::with_core_backends();
        match reg.build("nope", &SolverSpec::default()) {
            Err(RegistryError::UnknownBackend { name, known }) => {
                assert_eq!(name, "nope");
                assert_eq!(known, vec!["batch", "hybrid", "sbp", "sequential"]);
            }
            Err(other) => panic!("expected UnknownBackend, got {other:?}"),
            Ok(_) => panic!("expected UnknownBackend, got a solver"),
        }
    }

    #[test]
    fn downstream_registration_and_spec_rejection() {
        struct Fake;
        impl Solver for Fake {
            fn name(&self) -> String {
                "fake".into()
            }
            fn solve(
                &self,
                _g: &sbp_graph::Graph,
                _cfg: &RunConfig,
                _p: &mut dyn crate::run::ProgressSink,
            ) -> RunOutcome {
                RunOutcome::empty()
            }
        }
        let mut reg = SolverRegistry::new();
        reg.register("fake", |spec| {
            if spec.ranks == 0 {
                Err("ranks must be >= 1".into())
            } else {
                Ok(Box::new(Fake))
            }
        });
        assert!(reg.contains("fake"));
        let built = reg.build("fake", &SolverSpec::default()).unwrap();
        assert_eq!(built.name(), "fake");
        assert!(!built.supports_warm_start());
        let zero_ranks = SolverSpec {
            ranks: 0,
            sync_period: 1,
        };
        match reg.build("fake", &zero_ranks) {
            Err(RegistryError::InvalidSpec { reason, .. }) => {
                assert!(reason.contains("ranks"));
            }
            Err(other) => panic!("expected InvalidSpec, got {other:?}"),
            Ok(_) => panic!("expected InvalidSpec, got a solver"),
        }
    }
}
