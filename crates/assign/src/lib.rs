//! # sc-assign — influence-aware task assignment (paper Section IV)
//!
//! Implements every assignment algorithm of the paper on top of the
//! spatio-temporal eligibility rules of Section IV-A:
//!
//! | Algorithm | Objective encoding | Paper |
//! |---|---|---|
//! | [`AlgorithmKind::Mta`] | maximum matching only (influence-agnostic) | baseline (GeoCrowd) |
//! | [`AlgorithmKind::Ia`]  | most tasks, then min Σ `1/(if+1)` | IV-A |
//! | [`AlgorithmKind::Eia`] | most tasks, then min Σ `(s.e+1)/(if+1)` | IV-B |
//! | [`AlgorithmKind::Dia`] | most tasks, then min Σ `1/(F·if+1)` | IV-C |
//! | [`AlgorithmKind::Mi`]  | greedy max total influence (two-step) | baseline |
//! | [`AlgorithmKind::GreedyNearest`] | nearest free worker | Fig. 1 |
//!
//! The influence values `if(w, s)` come from an [`InfluenceOracle`] —
//! `sc-core` provides the full DITA oracle; tests use closures.
//!
//! IA/EIA/DIA solve the paper's min-cost max-flow objective as a
//! sparse assignment problem straight on the [`EligibilityMatrix`]
//! CSR ([`sc_graph::lap`]): workers are rows, tasks columns, and pair
//! costs exact `i64`s on a `2⁻³⁷` lattice with a per-pair tie-break.
//! MTA runs Hopcroft–Karp on the same CSR.
//!
//! ## Intra-instance parallelism
//!
//! The two scoring passes that dominate a single instance — building
//! the [`EligibilityMatrix`] and evaluating `if(w, s)` per eligible
//! pair — shard over the workspace scheduler (`sc_stats::par`) when
//! [`AssignInput::with_threads`] carries a budget above 1:
//! [`EligibilityMatrix::build_with_threads`] splits the worker (CSR)
//! axis into contiguous ranges over a shared task grid, and the
//! pair-influence scan splits the pair range. Both merge in index
//! order, so assignments are **bit-identical at any thread count** —
//! the same contract as `sc-influence`'s sharded RRR sampling. The
//! combinatorial solve (matching / assignment / greedy) stays sequential;
//! only the embarrassingly parallel scoring work fans out.
//!
//! ## Incremental rounds
//!
//! Online round drivers hold an [`EligibilityState`] and call
//! [`EligibilityState::advance`] per round: the matrix is advanced by
//! a delta from the previous round (carried rows filtered and
//! extended, changed rows rebuilt) instead of rebuilt from scratch,
//! with byte-for-byte identical results — see [`delta`] for the
//! reconciliation and determinism story. [`score_pairs`] /
//! [`run_scored`] split the scoring scan from the solve so those
//! drivers can time the phases separately.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod delta;
pub mod eligibility;
pub mod oracle;

pub use algorithms::{
    run, run_scored, run_scored_with_stats, run_with_matrix, score_pairs, AlgorithmKind,
    AssignInput, SolveStats,
};
pub use delta::{DeltaStats, EligibilityState};
pub use eligibility::{EligibilityMatrix, EligiblePair};
pub use oracle::{InfluenceFn, InfluenceOracle, ZeroInfluence};
