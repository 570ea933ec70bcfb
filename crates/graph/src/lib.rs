//! # sc-graph — graph substrate
//!
//! Everything graph-shaped in the reproduction lives here, implemented
//! from scratch:
//!
//! * [`CsrGraph`] — a compressed-sparse-row directed graph used for the
//!   social network. The RRR-set sampler of `sc-influence` walks its
//!   [reverse](CsrGraph::reverse) relentlessly, so adjacency is flat and
//!   cache-friendly.
//! * [`traverse`] — BFS/DFS/weakly-connected components.
//! * [`lap`] — sparse shortest-augmenting-path assignment on exact
//!   integer costs; the IA/EIA/DIA algorithms of paper Section IV solve
//!   their "most tasks, then least cost" instances with it (the
//!   paper's Ford–Fulkerson + LP step computes the same optimum), and
//!   [`lap::verify`] certifies each solution by integer duality.
//! * [`HopcroftKarp`] — maximum bipartite matching: the MTA baseline's
//!   solver and an independent cardinality cross-check.
//! * [`Dinic`] — max-flow, kept as a cardinality oracle for tests.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod lap;
pub mod matching;
pub mod maxflow;
pub mod traverse;

pub use csr::{CsrBuilder, CsrGraph};
pub use matching::HopcroftKarp;
pub use maxflow::Dinic;
