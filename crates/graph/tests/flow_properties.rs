//! Property tests tying the three matching solvers together on random
//! bipartite assignment-shaped instances:
//!
//! * Dinic max-flow == Hopcroft–Karp matching size (same cardinality).
//! * Assignment (`lap`) cardinality == both of them (the most tasks
//!   come first).
//! * Assignment cost == the cheapest maximum matching found by
//!   exhaustive search on tiny instances.

use proptest::prelude::*;
use sc_graph::lap::{self, SparseCosts};
use sc_graph::{Dinic, HopcroftKarp};

#[derive(Debug, Clone)]
struct BipartiteCase {
    n_left: usize,
    n_right: usize,
    /// Sorted by left vertex.
    edges: Vec<(usize, usize, i64)>,
}

fn bipartite_case(max_side: usize) -> impl Strategy<Value = BipartiteCase> {
    (1..=max_side, 1..=max_side)
        .prop_flat_map(|(nl, nr)| {
            let edge = (0..nl, 0..nr, 1i64..1000).prop_map(|(l, r, c)| (l, r, c));
            (
                Just(nl),
                Just(nr),
                prop::collection::vec(edge, 0..nl * nr + 1),
            )
        })
        .prop_map(|(n_left, n_right, mut edges)| {
            edges.sort_by_key(|e| (e.0, e.1));
            edges.dedup_by_key(|e| (e.0, e.1));
            BipartiteCase {
                n_left,
                n_right,
                edges,
            }
        })
}

fn dinic_flow(case: &BipartiteCase) -> i64 {
    let n = case.n_left + case.n_right + 2;
    let (s, t) = (n - 2, n - 1);
    let mut g = Dinic::new(n);
    for l in 0..case.n_left {
        g.add_edge(s, l, 1);
    }
    for r in 0..case.n_right {
        g.add_edge(case.n_left + r, t, 1);
    }
    for &(l, r, _) in &case.edges {
        g.add_edge(l, case.n_left + r, 1);
    }
    g.max_flow(s, t)
}

/// `(assigned, cost)` of the assignment solver, certificate checked.
fn lap_run(case: &BipartiteCase) -> (usize, i64) {
    let mut offsets = vec![0u32; case.n_left + 1];
    for &(l, _, _) in &case.edges {
        offsets[l + 1] += 1;
    }
    for l in 0..case.n_left {
        offsets[l + 1] += offsets[l];
    }
    let cols: Vec<u32> = case.edges.iter().map(|&(_, r, _)| r as u32).collect();
    let costs: Vec<i64> = case.edges.iter().map(|&(_, _, c)| c).collect();
    let problem = SparseCosts {
        offsets: &offsets,
        cols: &cols,
        costs: &costs,
        n_cols: case.n_right,
    };
    let sol = lap::solve(&problem);
    lap::verify(&problem, &sol).unwrap_or_else(|e| panic!("certificate: {e}"));
    (sol.assigned, sol.cost)
}

fn hk_size(case: &BipartiteCase) -> usize {
    let mut hk = HopcroftKarp::new(case.n_left, case.n_right);
    for &(l, r, _) in &case.edges {
        hk.add_edge(l, r);
    }
    hk.solve().0
}

/// Exhaustively finds the min-cost matching of maximum cardinality on a
/// tiny instance (reference oracle).
fn brute_force(case: &BipartiteCase) -> (usize, i64) {
    fn recurse(
        edges: &[(usize, usize, i64)],
        i: usize,
        used_l: &mut Vec<bool>,
        used_r: &mut Vec<bool>,
        size: usize,
        cost: i64,
        best: &mut (usize, i64),
    ) {
        if i == edges.len() {
            if size > best.0 || (size == best.0 && cost < best.1) {
                *best = (size, cost);
            }
            return;
        }
        let (l, r, c) = edges[i];
        // Skip edge i.
        recurse(edges, i + 1, used_l, used_r, size, cost, best);
        // Take edge i if possible.
        if !used_l[l] && !used_r[r] {
            used_l[l] = true;
            used_r[r] = true;
            recurse(edges, i + 1, used_l, used_r, size + 1, cost + c, best);
            used_l[l] = false;
            used_r[r] = false;
        }
    }
    let mut best = (0usize, 0i64);
    recurse(
        &case.edges,
        0,
        &mut vec![false; case.n_left],
        &mut vec![false; case.n_right],
        0,
        0,
        &mut best,
    );
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dinic_equals_hopcroft_karp(case in bipartite_case(7)) {
        prop_assert_eq!(dinic_flow(&case), hk_size(&case) as i64);
    }

    #[test]
    fn lap_cardinality_equals_dinic_and_hopcroft_karp(case in bipartite_case(7)) {
        let (assigned, _) = lap_run(&case);
        prop_assert_eq!(assigned as i64, dinic_flow(&case));
        prop_assert_eq!(assigned, hk_size(&case));
    }

    #[test]
    fn lap_matches_bruteforce_optimum(case in bipartite_case(4)) {
        // Keep the instance tiny; brute force is exponential in edges.
        prop_assume!(case.edges.len() <= 10);
        prop_assert_eq!(lap_run(&case), brute_force(&case));
    }
}
