//! Exact-oracle differential suite for the assignment solver.
//!
//! A bitmask dynamic program computes the *provably optimal*
//! (max-cardinality, then min-cost) assignment for bipartite instances
//! up to 8×8 — small enough for `O(T · 2^W · W)` exhaustion, large
//! enough to exercise displacement chains, contested workers, and tie
//! plateaus. [`lap::solve`] must reproduce the oracle's
//! `(assigned, cost)` exactly and pass the [`lap::verify`] dual
//! certificate after every solve.

use proptest::prelude::*;
use sc_graph::lap::{self, Matching, SparseCosts};

/// A bipartite assignment instance: `workers` (rows) on the left,
/// `tasks` (columns) on the right, eligible pairs with non-negative
/// integer costs, sorted by worker.
#[derive(Debug, Clone)]
struct Instance {
    workers: usize,
    tasks: usize,
    edges: Vec<(usize, usize, i64)>,
}

impl Instance {
    /// The CSR parts `(offsets, cols, costs)` of the instance.
    fn csr(&self) -> (Vec<u32>, Vec<u32>, Vec<i64>) {
        let mut offsets = vec![0u32; self.workers + 1];
        for &(w, _, _) in &self.edges {
            offsets[w + 1] += 1;
        }
        for w in 0..self.workers {
            offsets[w + 1] += offsets[w];
        }
        let cols = self.edges.iter().map(|&(_, t, _)| t as u32).collect();
        let costs = self.edges.iter().map(|&(_, _, c)| c).collect();
        (offsets, cols, costs)
    }

    /// Exact oracle: max assigned tasks, then min total cost, by
    /// bitmask DP over `(task index, used-worker set)`. Requires
    /// `workers <= 8`.
    fn oracle(&self) -> (usize, i64) {
        assert!(self.workers <= 8 && self.tasks <= 8, "oracle is for <= 8x8");
        // eligible[task] lists (worker, cost) pairs.
        let mut eligible = vec![Vec::new(); self.tasks];
        for &(w, task, c) in &self.edges {
            eligible[task].push((w, c));
        }
        let full = 1usize << self.workers;
        // dp[mask] = best (count, cost) over the tasks decided so far
        // with exactly the workers in `mask` used. (-1, inf) = unreachable.
        let better = |a: (i64, i64), b: (i64, i64)| -> (i64, i64) {
            if a.0 != b.0 {
                if a.0 > b.0 {
                    a
                } else {
                    b
                }
            } else if a.1 <= b.1 {
                a
            } else {
                b
            }
        };
        let mut dp = vec![(-1i64, i64::MAX); full];
        dp[0] = (0, 0);
        for workers in &eligible {
            let mut next = vec![(-1i64, i64::MAX); full];
            for mask in 0..full {
                let (count, cost) = dp[mask];
                if count < 0 {
                    continue;
                }
                // Leave this task unassigned.
                next[mask] = better(next[mask], (count, cost));
                // Or assign any free eligible worker.
                for &(w, c) in workers {
                    if mask & (1 << w) == 0 {
                        let m2 = mask | (1 << w);
                        next[m2] = better(next[m2], (count + 1, cost + c));
                    }
                }
            }
            dp = next;
        }
        let mut best = (0i64, 0i64);
        for &state in &dp {
            if state.0 >= 0 {
                best = better(best, state);
            }
        }
        (best.0 as usize, best.1)
    }
}

/// Solves `inst` and checks the dual certificate.
fn solve(inst: &Instance) -> Matching {
    let (offsets, cols, costs) = inst.csr();
    let problem = SparseCosts {
        offsets: &offsets,
        cols: &cols,
        costs: &costs,
        n_cols: inst.tasks,
    };
    let sol = lap::solve(&problem);
    lap::verify(&problem, &sol).unwrap_or_else(|e| panic!("certificate failed: {e} on {inst:?}"));
    sol
}

fn assert_matches_oracle(inst: &Instance) {
    let want = inst.oracle();
    let sol = solve(inst);
    assert_eq!(
        (sol.assigned, sol.cost),
        want,
        "solver vs oracle on {inst:?}"
    );
}

/// Strategy: random bipartite instance, ≤ `max_side` per side,
/// distinct pairs, costs drawn from a small range that manufactures
/// exact ties (the hard case for a deterministic solver).
fn instance(max_side: usize) -> impl Strategy<Value = Instance> {
    (1..=max_side, 1..=max_side)
        .prop_flat_map(|(nw, nt)| {
            let edge = (0..nw, 0..nt, 1i64..40).prop_map(|(w, t, c)| (w, t, c));
            (
                Just(nw),
                Just(nt),
                prop::collection::vec(edge, 0..nw * nt + 1),
            )
        })
        .prop_map(|(workers, tasks, mut edges)| {
            edges.sort_by_key(|e| (e.0, e.1));
            edges.dedup_by_key(|e| (e.0, e.1));
            Instance {
                workers,
                tasks,
                edges,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solver reproduces the oracle's (assigned, cost) on random
    /// 8×8-or-smaller instances, and every solve passes the
    /// certificate checker.
    #[test]
    fn solver_matches_exact_oracle(inst in instance(8)) {
        assert_matches_oracle(&inst);
    }
}

/// Hand-picked regressions the random generator is unlikely to hit
/// every run: full tie plateaus, contested workers, and the empty
/// network.
#[test]
fn oracle_pinned_instances() {
    let cases = [
        // 8x8 full plateau: every pair costs 8.
        Instance {
            workers: 8,
            tasks: 8,
            edges: (0..8)
                .flat_map(|w| (0..8).map(move |t| (w, t, 8)))
                .collect(),
        },
        // One contested task: both workers want task 0 cheaply.
        Instance {
            workers: 2,
            tasks: 2,
            edges: vec![(0, 0, 1), (0, 1, 9), (1, 0, 2)],
        },
        // A staircase: each worker's cheap task is the next one's dear
        // one.
        Instance {
            workers: 3,
            tasks: 3,
            edges: vec![(0, 0, 1), (0, 1, 5), (1, 1, 1), (1, 2, 5), (2, 2, 1)],
        },
        // More workers than tasks, all competing.
        Instance {
            workers: 5,
            tasks: 2,
            edges: (0..5)
                .flat_map(|w| (0..2).map(move |t| (w, t, 1 + ((w * 3 + t * 7) % 5) as i64)))
                .collect(),
        },
        // No edges at all.
        Instance {
            workers: 4,
            tasks: 4,
            edges: vec![],
        },
    ];
    for inst in &cases {
        assert_matches_oracle(inst);
    }
}

/// The oracle itself, sanity-checked against hand counting.
#[test]
fn oracle_hand_checks() {
    // w0 can do both tasks, w1 only task 0: max 2 assignments forces
    // w0 onto task 1 even though task 0 is cheaper for it.
    let inst = Instance {
        workers: 2,
        tasks: 2,
        edges: vec![(0, 0, 1), (0, 1, 9), (1, 0, 2)],
    };
    assert_eq!(inst.oracle(), (2, 11));
}
