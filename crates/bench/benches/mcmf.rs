//! Assignment-solver micro-benchmarks — the per-instance kernel of
//! every influence-aware algorithm (paper Section IV-A's min-cost
//! max-flow step), next to the maximum-matching solvers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_graph::lap::{self, SparseCosts};
use sc_graph::{Dinic, HopcroftKarp};
use std::hint::black_box;

/// Random bipartite assignment instance in CSR form: `n` workers, `n`
/// tasks, up to `degree` distinct candidate tasks per worker, costs
/// `1/(if+1)` on the `2⁻³⁷` lattice the assignment algorithms use.
struct Instance {
    n: usize,
    offsets: Vec<u32>,
    cols: Vec<u32>,
    costs: Vec<i64>,
}

fn random_instance(n: usize, degree: usize, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut offsets = vec![0u32];
    let (mut cols, mut costs) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let mut row: Vec<u32> = (0..degree).map(|_| rng.random_range(0..n as u32)).collect();
        row.sort_unstable();
        row.dedup();
        for t in row {
            let base = 1.0 / (rng.random::<f64>() * 5.0 + 1.0);
            cols.push(t);
            costs.push((base * (1u64 << 37) as f64).round() as i64);
        }
        offsets.push(cols.len() as u32);
    }
    Instance {
        n,
        offsets,
        cols,
        costs,
    }
}

fn lap_solve(inst: &Instance) -> (usize, i64) {
    let sol = lap::solve(&SparseCosts {
        offsets: &inst.offsets,
        cols: &inst.cols,
        costs: &inst.costs,
        n_cols: inst.n,
    });
    (sol.assigned, sol.cost)
}

fn hopcroft_karp_solve(inst: &Instance) -> usize {
    let mut hk = HopcroftKarp::new(inst.n, inst.n);
    for w in 0..inst.n {
        for e in inst.offsets[w]..inst.offsets[w + 1] {
            hk.add_edge(w, inst.cols[e as usize] as usize);
        }
    }
    hk.solve().0
}

fn dinic_solve(inst: &Instance) -> i64 {
    let n = inst.n;
    let (s, t) = (2 * n, 2 * n + 1);
    let mut g = Dinic::new(2 * n + 2);
    for w in 0..n {
        g.add_edge(s, w, 1);
    }
    for task in 0..n {
        g.add_edge(n + task, t, 1);
    }
    for w in 0..n {
        for e in inst.offsets[w]..inst.offsets[w + 1] {
            g.add_edge(w, n + inst.cols[e as usize] as usize, 1);
        }
    }
    g.max_flow(s, t)
}

fn bench_solver_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("assignment_solvers");
    group.sample_size(20);
    for &n in &[50usize, 150, 400] {
        let inst = random_instance(n, 8, 42);
        group.bench_with_input(BenchmarkId::new("lap", n), &inst, |b, inst| {
            b.iter(|| black_box(lap_solve(inst)));
        });
        group.bench_with_input(BenchmarkId::new("hopcroft_karp", n), &inst, |b, inst| {
            b.iter(|| black_box(hopcroft_karp_solve(inst)));
        });
        group.bench_with_input(BenchmarkId::new("dinic_maxflow", n), &inst, |b, inst| {
            b.iter(|| black_box(dinic_solve(inst)));
        });
    }
    group.finish();
}

fn bench_lap_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("lap_edge_density");
    group.sample_size(20);
    for &degree in &[4usize, 16, 32] {
        let inst = random_instance(150, degree, 7);
        group.bench_with_input(BenchmarkId::from_parameter(degree), &inst, |b, inst| {
            b.iter(|| black_box(lap_solve(inst)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solver_scaling, bench_lap_density);
criterion_main!(benches);
