//! The assignment algorithms (paper Section IV + evaluation baselines).

use crate::eligibility::EligibilityMatrix;
use crate::oracle::InfluenceOracle;
use sc_graph::lap::{self, SparseCosts};
use sc_graph::HopcroftKarp;
use sc_types::{Assignment, AssignmentPair, Instance};
use std::fmt;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Maximum Task Assignment: influence-agnostic maximum matching
    /// (baseline).
    Mta,
    /// Influence-aware Assignment: most tasks, then least total cost
    /// `1/(if+1)` (the paper's MCMF).
    Ia,
    /// Entropy-based IA: cost `(s.e+1)/(if+1)`.
    Eia,
    /// Distance-based IA: cost `1/(F·if+1)` with
    /// `F = 1 − min(1, d/w.r)`.
    Dia,
    /// Maximum Influence: two-step greedy maximizing total influence.
    Mi,
    /// Nearest-worker greedy (the running-example strawman).
    GreedyNearest,
}

impl AlgorithmKind {
    /// All algorithms the comparison figures sweep.
    pub const COMPARISON: [AlgorithmKind; 5] = [
        AlgorithmKind::Mta,
        AlgorithmKind::Ia,
        AlgorithmKind::Eia,
        AlgorithmKind::Dia,
        AlgorithmKind::Mi,
    ];
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AlgorithmKind::Mta => "MTA",
            AlgorithmKind::Ia => "IA",
            AlgorithmKind::Eia => "EIA",
            AlgorithmKind::Dia => "DIA",
            AlgorithmKind::Mi => "MI",
            AlgorithmKind::GreedyNearest => "Greedy",
        };
        f.write_str(name)
    }
}

/// Pair counts below this score sequentially even under a multi-thread
/// budget: one influence evaluation is microseconds, so spawn overhead
/// would dominate. Values are unaffected either way (the sharded scan
/// merges in pair order).
const SCORE_SHARD_THRESHOLD: usize = 1024;

/// Everything an algorithm needs to run on one instance.
pub struct AssignInput<'a> {
    /// The instance snapshot.
    pub instance: &'a Instance,
    /// The influence oracle (`if(w, s)` per candidate pair).
    pub influence: &'a dyn InfluenceOracle,
    /// Per-task location entropy `s.e`, aligned with `instance.tasks`.
    /// Required by [`AlgorithmKind::Eia`]; treated as all-zero otherwise
    /// when absent.
    pub task_entropy: Option<&'a [f64]>,
    /// Thread budget for the scoring passes (eligibility construction
    /// in [`run`] and the per-pair influence scan). Results are
    /// bit-identical at any value — shards are contiguous index ranges
    /// merged in order — so this trades wall time only. Defaults to 1.
    pub threads: usize,
}

impl<'a> AssignInput<'a> {
    /// Creates an input without entropy data, scoring on one thread.
    pub fn new(instance: &'a Instance, influence: &'a dyn InfluenceOracle) -> Self {
        AssignInput {
            instance,
            influence,
            task_entropy: None,
            threads: 1,
        }
    }

    /// Attaches per-task entropies (enables EIA).
    #[must_use]
    pub fn with_entropy(mut self, entropy: &'a [f64]) -> Self {
        assert_eq!(
            entropy.len(),
            self.instance.tasks.len(),
            "entropy must align with tasks"
        );
        self.task_entropy = Some(entropy);
        self
    }

    /// Sets the scoring thread budget (clamped to at least 1). Results
    /// are bit-identical at any budget.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Runs `kind` on `input` and returns the assignment. Eligibility and
/// the scoring pass honor [`AssignInput::threads`].
pub fn run(kind: AlgorithmKind, input: &AssignInput<'_>) -> Assignment {
    let matrix = EligibilityMatrix::build_with_threads(input.instance, input.threads);
    run_with_matrix(kind, input, &matrix)
}

/// Runs `kind` reusing a precomputed eligibility matrix (the harness
/// computes it once per instance and runs every algorithm on it).
/// Equivalent to [`score_pairs`] followed by [`run_scored`].
pub fn run_with_matrix(
    kind: AlgorithmKind,
    input: &AssignInput<'_>,
    matrix: &EligibilityMatrix,
) -> Assignment {
    let influences = score_pairs(input, matrix);
    run_scored(kind, input, matrix, &influences)
}

/// Runs `kind` on pre-scored pairs: `influences[i]` must be the oracle
/// value of `matrix.pairs()[i]` (what [`score_pairs`] returns). The
/// solve phase of [`run_with_matrix`] — split out so round drivers can
/// time the scoring scan and the solve separately.
pub fn run_scored(
    kind: AlgorithmKind,
    input: &AssignInput<'_>,
    matrix: &EligibilityMatrix,
    influences: &[f64],
) -> Assignment {
    run_scored_with_stats(kind, input, matrix, influences).0
}

/// Solver-phase telemetry from one [`run_scored_with_stats`] call.
/// Zero for MTA, MI and greedy. Deterministic facts of the instance,
/// but telemetry all the same: round-report equality never compares
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Shortest-augmenting-path searches the IA/EIA/DIA solve ran: one
    /// per worker row.
    pub passes: usize,
    /// Searches that grew the matching (one per assigned task).
    pub augmentations: usize,
}

/// [`run_scored`], also returning the solver-phase telemetry (round
/// drivers record it in their perf split).
pub fn run_scored_with_stats(
    kind: AlgorithmKind,
    input: &AssignInput<'_>,
    matrix: &EligibilityMatrix,
    influences: &[f64],
) -> (Assignment, SolveStats) {
    debug_assert_eq!(influences.len(), matrix.n_pairs());
    match kind {
        AlgorithmKind::Mta => (mta(input, matrix, influences), SolveStats::default()),
        AlgorithmKind::Ia => mcmf_assign(input, matrix, influences, CostModel::Influence),
        AlgorithmKind::Eia => mcmf_assign(input, matrix, influences, CostModel::EntropyInfluence),
        AlgorithmKind::Dia => mcmf_assign(input, matrix, influences, CostModel::DistanceInfluence),
        AlgorithmKind::Mi => (mi(input, matrix, influences), SolveStats::default()),
        AlgorithmKind::GreedyNearest => (
            greedy_nearest(input, matrix, influences),
            SolveStats::default(),
        ),
    }
}

enum CostModel {
    Influence,
    EntropyInfluence,
    DistanceInfluence,
}

/// Precomputes `if(w, s)` for every available pair, sharding the scan
/// over [`AssignInput::threads`] when the pair count warrants it.
/// Shards are contiguous pair ranges merged in index order, and every
/// score is a pure read of the (already warm or content-deterministic)
/// oracle, so the vector is identical at any thread count. Feed the
/// result to [`run_scored`] (or several `run_scored` calls — scores
/// are algorithm-independent).
pub fn score_pairs(input: &AssignInput<'_>, matrix: &EligibilityMatrix) -> Vec<f64> {
    let score = |p: &crate::EligiblePair| {
        let worker = &input.instance.workers[p.worker_idx as usize];
        let task = &input.instance.tasks[p.task_idx as usize];
        let v = input.influence.influence(worker.id, task);
        debug_assert!(v.is_finite() && v >= 0.0, "influence must be >= 0, got {v}");
        v
    };
    let pairs = matrix.pairs();
    if input.threads <= 1 || pairs.len() < SCORE_SHARD_THRESHOLD {
        return pairs.iter().map(score).collect();
    }
    // Clamp the width so every shard carries at least a threshold's
    // worth of pairs — spawning 16 threads for 1.1k pairs would be
    // spawn-dominated (same rule as RrrPool::MIN_SETS_PER_SHARD).
    let threads = input
        .threads
        .min(pairs.len().div_ceil(SCORE_SHARD_THRESHOLD));
    sc_stats::par::map_chunked(pairs.len(), threads, |pi| score(&pairs[pi]))
}

/// Builds the assignment from chosen pair indices, in the given order.
fn to_assignment(
    input: &AssignInput<'_>,
    matrix: &EligibilityMatrix,
    influences: &[f64],
    chosen: impl IntoIterator<Item = usize>,
) -> Assignment {
    let mut assignment = Assignment::new();
    for pi in chosen {
        let pair = matrix.pairs()[pi];
        let ok = assignment.push(AssignmentPair {
            task: input.instance.tasks[pair.task_idx as usize].id,
            worker: input.instance.workers[pair.worker_idx as usize].id,
            influence: influences[pi],
            distance_km: pair.distance_km,
        });
        debug_assert!(ok, "solver produced a clash");
    }
    assignment
}

/// One integer cost step: `2⁻³⁷ ≈ 7.3e-12` of a base cost. A pair's
/// solver cost is `round(base / COST_UNIT) + tie_jitter(pi)`, an exact
/// `i64` on this lattice (a base cost of at most ~`6.7e7` fits).
const COST_UNIT: f64 = 1.0 / (1u64 << 37) as f64;

/// Deterministic per-pair tie-break jitter, in [`COST_UNIT`]s: a
/// bijective 18-bit scramble of the pair index placed in `[2¹⁸, 2¹⁹)`
/// (≈ `1.9e-6 ..= 3.8e-6` of a base cost).
///
/// The influence cost models produce *exact* ties (every zero-influence
/// pair costs exactly `1.0`), and on a tied plateau many assignments
/// are optimal, so which one the solver returns would hang on its path
/// order. Adding a unique sub-`1e-5` perturbation per pair makes the
/// min-cost optimum unique (the `tie_jitter_makes_the_plateau_optimum_unique`
/// test enumerates small plateaus to pin this). Two properties make
/// the separation real rather than wishful:
///
/// * **Bijective.** The scramble is a 4-round Feistel permutation of
///   the low 18 bits of the pair index, so any two pairs (below `2¹⁸`)
///   get *provably distinct* offsets — no birthday collisions.
/// * **Hashed, not linear.** Offsets linear in the index cancel on
///   crossing squares (`δ·a + δ·(b+1) = δ·(a+1) + δ·b`), leaving the
///   tie unbroken; the Feistel rounds destroy that structure.
///
/// Costs are integers, so distinct plateau matchings differ by at
/// least one unit, exactly. The magnitude cap (`< 4e-6` per pair) keeps
/// the jitter far below any real cost gap (costs live in `(0, 1]`
/// quantized no finer than ~`1e-4` by the influence estimates), so it
/// never reorders genuinely different pairs.
fn tie_jitter(pi: usize) -> i64 {
    // 4-round Feistel over 9-bit halves: a bijection on [0, 2^18).
    let x = (pi as u32) & 0x3_FFFF;
    let (mut l, mut r) = (x >> 9, x & 0x1FF);
    for round in 1..=4u32 {
        let mut f = r
            .wrapping_add(round.wrapping_mul(0x9E37_79B9))
            .wrapping_mul(0x85EB_CA6B);
        f ^= f >> 13;
        let next = l ^ (f & 0x1FF);
        l = r;
        r = next;
    }
    i64::from((1u32 << 18) | (l << 9) | r)
}

/// IA/EIA/DIA: the most tasks, then the least total cost under `model`
/// — one [`lap::solve`] over the eligibility CSR, workers as rows.
fn mcmf_assign(
    input: &AssignInput<'_>,
    matrix: &EligibilityMatrix,
    influences: &[f64],
    model: CostModel,
) -> (Assignment, SolveStats) {
    let zeros;
    let entropy: &[f64] = match (&model, input.task_entropy) {
        (CostModel::EntropyInfluence, Some(e)) => e,
        (CostModel::EntropyInfluence, None) => {
            zeros = vec![0.0; input.instance.tasks.len()];
            &zeros
        }
        _ => &[],
    };

    let (cols, costs): (Vec<u32>, Vec<i64>) = matrix
        .pairs()
        .iter()
        .zip(influences)
        .enumerate()
        .map(|(pi, (p, &inf))| {
            let base = match model {
                CostModel::Influence => 1.0 / (inf + 1.0),
                CostModel::EntropyInfluence => (entropy[p.task_idx as usize] + 1.0) / (inf + 1.0),
                CostModel::DistanceInfluence => {
                    let worker = &input.instance.workers[p.worker_idx as usize];
                    let f = 1.0 - (p.distance_km / worker.radius_km).min(1.0);
                    1.0 / (f * inf + 1.0)
                }
            };
            debug_assert!(base.is_finite() && base >= 0.0, "bad pair cost {base}");
            (
                p.task_idx,
                (base / COST_UNIT).round() as i64 + tie_jitter(pi),
            )
        })
        .unzip();
    let problem = SparseCosts {
        offsets: matrix.offsets(),
        cols: &cols,
        costs: &costs,
        n_cols: matrix.n_tasks(),
    };
    let solved = lap::solve(&problem);
    debug_assert_eq!(lap::verify(&problem, &solved), Ok(()));
    let stats = SolveStats {
        passes: matrix.n_workers(),
        augmentations: solved.augmentations,
    };
    let chosen = solved.row_entry.iter().flatten().map(|&pi| pi as usize);
    (to_assignment(input, matrix, influences, chosen), stats)
}

/// MTA: a maximum matching (Hopcroft–Karp on the eligibility CSR),
/// ignoring influence for the choice but still reporting the influence
/// of whatever it picked (the evaluation metrics need it).
fn mta(input: &AssignInput<'_>, matrix: &EligibilityMatrix, influences: &[f64]) -> Assignment {
    let mut hk = HopcroftKarp::new(matrix.n_workers(), matrix.n_tasks());
    for p in matrix.pairs() {
        hk.add_edge(p.worker_idx as usize, p.task_idx as usize);
    }
    let (_, mates) = hk.solve();
    // Rows are in ascending task order, so the mate's pair is found by
    // binary search within the worker's row.
    let chosen = mates.iter().enumerate().filter_map(|(w, mate)| {
        let task = (*mate)?;
        let lo = matrix.offsets()[w] as usize;
        let at = matrix
            .of_worker(w)
            .binary_search_by_key(&task, |p| p.task_idx)
            .expect("a matched task is eligible");
        Some(lo + at)
    });
    to_assignment(input, matrix, influences, chosen)
}

/// MI: step 1 collects the candidate workers of every task (the
/// eligibility matrix); step 2 walks candidate pairs in descending
/// influence, assigning greedily — maximizing total influence with no
/// regard for cardinality.
fn mi(input: &AssignInput<'_>, matrix: &EligibilityMatrix, influences: &[f64]) -> Assignment {
    let mut order: Vec<usize> = (0..matrix.n_pairs()).collect();
    order.sort_by(|&a, &b| influences[b].total_cmp(&influences[a]));

    let mut worker_used = vec![false; matrix.n_workers()];
    let mut task_used = vec![false; matrix.n_tasks()];
    let mut chosen = Vec::new();
    for pi in order {
        let p = &matrix.pairs()[pi];
        if worker_used[p.worker_idx as usize] || task_used[p.task_idx as usize] {
            continue;
        }
        // A zero-influence pair adds nothing to total influence; MI
        // leaves it unassigned (this is what makes |A| small for MI).
        if influences[pi] <= 0.0 {
            continue;
        }
        worker_used[p.worker_idx as usize] = true;
        task_used[p.task_idx as usize] = true;
        chosen.push(pi);
    }
    to_assignment(input, matrix, influences, chosen)
}

/// Nearest-worker greedy from the running example: tasks in id order,
/// each grabs its closest free eligible worker.
fn greedy_nearest(
    input: &AssignInput<'_>,
    matrix: &EligibilityMatrix,
    influences: &[f64],
) -> Assignment {
    // Group pairs per task.
    let mut per_task: Vec<Vec<usize>> = vec![Vec::new(); matrix.n_tasks()];
    for (pi, p) in matrix.pairs().iter().enumerate() {
        per_task[p.task_idx as usize].push(pi);
    }
    let mut worker_used = vec![false; matrix.n_workers()];
    let mut chosen = Vec::new();
    for candidates in &per_task {
        let best = candidates
            .iter()
            .filter(|&&pi| !worker_used[matrix.pairs()[pi].worker_idx as usize])
            .min_by(|&&a, &&b| {
                matrix.pairs()[a]
                    .distance_km
                    .total_cmp(&matrix.pairs()[b].distance_km)
            });
        if let Some(&pi) = best {
            worker_used[matrix.pairs()[pi].worker_idx as usize] = true;
            chosen.push(pi);
        }
    }
    to_assignment(input, matrix, influences, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{InfluenceFn, ZeroInfluence};
    use sc_types::{CategoryId, Duration, Location, Task, TaskId, TimeInstant, Worker, WorkerId};

    fn worker(id: u32, x: f64, r: f64) -> Worker {
        Worker::new(WorkerId::new(id), Location::new(x, 0.0), r)
    }

    fn task(id: u32, x: f64) -> Task {
        Task::new(
            TaskId::new(id),
            Location::new(x, 0.0),
            TimeInstant::at(0, 0),
            Duration::hours(100),
            CategoryId::new(0),
        )
    }

    /// Two workers, two tasks, all reachable. Influence table:
    ///   (w0,t0)=4, (w0,t1)=1, (w1,t0)=3, (w1,t1)=0.1
    fn square() -> (Instance, impl Fn(WorkerId, &Task) -> f64) {
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 100.0), worker(1, 1.0, 100.0)],
            vec![task(0, 0.4), task(1, 0.6)],
        );
        let table = |w: WorkerId, t: &Task| match (w.raw(), t.id.raw()) {
            (0, 0) => 4.0,
            (0, 1) => 1.0,
            (1, 0) => 3.0,
            (1, 1) => 0.1,
            _ => 0.0,
        };
        (inst, table)
    }

    #[test]
    fn ia_minimizes_reciprocal_cost_at_full_cardinality() {
        let (inst, table) = square();
        let oracle = InfluenceFn(table);
        let a = run(AlgorithmKind::Ia, &AssignInput::new(&inst, &oracle));
        assert_eq!(a.len(), 2);
        // The paper's IA minimizes Σ 1/(if+1), which is *not* the same as
        // maximizing Σ if. Costs: (w0,t0)=0.2, (w0,t1)=0.5, (w1,t0)=0.25,
        // (w1,t1)=0.909 — the crossed pairing (0.5+0.25=0.75) beats the
        // straight one (0.2+0.909=1.109), even though its total influence
        // (4.0) is slightly below 4.1. This pins the exact semantics.
        assert_eq!(a.worker_of(TaskId::new(0)), Some(WorkerId::new(1)));
        assert_eq!(a.worker_of(TaskId::new(1)), Some(WorkerId::new(0)));
        assert!((a.total_influence() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mta_matches_cardinality_but_ignores_influence() {
        let (inst, table) = square();
        let oracle = InfluenceFn(table);
        let a = run(AlgorithmKind::Mta, &AssignInput::new(&inst, &oracle));
        assert_eq!(a.len(), 2, "same cardinality as IA");
        // Influence is reported but may be the inferior pairing.
        assert!(a.total_influence() > 0.0);
    }

    #[test]
    fn ia_beats_mta_when_one_task_is_contested() {
        // One task, two workers: MTA (Hopcroft–Karp) takes the first
        // free worker in row order (w0); IA must pick the influential w1.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 1.0, 100.0), worker(1, 2.0, 100.0)],
            vec![task(0, 0.0)],
        );
        let oracle = InfluenceFn(|w: WorkerId, _t: &Task| if w.raw() == 1 { 5.0 } else { 0.1 });
        let ia = run(AlgorithmKind::Ia, &AssignInput::new(&inst, &oracle));
        let mta = run(AlgorithmKind::Mta, &AssignInput::new(&inst, &oracle));
        assert_eq!(ia.len(), 1);
        assert_eq!(mta.len(), 1);
        assert_eq!(ia.worker_of(TaskId::new(0)), Some(WorkerId::new(1)));
        assert!(ia.total_influence() >= mta.total_influence());
        assert!((ia.total_influence() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mta_tie_break_takes_first_augmenting_path() {
        // Pins the Hopcroft–Karp search order: with both workers
        // eligible for the one task, MTA deterministically assigns w0
        // (the first free row to reach it). Replay traces and figure
        // sweeps depend on the baseline being deterministic.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 1.0, 100.0), worker(1, 2.0, 100.0)],
            vec![task(0, 0.0)],
        );
        let oracle = InfluenceFn(|w: WorkerId, _t: &Task| if w.raw() == 1 { 5.0 } else { 0.1 });
        let mta = run(AlgorithmKind::Mta, &AssignInput::new(&inst, &oracle));
        assert_eq!(mta.len(), 1);
        assert_eq!(mta.worker_of(TaskId::new(0)), Some(WorkerId::new(0)));
        assert!((mta.total_influence() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn mi_maximizes_average_influence_not_cardinality() {
        // One worker reaches both tasks; another reaches none.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 100.0)],
            vec![task(0, 0.4), task(1, 0.6)],
        );
        let oracle = InfluenceFn(
            |_w: WorkerId, t: &Task| {
                if t.id.raw() == 0 {
                    5.0
                } else {
                    1.0
                }
            },
        );
        let mi = run(AlgorithmKind::Mi, &AssignInput::new(&inst, &oracle));
        assert_eq!(mi.len(), 1);
        assert_eq!(mi.worker_of(TaskId::new(0)), Some(WorkerId::new(0)));
        assert!((mi.average_influence() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mi_skips_zero_influence_pairs() {
        let (inst, _) = square();
        let a = run(AlgorithmKind::Mi, &AssignInput::new(&inst, &ZeroInfluence));
        assert_eq!(a.len(), 0);
        // IA still assigns everything with zero influence.
        let ia = run(AlgorithmKind::Ia, &AssignInput::new(&inst, &ZeroInfluence));
        assert_eq!(ia.len(), 2);
    }

    #[test]
    fn dia_prefers_closer_workers() {
        // Both workers have equal influence on the task; DIA must pick
        // the closer one, IA is indifferent (ties broken by search order).
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 10.0, 100.0), worker(1, 1.0, 100.0)],
            vec![task(0, 0.0)],
        );
        let oracle = InfluenceFn(|_, _: &Task| 2.0);
        let dia = run(AlgorithmKind::Dia, &AssignInput::new(&inst, &oracle));
        assert_eq!(dia.len(), 1);
        assert_eq!(dia.worker_of(TaskId::new(0)), Some(WorkerId::new(1)));
        assert!((dia.average_travel_km() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eia_prioritizes_low_entropy_tasks() {
        // One worker, two tasks with equal influence; the low-entropy
        // task (restricted visitor set) must win the worker.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 100.0)],
            vec![task(0, 0.4), task(1, 0.5)],
        );
        let oracle = InfluenceFn(|_, _: &Task| 1.0);
        let entropy = [2.0, 0.0]; // task 1 has low entropy
        let input = AssignInput::new(&inst, &oracle).with_entropy(&entropy);
        let a = run(AlgorithmKind::Eia, &input);
        assert_eq!(a.len(), 1);
        assert_eq!(a.worker_of(TaskId::new(1)), Some(WorkerId::new(0)));
    }

    #[test]
    fn greedy_nearest_takes_closest() {
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 5.0, 100.0), worker(1, 1.0, 100.0)],
            vec![task(0, 0.0)],
        );
        let a = run(
            AlgorithmKind::GreedyNearest,
            &AssignInput::new(&inst, &ZeroInfluence),
        );
        assert_eq!(a.worker_of(TaskId::new(0)), Some(WorkerId::new(1)));
    }

    #[test]
    fn greedy_can_be_suboptimal_in_cardinality() {
        // t0 grabs the only worker that could serve t1.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 100.0), worker(1, 3.0, 0.5)],
            vec![task(0, 0.1), task(1, 10.0)],
        );
        let greedy = run(
            AlgorithmKind::GreedyNearest,
            &AssignInput::new(&inst, &ZeroInfluence),
        );
        let mta = run(AlgorithmKind::Mta, &AssignInput::new(&inst, &ZeroInfluence));
        assert_eq!(greedy.len(), 1, "greedy strands task 1");
        assert_eq!(mta.len(), 1, "worker 1 reaches nothing; max is still 1");
        // Now give worker 1 enough radius for t0 only.
        let inst2 = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 100.0), worker(1, 0.4, 0.5)],
            vec![task(0, 0.1), task(1, 10.0)],
        );
        let greedy2 = run(
            AlgorithmKind::GreedyNearest,
            &AssignInput::new(&inst2, &ZeroInfluence),
        );
        let mta2 = run(
            AlgorithmKind::Mta,
            &AssignInput::new(&inst2, &ZeroInfluence),
        );
        assert_eq!(mta2.len(), 2, "flow reroutes w0 to t1");
        assert!(greedy2.len() <= mta2.len());
    }

    #[test]
    fn running_example_shape() {
        // Figure 1: greedy assigns nearest (low influence), IA assigns
        // the influential worker despite distance.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(3, 0.2, 50.0), worker(4, 2.0, 50.0)],
            vec![task(4, 0.0)],
        );
        let oracle = InfluenceFn(|w: WorkerId, _t: &Task| match w.raw() {
            3 => 1.67,
            4 => 4.25,
            _ => 0.0,
        });
        let greedy = run(
            AlgorithmKind::GreedyNearest,
            &AssignInput::new(&inst, &oracle),
        );
        let ia = run(AlgorithmKind::Ia, &AssignInput::new(&inst, &oracle));
        assert_eq!(greedy.worker_of(TaskId::new(4)), Some(WorkerId::new(3)));
        assert_eq!(ia.worker_of(TaskId::new(4)), Some(WorkerId::new(4)));
        assert!(ia.total_influence() > greedy.total_influence());
    }

    #[test]
    fn all_algorithms_respect_at_most_once() {
        let (inst, table) = square();
        let oracle = InfluenceFn(table);
        let entropy = vec![0.5, 1.0];
        for kind in [
            AlgorithmKind::Mta,
            AlgorithmKind::Ia,
            AlgorithmKind::Eia,
            AlgorithmKind::Dia,
            AlgorithmKind::Mi,
            AlgorithmKind::GreedyNearest,
        ] {
            let input = AssignInput::new(&inst, &oracle).with_entropy(&entropy);
            let a = run(kind, &input);
            let mut workers: Vec<_> = a.pairs().iter().map(|p| p.worker).collect();
            let mut tasks: Vec<_> = a.pairs().iter().map(|p| p.task).collect();
            workers.sort();
            workers.dedup();
            tasks.sort();
            tasks.dedup();
            assert_eq!(workers.len(), a.len(), "{kind}: duplicate worker");
            assert_eq!(tasks.len(), a.len(), "{kind}: duplicate task");
        }
    }

    #[test]
    fn empty_instance_yields_empty_assignment() {
        let inst = Instance::new(TimeInstant::EPOCH, vec![], vec![]);
        for kind in AlgorithmKind::COMPARISON {
            let a = run(kind, &AssignInput::new(&inst, &ZeroInfluence));
            assert!(a.is_empty(), "{kind}");
        }
    }

    /// Every max-cardinality matching of `matrix` on the zero-influence
    /// plateau, with its exact cost `Σ (2³⁷ + tie_jitter(pi))` — what
    /// [`mcmf_assign`] gives each pair under [`CostModel::Influence`].
    /// Matchings are sorted `(worker_idx, task_idx)` lists.
    fn plateau_max_matchings(matrix: &EligibilityMatrix) -> Vec<(i64, Vec<(u32, u32)>)> {
        fn extend(
            matrix: &EligibilityMatrix,
            rows: &[Vec<usize>],
            w: usize,
            task_used: &mut [bool],
            picked: &mut Vec<usize>,
            out: &mut Vec<(i64, Vec<(u32, u32)>)>,
        ) {
            if w == rows.len() {
                let unit = (1.0 / COST_UNIT) as i64;
                let cost = picked.iter().map(|&pi| unit + tie_jitter(pi)).sum();
                let mut pairs: Vec<(u32, u32)> = picked
                    .iter()
                    .map(|&pi| (matrix.pairs()[pi].worker_idx, matrix.pairs()[pi].task_idx))
                    .collect();
                pairs.sort_unstable();
                out.push((cost, pairs));
                return;
            }
            extend(matrix, rows, w + 1, task_used, picked, out);
            for &pi in &rows[w] {
                let t = matrix.pairs()[pi].task_idx as usize;
                if !task_used[t] {
                    task_used[t] = true;
                    picked.push(pi);
                    extend(matrix, rows, w + 1, task_used, picked, out);
                    picked.pop();
                    task_used[t] = false;
                }
            }
        }
        let mut rows = vec![Vec::new(); matrix.n_workers()];
        for (pi, p) in matrix.pairs().iter().enumerate() {
            rows[p.worker_idx as usize].push(pi);
        }
        let mut all = Vec::new();
        let mut task_used = vec![false; matrix.n_tasks()];
        extend(matrix, &rows, 0, &mut task_used, &mut Vec::new(), &mut all);
        let max = all.iter().map(|(_, m)| m.len()).max().unwrap_or(0);
        all.retain(|(_, m)| m.len() == max);
        all
    }

    #[test]
    fn tie_jitter_makes_the_plateau_optimum_unique() {
        // Costs are exact integers, so `==` is the right test.
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(12);
        let mut instances = vec![Instance::new(
            TimeInstant::at(0, 0),
            (0..6).map(|w| worker(w, w as f64, 100.0)).collect(),
            (0..6).map(|t| task(t, t as f64 + 0.5)).collect(),
        )];
        for _ in 0..40 {
            let n_workers = rng.random_range(1..=6u32);
            let n_tasks = rng.random_range(1..=6u32);
            instances.push(Instance::new(
                TimeInstant::at(0, 0),
                (0..n_workers)
                    .map(|w| worker(w, rng.random_range(0.0..10.0), rng.random_range(1.0..6.0)))
                    .collect(),
                (0..n_tasks)
                    .map(|t| task(t, rng.random_range(0.0..10.0)))
                    .collect(),
            ));
        }
        for (case, inst) in instances.iter().enumerate() {
            let matrix = EligibilityMatrix::build(inst);
            let matchings = plateau_max_matchings(&matrix);
            let min = matchings.iter().map(|&(c, _)| c).min().unwrap();
            let optimal: Vec<&Vec<(u32, u32)>> = matchings
                .iter()
                .filter(|&&(c, _)| c == min)
                .map(|(_, m)| m)
                .collect();
            assert_eq!(optimal.len(), 1, "case {case}: {} optima", optimal.len());

            let input = AssignInput::new(inst, &ZeroInfluence);
            let influences = vec![0.0; matrix.n_pairs()];
            let a = run_scored(AlgorithmKind::Ia, &input, &matrix, &influences);
            let mut got: Vec<(u32, u32)> = a
                .pairs()
                .iter()
                .map(|p| (p.worker.raw(), p.task.raw()))
                .collect();
            got.sort_unstable();
            assert_eq!(&got, optimal[0], "case {case}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(AlgorithmKind::Mta.to_string(), "MTA");
        assert_eq!(AlgorithmKind::Eia.to_string(), "EIA");
        assert_eq!(AlgorithmKind::GreedyNearest.to_string(), "Greedy");
    }
}
