//! Sparse rectangular assignment by shortest augmenting paths, on exact
//! integer costs.
//!
//! Paper Section IV-A asks for a maximum assignment of minimum total
//! cost: assign as many tasks as possible, and among those assignments
//! pick the cheapest. This module solves that problem directly on a
//! sparse cost matrix in CSR form (one row per worker, one column per
//! task), as a linear assignment problem of the Jonker–Volgenant
//! family:
//!
//! * **Unassigned columns.** Every row `i` gets one private extra
//!   column, "stay unassigned", of cost
//!   `D = min(rows, columns) · c_max + 1`. Any assignment of `k + 1`
//!   tasks then costs less than any assignment of `k` (it saves one `D`
//!   and adds at most `(k + 1) · c_max < D`), so "most tasks, then
//!   lowest cost" becomes an ordinary min-cost matching that matches
//!   every row.
//! * **One search per row.** Rows are added in order. Each runs one
//!   Dijkstra search over reduced costs `c_ij − u_i − v_j`, with a
//!   deterministic heap keyed `(distance, column)`, and stops at the
//!   first free column it settles. The LAPJV dual update
//!   `v_j += dist_j − dist_end` runs over the columns settled before
//!   it, which makes the path tight; the row then augments along the
//!   predecessor chain.
//! * **Exact integers.** Costs are `i64`, so ties are exact and no
//!   epsilon appears anywhere; [`verify`] checks the dual certificate
//!   with `==` and `≤`.
//!
//! Duals stay bounded: `0 ≤ u_i ≤ D + c_max` and `−D ≤ v_j ≤ 0`, so
//! every label stays below `3·D`; the solver checks once per solve
//! that `4·D` fits in `i64` (panicking with `lap: unassigned cost
//! overflows i64`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

const NONE: u32 = u32::MAX;

/// A sparse rectangular cost matrix in CSR form: row `i`'s entries are
/// `offsets[i]..offsets[i + 1]`, entry `e` links row `i` to column
/// `cols[e]` at cost `costs[e] ≥ 0`. A column appears at most once per
/// row.
#[derive(Debug, Clone, Copy)]
pub struct SparseCosts<'a> {
    /// Row starts into `cols`/`costs`: `n_rows + 1` entries, the first `0`.
    pub offsets: &'a [u32],
    /// Column of each entry, `< n_cols`.
    pub cols: &'a [u32],
    /// Non-negative cost of each entry.
    pub costs: &'a [i64],
    /// Number of (task) columns.
    pub n_cols: usize,
}

impl SparseCosts<'_> {
    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Entry index range of row `i`.
    #[inline]
    fn row(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }
}

/// The cost `D` of a row's private unassigned column:
/// `min(rows, columns) · c_max + 1`.
///
/// # Panics
///
/// Panics (`"lap: unassigned cost overflows i64"`) when `4·D` does not
/// fit in `i64`, the headroom the search's distances need.
pub(crate) fn unassigned_cost(p: &SparseCosts<'_>) -> i64 {
    let c_max = p.costs.iter().copied().max().unwrap_or(0);
    let d = i64::try_from(p.n_rows().min(p.n_cols))
        .ok()
        .and_then(|k| k.checked_mul(c_max))
        .and_then(|x| x.checked_add(1));
    match d {
        Some(d) if d.checked_mul(4).is_some() => d,
        _ => panic!("lap: unassigned cost overflows i64"),
    }
}

/// A solved assignment with its dual certificate.
#[derive(Debug, Clone)]
pub struct Matching {
    /// Per row, the entry it is matched through, or `None` when the row
    /// takes its own unassigned column.
    pub row_entry: Vec<Option<u32>>,
    /// Row duals `u`.
    pub u: Vec<i64>,
    /// Column duals `v`: the `n_cols` task columns, then one
    /// unassigned column per row.
    pub v: Vec<i64>,
    /// Rows matched to a task column.
    pub assigned: usize,
    /// Total cost of the matched task entries (unassigned columns
    /// excluded).
    pub cost: i64,
    /// Searches (one per row) that ended at a free task column, each
    /// assigning one more task.
    pub augmentations: usize,
}

/// Solver state over the extended problem: entries `0..m` are the
/// problem's, entry `m + i` is row `i`'s unassigned entry, in column
/// `n_cols + i` at cost `D`.
struct Solver<'p, 'a> {
    p: &'p SparseCosts<'a>,
    d_cost: i64,
    v: Vec<i64>,
    col_row: Vec<u32>,
    row_col: Vec<u32>,
    row_entry: Vec<u32>,
    dist: Vec<i64>,
    pred_row: Vec<u32>,
    pred_entry: Vec<u32>,
    /// Columns whose `dist` this search set (reset before the next).
    touched: Vec<u32>,
    /// Columns settled by this search, in settle order.
    settled: Vec<u32>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Tentative distance of the cheapest free column seen this search:
    /// nothing above it can settle before the search ends.
    ub: i64,
}

impl Solver<'_, '_> {
    #[inline]
    fn entry_col(&self, e: usize) -> usize {
        let m = self.p.cols.len();
        if e < m {
            self.p.cols[e] as usize
        } else {
            self.p.n_cols + (e - m)
        }
    }

    #[inline]
    fn entry_cost(&self, e: usize) -> i64 {
        self.p.costs.get(e).copied().unwrap_or(self.d_cost)
    }

    /// Row `r`'s entries, its unassigned entry last.
    #[inline]
    fn entries(&self, r: usize) -> impl Iterator<Item = usize> {
        self.p.row(r).chain([self.p.cols.len() + r])
    }

    /// Offers column `entry_col(e)` the label `nd`, reached from row `r`.
    #[inline]
    fn relax(&mut self, r: usize, e: usize, nd: i64) {
        let k = self.entry_col(e);
        if nd >= self.dist[k] || nd > self.ub {
            return;
        }
        if self.dist[k] == i64::MAX {
            self.touched.push(k as u32);
        }
        self.dist[k] = nd;
        self.pred_row[k] = r as u32;
        self.pred_entry[k] = e as u32;
        if self.col_row[k] == NONE {
            self.ub = nd;
        }
        self.heap.push(Reverse((nd, k as u32)));
    }

    /// One shortest-augmenting-path search from the free row `start`:
    /// returns the free column it ends at and that column's distance.
    fn search(&mut self, start: usize) -> (usize, i64) {
        for &j in &self.touched {
            self.dist[j as usize] = i64::MAX;
        }
        self.touched.clear();
        self.settled.clear();
        self.heap.clear();
        self.ub = i64::MAX;
        for e in self.entries(start) {
            let nd = self.entry_cost(e) - self.v[self.entry_col(e)];
            self.relax(start, e, nd);
        }
        loop {
            let Reverse((d, j)) = self
                .heap
                .pop()
                .expect("the start row's unassigned column is always reachable");
            let j = j as usize;
            if d > self.dist[j] {
                continue; // stale entry
            }
            if self.col_row[j] == NONE {
                return (j, d);
            }
            self.settled.push(j as u32);
            let r = self.col_row[j] as usize;
            // Row `r` is tight on its matched entry, `u_r = c − v_j`, so
            // the label through `r` to `k` is `d + c_rk − u_r − v_k`.
            let base = d - (self.entry_cost(self.row_entry[r] as usize) - self.v[j]);
            for e in self.entries(r) {
                let nd = base + self.entry_cost(e) - self.v[self.entry_col(e)];
                debug_assert!(nd >= d, "negative reduced cost");
                self.relax(r, e, nd);
            }
        }
    }
}

/// Solves the assignment problem: the maximum number of rows matched
/// to distinct task columns, and among those matchings one of minimum
/// total cost (see the module docs). A pure function of `p`.
///
/// # Panics
///
/// Panics on malformed input (misaligned slices, a negative cost, a
/// column out of range), and when the unassigned cost `D` leaves no
/// `4·D` headroom in `i64`.
pub fn solve(p: &SparseCosts<'_>) -> Matching {
    let n_rows = p.n_rows();
    let m = p.cols.len();
    assert_eq!(p.costs.len(), m, "cols and costs must align");
    assert_eq!(
        p.offsets.last().map_or(0, |&o| o as usize),
        m,
        "bad offsets"
    );
    assert!(
        p.costs.iter().all(|&c| c >= 0),
        "costs must be non-negative"
    );
    assert!(
        p.cols.iter().all(|&c| (c as usize) < p.n_cols),
        "column out of range"
    );
    let n_all = p.n_cols + n_rows;
    let mut s = Solver {
        p,
        d_cost: unassigned_cost(p),
        v: vec![0; n_all],
        col_row: vec![NONE; n_all],
        row_col: vec![NONE; n_rows],
        row_entry: vec![NONE; n_rows],
        dist: vec![i64::MAX; n_all],
        pred_row: vec![NONE; n_all],
        pred_entry: vec![NONE; n_all],
        touched: Vec::new(),
        settled: Vec::new(),
        heap: BinaryHeap::new(),
        ub: i64::MAX,
    };
    let mut augmentations = 0usize;
    for start in 0..n_rows {
        let (sink, dist_end) = s.search(start);
        for &j in &s.settled {
            let j = j as usize;
            s.v[j] += s.dist[j] - dist_end;
        }
        if sink < p.n_cols {
            augmentations += 1;
        }
        // Augment: each row on the chain moves to the column it
        // reached; the start row (free until now) ends the chain.
        let mut k = sink;
        loop {
            let r = s.pred_row[k] as usize;
            let prev = s.row_col[r];
            s.col_row[k] = r as u32;
            s.row_col[r] = k as u32;
            s.row_entry[r] = s.pred_entry[k];
            if r == start {
                break;
            }
            k = prev as usize;
        }
    }

    let mut u = vec![0i64; n_rows];
    let mut assigned = 0usize;
    let mut cost = 0i64;
    let mut row_entry = Vec::with_capacity(n_rows);
    for (i, &e) in s.row_entry.iter().enumerate() {
        let e = e as usize;
        u[i] = s.entry_cost(e) - s.v[s.entry_col(e)];
        row_entry.push((e < m).then(|| {
            assigned += 1;
            cost += p.costs[e];
            e as u32
        }));
    }
    Matching {
        row_entry,
        u,
        v: s.v,
        assigned,
        cost,
        augmentations,
    }
}

/// A violated certificate condition, with a human-readable diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateError(String);

impl std::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Certifies that `sol` is an optimal matching of `p` — independent of
/// how it was produced — by exact integer linear-programming duality
/// over the problem extended with the unassigned columns (cost `D`, see
/// the module docs). Checks, in order:
///
/// 1. **shape and totals** — one entry per row, each inside its own
///    row; `assigned` and `cost` match the matched entries;
/// 2. **a matching** — every row is matched, to a task column or to
///    its own unassigned column, and no task column twice;
/// 3. **dual feasibility** — `u_i + v_j ≤ c_ij` on every entry,
///    unassigned columns included, and `v_j ≤ 0` on every column;
/// 4. **complementary slackness** — `u_i + v_j = c_ij` on every
///    matched entry, and `v_j = 0` on every unmatched column.
///
/// Then for any other matching `y`,
/// `cost(y) ≥ Σu + Σ_{j∈y} v_j ≥ Σu + Σ_all v_j = cost(sol)`, so `sol`
/// is a min-cost matching of the extended problem, which by the choice
/// of `D` assigns the most tasks and then costs the least. `O(m)`, in
/// 128-bit arithmetic so tampered duals cannot overflow it.
pub fn verify(p: &SparseCosts<'_>, sol: &Matching) -> Result<(), CertificateError> {
    let fail = |msg: String| Err(CertificateError(msg));
    let n_rows = p.n_rows();
    let n_cols = p.n_cols;
    let d_cost = i128::from(unassigned_cost(p));
    if sol.row_entry.len() != n_rows || sol.u.len() != n_rows || sol.v.len() != n_cols + n_rows {
        return fail("solution shape does not match the problem".to_string());
    }

    // 1. + 2. A matching of every row; totals.
    let mut col_used = vec![false; n_cols + n_rows];
    let (mut assigned, mut cost) = (0usize, 0i64);
    for (i, &e) in sol.row_entry.iter().enumerate() {
        let col = match e {
            Some(e) => {
                let e = e as usize;
                if !p.row(i).contains(&e) {
                    return fail(format!("row {i}: entry {e} is not in the row"));
                }
                assigned += 1;
                cost += p.costs[e];
                p.cols[e] as usize
            }
            None => n_cols + i,
        };
        if std::mem::replace(&mut col_used[col], true) {
            return fail(format!("column {col} is matched twice"));
        }
    }
    if assigned != sol.assigned || cost != sol.cost {
        return fail(format!(
            "totals: entries give {assigned} assigned at cost {cost}, solution reports {} at {}",
            sol.assigned, sol.cost
        ));
    }

    // 3. + 4. Column signs and slackness.
    for (j, (&v, &used)) in sol.v.iter().zip(&col_used).enumerate() {
        if v > 0 || (!used && v != 0) {
            return fail(format!(
                "column {j} (matched: {used}) has dual {v}: want ≤ 0, and 0 when unmatched"
            ));
        }
    }
    for i in 0..n_rows {
        let u = i128::from(sol.u[i]);
        let edges = p
            .row(i)
            .map(|e| (Some(e as u32), p.cols[e] as usize, i128::from(p.costs[e])))
            .chain([(None, n_cols + i, d_cost)]);
        for (e, col, c) in edges {
            let lhs = u + i128::from(sol.v[col]);
            if lhs > c {
                return fail(format!("row {i}, column {col}: u + v = {lhs} > cost {c}"));
            }
            if e == sol.row_entry[i] && lhs != c {
                return fail(format!(
                    "row {i}, column {col}: matched but u + v = {lhs} ≠ cost {c}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A problem built from `(row, col, cost)` triples sorted by row.
    struct Owned {
        offsets: Vec<u32>,
        cols: Vec<u32>,
        costs: Vec<i64>,
        n_cols: usize,
    }

    impl Owned {
        fn new(n_rows: usize, n_cols: usize, edges: &[(usize, usize, i64)]) -> Self {
            let mut offsets = vec![0u32; n_rows + 1];
            for &(r, _, _) in edges {
                offsets[r + 1] += 1;
            }
            for r in 0..n_rows {
                offsets[r + 1] += offsets[r];
            }
            Owned {
                offsets,
                cols: edges.iter().map(|&(_, c, _)| c as u32).collect(),
                costs: edges.iter().map(|&(_, _, c)| c).collect(),
                n_cols,
            }
        }

        fn costs(&self) -> SparseCosts<'_> {
            SparseCosts {
                offsets: &self.offsets,
                cols: &self.cols,
                costs: &self.costs,
                n_cols: self.n_cols,
            }
        }
    }

    /// Solves and checks the certificate.
    fn solved(o: &Owned) -> Matching {
        let sol = solve(&o.costs());
        verify(&o.costs(), &sol).unwrap_or_else(|e| panic!("certificate: {e}"));
        sol
    }

    /// `(row, column)` of every matched row.
    fn pairs(o: &Owned, sol: &Matching) -> Vec<(usize, usize)> {
        sol.row_entry
            .iter()
            .enumerate()
            .filter_map(|(r, e)| e.map(|e| (r, o.cols[e as usize] as usize)))
            .collect()
    }

    #[test]
    fn cardinality_beats_cost() {
        // Rows 0, 1; columns 0, 1. Row 0 reaches both, row 1 only
        // column 0: two assignments force row 0 onto the dearer column.
        let o = Owned::new(2, 2, &[(0, 0, 1), (0, 1, 9), (1, 0, 2)]);
        let sol = solved(&o);
        assert_eq!(pairs(&o, &sol), vec![(0, 1), (1, 0)]);
        assert_eq!((sol.assigned, sol.cost), (2, 11));
    }

    #[test]
    fn a_later_cheaper_row_displaces_an_earlier_one() {
        // Rows A then B both reach only column T; B's pair is cheaper.
        // A single-row search that stopped at A's match would keep A;
        // the unassigned columns make B's search weigh A's unassigned
        // cost against its own, so B takes T.
        let o = Owned::new(2, 1, &[(0, 0, 5), (1, 0, 3)]);
        let sol = solved(&o);
        assert_eq!(sol.row_entry, vec![None, Some(1)]);
        assert_eq!((sol.assigned, sol.cost), (1, 3));
        assert_eq!(sol.augmentations, 1);
    }

    #[test]
    fn displacing_yields_to_cardinality() {
        // As above, but B also reaches T2, which nobody else does, at
        // the highest cost. Two assignments beat B's cheap claim on T:
        // A → T, B → T2. With `D = c_max` instead of
        // `min(rows, cols) · c_max + 1`, dropping A (D + 1 = 10) would
        // undercut the full matching (5 + 9 = 14).
        let o = Owned::new(2, 2, &[(0, 0, 5), (1, 0, 1), (1, 1, 9)]);
        let sol = solved(&o);
        assert_eq!(pairs(&o, &sol), vec![(0, 0), (1, 1)]);
        assert_eq!((sol.assigned, sol.cost), (2, 14));
    }

    #[test]
    fn rows_without_entries_stay_unassigned() {
        // Three rows, one column; rows 1 and 2 have no entry at all.
        let o = Owned::new(3, 1, &[(0, 0, 7)]);
        let sol = solved(&o);
        assert_eq!(sol.row_entry, vec![Some(0), None, None]);
        assert_eq!(sol.augmentations, 1);
    }

    #[test]
    fn empty_problems() {
        let o = Owned::new(0, 0, &[]);
        let sol = solved(&o);
        assert_eq!((sol.assigned, sol.cost), (0, 0));
        let o = Owned::new(3, 4, &[]);
        let sol = solved(&o);
        assert_eq!(sol.row_entry, vec![None; 3]);
    }

    #[test]
    fn unassigned_cost_is_min_side_times_max_cost_plus_one() {
        let o = Owned::new(3, 2, &[(0, 0, 4), (1, 1, 9), (2, 0, 1)]);
        assert_eq!(unassigned_cost(&o.costs()), 2 * 9 + 1);
        assert_eq!(unassigned_cost(&Owned::new(2, 2, &[]).costs()), 1);
    }

    #[test]
    #[should_panic(expected = "lap: unassigned cost overflows i64")]
    fn unassigned_cost_overflow_is_named() {
        let o = Owned::new(2, 2, &[(0, 0, i64::MAX / 4), (1, 1, 1)]);
        unassigned_cost(&o.costs());
    }

    #[test]
    fn verify_rejects_tampered_duals() {
        let o = Owned::new(2, 2, &[(0, 0, 1), (0, 1, 9), (1, 0, 2)]);
        let sol = solved(&o);
        // Raising a row dual breaks feasibility on its matched entry.
        let mut bad = sol.clone();
        bad.u[0] += 1;
        assert!(verify(&o.costs(), &bad).is_err());
        // Lowering it breaks slackness on the matched entry.
        let mut bad = sol.clone();
        bad.u[1] -= 1;
        assert!(verify(&o.costs(), &bad).is_err());
        // An unmatched column must keep a zero dual...
        let unmatched = 2; // row 0's unassigned column
        let mut bad = sol.clone();
        bad.v[unmatched] = -1;
        assert!(verify(&o.costs(), &bad).is_err());
        // ...and no column may go positive.
        let mut bad = sol.clone();
        bad.v[0] += 1;
        bad.u[1] -= 1;
        assert!(verify(&o.costs(), &bad).is_err());
    }

    #[test]
    fn verify_rejects_a_suboptimal_matching() {
        // Row 0 alone, columns 0 (cost 1) and 1 (cost 5). Matching the
        // dearer column admits no duals: tight there means u + v₁ = 5,
        // and v₀ = 0 (unmatched) makes u + v₀ ≤ 1 fail for any v₁ ≤ 0.
        let o = Owned::new(1, 2, &[(0, 0, 1), (0, 1, 5)]);
        let good = solved(&o);
        assert_eq!(good.row_entry, vec![Some(0)]);
        for u in [1, 5] {
            let bad = Matching {
                row_entry: vec![Some(1)],
                u: vec![u],
                v: vec![0, 5 - u, 0],
                assigned: 1,
                cost: 5,
                ..good.clone()
            };
            assert!(verify(&o.costs(), &bad).is_err(), "u = {u}");
        }
        // Leaving the row unassigned is suboptimal too.
        let d = unassigned_cost(&o.costs());
        let bad = Matching {
            row_entry: vec![None],
            u: vec![d],
            v: vec![0, 0, 0],
            assigned: 0,
            cost: 0,
            ..good
        };
        assert!(verify(&o.costs(), &bad).is_err());
    }

    #[test]
    fn verify_rejects_wrong_totals_and_double_use() {
        let o = Owned::new(2, 1, &[(0, 0, 5), (1, 0, 3)]);
        let sol = solved(&o);
        let mut bad = sol.clone();
        bad.cost += 1;
        assert!(verify(&o.costs(), &bad).is_err());
        let mut bad = sol.clone();
        bad.row_entry = vec![Some(0), Some(1)];
        bad.assigned = 2;
        bad.cost = 8;
        assert!(verify(&o.costs(), &bad).is_err());
    }
}
