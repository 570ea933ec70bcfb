//! Dinic's max-flow algorithm.
//!
//! The maximum flow of a unit-capacity assignment network is the
//! maximum number of assignable tasks. The test suites use this solver
//! as an independent cardinality oracle for [`crate::HopcroftKarp`]
//! (the MTA baseline's solver) and [`crate::lap`] (the influence-aware
//! algorithms').

use std::collections::VecDeque;

/// Dinic max-flow over integer capacities.
#[derive(Debug, Clone)]
pub struct Dinic {
    // Edge arrays: to[e], cap[e]; edge e^1 is the reverse of e.
    to: Vec<u32>,
    cap: Vec<i64>,
    head: Vec<Vec<u32>>,
    n: usize,
}

impl Dinic {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Dinic {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
            n,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Adds a directed edge `u → v` with capacity `cap`; returns the edge
    /// id usable with [`Dinic::flow_on`].
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64) -> usize {
        assert!(u < self.n && v < self.n, "node out of range");
        assert!(cap >= 0, "capacity must be non-negative");
        let id = self.to.len();
        self.to.push(v as u32);
        self.cap.push(cap);
        self.head[u].push(id as u32);
        self.to.push(u as u32);
        self.cap.push(0);
        self.head[v].push(id as u32 + 1);
        id
    }

    /// Flow currently routed through edge `id` (residual of the reverse).
    pub fn flow_on(&self, id: usize) -> i64 {
        self.cap[id ^ 1]
    }

    fn bfs_levels(&self, s: usize, t: usize) -> Option<Vec<i32>> {
        let mut level = vec![-1i32; self.n];
        let mut queue = VecDeque::new();
        level[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &e in &self.head[u] {
                let v = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && level[v] < 0 {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        (level[t] >= 0).then_some(level)
    }

    fn dfs_augment(
        &mut self,
        u: usize,
        t: usize,
        pushed: i64,
        level: &[i32],
        iter: &mut [usize],
    ) -> i64 {
        if u == t {
            return pushed;
        }
        while iter[u] < self.head[u].len() {
            let e = self.head[u][iter[u]] as usize;
            let v = self.to[e] as usize;
            if self.cap[e] > 0 && level[v] == level[u] + 1 {
                let d = self.dfs_augment(v, t, pushed.min(self.cap[e]), level, iter);
                if d > 0 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// Computes the maximum flow from `s` to `t`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        assert!(s < self.n && t < self.n, "node out of range");
        if s == t {
            return 0;
        }
        let mut flow = 0;
        while let Some(level) = self.bfs_levels(s, t) {
            let mut iter = vec![0usize; self.n];
            loop {
                let pushed = self.dfs_augment(s, t, i64::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_network() {
        // CLRS-style example with max flow 23.
        let mut d = Dinic::new(6);
        d.add_edge(0, 1, 16);
        d.add_edge(0, 2, 13);
        d.add_edge(1, 2, 10);
        d.add_edge(2, 1, 4);
        d.add_edge(1, 3, 12);
        d.add_edge(3, 2, 9);
        d.add_edge(2, 4, 14);
        d.add_edge(4, 3, 7);
        d.add_edge(3, 5, 20);
        d.add_edge(4, 5, 4);
        assert_eq!(d.max_flow(0, 5), 23);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 5);
        d.add_edge(2, 3, 5);
        assert_eq!(d.max_flow(0, 3), 0);
    }

    #[test]
    fn parallel_paths_add_up() {
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 3);
        d.add_edge(1, 3, 3);
        d.add_edge(0, 2, 4);
        d.add_edge(2, 3, 4);
        assert_eq!(d.max_flow(0, 3), 7);
    }

    #[test]
    fn bottleneck_limits_flow() {
        let mut d = Dinic::new(3);
        d.add_edge(0, 1, 100);
        d.add_edge(1, 2, 1);
        assert_eq!(d.max_flow(0, 2), 1);
    }

    #[test]
    fn flow_on_reports_per_edge_flow() {
        let mut d = Dinic::new(3);
        let e1 = d.add_edge(0, 1, 5);
        let e2 = d.add_edge(1, 2, 3);
        assert_eq!(d.max_flow(0, 2), 3);
        assert_eq!(d.flow_on(e1), 3);
        assert_eq!(d.flow_on(e2), 3);
    }

    #[test]
    fn bipartite_unit_matching() {
        // 2 left, 2 right; left0 -> right0/right1, left1 -> right0.
        // Max matching is 2.
        let (s, l0, l1, r0, r1, t) = (0, 1, 2, 3, 4, 5);
        let mut d = Dinic::new(6);
        d.add_edge(s, l0, 1);
        d.add_edge(s, l1, 1);
        d.add_edge(l0, r0, 1);
        d.add_edge(l0, r1, 1);
        d.add_edge(l1, r0, 1);
        d.add_edge(r0, t, 1);
        d.add_edge(r1, t, 1);
        assert_eq!(d.max_flow(s, t), 2);
    }

    #[test]
    fn self_source_sink() {
        let mut d = Dinic::new(2);
        d.add_edge(0, 1, 1);
        assert_eq!(d.max_flow(0, 0), 0);
    }

    #[test]
    fn rerouting_through_residual_edges() {
        // Flow must back off a greedy first path to reach optimum.
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 1);
        d.add_edge(0, 2, 1);
        d.add_edge(1, 2, 1);
        d.add_edge(1, 3, 1);
        d.add_edge(2, 3, 1);
        assert_eq!(d.max_flow(0, 3), 2);
    }
}
