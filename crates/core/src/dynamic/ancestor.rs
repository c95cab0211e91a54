//! Dynamic nearest-marked-ancestor on a growing tree.
//!
//! The §6 dictionary layers reduce "longest pattern that is a prefix of this
//! prefix" to marked-ancestor queries on the pattern trie: pattern-end nodes
//! are marked, inserts add nodes and marks, deletes unmark. The paper cites
//! the Euler-tour-in-balanced-tree machinery of \[AFM92\]/\[PVW83\]; we
//! substitute heavy-path decomposition with per-path ordered mark sets and
//! periodic rebuilds (DESIGN.md §2) — same role, polylogarithmic queries and
//! updates, amortized rebuilds (which §6 already uses for its tables).
//!
//! * query: walk the path chain upward; on each path one predecessor search
//!   in its mark set — `O(log N)` paths after a rebuild (fresh single-node
//!   chains inserted since may add more; the doubling rebuild bounds the
//!   amortized cost);
//! * mark/unmark: one ordered-set update;
//! * rebuild: recompute heavy paths when the node count doubles.

use std::collections::BTreeSet;

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Path {
    nodes: Vec<u32>,
    /// Positions (indices into `nodes`) that are marked.
    marked: BTreeSet<u32>,
}

/// Growing rooted tree with dynamic marks and nearest-marked-ancestor
/// queries (ancestor-or-self).
#[derive(Debug)]
pub struct MarkedAncestorTree {
    parent: Vec<u32>,
    depth: Vec<u32>,
    children: Vec<u32>, // child count only (for path extension heuristics)
    marked: Vec<bool>,
    path_id: Vec<u32>,
    path_pos: Vec<u32>,
    paths: Vec<Path>,
    nodes_at_rebuild: usize,
    rebuilds: usize,
}

impl Default for MarkedAncestorTree {
    fn default() -> Self {
        Self::new()
    }
}

impl MarkedAncestorTree {
    /// A tree with a single unmarked root (node `0`).
    pub fn new() -> Self {
        MarkedAncestorTree {
            parent: vec![NIL],
            depth: vec![0],
            children: vec![0],
            marked: vec![false],
            path_id: vec![0],
            path_pos: vec![0],
            paths: vec![Path {
                nodes: vec![0],
                marked: BTreeSet::new(),
            }],
            nodes_at_rebuild: 1,
            rebuilds: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        false // the root always exists
    }

    pub fn root() -> u32 {
        0
    }

    pub fn depth(&self, v: u32) -> u32 {
        self.depth[v as usize]
    }

    pub fn parent(&self, v: u32) -> Option<u32> {
        let p = self.parent[v as usize];
        (p != NIL).then_some(p)
    }

    pub fn is_marked(&self, v: u32) -> bool {
        self.marked[v as usize]
    }

    /// Times the decomposition was rebuilt (diagnostics for E8).
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Add a child of `p`; returns the new node id.
    pub fn add_child(&mut self, p: u32) -> u32 {
        let v = self.parent.len() as u32;
        self.parent.push(p);
        self.depth.push(self.depth[p as usize] + 1);
        self.children.push(0);
        self.marked.push(false);
        self.children[p as usize] += 1;
        // Extend the parent's path when p is its tail and this is p's first
        // child — keeps freshly inserted pattern chains on one path.
        let pp = self.path_id[p as usize] as usize;
        if self.children[p as usize] == 1 && *self.paths[pp].nodes.last().unwrap() == p {
            self.path_id.push(pp as u32);
            self.path_pos.push(self.paths[pp].nodes.len() as u32);
            self.paths[pp].nodes.push(v);
        } else {
            let id = self.paths.len() as u32;
            self.paths.push(Path {
                nodes: vec![v],
                marked: BTreeSet::new(),
            });
            self.path_id.push(id);
            self.path_pos.push(0);
        }
        if self.parent.len() >= 2 * self.nodes_at_rebuild {
            self.rebuild();
        }
        v
    }

    /// Mark `v` (idempotent).
    pub fn mark(&mut self, v: u32) {
        if !self.marked[v as usize] {
            self.marked[v as usize] = true;
            let p = self.path_id[v as usize] as usize;
            self.paths[p].marked.insert(self.path_pos[v as usize]);
        }
    }

    /// Unmark `v` (idempotent).
    pub fn unmark(&mut self, v: u32) {
        if self.marked[v as usize] {
            self.marked[v as usize] = false;
            let p = self.path_id[v as usize] as usize;
            self.paths[p].marked.remove(&self.path_pos[v as usize]);
        }
    }

    /// Nearest marked node on the root path of `v`, including `v` itself.
    pub fn nearest_marked(&self, v: u32) -> Option<u32> {
        let mut v = v;
        loop {
            let p = &self.paths[self.path_id[v as usize] as usize];
            let pos = self.path_pos[v as usize];
            if let Some(&hit) = p.marked.range(..=pos).next_back() {
                return Some(p.nodes[hit as usize]);
            }
            let head = p.nodes[0];
            let up = self.parent[head as usize];
            if up == NIL {
                return None;
            }
            v = up;
        }
    }

    /// Recompute the heavy-path decomposition from scratch.
    fn rebuild(&mut self) {
        let n = self.parent.len();
        self.rebuilds += 1;
        self.nodes_at_rebuild = n;
        // Children lists.
        let mut child_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 1..n {
            child_lists[self.parent[v] as usize].push(v as u32);
        }
        // Subtree sizes, processing nodes in reverse insertion order works
        // because children always have larger ids than parents.
        let mut size = vec![1u32; n];
        for v in (1..n).rev() {
            size[self.parent[v] as usize] += size[v];
        }
        // Heavy paths: iterative DFS from the root, following max-size child.
        self.paths.clear();
        let mut stack = vec![0u32];
        let mut assigned = vec![false; n];
        while let Some(start) = stack.pop() {
            if assigned[start as usize] {
                continue;
            }
            let id = self.paths.len() as u32;
            let mut nodes = Vec::new();
            let mut v = start;
            loop {
                assigned[v as usize] = true;
                self.path_id[v as usize] = id;
                self.path_pos[v as usize] = nodes.len() as u32;
                nodes.push(v);
                // Heavy child continues the path; the rest start new ones.
                let kids = &child_lists[v as usize];
                if kids.is_empty() {
                    break;
                }
                let heavy = *kids.iter().max_by_key(|&&c| size[c as usize]).unwrap();
                for &c in kids {
                    if c != heavy {
                        stack.push(c);
                    }
                }
                v = heavy;
            }
            let marked = nodes
                .iter()
                .enumerate()
                .filter(|(_, &nd)| self.marked[nd as usize])
                .map(|(i, _)| i as u32)
                .collect();
            self.paths.push(Path { nodes, marked });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: walk parents checking marks.
    fn naive_nearest(t: &MarkedAncestorTree, mut v: u32) -> Option<u32> {
        loop {
            if t.is_marked(v) {
                return Some(v);
            }
            v = t.parent(v)?;
        }
    }

    #[test]
    fn chain_marks() {
        let mut t = MarkedAncestorTree::new();
        let mut v = 0;
        let mut chain = vec![0u32];
        for _ in 0..20 {
            v = t.add_child(v);
            chain.push(v);
        }
        assert_eq!(t.nearest_marked(v), None);
        t.mark(chain[5]);
        t.mark(chain[12]);
        assert_eq!(t.nearest_marked(chain[20]), Some(chain[12]));
        assert_eq!(t.nearest_marked(chain[12]), Some(chain[12]));
        assert_eq!(t.nearest_marked(chain[11]), Some(chain[5]));
        assert_eq!(t.nearest_marked(chain[4]), None);
        t.unmark(chain[12]);
        assert_eq!(t.nearest_marked(chain[20]), Some(chain[5]));
    }

    #[test]
    fn branching_tree_matches_naive() {
        // Deterministic pseudo-random tree + mark churn.
        let mut t = MarkedAncestorTree::new();
        let mut nodes = vec![0u32];
        let mut x = 12345u64;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..500 {
            let p = nodes[(rnd() % nodes.len() as u64) as usize];
            nodes.push(t.add_child(p));
        }
        for _ in 0..300 {
            let v = nodes[(rnd() % nodes.len() as u64) as usize];
            match rnd() % 3 {
                0 => t.mark(v),
                1 => t.unmark(v),
                _ => {}
            }
            let q = nodes[(rnd() % nodes.len() as u64) as usize];
            assert_eq!(t.nearest_marked(q), naive_nearest(&t, q));
        }
        assert!(t.rebuilds() > 0, "doubling rebuilds should have fired");
    }

    #[test]
    fn mark_unmark_idempotent() {
        let mut t = MarkedAncestorTree::new();
        let a = t.add_child(0);
        t.mark(a);
        t.mark(a);
        t.unmark(a);
        t.unmark(a);
        assert_eq!(t.nearest_marked(a), None);
        t.mark(a);
        assert_eq!(t.nearest_marked(a), Some(a));
    }

    #[test]
    fn root_can_be_marked() {
        let mut t = MarkedAncestorTree::new();
        let a = t.add_child(0);
        let b = t.add_child(a);
        t.mark(0);
        assert_eq!(t.nearest_marked(b), Some(0));
    }

    #[test]
    fn depths_track_parents() {
        let mut t = MarkedAncestorTree::new();
        let a = t.add_child(0);
        let b = t.add_child(a);
        let c = t.add_child(0);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(a), 1);
        assert_eq!(t.depth(b), 2);
        assert_eq!(t.depth(c), 1);
        assert_eq!(t.parent(b), Some(a));
        assert_eq!(t.parent(0), None);
    }

    #[test]
    fn queries_after_many_rebuilds() {
        let mut t = MarkedAncestorTree::new();
        let mut chain = vec![0u32];
        for i in 0..2000 {
            let v = t.add_child(*chain.last().unwrap());
            chain.push(v);
            if i % 97 == 0 {
                t.mark(v);
            }
        }
        for (i, &v) in chain.iter().enumerate().step_by(53) {
            assert_eq!(t.nearest_marked(v), naive_nearest(&t, v), "i={i}");
        }
    }
}
