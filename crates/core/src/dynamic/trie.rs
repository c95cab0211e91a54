//! The pattern trie of §6: one node per live dictionary prefix, marked at
//! pattern ends, with nearest-marked-ancestor queries answering "longest
//! pattern that is a prefix of this prefix".
//!
//! The trie is *append-only* between rebuilds (the paper likewise only
//! "marks" deleted patterns and squeezes them out during rebuilds); deletes
//! just unmark.

use crate::dict::{PatId, Sym};
use crate::dynamic::ancestor::MarkedAncestorTree;
use pdm_primitives::FxHashMap;

/// Pattern trie with dynamic marks.
#[derive(Debug, Default)]
pub struct PatternTrie {
    tree: MarkedAncestorTree,
    /// `(node, symbol) → child`.
    child: FxHashMap<(u32, Sym), u32>,
    /// Pattern id marked at each node (parallel to tree marks).
    pattern_at: FxHashMap<u32, PatId>,
}

impl PatternTrie {
    pub fn new() -> Self {
        PatternTrie {
            tree: MarkedAncestorTree::new(),
            child: FxHashMap::default(),
            pattern_at: FxHashMap::default(),
        }
    }

    pub fn nodes(&self) -> usize {
        self.tree.len()
    }

    /// Walk/extend the trie along `pattern`; returns the node per position
    /// (node for prefix length `ℓ` at index `ℓ-1`).
    pub fn insert_path(&mut self, pattern: &[Sym]) -> Vec<u32> {
        let mut v = MarkedAncestorTree::root();
        let mut out = Vec::with_capacity(pattern.len());
        for &c in pattern {
            v = match self.child.get(&(v, c)) {
                Some(&u) => u,
                None => {
                    let u = self.tree.add_child(v);
                    self.child.insert((v, c), u);
                    u
                }
            };
            out.push(v);
        }
        out
    }

    /// Node for `pattern` if every prefix exists (no insertion).
    pub fn find(&self, pattern: &[Sym]) -> Option<u32> {
        let mut v = MarkedAncestorTree::root();
        for &c in pattern {
            v = *self.child.get(&(v, c))?;
        }
        Some(v)
    }

    /// Mark `node` as the end of pattern `pid`.
    pub fn mark(&mut self, node: u32, pid: PatId) {
        self.tree.mark(node);
        self.pattern_at.insert(node, pid);
    }

    /// Remove the pattern mark at `node`; returns the pattern that was there.
    pub fn unmark(&mut self, node: u32) -> Option<PatId> {
        self.tree.unmark(node);
        self.pattern_at.remove(&node)
    }

    /// Pattern marked exactly at `node`.
    pub fn pattern_at(&self, node: u32) -> Option<PatId> {
        self.pattern_at.get(&node).copied()
    }

    /// Longest marked prefix at or above `node`: `(pattern, length)`.
    pub fn longest_pattern_prefix(&self, node: u32) -> Option<(PatId, u32)> {
        let hit = self.tree.nearest_marked(node)?;
        let pid = *self
            .pattern_at
            .get(&hit)
            .expect("marked nodes carry patterns");
        Some((pid, self.tree.depth(hit)))
    }

    pub fn depth(&self, node: u32) -> u32 {
        self.tree.depth(node)
    }

    /// Parent of `node` (`None` for the root). Nodes are numbered in
    /// creation order, so a parent's id is always below its children's.
    pub fn parent(&self, node: u32) -> Option<u32> {
        self.tree.parent(node)
    }

    /// Every marked node with its pattern, unordered.
    pub fn marks(&self) -> impl Iterator<Item = (u32, PatId)> + '_ {
        self.pattern_at.iter().map(|(&node, &pid)| (node, pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::to_symbols;

    #[test]
    fn insert_and_find() {
        let mut t = PatternTrie::new();
        let path = t.insert_path(&to_symbols("abc"));
        assert_eq!(path.len(), 3);
        assert_eq!(t.find(&to_symbols("abc")), Some(path[2]));
        assert_eq!(t.find(&to_symbols("ab")), Some(path[1]));
        assert_eq!(t.find(&to_symbols("abd")), None);
        // Shared prefixes reuse nodes.
        let path2 = t.insert_path(&to_symbols("abd"));
        assert_eq!(path2[0], path[0]);
        assert_eq!(path2[1], path[1]);
        assert_ne!(path2[2], path[2]);
        assert_eq!(t.nodes(), 1 + 4);
    }

    #[test]
    fn longest_pattern_prefix_queries() {
        let mut t = PatternTrie::new();
        let ab = t.insert_path(&to_symbols("ab"));
        let abcd = t.insert_path(&to_symbols("abcd"));
        t.mark(ab[1], 0); // "ab" is pattern 0
        t.mark(abcd[3], 1); // "abcd" is pattern 1
                            // At "abc": longest marked prefix is "ab".
        assert_eq!(t.longest_pattern_prefix(abcd[2]), Some((0, 2)));
        // At "abcd": itself.
        assert_eq!(t.longest_pattern_prefix(abcd[3]), Some((1, 4)));
        // Delete "ab": "abc" now has no pattern prefix.
        assert_eq!(t.unmark(ab[1]), Some(0));
        assert_eq!(t.longest_pattern_prefix(abcd[2]), None);
        assert_eq!(t.longest_pattern_prefix(abcd[3]), Some((1, 4)));
    }

    #[test]
    fn unmark_absent_is_none() {
        let mut t = PatternTrie::new();
        let p = t.insert_path(&to_symbols("x"));
        assert_eq!(t.unmark(p[0]), None);
    }
}
