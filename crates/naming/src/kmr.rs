//! Block names by doubling (Karp–Miller–Rosenberg).
//!
//! `name_k(i)` names the substring `s[i .. i+2^k]`. Level 0 names single
//! symbols through the matcher's symbol table; level `k` names come from
//! `δ(name_{k−1}(i), name_{k−1}(i + 2^{k−1}))`.
//!
//! Two access patterns correspond to the two halves of shrink-and-spawn:
//!
//! * **Dictionary (shrink):** only block-aligned positions are needed —
//!   `i ≡ 0 (mod 2^k)` — because the shrunk pattern at level `k` is exactly
//!   the sequence of its aligned block names. `Σ_k len/2^k = O(len)` names
//!   per string ([`aligned_block_names`]).
//! * **Text (spawn):** *every* position is needed — the level-`k` names at
//!   offsets `i, i+2^k, i+2^k·2, …` for each `i < 2^k` are the `2^k` spawned
//!   copies. `O(n)` names per level, `O(n log m)` overall, matching the
//!   text-side work bound of Theorem 1. The text side lives in
//!   `pdm_core::static1d::prefix_match` (the ascent), which names blocks
//!   the dictionary never saw with a single sentinel instead of fresh
//!   text-local names.

use crate::arena::NameTable;

/// Aligned block names of a dictionary string.
///
/// `blocks[k][b]` names `s[b·2^k .. (b+1)·2^k]`, for `0 ≤ k ≤ levels` and
/// all `b` with `(b+1)·2^k ≤ s.len()`. `blocks[0]` is the symbol naming of
/// every position.
pub fn aligned_block_names(
    s: &[u32],
    levels: usize,
    sym: &NameTable,
    pair: &[NameTable],
) -> Vec<Vec<u32>> {
    assert!(pair.len() >= levels, "need one pair table per level");
    let mut blocks: Vec<Vec<u32>> = Vec::with_capacity(levels + 1);
    blocks.push(s.iter().map(|&c| sym.name(c, 0)).collect());
    for k in 1..=levels {
        let prev = &blocks[k - 1];
        let cnt = prev.len() / 2;
        let t = &pair[k - 1];
        let cur: Vec<u32> = (0..cnt)
            .map(|b| t.name(prev[2 * b], prev[2 * b + 1]))
            .collect();
        blocks.push(cur);
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{NamePool, NameTable};

    fn setup(levels: usize) -> (NameTable, Vec<NameTable>) {
        let pool = NamePool::dictionary();
        let sym = NameTable::with_capacity(1024, pool.clone());
        let pair = (0..levels)
            .map(|_| NameTable::with_capacity(4096, pool.clone()))
            .collect();
        (sym, pair)
    }

    #[test]
    fn aligned_names_identify_equal_blocks() {
        let (sym, pair) = setup(3);
        let s1: Vec<u32> = vec![1, 2, 3, 4, 1, 2, 3, 4];
        let s2: Vec<u32> = vec![1, 2, 3, 4, 9, 9, 9, 9];
        let b1 = aligned_block_names(&s1, 3, &sym, &pair);
        let b2 = aligned_block_names(&s2, 3, &sym, &pair);
        // Level 2 blocks: s1 = [1234][1234], s2 = [1234][9999].
        assert_eq!(b1[2][0], b1[2][1]);
        assert_eq!(b1[2][0], b2[2][0]);
        assert_ne!(b2[2][0], b2[2][1]);
        // Level 3 (whole string) differs.
        assert_ne!(b1[3][0], b2[3][0]);
        // Counts: floor(len / 2^k).
        assert_eq!(b1[0].len(), 8);
        assert_eq!(b1[1].len(), 4);
        assert_eq!(b1[2].len(), 2);
        assert_eq!(b1[3].len(), 1);
    }

    #[test]
    fn aligned_names_with_residue_lengths() {
        let (sym, pair) = setup(2);
        let s: Vec<u32> = vec![5, 6, 7, 8, 9]; // len 5: residues ignored per §3.1
        let b = aligned_block_names(&s, 2, &sym, &pair);
        assert_eq!(b[0].len(), 5);
        assert_eq!(b[1].len(), 2);
        assert_eq!(b[2].len(), 1);
    }
}
