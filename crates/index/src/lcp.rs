//! LCP array construction: blocked-parallel Kasai.
//!
//! `lcp[r]` is the length of the longest common prefix of the suffixes at
//! `sa[r-1]` and `sa[r]` (`lcp[0] = 0`). Kasai's algorithm walks text
//! positions in order, maintaining the invariant `plcp[i] ≥ plcp[i-1] − 1`
//! so the per-position extension loop amortizes to `O(n)` — but that
//! running `h` makes it sequential. The parallel variant here splits the
//! position range into per-task blocks: each block restarts `h` at 0 (a
//! valid, merely weaker, lower bound — correctness is untouched) and runs
//! Kasai within the block. Worst-case work grows by one full comparison per
//! block; with blocks of `n / p` positions that is `O(n + p · maxlcp)` —
//! indistinguishable from `O(n)` at realistic widths.

use pdm_pram::Ctx;
use rayon::prelude::*;

/// Build the LCP array for `text` and its suffix array `sa`.
pub fn build_lcp(ctx: &Ctx, text: &[u32], sa: &[u32]) -> Vec<u32> {
    let n = sa.len();
    debug_assert_eq!(text.len(), n);
    if n == 0 {
        return Vec::new();
    }
    // Inverse permutation: rank[i] = r with sa[r] = i.
    let mut rank = vec![0u32; n];
    {
        let rank_ptr = SendPtr(rank.as_mut_ptr());
        ctx.for_each(n, |r| {
            #[allow(clippy::redundant_locals)]
            let rank_ptr = rank_ptr;
            // SAFETY: `sa` is a permutation, so writes are disjoint.
            unsafe { *rank_ptr.0.add(sa[r] as usize) = r as u32 };
        });
    }

    let threads = if ctx.is_parallel() {
        ctx.exec.threads().max(1)
    } else {
        1
    };
    let block = n.div_ceil(threads).max(4096);
    let nblocks = n.div_ceil(block);
    let mut lcp = vec![0u32; n];
    ctx.cost.round(n as u64);
    {
        let lcp_ptr = SendPtr(lcp.as_mut_ptr());
        ctx.install(|| {
            (0..nblocks).into_par_iter().for_each(|b| {
                #[allow(clippy::redundant_locals)]
                let lcp_ptr = lcp_ptr;
                let lo = b * block;
                let hi = (lo + block).min(n);
                let mut h = 0usize;
                for i in lo..hi {
                    let r = rank[i] as usize;
                    if r == 0 {
                        h = 0;
                        continue;
                    }
                    let j = sa[r - 1] as usize;
                    while i + h < n && j + h < n && text[i + h] == text[j + h] {
                        h += 1;
                    }
                    // SAFETY: each text position i owns exactly one output
                    // slot (rank is a permutation), so writes are disjoint.
                    unsafe { *lcp_ptr.0.add(r) = h as u32 };
                    h = h.saturating_sub(1);
                }
            });
        });
    }
    lcp
}

/// A `u32` output slot base shared by the pool tasks of [`build_lcp`].
#[derive(Clone, Copy)]
struct SendPtr(*mut u32);
// SAFETY: the pointer is only written through, at slots that each write
// site proves disjoint across tasks, while the owning `Vec` outlives them.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::build_suffix_array;

    fn naive_lcp(a: &[u32], b: &[u32]) -> u32 {
        a.iter().zip(b).take_while(|(x, y)| x == y).count() as u32
    }

    #[test]
    fn matches_naive_adjacent_lcp() {
        let mut x = 99u64;
        for ctx in [Ctx::seq(), Ctx::with_threads(2), Ctx::with_threads(4)] {
            for (n, sigma) in [(0usize, 2u64), (1, 2), (500, 2), (1200, 26)] {
                let t: Vec<u32> = (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % sigma) as u32
                    })
                    .collect();
                let sa = build_suffix_array(&ctx, &t);
                let lcp = build_lcp(&ctx, &t, &sa);
                assert_eq!(lcp.len(), n);
                for r in 1..n {
                    assert_eq!(
                        lcp[r],
                        naive_lcp(&t[sa[r - 1] as usize..], &t[sa[r] as usize..]),
                        "r={r} n={n} σ={sigma}"
                    );
                }
                if n > 0 {
                    assert_eq!(lcp[0], 0);
                }
            }
        }
    }
}
