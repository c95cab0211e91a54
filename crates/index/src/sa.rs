//! Suffix-array construction by induced sorting (SA-IS, Nong–Zhang–Chan
//! 2009).
//!
//! Every suffix is **S-type** (smaller than the suffix after it) or
//! **L-type** (larger); an S-type suffix whose left neighbour is L-type is
//! a **leftmost-S (LMS)** suffix. Once the LMS suffixes are in order, one
//! left-to-right pass over the buckets places every L-type suffix behind
//! the suffix one position to its right, and one right-to-left pass places
//! every S-type suffix the same way (*induced sorting*). Ordering the LMS
//! suffixes is the same problem on a string at most half as long: sort the
//! LMS *substrings* by one induced pass, name them in that order, and
//! recurse on the string of names. The whole construction is `O(n)` work,
//! whatever the repeat structure of the text: long copied segments cost
//! nothing extra.
//!
//! The sentinel is virtual: the text carries no terminator, and a suffix
//! that is a prefix of another sorts first, so suffix `n − 1` is L-type.
//!
//! Memory: the result and every work array hold `u32`. The reduced string
//! and its suffix array live in the two halves of the caller's output
//! array, so the only other allocations are the S/L bit vector and the
//! bucket arrays of each level (of size σ, or the number of distinct LMS
//! substrings when recursing).
//!
//! The build is sequential: `O(n)` steps, each depending on the previous,
//! so it charges `n` rounds of one operation each to the [`Ctx`] cost
//! model.

use pdm_pram::Ctx;

/// An unfilled suffix-array slot during induced sorting. No position or
/// name reaches it, because texts are shorter than `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// Build the suffix array of `text`: `sa[r]` is the start of the `r`-th
/// smallest suffix. Shorter suffixes that are prefixes of longer ones sort
/// first.
///
/// Symbols index the buckets directly unless the largest one is at least
/// `max(n, 256)`; then they are first compacted to their ranks.
///
/// # Panics
///
/// If `text.len() >= u32::MAX`: positions are stored as `u32`.
pub fn build_suffix_array(ctx: &Ctx, text: &[u32]) -> Vec<u32> {
    let n = text.len();
    assert!(
        n < u32::MAX as usize,
        "suffix arrays store u32 positions: text of {n} symbols must be shorter than u32::MAX"
    );
    ctx.cost.rounds(n as u64, n as u64);
    let mut sa = vec![0u32; n];
    let max = text.iter().copied().max().unwrap_or(0) as usize;
    if max >= n.max(256) {
        let (compact, sigma) = compact_alphabet(text);
        sais(&compact, &mut sa, sigma);
    } else {
        sais(text, &mut sa, max + 1);
    }
    sa
}

/// Replace each symbol by its rank among the distinct symbols of `text`.
/// Returns the compacted text and the number of distinct symbols.
fn compact_alphabet(text: &[u32]) -> (Vec<u32>, usize) {
    let mut syms = text.to_vec();
    syms.sort_unstable();
    syms.dedup();
    let compact = text
        .iter()
        .map(|c| syms.binary_search(c).expect("symbol of text") as u32)
        .collect();
    (compact, syms.len())
}

/// Write the suffix array of `s` (symbols in `0..k`) into `sa`, which has
/// the length of `s`. Returns the number of levels used, counting this one
/// (1 when the LMS substrings are already distinct).
fn sais(s: &[u32], sa: &mut [u32], k: usize) -> usize {
    let n = s.len();
    debug_assert_eq!(sa.len(), n);
    if n <= 1 {
        sa.fill(0);
        return 1;
    }
    let types = Types::classify(s);
    // starts[c] = first slot of bucket c; starts[k] = n.
    let mut starts = vec![0u32; k + 1];
    for &c in s {
        starts[c as usize + 1] += 1;
    }
    for c in 0..k {
        starts[c + 1] += starts[c];
    }
    let mut ptr = vec![0u32; k];

    // Stage 1: seed the LMS suffixes at their bucket tails, in any order;
    // one induced pass sorts the LMS substrings.
    sa.fill(EMPTY);
    ptr.copy_from_slice(&starts[1..]);
    for (i, &c) in s.iter().enumerate().skip(1) {
        if types.is_lms(i) {
            let c = c as usize;
            ptr[c] -= 1;
            sa[ptr[c] as usize] = i as u32;
        }
    }
    induce(s, sa, &types, &starts, &mut ptr);

    // Pack the sorted LMS positions into sa[..n1].
    let mut n1 = 0;
    for r in 0..n {
        let p = sa[r] as usize;
        if types.is_lms(p) {
            sa[n1] = p as u32;
            n1 += 1;
        }
    }

    // Name each LMS substring by its rank among the distinct ones. LMS
    // positions are at least 2 apart, so slot n1 + p/2 is free for p.
    sa[n1..].fill(EMPTY);
    let mut names = 0u32;
    let mut prev = None;
    for r in 0..n1 {
        let p = sa[r] as usize;
        if prev.is_none_or(|q| !lms_substrings_equal(s, &types, p, q)) {
            names += 1;
        }
        prev = Some(p);
        sa[n1 + p / 2] = names - 1;
    }
    // Gather the names in text order into sa[n - n1..]: the reduced string.
    let mut w = n;
    for i in (n1..n).rev() {
        if sa[i] != EMPTY {
            w -= 1;
            sa[w] = sa[i];
        }
    }
    debug_assert_eq!(w, n - n1);

    // Stage 2: suffix array of the reduced string into sa[..n1]. n1 ≤ n/2,
    // so the two halves do not overlap.
    let mut levels = 1;
    {
        let (head, reduced) = sa.split_at_mut(n - n1);
        let sa1 = &mut head[..n1];
        if (names as usize) < n1 {
            levels += sais(reduced, sa1, names as usize);
        } else {
            for (i, &name) in reduced.iter().enumerate() {
                sa1[name as usize] = i as u32;
            }
        }
    }

    // Map reduced-string indices back to text positions.
    let mut w = n - n1;
    for i in 1..n {
        if types.is_lms(i) {
            sa[w] = i as u32;
            w += 1;
        }
    }
    for r in 0..n1 {
        sa[r] = sa[n - n1 + sa[r] as usize];
    }

    // Stage 3: seed the sorted LMS suffixes at their bucket tails, keeping
    // their order; one induced pass sorts every suffix.
    sa[n1..].fill(EMPTY);
    ptr.copy_from_slice(&starts[1..]);
    for r in (0..n1).rev() {
        let p = sa[r];
        sa[r] = EMPTY;
        let c = s[p as usize] as usize;
        ptr[c] -= 1;
        sa[ptr[c] as usize] = p;
    }
    induce(s, sa, &types, &starts, &mut ptr);
    levels
}

/// Induce L-type suffixes left to right from the bucket heads, then S-type
/// suffixes right to left from the bucket tails, from the LMS suffixes
/// seeded in `sa`.
fn induce(s: &[u32], sa: &mut [u32], types: &Types, starts: &[u32], ptr: &mut [u32]) {
    let n = s.len();
    let k = ptr.len();
    ptr.copy_from_slice(&starts[..k]);
    // The virtual sentinel is the smallest suffix; it induces suffix n − 1.
    let c = s[n - 1] as usize;
    sa[ptr[c] as usize] = (n - 1) as u32;
    ptr[c] += 1;
    for r in 0..n {
        let p = sa[r];
        if p == EMPTY || p == 0 {
            continue;
        }
        // Only L-type and seeded LMS suffixes are in `sa` yet; for those,
        // the suffix before is L-type iff its symbol is not smaller.
        let j = p as usize - 1;
        let c = s[j];
        if c >= s[j + 1] {
            let c = c as usize;
            sa[ptr[c] as usize] = j as u32;
            ptr[c] += 1;
        }
    }
    ptr.copy_from_slice(&starts[1..]);
    for r in (0..n).rev() {
        let p = sa[r];
        if p == EMPTY || p == 0 {
            continue;
        }
        let j = p as usize - 1;
        if types.is_s(j) {
            let c = s[j] as usize;
            ptr[c] -= 1;
            sa[ptr[c] as usize] = j as u32;
        }
    }
}

/// Whether the LMS substrings at `a != b` (each running through the next
/// LMS position) have equal symbols and types.
fn lms_substrings_equal(s: &[u32], types: &Types, a: usize, b: usize) -> bool {
    let n = s.len();
    for d in 0.. {
        let (x, y) = (a + d, b + d);
        // The substring that runs into the virtual sentinel is unique.
        if x == n || y == n || s[x] != s[y] || types.is_s(x) != types.is_s(y) {
            return false;
        }
        // Types agree here and one position back, so both end here.
        if d > 0 && types.is_lms(x) {
            return true;
        }
    }
    unreachable!("LMS substrings end within the text or at its end")
}

/// The S/L type of every suffix, one bit each (set = S-type).
struct Types(Vec<u32>);

impl Types {
    fn classify(s: &[u32]) -> Self {
        let n = s.len();
        let mut bits = vec![0u32; n.div_ceil(32)];
        // Suffix n − 1 is L-type: the virtual sentinel after it is smaller.
        let mut next_is_s = false;
        for i in (0..n - 1).rev() {
            let is_s = s[i] < s[i + 1] || (s[i] == s[i + 1] && next_is_s);
            bits[i / 32] |= u32::from(is_s) << (i % 32);
            next_is_s = is_s;
        }
        Types(bits)
    }

    #[inline]
    fn is_s(&self, i: usize) -> bool {
        self.0[i / 32] >> (i % 32) & 1 == 1
    }

    #[inline]
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusIndex;
    use proptest::prelude::*;

    fn naive_sa(text: &[u32]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..text.len() as u32).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        sa
    }

    fn ctxs() -> Vec<Ctx> {
        vec![Ctx::seq(), Ctx::with_threads(2), Ctx::with_threads(4)]
    }

    /// xorshift64: deterministic test texts without a dependency.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// The first `n` symbols of the Fibonacci word over {0, 1}. Its LMS
    /// substrings repeat at every level, so SA-IS recurses deeply.
    fn fibonacci_word(n: usize) -> Vec<u32> {
        let (mut a, mut b) = (vec![0u32], vec![0u32, 1]);
        while b.len() < n {
            let next = [b.as_slice(), a.as_slice()].concat();
            a = b;
            b = next;
        }
        b.truncate(n);
        b
    }

    #[test]
    fn matches_naive_on_classic_strings() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![5],
            vec![1, 0, 2, 0, 2, 0],    // banana
            vec![0; 17],               // aaaa…
            vec![0, 1, 0, 1, 0, 1, 0], // abababa
            (0..100).map(|i| i % 3).collect(),
            vec![2, 1, 0],
            vec![0, 1, 2],
            // Largest symbol ≥ max(n, 256): the alphabet is compacted.
            vec![u32::MAX, 7, u32::MAX, 300, 7, u32::MAX - 1],
        ];
        for ctx in ctxs() {
            for t in &cases {
                assert_eq!(build_suffix_array(&ctx, t), naive_sa(t), "text {t:?}");
            }
        }
    }

    #[test]
    fn matches_naive_on_every_short_binary_string() {
        for ctx in ctxs() {
            for n in 0..=12usize {
                for bits in 0u32..1 << n {
                    let t: Vec<u32> = (0..n).map(|i| bits >> i & 1).collect();
                    assert_eq!(build_suffix_array(&ctx, &t), naive_sa(&t), "text {t:?}");
                }
            }
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom_texts() {
        let mut x = 0x12345u64;
        for ctx in ctxs() {
            for (n, sigma) in [(1000usize, 2u64), (2000, 4), (1500, 256)] {
                let t: Vec<u32> = (0..n).map(|_| (xorshift(&mut x) % sigma) as u32).collect();
                assert_eq!(
                    build_suffix_array(&ctx, &t),
                    naive_sa(&t),
                    "n={n} σ={sigma}"
                );
            }
        }
    }

    #[test]
    fn fibonacci_word_recurses_at_least_three_levels() {
        let t = fibonacci_word(3000);
        let mut sa = vec![0u32; t.len()];
        let levels = sais(&t, &mut sa, 2);
        assert!(levels >= 3, "only {levels} levels");
        assert_eq!(sa, naive_sa(&t));
        for ctx in ctxs() {
            assert_eq!(build_suffix_array(&ctx, &t), sa);
        }
    }

    #[test]
    fn result_is_permutation() {
        let t: Vec<u32> = (0..512).map(|i| (i * 7 % 5) as u32).collect();
        let mut sa = build_suffix_array(&Ctx::par(), &t);
        sa.sort_unstable();
        assert!(sa.iter().enumerate().all(|(i, &s)| s as usize == i));
    }

    /// A test text of length `n` in one of six shapes, from `seed`:
    /// 0 random over σ symbols, 1 all-equal, 2 periodic, 3 long copied
    /// segments (the `genome_default` shape), 4 sparse symbols up to
    /// `u32::MAX` (the compaction path), 5 a Fibonacci word.
    fn shaped_text(shape: usize, sigma: u32, n: usize, seed: u64) -> Vec<u32> {
        let mut x = seed | 1;
        let mut random = |m: u64| xorshift(&mut x) % m;
        match shape {
            0 => (0..n).map(|_| random(u64::from(sigma)) as u32).collect(),
            1 => vec![sigma - 1; n],
            2 => {
                let period: Vec<u32> = (0..1 + random(7))
                    .map(|_| random(u64::from(sigma)) as u32)
                    .collect();
                (0..n).map(|i| period[i % period.len()]).collect()
            }
            3 => {
                let mut t: Vec<u32> = (0..n).map(|_| random(u64::from(sigma)) as u32).collect();
                let l = n / 8;
                for _ in 0..8 {
                    let from = random((n - l + 1) as u64) as usize;
                    let to = random((n - l + 1) as u64) as usize;
                    t.copy_within(from..from + l, to);
                }
                t
            }
            4 => {
                let syms = [0, 1, n as u32, u32::MAX / 2, u32::MAX - 1, u32::MAX];
                (0..n)
                    .map(|_| syms[random(syms.len() as u64) as usize])
                    .collect()
            }
            _ => fibonacci_word(n),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn matches_naive_on_shaped_texts(
            shape in 0usize..6,
            sigma_pick in 0usize..4,
            n in 0usize..600,
            seed in any::<u64>(),
        ) {
            let sigma = [1u32, 2, 4, 256][sigma_pick];
            let t = shaped_text(shape, sigma, n, seed);
            let want = naive_sa(&t);
            for ctx in ctxs() {
                prop_assert_eq!(build_suffix_array(&ctx, &t), want.clone());
            }
        }
    }

    /// `PDMX` bytes of a fixed 64 Ki-symbol genome corpus, pinned to the
    /// value the prefix-doubling construction produced: the suffix array
    /// is unique, so a new construction must not change a byte.
    #[test]
    fn pdmx_bytes_of_genome_corpus_are_pinned() {
        let text =
            pdm_textgen::corpus::genome_default(&mut pdm_textgen::strings::rng(0x5A15), 1 << 16);
        for ctx in ctxs() {
            let bytes = CorpusIndex::build(&ctx, text.clone()).to_bytes();
            assert_eq!(bytes.len(), 589_848);
            assert_eq!(pdm_primitives::crc32(&bytes), 0x2144_df1c);
        }
    }
}
