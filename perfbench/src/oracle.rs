//! Aho–Corasick oracle over a periodic stream.
//!
//! Serving workloads stream a seeded text `T` over and over, so a session
//! of any length `L` sees the prefix of `T T T …`. Every occurrence in that
//! stream lies inside one copy of `T ‖ T[..m−1]` (it starts in some copy of
//! `T` and is at most `m` long), so one Aho–Corasick pass over that
//! extended text gives every expected match of every session, chunk by
//! chunk, with any dictionary filter (live updates: a pattern counts only
//! from the epoch that added it).

use pdm_baselines::AhoCorasick;

/// One occurrence: absolute start, length, pattern id.
pub type Hit = (u64, u32, u32);

pub struct Oracle {
    period: u64,
    /// Occurrences starting in the first copy, sorted by end offset.
    by_end: Vec<Hit>,
}

impl Oracle {
    /// Build over the periodic text `text` (one period). Pattern ids are
    /// indices into `patterns`, which must be distinct. The text is
    /// scanned in pieces, so the oracle's memory stays small beside the
    /// server's.
    pub fn build(patterns: &[Vec<u32>], text: &[u8]) -> Oracle {
        const PIECE: usize = 1 << 20;
        let m = patterns.iter().map(Vec::len).max().unwrap_or(0);
        let n = text.len();
        assert!(m <= n, "a pattern is longer than the stream period");
        let ac = AhoCorasick::new(patterns);
        let mut by_end: Vec<Hit> = Vec::new();
        let mut piece: Vec<u32> = Vec::with_capacity(PIECE + m);
        for from in (0..n).step_by(PIECE) {
            // Owned starts [from, to); the piece runs m − 1 further,
            // wrapping into the next period.
            let to = (from + PIECE).min(n);
            piece.clear();
            piece.extend((from..to + m.saturating_sub(1)).map(|i| u32::from(text[i % n])));
            for o in ac.find_all(&piece) {
                if o.start < to - from {
                    by_end.push((
                        (from + o.start) as u64,
                        patterns[o.pat].len() as u32,
                        o.pat as u32,
                    ));
                }
            }
        }
        by_end.sort_unstable_by_key(|&(s, l, p)| (s + u64::from(l), s, p));
        Oracle {
            period: n as u64,
            by_end,
        }
    }

    /// Occurrences in one period (seam-crossing ones included).
    pub fn per_period(&self) -> usize {
        self.by_end.len()
    }

    /// Every expected occurrence whose end offset lies in `(lo, hi]`, for
    /// patterns `live` accepts, appended to `out` in no particular order.
    pub fn expected(&self, lo: u64, hi: u64, live: impl Fn(u32) -> bool, out: &mut Vec<Hit>) {
        if hi <= lo {
            return;
        }
        let p = self.period;
        // An end offset within a period is at most p + m − 1 < 2p.
        for r in (lo / p).saturating_sub(1)..=hi / p {
            let base = r * p;
            let from = lo.saturating_sub(base);
            let to = hi.saturating_sub(base);
            if to == 0 {
                continue;
            }
            let a = self
                .by_end
                .partition_point(|&(s, l, _)| s + u64::from(l) <= from);
            let b = self
                .by_end
                .partition_point(|&(s, l, _)| s + u64::from(l) <= to);
            for &(s, l, pat) in &self.by_end[a..b] {
                if live(pat) {
                    out.push((base + s, l, pat));
                }
            }
        }
    }

    /// Compare the occurrences a server reported for the stream range
    /// `(lo, hi]` (start, length and pattern id) with the expected ones.
    /// Sorts `got` in place.
    pub fn check(
        &self,
        lo: u64,
        hi: u64,
        got: &mut [Hit],
        live: impl Fn(u32) -> bool,
        want: &mut Vec<Hit>,
    ) -> Result<(), String> {
        self.check_from(0, lo, hi, got, live, want)
    }

    /// Like [`Oracle::check`], for a matcher that was given the stream
    /// range `[lo, hi)` alone: only occurrences lying wholly inside it are
    /// expected.
    pub fn check_within(
        &self,
        lo: u64,
        hi: u64,
        got: &mut [Hit],
        live: impl Fn(u32) -> bool,
        want: &mut Vec<Hit>,
    ) -> Result<(), String> {
        self.check_from(lo, lo, hi, got, live, want)
    }

    /// Like [`Oracle::check`], for a stream that begins at offset `from`
    /// of the periodic text: occurrences starting before it are not
    /// expected.
    pub fn check_from(
        &self,
        from: u64,
        lo: u64,
        hi: u64,
        got: &mut [Hit],
        live: impl Fn(u32) -> bool,
        want: &mut Vec<Hit>,
    ) -> Result<(), String> {
        want.clear();
        self.expected(lo, hi, live, want);
        want.retain(|h| h.0 >= from);
        compare(lo, hi, got, want)
    }
}

fn compare(lo: u64, hi: u64, got: &mut [Hit], want: &mut [Hit]) -> Result<(), String> {
    want.sort_unstable();
    got.sort_unstable();
    if got == want {
        return Ok(());
    }
    let first = got
        .iter()
        .zip(want.iter())
        .find(|(g, w)| g != w)
        .map(|(g, w)| format!("; first difference: got {g:?}, want {w:?}"))
        .unwrap_or_default();
    Err(format!(
        "range ({lo}, {hi}]: reported {} occurrences, oracle expects {}{first}",
        got.len(),
        want.len()
    ))
}

/// Bytes of the periodic stream `[off, off + len)`.
pub fn periodic_slice(text: &[u8], off: u64, len: usize, out: &mut Vec<u8>) {
    out.clear();
    let p = text.len() as u64;
    let mut pos = (off % p) as usize;
    while out.len() < len {
        let take = (len - out.len()).min(text.len() - pos);
        out.extend_from_slice(&text[pos..pos + take]);
        pos = 0;
    }
}
