//! Seeded inputs of the four workloads. The seed is the only source of
//! randomness; the program under test sees only what is generated here.

use std::collections::HashSet;

use pdm_textgen::markov::MarkovSource;
use pdm_textgen::{corpus, strings, Alphabet};
use rand::rngs::StdRng;
use rand::Rng;

/// Patterns per live-update commit (and per dictionary-probe batch).
pub const BATCH: usize = 16;
/// Query patterns per index batch.
pub const QUERY_BATCH: usize = 8192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SparseWatchlist,
    DenseMotifs,
    LiveUpdate,
    CorpusIndex,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SparseWatchlist,
        Workload::DenseMotifs,
        Workload::LiveUpdate,
        Workload::CorpusIndex,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseWatchlist => "sparse_watchlist",
            Workload::DenseMotifs => "dense_motifs",
            Workload::LiveUpdate => "live_update",
            Workload::CorpusIndex => "corpus_index",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One workload's generated inputs.
pub struct Inputs {
    pub workload: Workload,
    /// The dictionary served (serving workloads) or the first query batch
    /// (`corpus_index`). Distinct patterns; ids are indices.
    pub patterns: Vec<Vec<u32>>,
    /// One period of the streamed text, or the indexed corpus.
    pub text: Vec<u8>,
    /// Chunk size on the wire.
    pub chunk: usize,
    /// Batches of [`BATCH`] new patterns, absent from `patterns`: the live
    /// commits of `live_update`, and the dictionary probe's commits on
    /// every workload.
    pub updates: Vec<Vec<Vec<u32>>>,
    /// Query batches (`corpus_index`); the other workloads query their own
    /// dictionary.
    pub queries: Vec<Vec<Vec<u32>>>,
}

pub fn symbols(bytes: &[u8]) -> Vec<u32> {
    bytes.iter().map(|&b| u32::from(b)).collect()
}

pub fn bytes(syms: &[u32]) -> Vec<u8> {
    syms.iter()
        .map(|&s| u8::try_from(s).expect("workload symbols are bytes"))
        .collect()
}

/// `count` distinct excerpts of `text`, none of them in `exclude`.
fn fresh_excerpts(
    r: &mut StdRng,
    text: &[u32],
    count: usize,
    min_len: usize,
    max_len: usize,
    exclude: &HashSet<Vec<u32>>,
) -> Vec<Vec<u32>> {
    let mut seen = exclude.clone();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        for p in strings::excerpt_dictionary(r, text, count - out.len(), min_len, max_len) {
            if seen.insert(p.clone()) {
                out.push(p);
            }
        }
    }
    out
}

/// Seed of the text models (genome chain, log templates). The models stay
/// fixed so that every workload seed samples text of the same statistics;
/// only the sampled text, dictionary and queries change with `--seed`.
const MODEL_SEED: u64 = 0x6d6f_64656c;

/// Genome-shaped text as `pdm_textgen::corpus::genome_default` makes it
/// (skewed order-1 chain over 4 symbols, 64 segment duplications of
/// `n/64` symbols), with the chain fixed by [`MODEL_SEED`].
fn genome(r: &mut StdRng, n: usize) -> Vec<u32> {
    let src = MarkovSource::random(&mut strings::rng(MODEL_SEED), Alphabet::Dna, 1.5);
    let mut t = src.generate(r, n);
    let l = n / 64;
    for _ in 0..64 {
        let from = r.gen_range(0..=n - l);
        let to = r.gen_range(0..=n - l);
        t.copy_within(from..from + l, to);
    }
    t
}

/// Log lines as `pdm_textgen::corpus::log_lines` makes them (template stem,
/// hex field, Markov tail, newline), with the templates and the tail chain
/// fixed by [`MODEL_SEED`].
fn log_lines(r: &mut StdRng, n: usize, templates: usize) -> Vec<u32> {
    let mut m = strings::rng(MODEL_SEED);
    let word = |m: &mut StdRng, len: usize| -> Vec<u32> {
        (0..len)
            .map(|_| u32::from(b'a') + m.gen_range(0..26))
            .collect()
    };
    let stems: Vec<Vec<u32>> = (0..templates)
        .map(|_| {
            let words = m.gen_range(2..=4);
            let mut stem = Vec::new();
            for w in 0..words {
                if w > 0 {
                    stem.push(u32::from(b' '));
                }
                let len = m.gen_range(3..=8);
                stem.extend(word(&mut m, len));
            }
            stem.push(u32::from(b' '));
            stem
        })
        .collect();
    let tail = MarkovSource::random(&mut m, Alphabet::Letters, 1.2);
    let mut out = Vec::with_capacity(n + 64);
    while out.len() < n {
        out.extend_from_slice(&stems[r.gen_range(0..stems.len())]);
        for _ in 0..r.gen_range(4..=8) {
            let d = r.gen_range(0..16u32);
            out.push(if d < 10 {
                u32::from(b'0') + d
            } else {
                u32::from(b'a') + d - 10
            });
        }
        out.push(u32::from(b' '));
        let len = r.gen_range(4..=24);
        out.extend(
            tail.generate(r, len)
                .into_iter()
                .map(|c| u32::from(b'a') + c),
        );
        out.push(u32::from(b'\n'));
    }
    out.truncate(n);
    out
}

fn batches(pats: Vec<Vec<u32>>) -> Vec<Vec<Vec<u32>>> {
    pats.chunks(BATCH).map(<[_]>::to_vec).collect()
}

/// Timed live-update commits generated per run (one more is the untimed
/// warm-up commit).
pub const LIVE_COMMITS: usize = 100;

pub fn generate(w: Workload, seed: u64) -> Inputs {
    let mut r = strings::rng(seed ^ 0x5eed_0000 ^ (w as u64) << 40);
    match w {
        Workload::SparseWatchlist => {
            // Random traffic, 64 random byte signatures, one planted hit
            // per 8 KiB.
            let n = 16 << 20;
            let mut text: Vec<u8> = (0..n).map(|_| r.gen_range(0..=255u32) as u8).collect();
            let patterns = strings::random_dictionary(&mut r, Alphabet::Bytes, 64, 8, 32);
            for _ in 0..n / 8192 {
                let p = bytes(&patterns[r.gen_range(0..patterns.len())]);
                let at = r.gen_range(0..=n - p.len());
                text[at..at + p.len()].copy_from_slice(&p);
            }
            let known: HashSet<Vec<u32>> = patterns.iter().cloned().collect();
            let extra: Vec<Vec<u32>> =
                strings::random_dictionary(&mut r, Alphabet::Bytes, 8 * BATCH + 64, 8, 32)
                    .into_iter()
                    .filter(|p| !known.contains(p))
                    .take(8 * BATCH)
                    .collect();
            Inputs {
                workload: w,
                patterns,
                text,
                chunk: 256 << 10,
                updates: batches(extra),
                queries: Vec::new(),
            }
        }
        Workload::DenseMotifs => {
            // Genome text against 20k motif excerpts of 10–32 symbols.
            let text = genome(&mut r, 4 << 20);
            let patterns = strings::excerpt_dictionary(&mut r, &text, 20_000, 10, 32);
            let known: HashSet<Vec<u32>> = patterns.iter().cloned().collect();
            let extra = fresh_excerpts(&mut r, &text, 8 * BATCH, 10, 32, &known);
            Inputs {
                workload: w,
                patterns,
                text: bytes(&text),
                chunk: 16 << 10,
                updates: batches(extra),
                queries: Vec::new(),
            }
        }
        Workload::LiveUpdate => {
            // Log lines; a 20k-pattern store plus 16-pattern commits whose
            // patterns are no longer than the longest stored one (so a
            // session's carry always covers them across an epoch swap).
            let text = log_lines(&mut r, 1 << 20, 64);
            let patterns = fresh_excerpts(&mut r, &text, 20_000, 8, 24, &HashSet::new());
            let known: HashSet<Vec<u32>> = patterns.iter().cloned().collect();
            let extra = fresh_excerpts(&mut r, &text, (LIVE_COMMITS + 1) * BATCH, 8, 24, &known);
            Inputs {
                workload: w,
                patterns,
                text: bytes(&text),
                chunk: 4 << 10,
                updates: batches(extra),
                queries: Vec::new(),
            }
        }
        Workload::CorpusIndex => {
            // A 2 Mi-symbol genome; 8 distinct batches of 8192
            // prefix-sharing excerpts, answered round-robin.
            let text = genome(&mut r, 2 << 20);
            let queries: Vec<Vec<Vec<u32>>> = (0..8)
                .map(|_| corpus::distinct_query_patterns(&mut r, &text, QUERY_BATCH, 8, 32, 8))
                .collect();
            let patterns = queries[0].clone();
            let known: HashSet<Vec<u32>> = patterns.iter().cloned().collect();
            let extra = fresh_excerpts(&mut r, &text, 8 * BATCH, 8, 32, &known);
            Inputs {
                workload: w,
                patterns,
                text: bytes(&text),
                chunk: 16 << 10,
                updates: batches(extra),
                queries,
            }
        }
    }
}
