//! `corpus_index`: build a `CorpusIndex` over a genome corpus, then answer
//! closed-loop query batches; every answer is checked against
//! Aho–Corasick over the same corpus.

use std::time::Instant;

use pdm_baselines::AhoCorasick;
use pdm_index::{BatchOptions, CorpusIndex, QueryMode};
use pdm_pram::Ctx;

use crate::host::RssSampler;
use crate::inputs::{symbols, Inputs};
use crate::serving::{more_setups, Pass, WINDOWS};
use crate::trace::Tracer;

/// Pool width for index build and queries (the host has 2 CPUs).
pub const WIDTH: usize = 2;

/// Per query batch: each pattern's occurrence starts, ascending.
pub type Expected = Vec<Vec<Vec<u32>>>;

/// Aho–Corasick answers for every query batch.
pub fn oracle(corpus: &[u32], batches: &[Vec<Vec<u32>>]) -> Expected {
    batches
        .iter()
        .map(|b| {
            let mut pos: Vec<Vec<u32>> = vec![Vec::new(); b.len()];
            for o in AhoCorasick::new(b).find_all(corpus) {
                pos[o.pat].push(o.start as u32);
            }
            for p in &mut pos {
                p.sort_unstable();
            }
            pos
        })
        .collect()
}

pub fn index_pass(inp: &Inputs, want: &Expected, seconds: f64, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let ctx = Ctx::with_threads(WIDTH);
    let corpus = symbols(&inp.text);
    let mut idx = None;
    while more_setups(&pass.setup_s) {
        drop(idx.take());
        let t0 = Instant::now();
        let root = tracer.open("setup", 0, 0);
        let built = tracer.span("index.build", root.id, 0, |_| {
            CorpusIndex::build(&ctx, corpus.clone())
        });
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        tracer.close(root);
        idx = Some(built);
    }
    let idx = idx.expect("at least one set-up");

    // Locate answers, untimed, once per distinct batch.
    let locate = BatchOptions {
        merge: true,
        mode: QueryMode::Locate,
    };
    for (b, batch) in inp.queries.iter().enumerate() {
        let hits = idx.query_batch(&ctx, batch, &locate);
        pass.attempted += 1;
        if let Some(i) = (0..batch.len()).find(|&i| hits[i].positions != want[b][i]) {
            pass.mismatches.push(format!(
                "batch {b} pattern {i}: locate gave {} positions, oracle {}",
                hits[i].positions.len(),
                want[b][i].len()
            ));
        }
    }

    // Closed loop: one batch at a time, round-robin over the batches.
    let count = BatchOptions::default();
    let mut done: Vec<(f64, u64)> = Vec::new(); // (finish time s, pattern bytes)
    let mut lat = Vec::new();
    let rss = RssSampler::start();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let n = lat.len();
        let b = n % inp.queries.len();
        let batch = &inp.queries[b];
        let t = Instant::now();
        let hits = tracer.span("index.query_batch", 0, n as u64, |_| {
            idx.query_batch(&ctx, batch, &count)
        });
        lat.push(crate::schedule::ms(t.elapsed()));
        done.push((
            t0.elapsed().as_secs_f64(),
            batch.iter().map(|p| p.len() as u64).sum(),
        ));
        pass.attempted += 1;
        if let Some(i) = (0..batch.len()).find(|&i| hits[i].count != want[b][i].len()) {
            pass.failed += 1;
            pass.mismatches.push(format!(
                "batch {b} pattern {i}: count {} but oracle {}",
                hits[i].count,
                want[b][i].len()
            ));
        }
    }
    let n = lat.len();
    let wall = t0.elapsed().as_secs_f64();
    pass.end_rss(rss);
    let answered = n * inp.queries[0].len();
    pass.throughput = (0..WINDOWS)
        .map(|j| {
            let (a, b) = (j * n / WINDOWS, (j + 1) * n / WINDOWS);
            let from = if a == 0 { 0.0 } else { done[a - 1].0 };
            let bytes: u64 = done[a..b].iter().map(|d| d.1).sum();
            bytes as f64 / f64::from(1 << 20) / (done[b - 1].0 - from)
        })
        .collect();
    pass.lines.push(format!(
        "query_kqps {:.4} kpatterns/s ({answered} patterns in {n} batches of {} over {wall:.3} s, width {WIDTH}); query MiB/s per window {:.4?}",
        answered as f64 / 1e3 / wall,
        inp.queries[0].len(),
        pass.throughput
    ));
    pass.latency = lat;
    pass
}
