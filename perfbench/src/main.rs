//! `pdm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root and prints human-readable
//! lines (every metric by name with its unit, host metadata, sample counts
//! and ratio bases), then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the workload untraced and traced
//! for half the time each, then times every layer, and reports the
//! per-layer metrics plus the tracing overhead.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pdm_perfbench::host::{self, RssSampler};
use pdm_perfbench::index;
use pdm_perfbench::inputs::{generate, symbols, Inputs, Workload};
use pdm_perfbench::oracle::Oracle;
use pdm_perfbench::probe::{self, Metric};
use pdm_perfbench::serving::{self, Pass, TAIL_PCT};
use pdm_perfbench::stats::{median, pct_label, ratio, summarize};
use pdm_perfbench::trace::{self, Tracer};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The oracle a workload's outputs are checked against.
enum Check {
    Stream(Oracle),
    Index(index::Expected),
}

fn oracle_for(inp: &Inputs) -> Check {
    match inp.workload {
        Workload::CorpusIndex => Check::Index(index::oracle(&symbols(&inp.text), &inp.queries)),
        Workload::LiveUpdate => {
            // Base patterns, then every update batch: the ids the store
            // assigns, in commit order.
            let all: Vec<Vec<u32>> = inp
                .patterns
                .iter()
                .chain(inp.updates.iter().flatten())
                .cloned()
                .collect();
            Check::Stream(Oracle::build(&all, &inp.text))
        }
        _ => Check::Stream(Oracle::build(&inp.patterns, &inp.text)),
    }
}

fn run_pass(
    inp: &Inputs,
    check: &Check,
    seconds: f64,
    tracer: &Tracer,
    work: &Path,
    tag: &str,
) -> Pass {
    match (inp.workload, check) {
        (Workload::SparseWatchlist, Check::Stream(o)) => {
            serving::static_pass(inp, o, seconds, serving::SPARSE_OPEN_RATE, tracer)
        }
        (Workload::DenseMotifs, Check::Stream(o)) => {
            serving::static_pass(inp, o, seconds, serving::DENSE_OPEN_RATE, tracer)
        }
        (Workload::LiveUpdate, Check::Stream(o)) => {
            let log = serving::prepare_store(&work.join(tag), &inp.patterns);
            serving::live_pass(inp, o, &log, seconds, tracer)
        }
        (Workload::CorpusIndex, Check::Index(want)) => {
            index::index_pass(inp, want, seconds, tracer)
        }
        _ => unreachable!("oracle_for pairs each workload with its oracle"),
    }
}

/// Human-readable end-to-end lines, in the workload's own terms.
fn describe(w: Workload, p: &Pass, setup: f64) -> Vec<String> {
    let (op, how) = match w {
        Workload::SparseWatchlist | Workload::DenseMotifs => {
            ("chunk", "open loop, chunk due time to its ACK")
        }
        Workload::LiveUpdate => (
            "commit_visible",
            "DICT_COMMIT sent to TAG_EPOCH on the stream",
        ),
        Workload::CorpusIndex => ("query_batch", "closed loop, one query_batch call"),
    };
    let windows: Vec<usize> = p.latency_windows().iter().map(|w| w.len()).collect();
    let mut v = vec![
        format!(
            "setup_s {setup:.6} s (median of {} setups: {:?})",
            p.setup_s.len(),
            p.setup_s
        ),
        format!(
            "{} {:.4} MiB/s (median of {} windows: {:.4?})",
            if w == Workload::CorpusIndex {
                "query_input_mbps"
            } else {
                "stream_mbps"
            },
            p.throughput_mibps(),
            p.throughput.len(),
            p.throughput
        ),
        format!(
            "{op}_p50_ms {:.4} ms ({how}; median over {} windows of n={windows:?})",
            p.latency_p50(),
            windows.len()
        ),
        format!(
            "{op}_p{}_ms {:.4} ms (median over windows of each window's p{0})",
            pct_label(TAIL_PCT),
            p.latency_tail(),
        ),
        format!(
            "{op} latency over the whole run: {}",
            summarize(&p.latency).describe("ms")
        ),
    ];
    if !p.late_ms.is_empty() {
        v.push(format!(
            "generator lateness: {}",
            summarize(&p.late_ms).describe("ms")
        ));
    }
    v.push(format!(
        "error_rate {:.6} ({} failed / {} attempted)",
        ratio(p.failed as f64, p.attempted as f64),
        p.failed,
        p.attempted
    ));
    v
}

fn e2e_metrics(p: &Pass, setup: f64) -> Vec<Metric> {
    vec![
        ("setup_s", setup, "s"),
        ("throughput_mibps", p.throughput_mibps(), "MiB/s"),
        ("latency_p50_ms", p.latency_p50(), "ms"),
        ("latency_tail_ms", p.latency_tail(), "ms"),
        ("rss_mb", p.rss_mib(), "MiB"),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pdm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let w = args.workload;
    println!(
        "host: cpus {}, kernel {}, git {}; workload {} seed {} seconds {} trace {}",
        host::cpus(),
        host::kernel(),
        host::git_revision(&root),
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let inp = generate(w, args.seed);
    let check = oracle_for(&inp);
    if let Check::Stream(o) = &check {
        println!(
            "oracle: {} occurrences per {}-byte period",
            o.per_period(),
            inp.text.len()
        );
    }
    let work: PathBuf =
        root.join(".perfbench_work")
            .join(format!("{}-{}", w.name(), std::process::id()));

    let (correct, attempted, failed, metrics) = if !args.trace {
        let p = run_pass(
            &inp,
            &check,
            args.seconds,
            &Tracer::new(false),
            &work,
            "run",
        );
        let setup = median(&p.setup_s);
        p.lines
            .iter()
            .chain(&describe(w, &p, setup))
            .for_each(|l| println!("{l}"));
        for m in &p.mismatches {
            println!("MISMATCH {m}");
        }
        let metrics = e2e_metrics(&p, setup);
        println!(
            "rss_mb {:.3} MiB (median of {} VmRSS samples over the measured phase, one per {} ms; VmHWM at its end {:.3} MiB)",
            metrics[4].1,
            p.rss.len(),
            RssSampler::PERIOD.as_millis(),
            p.peak_rss_mib
        );
        (p.mismatches.is_empty(), p.attempted, p.failed, metrics)
    } else {
        let half = args.seconds / 2.0;
        let plain = run_pass(&inp, &check, half, &Tracer::new(false), &work, "untraced");
        let tracer = Tracer::new(true);
        let traced = run_pass(&inp, &check, half, &tracer, &work, "traced");
        let layers = probe::run(&inp, &traced, &tracer);
        let spans = tracer.spans();
        for (name, t) in trace::by_layer(&spans) {
            println!(
                "self time {name}: {:.3} ms self / {:.3} ms total over {} spans",
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e6,
                t.calls
            );
        }
        let overhead = 100.0 * (ratio(plain.throughput_mibps(), traced.throughput_mibps()) - 1.0);
        for (label, p) in [("untraced", &plain), ("traced", &traced)] {
            let setup = median(&p.setup_s);
            for l in describe(w, p, setup) {
                println!("{label} {l}");
            }
        }
        layers.lines.iter().for_each(|l| println!("{l}"));
        println!(
            "trace.overhead_pct {overhead:.4} % (untraced {:.4} vs traced {:.4} MiB/s over {half} s each)",
            plain.throughput_mibps(), traced.throughput_mibps()
        );
        let out_dir = root.join(".perfbench_out");
        let file = out_dir.join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        match std::fs::create_dir_all(&out_dir)
            .and_then(|_| std::fs::write(&file, trace::to_jsonl(&spans)))
        {
            Ok(()) => println!("spans: {} written to {}", spans.len(), file.display()),
            Err(e) => println!("spans: {} not written: {e}", spans.len()),
        }
        let mut metrics = layers.metrics;
        metrics.push(("trace.overhead_pct", overhead, "%"));
        metrics.push(("trace.spans", spans.len() as f64, "count"));
        let bad: Vec<&String> = plain
            .mismatches
            .iter()
            .chain(&traced.mismatches)
            .chain(&layers.mismatches)
            .collect();
        for m in &bad {
            println!("MISMATCH {m}");
        }
        (
            bad.is_empty(),
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            metrics,
        )
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(root.join(".perfbench_work")); // only if empty
    println!("{}", json(correct, attempted.max(1), failed, &metrics));
    ExitCode::SUCCESS
}
