//! Self-tests of the benchmark's own arithmetic: percentiles, open-loop
//! accounting, the oracle, and span self time.

use std::time::{Duration, Instant};

use pdm_perfbench::oracle::Oracle;
use pdm_perfbench::schedule::{Ledger, OpenLoop};
use pdm_perfbench::stats::{percentile, summarize, tail_level, window_count};
use pdm_perfbench::trace::{by_layer, self_times, Span};

fn syms(s: &str) -> Vec<u32> {
    s.bytes().map(u32::from).collect()
}

#[test]
fn percentile_reports_count_and_highest_tail_with_ten_beyond() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    let s = summarize(&v);
    assert_eq!(s.n, 1000);
    assert_eq!(s.p50, 500.0);
    assert_eq!(
        (s.tail_pct, s.tail),
        (99.0, 990.0),
        "exactly 10 samples beyond p99"
    );
    assert_eq!(s.max, 1000.0);

    // One sample fewer leaves only 9 beyond p99: fall back to p90.
    let s = summarize(&v[..999]);
    assert_eq!((s.n, s.tail_pct), (999, 90.0));
    assert_eq!(s.tail, percentile(&v[..999], 90.0));

    assert_eq!(tail_level(10_000), Some(99.9));
    assert_eq!(tail_level(20), Some(50.0));
    assert_eq!(tail_level(19), None);
    let few = summarize(&[3.0, 1.0, 2.0]);
    assert_eq!(
        (few.n, few.tail_pct, few.tail),
        (3, 100.0, 3.0),
        "too few: max"
    );
    assert_eq!(summarize(&[]).n, 0);
}

#[test]
fn latency_windows_keep_ten_samples_beyond_their_p90() {
    // p90 of 100 samples is rank 90: exactly 10 beyond it.
    assert_eq!(window_count(1500, 90.0, 15), 15);
    assert_eq!(window_count(1499, 90.0, 15), 14);
    assert_eq!(window_count(106, 90.0, 15), 1);
    assert_eq!(window_count(40, 90.0, 15), 1, "too few: one window");
    assert_eq!(window_count(100_000, 99.0, 15), 15);
    assert_eq!(window_count(2000, 99.0, 15), 2);
}

#[test]
fn open_loop_counts_latency_from_due_time_and_reports_lateness() {
    let t0 = Instant::now();
    let ms = Duration::from_millis;
    let sched = OpenLoop {
        start: t0,
        interval: ms(10),
    };
    assert_eq!(sched.due(3), t0 + ms(30));

    let mut l = Ledger::default();
    let a = l.add(sched.due(0));
    let b = l.add(sched.due(1));
    let c = l.add(sched.due(2));
    // The socket stalled for 40 ms: request 0 left late and request 1
    // queued behind it; both count their wait from their due times.
    l.mark_sent(a, t0 + ms(40));
    l.mark_done(a, t0 + ms(45));
    l.mark_sent(b, t0 + ms(41));
    l.mark_done(b, t0 + ms(50));
    let lat = l.latencies_ms();
    assert_eq!(lat.len(), 2);
    assert!((lat[0] - 45.0).abs() < 1e-6, "not 5 ms from the send");
    assert!((lat[1] - 40.0).abs() < 1e-6);
    let late = l.lateness_ms();
    assert!((late[0] - 40.0).abs() < 1e-6 && (late[1] - 31.0).abs() < 1e-6);
    assert_eq!(l.unfinished(), 1, "request {c} was never answered");
}

#[test]
fn oracle_accepts_the_truth_and_rejects_an_injected_wrong_match() {
    let pats = vec![syms("she"), syms("he"), syms("hers")];
    let text = b"ushers and pushers";
    let o = Oracle::build(&pats, text);
    let n = text.len() as u64;
    let mut want = Vec::new();
    let mut truth = Vec::new();
    o.expected(0, n, |_| true, &mut truth);
    assert_eq!(truth.len(), 6, "she, he, hers in each of ushers / pushers");

    let mut got = truth.clone();
    assert!(o.check(0, n, &mut got, |_| true, &mut want).is_ok());

    let mut shifted = truth.clone();
    shifted[0].0 += 1;
    assert!(o.check(0, n, &mut shifted, |_| true, &mut want).is_err());
    let mut missing = truth[1..].to_vec();
    assert!(o.check(0, n, &mut missing, |_| true, &mut want).is_err());
    let mut extra = truth.clone();
    extra.push((7, 2, 1));
    assert!(o.check(0, n, &mut extra, |_| true, &mut want).is_err());
    let mut wrong_id = truth.clone();
    wrong_id[0].2 ^= 1;
    assert!(o.check(0, n, &mut wrong_id, |_| true, &mut want).is_err());
    // A pattern not yet live must not be reported.
    let mut got = truth.clone();
    assert!(o.check(0, n, &mut got, |p| p != 2, &mut want).is_err());
}

#[test]
fn chunk_local_check_expects_only_occurrences_inside_the_chunk() {
    // Chunk [1, 5) of "ushers" is "sher": "she" (1..4) and "he" (2..4)
    // lie inside it, "hers" (2..6) runs past its end.
    let pats = vec![syms("she"), syms("he"), syms("hers")];
    let o = Oracle::build(&pats, b"ushers");
    let mut want = Vec::new();
    let mut got = vec![(1, 3, 0), (2, 2, 1)];
    assert!(o.check_within(1, 5, &mut got, |_| true, &mut want).is_ok());
    let mut crossing = vec![(1, 3, 0), (2, 2, 1), (2, 4, 2)];
    assert!(o
        .check_within(1, 5, &mut crossing, |_| true, &mut want)
        .is_err());
    let mut wrong_id = vec![(1, 3, 1), (2, 2, 1)];
    assert!(o
        .check_within(1, 5, &mut wrong_id, |_| true, &mut want)
        .is_err());
}

#[test]
fn session_begun_mid_text_expects_no_occurrence_starting_before_it() {
    // A session streaming "ushers" from offset 2 sees "hers…": "he"
    // (2..4) and "hers" (2..6) are in it, "she" (1..4) began before it.
    let pats = vec![syms("she"), syms("he"), syms("hers")];
    let o = Oracle::build(&pats, b"ushers");
    let mut want = Vec::new();
    let mut got = vec![(2, 2, 1), (2, 4, 2)];
    assert!(o.check_from(2, 2, 6, &mut got, |_| true, &mut want).is_ok());
    let mut with_she = vec![(1, 3, 0), (2, 2, 1), (2, 4, 2)];
    assert!(o
        .check_from(2, 2, 6, &mut with_she, |_| true, &mut want)
        .is_err());
    // From the stream's start, "she" is expected again.
    let mut got = vec![(2, 2, 1), (2, 4, 2)];
    assert!(o
        .check_from(0, 2, 6, &mut got, |_| true, &mut want)
        .is_err());
}

#[test]
fn oracle_finds_occurrences_across_the_period_seam() {
    // Stream "heshes…": "she" crosses the seam at offset 2.
    let o = Oracle::build(&[syms("she"), syms("he")], b"hes");
    let mut one = Vec::new();
    o.expected(0, 3, |_| true, &mut one);
    assert_eq!(one, vec![(0, 2, 1)], "she needs the next period");
    let mut two = Vec::new();
    o.expected(3, 6, |_| true, &mut two);
    two.sort_unstable();
    assert_eq!(two, vec![(2, 3, 0), (3, 2, 1)]);
}

#[test]
fn span_self_time_subtracts_the_union_of_children() {
    let span = |id, parent, start_ns, end_ns| Span {
        id,
        name: if parent == 0 { "outer" } else { "inner" },
        start_ns,
        end_ns,
        parent,
        req: 0,
    };
    let spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 30),
        span(3, 1, 20, 40),  // overlaps span 2: covered once
        span(4, 1, 90, 120), // clipped to the parent's end
        span(5, 2, 12, 18),
    ];
    assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    let layers = by_layer(&spans);
    assert_eq!(layers["outer"].self_ns, 60);
    assert_eq!(layers["inner"].calls, 4);
    assert_eq!(layers["inner"].total_ns, 20 + 20 + 30 + 6);
    assert_eq!(layers["inner"].self_ns, 14 + 20 + 30 + 6);
}
