//! Per-layer measurements for the traced run.
//!
//! Every layer's public entry point is timed from here, on the workload's
//! own inputs, with the counters the layer exports read before and after
//! each timed phase (warm-up and lazy set-up done first). Every workload
//! reports every layer; a layer a workload's serving path bypasses is
//! still timed once on that workload's dictionary and text, so its
//! figures show what the layer would cost there.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pdm_baselines::AhoCorasick;
use pdm_core::matcher::Matcher;
use pdm_core::static1d::StaticMatcher;
use pdm_core::TextScratch;
use pdm_dict::{DictStore, EpochHandle, Snapshot, SnapshotPath};
use pdm_index::{lcp, sa, BatchOptions};
use pdm_pram::Ctx;
use pdm_stream::proto::{encode_ack, encode_match, write_frame, FrameDecoder, TAG_ACK, TAG_MATCH};
use pdm_stream::{
    Event, Server, ServerConfig, ServiceConfig, Session, SessionOptions, ShardedService,
    StreamMatch, StreamMatcher,
};

use crate::client::{stream_session, Check, Conn, Pace};
use crate::inputs::{symbols, Inputs, Workload};
use crate::oracle::{Hit, Oracle};
use crate::schedule::{ms, OpenLoop};
use crate::serving::{delta, Pass};
use crate::stats::{median, percentile, ratio, summarize};
use crate::trace::Tracer;

/// Text the in-process layer probes run over (prefix of the workload's).
const PROBE_TEXT: usize = 1 << 20;
/// Text the dynamic-matcher snapshot probe runs over (it is slow).
const DYNAMIC_TEXT: usize = 64 << 10;
/// Minimum timed calls per chunk-level probe.
const PROBE_SAMPLES: usize = 256;
/// Dictionary-probe commits replayed.
const PROBE_COMMITS: usize = 8;

/// One reported number: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    /// Oracle disagreements of the layers' outputs and session errors of
    /// the loopback session.
    pub mismatches: Vec<String>,
}

/// Oracle disagreements kept per layer.
const MAX_MISMATCHES: usize = 3;

impl Layers {
    /// Keep word of a failed check of `layer`'s output.
    fn checked(&mut self, layer: &str, r: Result<(), String>) {
        if let Err(e) = r {
            let msg = format!("{layer}: {e}");
            let seen = self.mismatches.iter().filter(|m| m.starts_with(layer));
            if seen.count() < MAX_MISMATCHES {
                self.mismatches.push(msg);
            }
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, base: String) {
        self.metrics.push((name, value, unit));
        self.lines
            .push(format!("{name} {value:.6} {unit} ({base})"));
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn mibps(bytes: usize, s: f64) -> f64 {
    ratio(bytes as f64 / f64::from(1 << 20), s)
}

fn hit(m: &StreamMatch) -> Hit {
    (m.start, m.len, m.pat)
}

/// Push one chunk into a service session and wait for its progress event;
/// returns the offset consumed and appends the chunk's matches to `got`.
fn push_wait(sess: &Session, c: &[u32], got: &mut Vec<Hit>) -> u64 {
    sess.push(c.to_vec()).expect("service alive");
    loop {
        match sess.next_event() {
            Some(Event::Matches(v)) => got.extend(v.iter().map(hit)),
            Some(Event::Progress(at)) => return at,
            Some(Event::Failed(e)) => panic!("session failed: {e}"),
            None => panic!("service closed"),
            Some(_) => {}
        }
    }
}

pub fn run(inp: &Inputs, pass: &Pass, tracer: &Tracer) -> Layers {
    let mut out = Layers::default();
    let probe_bytes = &inp.text[..inp.text.len().min(PROBE_TEXT)];
    let text = &symbols(probe_bytes)[..];
    // The probe text's chunks, cycled to at least PROBE_SAMPLES calls.
    let chunks: Vec<&[u32]> = text.chunks(inp.chunk).collect();
    let chunks: Vec<&[u32]> = chunks
        .iter()
        .copied()
        .cycle()
        .take(chunks.len().max(PROBE_SAMPLES))
        .collect();
    let seq = Ctx::seq();
    // The chunks above, in order, are the periodic stream of the probe
    // text; every layer's output is checked against this oracle, untimed.
    let oracle = Oracle::build(&inp.patterns, probe_bytes);
    let (mut got, mut want): (Vec<Hit>, Vec<Hit>) = (Vec::new(), Vec::new());

    // -- core: build, then find_all_into per chunk ----------------------
    let t = Instant::now();
    let m = tracer.span("core.build", 0, 0, |_| {
        StaticMatcher::build(&Ctx::par(), &inp.patterns).expect("distinct non-empty patterns")
    });
    out.put(
        "core.build_s",
        secs(t),
        "s",
        format!("{} patterns", inp.patterns.len()),
    );
    let m = Arc::new(m);
    let (mut scratch, mut found) = (TextScratch::new(), Vec::new());
    m.find_all_into(&seq, chunks[0], &mut scratch, &mut found); // lazy chains, scratch
    let pf = || m.prefilter().map(|p| p.counters()).unwrap_or_default();
    let (s0, c0, p0) = (Matcher::stats(&*m), seq.cost.snapshot(), pf());
    let mut matches: Vec<StreamMatch> = Vec::new();
    let mut ends = Vec::with_capacity(chunks.len());
    let mut scanned = 0u64;
    let mut offset = 0u64;
    let mut core_s = 0.0;
    for (i, c) in chunks.iter().enumerate() {
        let scans = pf().scans;
        let t = Instant::now();
        tracer.span("core.find_all_into", 0, i as u64, |_| {
            m.find_all_into(&seq, c, &mut scratch, &mut found)
        });
        core_s += secs(t);
        if pf().scans > scans {
            scanned += c.len() as u64;
        }
        matches.extend(found.iter().map(|&(s, p)| StreamMatch {
            start: offset + s as u64,
            pat: p,
            len: m.pattern_len(p),
        }));
        offset += c.len() as u64;
        ends.push(matches.len());
    }
    let (s1, c1, p1) = (Matcher::stats(&*m), seq.cost.snapshot(), pf());
    // Each call saw its chunk alone: only occurrences inside it count.
    let (mut lo, mut from) = (0u64, 0usize);
    for (c, &to) in chunks.iter().zip(&ends) {
        let hi = lo + c.len() as u64;
        got.clear();
        got.extend(matches[from..to].iter().map(hit));
        let r = oracle.check_within(lo, hi, &mut got, |_| true, &mut want);
        out.checked("core.find_all_into", r);
        (lo, from) = (hi, to);
    }
    let syms = offset as f64;
    let cost = c1.since(c0);
    out.lines
        .push(format!("core.prefilter {}", s1.prefilter.describe()));
    out.put(
        "core.find_all_mbps",
        mibps(offset as usize, core_s),
        "MiB/s",
        format!("{offset} symbols in {} chunks", chunks.len()),
    );
    let lookups = (s1.lookup_count - s0.lookup_count) as f64;
    out.put(
        "core.lookups_per_sym",
        lookups / syms,
        "count",
        format!("{lookups} lookups / {syms} symbols"),
    );
    out.put(
        "core.alloc_events",
        (s1.alloc_events - s0.alloc_events) as f64,
        "count",
        "after warm-up".into(),
    );
    let verified = (p1.verified_syms - p0.verified_syms) as f64;
    out.put(
        "core.prefilter.verified_frac",
        ratio(verified, scanned as f64),
        "ratio",
        format!("{verified} verified / {scanned} scanned symbols"),
    );
    let cands = (p1.candidates - p0.candidates) as f64;
    out.put(
        "core.prefilter.matches_per_candidate",
        ratio(matches.len() as f64, cands),
        "ratio",
        format!("{} matches / {cands} candidates", matches.len()),
    );
    out.put(
        "core.prefilter.bailouts",
        (p1.bailouts - p0.bailouts) as f64,
        "count",
        format!("over {} scans", p1.scans - p0.scans),
    );
    out.put(
        "pram.work_per_sym",
        cost.work as f64 / syms,
        "count",
        format!("{} work / {syms} symbols", cost.work),
    );
    out.put(
        "pram.rounds_per_chunk",
        cost.rounds as f64 / chunks.len() as f64,
        "count",
        format!("{} rounds / {} chunks", cost.rounds, chunks.len()),
    );

    // -- baselines: Aho–Corasick on the same text -----------------------
    let ac = AhoCorasick::new(&inp.patterns);
    let t = Instant::now();
    let ac_hits = tracer.span("baselines.ac", 0, 0, |_| ac.find_all(text).len());
    let ac_s = secs(t);
    out.put(
        "baselines.ac_mbps",
        mibps(text.len(), ac_s),
        "MiB/s",
        format!(
            "{ac_hits} occurrences; core/AC speed ratio {:.3}",
            ratio(ac_s, core_s)
        ),
    );

    // -- stream.matcher: StreamMatcher::push_into per chunk -------------
    let mut sm = StreamMatcher::new(Arc::clone(&m));
    let mut buf = Vec::new();
    sm.push_into(&seq, chunks[0], &mut buf);
    sm.finish();
    let mut matcher_us = Vec::with_capacity(chunks.len());
    let mut lo = 0u64;
    for (i, c) in chunks.iter().enumerate() {
        buf.clear();
        let t = Instant::now();
        tracer.span("stream.matcher.push_into", 0, i as u64, |_| {
            sm.push_into(&seq, c, &mut buf)
        });
        matcher_us.push(t.elapsed().as_secs_f64() * 1e6);
        // The cursor carries across chunks: everything ending in this one.
        let hi = lo + c.len() as u64;
        got.clear();
        got.extend(buf.iter().map(hit));
        let r = oracle.check(lo, hi, &mut got, |_| true, &mut want);
        out.checked("stream.matcher.push_into", r);
        lo = hi;
    }
    let us = sorted(matcher_us.clone());
    out.put(
        "stream.matcher.chunk_p50_us",
        percentile(&us, 50.0),
        "us",
        format!("n={}", us.len()),
    );
    out.put(
        "stream.matcher.chunk_p99_us",
        percentile(&us, 99.0),
        "us",
        format!("n={}", us.len()),
    );

    // -- stream.service: Session::push → Event::Progress ----------------
    let svc = ShardedService::start(Arc::clone(&m), ServiceConfig::default());
    let sess = svc.open_with(SessionOptions {
        start_offset: 0,
        progress: true,
    });
    // Chunk 0 warms the session up; the rest are timed. All of them are
    // checked, as one stream.
    let (mut svc_ms, mut wait_ms) = (Vec::new(), Vec::new());
    let mut lo = 0u64;
    for (i, c) in chunks.iter().enumerate() {
        got.clear();
        let t = Instant::now();
        let hi = tracer.span("stream.service.push", 0, i as u64, |_| {
            push_wait(&sess, c, &mut got)
        });
        let d = ms(t.elapsed());
        if i > 0 {
            svc_ms.push(d);
            wait_ms.push(d - matcher_us[i] / 1e3);
        }
        let r = oracle.check(lo, hi, &mut got, |_| true, &mut want);
        out.checked("stream.service", r);
        lo = hi;
    }
    drop(sess.close());
    svc.shutdown();
    let svc_p50 = median(&svc_ms);
    out.put(
        "stream.service.chunk_p50_ms",
        svc_p50,
        "ms",
        format!("n={}", svc_ms.len()),
    );
    out.put(
        "stream.service.wait_p99_ms",
        percentile(&sorted(wait_ms), 99.0),
        "ms",
        "service time minus matcher time, same chunk".into(),
    );

    // -- stream.proto: encode and decode the run's frames ---------------
    let mut wire = Vec::with_capacity(matches.len() * 21 + chunks.len() * 13);
    let t = Instant::now();
    tracer.span("stream.proto.encode", 0, 0, |_| {
        let mut consumed = 0u64;
        let mut mi = 0;
        for c in &chunks {
            consumed += c.len() as u64;
            while mi < matches.len() && matches[mi].start + u64::from(matches[mi].len) <= consumed {
                write_frame(&mut wire, TAG_MATCH, &encode_match(&matches[mi])).expect("vec write");
                mi += 1;
            }
            write_frame(&mut wire, TAG_ACK, &encode_ack(consumed)).expect("vec write");
        }
    });
    let enc_s = secs(t);
    let frames = matches.len() + chunks.len();
    let mut dec = FrameDecoder::new();
    let mut decoded = 0usize;
    let t = Instant::now();
    tracer.span("stream.proto.decode", 0, 0, |_| {
        for piece in wire.chunks(64 << 10) {
            dec.feed(piece);
            while let Ok(Some(f)) = dec.next_frame() {
                std::hint::black_box(f);
                decoded += 1;
            }
        }
    });
    let dec_s = secs(t);
    assert_eq!(decoded, frames, "decoder lost frames");
    out.put(
        "stream.proto.encode_ns_per_frame",
        enc_s * 1e9 / frames as f64,
        "ns",
        format!("{frames} frames ({} MATCH)", matches.len()),
    );
    out.put(
        "stream.proto.decode_ns_per_frame",
        dec_s * 1e9 / frames as f64,
        "ns",
        format!("{frames} frames, {} bytes", wire.len()),
    );

    // -- stream.server: one open-loop session over loopback -------------
    let server = tracer.span("stream.server.bind", 0, 0, |_| {
        Server::bind(("127.0.0.1", 0), Arc::clone(&m), ServerConfig::default())
            .expect("bind loopback")
    });
    let addr = server.local_addr();
    let connects: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let c = tracer.span("stream.server.connect", 0, 0, |_| Conn::open(addr, Some(1)));
            let d = ms(t.elapsed());
            drop(c.expect("HELLO_ACK"));
            d
        })
        .collect();
    out.put(
        "stream.server.connect_ms",
        median(&connects),
        "ms",
        "connect → HELLO_ACK, median of 5".into(),
    );
    let interval = Duration::from_secs_f64((2.0 * svc_p50 / 1e3).max(2e-4));
    let n = ((1.0 / interval.as_secs_f64()) as u64).clamp(200, 2000);
    // This session streams the workload's whole text, not the probe
    // prefix, so it has an oracle of its own, built before the schedule
    // starts so that no chunk falls due while it is being built.
    let whole = Oracle::build(&inp.patterns, &inp.text);
    let m0 = server.metrics();
    let sched = OpenLoop {
        start: Instant::now(),
        interval,
    };
    let rec = stream_session(
        addr,
        &inp.text,
        0,
        inp.chunk,
        Pace::Open { sched, chunks: n },
        0,
        &Check::all(&whole),
        tracer,
    );
    let d = delta(&m0, &server.metrics());
    server.shutdown();
    out.mismatches.extend(rec.errors.iter().cloned());
    out.mismatches.extend(rec.mismatches.iter().cloned());
    let tcp = summarize(&rec.ledger.latencies_ms());
    let acked = rec.acks.len().max(1) as f64;
    out.lines.push(format!(
        "stream.server leg: {n} chunks every {:.3} ms, TCP chunk latency {}; {} oracle occurrences per period",
        ms(interval),
        tcp.describe("ms"),
        whole.per_period()
    ));
    out.put(
        "stream.server.transport_p50_ms",
        tcp.p50 - svc_p50,
        "ms",
        format!("TCP p50 {:.4} − service p50 {svc_p50:.4}", tcp.p50),
    );
    out.put(
        "stream.server.wakeups_per_chunk",
        d.reactor_wakeups as f64 / acked,
        "count",
        format!("{} wakeups / {acked} chunks", d.reactor_wakeups),
    );
    out.put(
        "stream.server.partial_writes",
        d.partial_writes as f64,
        "count",
        format!("over {acked} chunks"),
    );
    out.put(
        "stream.service.queue_depth_max",
        d.queue_depth_max as f64,
        "count",
        "server high-water mark".into(),
    );
    out.put(
        "stream.service.stalls",
        d.stalls as f64,
        "count",
        format!("over {acked} chunks"),
    );
    out.put(
        "stream.proto.wire_bytes_per_text_byte",
        ratio(rec.wire_bytes_read as f64, rec.text_bytes as f64),
        "ratio",
        format!("{} read / {} sent", rec.wire_bytes_read, rec.text_bytes),
    );
    let (late, whose) = if pass.late_ms.is_empty() {
        (sorted(rec.ledger.lateness_ms()), "this leg's")
    } else {
        (sorted(pass.late_ms.clone()), "the traced pass's")
    };
    out.put(
        "loadgen.late_p99_ms",
        percentile(&late, 99.0),
        "ms",
        format!("{whose} open-loop sends, n={}", late.len()),
    );

    // -- dict: store commits, epoch adoption, snapshots ------------------
    dict_layers(inp, probe_bytes, &chunks, &mut out, tracer);

    // -- index: suffix array, LCP, batch queries -------------------------
    let ictx = Ctx::with_threads(crate::index::WIDTH);
    let corpus;
    let itext: &[u32] = if inp.workload == Workload::CorpusIndex {
        corpus = symbols(&inp.text);
        &corpus
    } else {
        text
    };
    let t = Instant::now();
    let sarr = tracer.span("index.sa", 0, 0, |_| sa::build_suffix_array(&ictx, itext));
    out.put(
        "index.sa_s",
        secs(t),
        "s",
        format!("{} symbols, width {}", itext.len(), crate::index::WIDTH),
    );
    let t = Instant::now();
    let lcps = tracer.span("index.lcp", 0, 0, |_| lcp::build_lcp(&ictx, itext, &sarr));
    out.put(
        "index.lcp_s",
        secs(t),
        "s",
        format!("{} symbols", itext.len()),
    );
    let idx = pdm_index::CorpusIndex {
        text: itext.to_vec(),
        sa: sarr,
        lcp: lcps,
    };
    let queries: &[Vec<u32>] = match inp.queries.first() {
        Some(q) => q,
        None => &inp.patterns[..inp.patterns.len().min(crate::inputs::QUERY_BATCH)],
    };
    let expect = &crate::index::oracle(itext, std::slice::from_ref(&queries.to_vec()))[0];
    let (mut batch_ms, mut hits) = (Vec::new(), 0usize);
    for i in 0..7 {
        let t = Instant::now();
        let h = tracer.span("index.query_batch", 0, i, |_| {
            idx.query_batch(&ictx, queries, &BatchOptions::default())
        });
        batch_ms.push(ms(t.elapsed()));
        hits = h.iter().map(|x| x.count).sum();
        let r = match (0..queries.len()).find(|&q| h[q].count != expect[q].len()) {
            Some(q) => Err(format!(
                "pattern {q}: count {} but oracle {}",
                h[q].count,
                expect[q].len()
            )),
            None => Ok(()),
        };
        out.checked("index.query_batch", r);
    }
    out.put(
        "index.query.batch_p50_ms",
        median(&batch_ms),
        "ms",
        format!("{} patterns per batch, 7 batches", queries.len()),
    );
    out.put(
        "index.query.hits",
        hits as f64,
        "count",
        "occurrences counted per batch".into(),
    );
    out
}

/// Dictionary store, epoch and snapshot layers: an in-memory store holding
/// the workload's dictionary replays the workload's update batches.
fn dict_layers(
    inp: &Inputs,
    probe_bytes: &[u8],
    chunks: &[&[u32]],
    out: &mut Layers,
    tracer: &Tracer,
) {
    let ctx = Ctx::par();
    let seq = Ctx::seq();
    // Ids in the order the store assigns them: the dictionary, then each
    // replayed batch.
    let batches = &inp.updates[..inp.updates.len().min(PROBE_COMMITS)];
    let all: Vec<Vec<u32>> = inp
        .patterns
        .iter()
        .chain(batches.iter().flatten())
        .cloned()
        .collect();
    let oracle = Oracle::build(&all, probe_bytes);
    let mut store = DictStore::in_memory();
    for p in &inp.patterns {
        store.stage_add(p).expect("distinct patterns");
    }
    let boot = store.commit(&ctx).expect("first commit").snapshot;
    let sidecar = boot
        .to_sidecar_bytes()
        .expect("static boot snapshot has a sidecar form");
    let loads: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let s = tracer.span("dict.snapshot.from_bytes", 0, 0, |_| {
                Snapshot::from_bytes(&ctx, &sidecar)
            });
            let d = secs(t);
            s.expect("sidecar round-trips");
            d
        })
        .collect();
    out.put(
        "dict.snapshot.load_s",
        median(&loads),
        "s",
        format!("{} sidecar bytes, median of 3", sidecar.len()),
    );
    // Matching rate over the first `limit` symbols of the probe stream;
    // each call's output is checked (untimed) against the patterns with
    // ids below `live`.
    let snap_mbps = |snap: &Snapshot, limit: usize, live: usize, out: &mut Layers| {
        let (mut sc, mut v) = (TextScratch::new(), Vec::new());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        snap.find_all_into(
            &seq,
            &chunks[0][..chunks[0].len().min(limit)],
            &mut sc,
            &mut v,
        );
        let (mut bytes, mut s) = (0usize, 0.0);
        for (i, c) in chunks.iter().enumerate() {
            if bytes >= limit {
                break;
            }
            let c = &c[..c.len().min(limit - bytes)];
            let t = Instant::now();
            tracer.span("dict.snapshot.find_all_into", 0, i as u64, |_| {
                snap.find_all_into(&seq, c, &mut sc, &mut v)
            });
            s += secs(t);
            let lo = bytes as u64;
            got.clear();
            got.extend(
                v.iter()
                    .map(|&(at, p)| (lo + at as u64, snap.pattern_len(p), p)),
            );
            let r = oracle.check_within(
                lo,
                lo + c.len() as u64,
                &mut got,
                |p| (p as usize) < live,
                &mut want,
            );
            out.checked("dict.snapshot.find_all_into", r);
            bytes += c.len();
        }
        (mibps(bytes, s), bytes)
    };
    let base = inp.patterns.len();
    let (static_mbps, sb) = snap_mbps(&boot, PROBE_TEXT, base, out);
    out.put(
        "dict.snapshot.static_mbps",
        static_mbps,
        "MiB/s",
        format!("boot snapshot, {sb} symbols"),
    );

    let (mut commit_ms, mut inc, mut full, mut snaps) = (Vec::new(), 0u64, 0u64, Vec::new());
    for (i, batch) in batches.iter().enumerate() {
        for p in batch {
            store.stage_add(p).expect("update patterns are new");
        }
        let t = Instant::now();
        let o = tracer
            .span("dict.store.commit", 0, i as u64, |_| store.commit(&ctx))
            .expect("commit");
        commit_ms.push(ms(t.elapsed()));
        match o.path {
            SnapshotPath::FullRebuild => full += 1,
            _ => inc += 1,
        }
        snaps.push(o.snapshot);
    }
    out.put(
        "dict.store.commit_p50_ms",
        median(&commit_ms),
        "ms",
        format!(
            "{} commits of {} patterns onto {}",
            commit_ms.len(),
            crate::inputs::BATCH,
            inp.patterns.len()
        ),
    );
    out.put(
        "dict.store.incremental_commits",
        inc as f64,
        "count",
        format!("of {} commits", commit_ms.len()),
    );
    out.put(
        "dict.store.full_rebuilds",
        full as f64,
        "count",
        format!("of {} commits", commit_ms.len()),
    );

    let last = snaps.last().expect("at least one probe commit");
    let (inc_mbps, ib) = snap_mbps(last, DYNAMIC_TEXT, all.len(), out);
    out.put(
        "dict.snapshot.incremental_mbps",
        inc_mbps,
        "MiB/s",
        format!("post-commit snapshot ({:?}), {ib} symbols", last.path()),
    );

    // Epoch adoption: publish → Event::Epoch on a streaming session.
    let handle = EpochHandle::new(Arc::clone(&boot));
    let svc = ShardedService::start_versioned(Arc::clone(&handle), ServiceConfig::default());
    let sess = svc.open_with(SessionOptions {
        start_offset: 0,
        progress: true,
    });
    let small = &chunks[0][..chunks[0].len().min(256)];
    // One round trip first, so the session is open before the first publish.
    sess.push(small.to_vec()).expect("service alive");
    while !matches!(sess.next_event(), Some(Event::Progress(_)) | None) {}
    let mut adopt = Vec::new();
    for (i, s) in snaps.iter().enumerate() {
        let span = tracer.open("dict.epoch.adopt", 0, i as u64);
        let t = Instant::now();
        handle.publish(Arc::clone(s));
        sess.push(small.to_vec()).expect("service alive");
        let mut seen = None;
        loop {
            match sess.next_event() {
                Some(Event::Epoch { .. }) => seen = Some(ms(t.elapsed())),
                Some(Event::Progress(_)) => break,
                Some(Event::Failed(e)) => panic!("session failed: {e}"),
                None => panic!("service closed"),
                Some(_) => {}
            }
        }
        tracer.close(span);
        adopt.extend(seen);
    }
    drop(sess.close());
    svc.shutdown();
    out.put(
        "dict.epoch.adopt_p50_ms",
        median(&adopt),
        "ms",
        format!("n={}", adopt.len()),
    );
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}
