//! The three serving workloads: an in-process `Server` over loopback with
//! the default `ServerConfig`, driven by at most two load threads on at
//! most two connections.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use pdm_core::static1d::StaticMatcher;
use pdm_dict::log::{LogFile, Record};
use pdm_dict::DictStore;
use pdm_pram::Ctx;
use pdm_stream::{GlobalSnapshot, Server, ServerConfig};

use crate::client::{admin_session, stream_session, Check, Conn, Pace, StreamRecord};
use crate::host::RssSampler;
use crate::inputs::{bytes, Inputs};
use crate::oracle::Oracle;
use crate::schedule::{ms, OpenLoop};
use crate::stats::{median, percentile, summarize, window_count};
use crate::trace::Tracer;

/// Offered load of the open-loop phase, per connection, in chunks/s:
/// about half of the closed-loop capacity measured on a 2-CPU host. Each
/// run prints its offered load as a share of its own closed-loop rate.
pub const SPARSE_OPEN_RATE: f64 = 180.0;
pub const DENSE_OPEN_RATE: f64 = 100.0;
/// Untimed closed-loop warm-up before the measured phases. On a shared
/// 2-CPU host the first seconds of load after an idle spell run slower,
/// so the warm-up keeps both CPUs busy for a while before timing starts.
const WARMUP: Duration = Duration::from_secs(2);
/// Closed-loop chunks in flight per connection.
const WINDOW: usize = 4;
/// Most windows a measured phase is cut into; the reported rate and
/// latencies are medians over them.
pub const WINDOWS: usize = 15;
/// Closed-loop / open-loop slice pairs of a static workload's run, and the
/// rate windows each closed-loop slice is cut into.
pub const SLICES: usize = 10;
const WINDOWS_PER_SLICE: usize = 2;
/// Percentile reported as `latency_tail_ms`, per latency window.
pub const TAIL_PCT: f64 = 90.0;
/// Set-ups timed per run: at least `MIN_SETUPS`, then more while their
/// total stays under `SETUP_BUDGET_S`, up to `MAX_SETUPS`. `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 51;
const SETUP_BUDGET_S: f64 = 1.5;

/// Whether another set-up should be timed after those in `done`.
pub fn more_setups(done: &[f64]) -> bool {
    done.len() < MIN_SETUPS
        || (done.len() < MAX_SETUPS && done.iter().sum::<f64>() < SETUP_BUDGET_S)
}
/// Shortest live-update commit interval. One commit on the 20k-pattern
/// store takes about 80 ms on a 2-CPU host, so at 140 ms the commit path
/// runs at under 60 % load.
pub const COMMIT_INTERVAL: Duration = Duration::from_millis(140);
/// Timed live-update commits per run: the schedule spreads them evenly
/// over the run (at most one per [`COMMIT_INTERVAL`]), so a longer run
/// loads the commit path less instead of growing the store further.
pub const TIMED_COMMITS: usize = crate::inputs::LIVE_COMMITS;
/// How long the stream runs on after the last commit falls due, so that
/// commit's epoch reaches it.
const VISIBLE_GRACE: Duration = Duration::from_secs(1);

/// What one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: Vec<f64>,
    /// Input bytes per second of each closed-loop round (or window), in
    /// MiB/s; the reported rate is their median.
    pub throughput: Vec<f64>,
    /// The user-facing operation's latency, in ms, in the order the
    /// requests fell due.
    pub latency: Vec<f64>,
    /// How late the open-loop generator sent each request, in ms.
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `VmRSS` samples over the measured phase, in MiB; the reported
    /// resident set is their median.
    pub rss: Vec<f64>,
    /// `VmHWM` at the end of the measured phase, before the server shuts
    /// down, in MiB.
    pub peak_rss_mib: f64,
    /// Oracle disagreements; any one fails the run.
    pub mismatches: Vec<String>,
    /// Human-readable report lines, metric name first.
    pub lines: Vec<String>,
}

impl Pass {
    pub fn throughput_mibps(&self) -> f64 {
        median_or_zero(&self.throughput)
    }

    pub fn rss_mib(&self) -> f64 {
        median_or_zero(&self.rss)
    }

    /// Stop `sampler` and record the resident set of the measured phase.
    pub fn end_rss(&mut self, sampler: RssSampler) {
        self.rss = sampler.finish();
        self.peak_rss_mib = crate::host::peak_rss_mib();
    }

    /// The latencies cut into consecutive windows of equal size: as many
    /// as [`WINDOWS`], but each with at least
    /// [`crate::stats::TAIL_MIN_BEYOND`] samples beyond its [`TAIL_PCT`].
    pub fn latency_windows(&self) -> Vec<&[f64]> {
        let n = self.latency.len();
        let k = window_count(n, TAIL_PCT, WINDOWS);
        (0..k)
            .map(|j| &self.latency[j * n / k..(j + 1) * n / k])
            .collect()
    }

    /// Median over windows of each window's median.
    pub fn latency_p50(&self) -> f64 {
        let p50: Vec<f64> = self
            .latency_windows()
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| median(w))
            .collect();
        median_or_zero(&p50)
    }

    /// Median over windows of each window's [`TAIL_PCT`].
    pub fn latency_tail(&self) -> f64 {
        let tails: Vec<f64> = self
            .latency_windows()
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let mut v = w.to_vec();
                v.sort_by(f64::total_cmp);
                percentile(&v, TAIL_PCT)
            })
            .collect();
        median_or_zero(&tails)
    }

    fn absorb(&mut self, rec: &StreamRecord) {
        self.mismatches.extend(rec.mismatches.iter().cloned());
        self.attempted += 1 + rec.ledger.len() as u64;
        self.failed += rec.ledger.unfinished() as u64;
        if !rec.errors.is_empty() || rec.summary.is_none() {
            self.failed += 1;
            for e in &rec.errors {
                self.lines.push(format!("session error: {e}"));
            }
        }
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Counter deltas `b − a` (gauges and high-water marks keep `b`).
pub fn delta(a: &GlobalSnapshot, b: &GlobalSnapshot) -> GlobalSnapshot {
    let mut d = *b;
    d.chunks -= a.chunks;
    d.bytes -= a.bytes;
    d.matches -= a.matches;
    d.stalls -= a.stalls;
    d.reactor_wakeups -= a.reactor_wakeups;
    d.reactor_events -= a.reactor_events;
    d.frames_decoded -= a.frames_decoded;
    d.partial_writes -= a.partial_writes;
    d.epoch_adoptions -= a.epoch_adoptions;
    d.epoch_swaps -= a.epoch_swaps;
    d.dict_applies_incremental -= a.dict_applies_incremental;
    d.dict_rebuilds_full -= a.dict_rebuilds_full;
    d.sessions_failed -= a.sessions_failed;
    d
}

/// Time matcher build + bind + first `HELLO_ACK` (see [`more_setups`]);
/// keep the last server.
fn setup_static(inp: &Inputs, tracer: &Tracer, pass: &mut Pass) -> (Arc<StaticMatcher>, Server) {
    let mut kept = None;
    while more_setups(&pass.setup_s) {
        if let Some((_, old)) = kept.take() {
            Server::shutdown(old);
        }
        let t0 = Instant::now();
        let root = tracer.open("setup", 0, 0);
        let m = tracer.span("core.build", root.id, 0, |_| {
            StaticMatcher::build(&Ctx::par(), &inp.patterns).expect("distinct non-empty patterns")
        });
        let m = Arc::new(m);
        let server = tracer.span("stream.server.bind", root.id, 0, |_| {
            Server::bind(("127.0.0.1", 0), Arc::clone(&m), ServerConfig::default())
                .expect("bind loopback")
        });
        let hello = tracer.span("stream.server.connect", root.id, 0, |_| {
            Conn::open(server.local_addr(), Some(1))
        });
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        tracer.close(root);
        drop(hello.expect("first HELLO_ACK"));
        kept = Some((m, server));
    }
    kept.expect("at least one set-up")
}

/// One session per connection, both at once; connection `c` streams the
/// text from `offs[c]` on, which then moves past what it sent.
fn run_pair(
    addr: SocketAddr,
    text: &[u8],
    offs: &mut [u64; 2],
    chunk: usize,
    paces: [Pace; 2],
    check: &Check,
    tracer: &Tracer,
) -> Vec<StreamRecord> {
    let recs: Vec<StreamRecord> = thread::scope(|s| {
        let hs: Vec<_> = paces
            .into_iter()
            .zip(*offs)
            .map(|(pace, off)| {
                s.spawn(move || stream_session(addr, text, off, chunk, pace, 0, check, tracer))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    for (off, rec) in offs.iter_mut().zip(&recs) {
        *off += rec.text_bytes;
    }
    recs
}

/// `sparse_watchlist` / `dense_motifs`: closed-loop throughput and
/// open-loop chunk latency at a fixed rate, each for half the time, in
/// [`SLICES`] alternating slices, so that both sample the whole run.
pub fn static_pass(
    inp: &Inputs,
    oracle: &Oracle,
    seconds: f64,
    rate: f64,
    tracer: &Tracer,
) -> Pass {
    let mut pass = Pass::default();
    let (_m, server) = setup_static(inp, tracer, &mut pass);
    pass.lines.push(format!(
        "VmHWM before load (after set-up): {:.3} MiB",
        crate::host::peak_rss_mib()
    ));
    let addr = server.local_addr();
    let chunk = inp.chunk;
    let check = Check::all(oracle);
    let mut records = Vec::new();
    // Where each connection's next session starts in the periodic text:
    // half a period apart, each going on from where its last one stopped.
    let half = (inp.text.len() / 2 / chunk * chunk) as u64;
    let mut offs = [0, half];

    // Warm-up, untimed: builds the lazy all-matches chains, the sessions'
    // scratch and the allocator's free lists.
    let warm_until = Instant::now() + WARMUP;
    records.extend(run_pair(
        addr,
        &inp.text,
        &mut offs,
        chunk,
        [Pace::Closed {
            window: WINDOW,
            stop_at: warm_until,
        }; 2],
        &check,
        tracer,
    ));

    let rss = RssSampler::start();
    let slice = Duration::from_secs_f64(seconds / (2 * SLICES) as f64);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let chunks = (rate * slice.as_secs_f64()).round().max(1.0) as u64;
    let (mut closed_bytes, mut closed_s) = (0u64, 0f64);
    let mut open = Vec::new();
    for _ in 0..SLICES {
        // Closed loop: one session per connection; the rate is taken per
        // window of acknowledged bytes, and over the slice from first
        // connect to last SUMMARY.
        let t0 = Instant::now();
        let stop_at = t0 + slice;
        let closed = run_pair(
            addr,
            &inp.text,
            &mut offs,
            chunk,
            [Pace::Closed {
                window: WINDOW,
                stop_at,
            }; 2],
            &check,
            tracer,
        );
        let last = closed
            .iter()
            .filter_map(|r| r.finished)
            .max()
            .unwrap_or_else(Instant::now);
        closed_bytes += closed.iter().map(|r| r.text_bytes).sum::<u64>();
        closed_s += (last - t0).as_secs_f64();
        pass.throughput
            .extend(ack_windows(&closed, t0, stop_at, WINDOWS_PER_SLICE));
        records.extend(closed);

        // Open loop: one session per connection, the two offset by half
        // an interval; latency from each chunk's due time to its ACK.
        let start = Instant::now() + Duration::from_millis(5);
        let open_paces = [0.0, 0.5].map(|phase| Pace::Open {
            sched: OpenLoop {
                start: start + interval.mul_f64(phase),
                interval,
            },
            chunks,
        });
        open.extend(run_pair(
            addr, &inp.text, &mut offs, chunk, open_paces, &check, tracer,
        ));
    }
    pass.end_rss(rss);
    server.shutdown();
    let closed_mibps = closed_bytes as f64 / f64::from(1 << 20) / closed_s;
    pass.lines.push(format!(
        "closed loop: {SLICES} slices x 2 connections x {WINDOW} chunks in flight, {closed_bytes} bytes in {closed_s:.3} s = {closed_mibps:.4} MiB/s first connect to last SUMMARY; MiB/s per window {:.4?}",
        pass.throughput
    ));

    let mut by_due: Vec<_> = open
        .iter()
        .flat_map(|r| r.ledger.latencies_by_due())
        .collect();
    by_due.sort_by_key(|&(due, _)| due);
    pass.latency = by_due.into_iter().map(|(_, l)| l).collect();
    pass.late_ms = open.iter().flat_map(|r| r.ledger.lateness_ms()).collect();
    let offered = 2.0 * rate * chunk as f64 / f64::from(1 << 20);
    pass.lines.push(format!(
        "open loop: {SLICES} slices x 2 connections x {rate} chunks/s of {chunk} bytes, {chunks} chunks each = {offered:.4} MiB/s offered, {:.3} of this run's closed-loop {closed_mibps:.4} MiB/s",
        offered / closed_mibps
    ));
    records.extend(open);
    for rec in &records {
        pass.absorb(rec);
    }
    pass
}

/// Write a committed 20k-pattern log and its `.snap` sidecar under `dir`.
pub fn prepare_store(dir: &Path, patterns: &[Vec<u32>]) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("create work directory");
    let path = dir.join("dict.log");
    let mut log = LogFile::create(&path).expect("create dictionary log");
    for p in patterns {
        log.append(&Record::Add(p.clone())).expect("append");
    }
    log.append(&Record::Commit(1)).expect("append commit");
    log.sync().expect("sync log");
    drop(log);
    let mut store = DictStore::open(&path).expect("open prepared log");
    store
        .compact(&Ctx::par())
        .expect("compact writes the sidecar");
    path
}

/// `live_update`: one connection streams log lines closed-loop while an
/// admin connection commits 16-pattern batches on a fixed schedule.
pub fn live_pass(inp: &Inputs, oracle: &Oracle, log: &Path, seconds: f64, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut kept: Option<Server> = None;
    while more_setups(&pass.setup_s) {
        if let Some(old) = kept.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let root = tracer.open("setup", 0, 0);
        let store = tracer.span("dict.store.open", root.id, 0, |_| {
            DictStore::open(log).expect("open dictionary log")
        });
        let server = tracer.span("stream.server.bind_versioned", root.id, 0, |_| {
            Server::bind_versioned(("127.0.0.1", 0), store, ServerConfig::default())
                .expect("bind loopback")
        });
        let hello = tracer.span("stream.server.connect", root.id, 0, |_| {
            Conn::open(server.local_addr(), Some(1))
        });
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        tracer.close(root);
        drop(hello.expect("first HELLO_ACK"));
        let cold = server.dict_admin().is_some_and(|a| a.booted_cold());
        if !cold {
            pass.mismatches
                .push("boot did not cold-load the .snap sidecar".into());
        }
        kept = Some(server);
    }
    let server = kept.expect("at least one set-up");
    let addr = server.local_addr();
    let text_batches: Vec<Vec<Vec<u8>>> = inp
        .updates
        .iter()
        .map(|b| b.iter().map(|p| bytes(p)).collect())
        .collect();

    // Warm-up commit, untimed: hydrates the store's dynamic matcher.
    let now = OpenLoop {
        start: Instant::now(),
        interval: Duration::ZERO,
    };
    let t_warm = Instant::now();
    let warm = admin_session(addr, &text_batches[..1], now, tracer);
    let warm_ms = ms(t_warm.elapsed());
    pass.lines.push(format!(
        "VmHWM before the timed phase (after set-up and the warm-up commit): {:.3} MiB",
        crate::host::peak_rss_mib()
    ));
    let epoch0 = warm.epochs.first().copied().flatten().unwrap_or(0);

    let commit_time = Duration::from_secs_f64(seconds).saturating_sub(VISIBLE_GRACE);
    let commits = (commit_time.as_millis() / COMMIT_INTERVAL.as_millis()).max(1) as usize;
    let commits = commits.min(TIMED_COMMITS).min(text_batches.len() - 1);
    let interval = (commit_time / commits as u32).max(COMMIT_INTERVAL);

    // Epoch each pattern id becomes live at: base patterns at the store's
    // first epoch, the warm-up batch at the epoch its commit reported, and
    // timed batch `j` at `epoch0 + 1 + j`, since every commit advances the
    // epoch by one (checked against the replies below).
    let base = inp.patterns.len();
    let mut live_from: Vec<u64> = vec![0; base];
    for (b, batch) in inp.updates.iter().enumerate() {
        let e = match b {
            0 => epoch0,
            _ if b <= commits => epoch0 + b as u64,
            _ => u64::MAX,
        };
        live_from.extend(std::iter::repeat_n(e, batch.len()));
    }
    let live = |p: u32, epoch: u64| live_from[p as usize] <= epoch;
    let check = Check {
        oracle,
        live: &live,
    };
    let start = Instant::now() + Duration::from_millis(50);
    let sched = OpenLoop { start, interval };
    let stop_at = Instant::now() + Duration::from_secs_f64(seconds);
    let rss = RssSampler::start();
    let t0 = Instant::now();
    let (stream, admin) = thread::scope(|s| {
        let st = s.spawn(|| {
            stream_session(
                addr,
                &inp.text,
                0,
                inp.chunk,
                Pace::Closed { window: 2, stop_at },
                epoch0,
                &check,
                tracer,
            )
        });
        let ad = s.spawn(|| admin_session(addr, &text_batches[1..=commits], sched, tracer));
        (
            st.join().expect("stream thread panicked"),
            ad.join().expect("admin thread panicked"),
        )
    });
    let wall = stream.finished.unwrap_or_else(Instant::now) - t0;
    pass.end_rss(rss);
    server.shutdown();
    pass.throughput = ack_windows(std::slice::from_ref(&stream), t0, stop_at, WINDOWS);
    pass.lines.push(format!(
        "stream: {} bytes in {:.3} s, {:.4} MiB/s overall; MiB/s per window {:.4?}",
        stream.text_bytes,
        wall.as_secs_f64(),
        stream.text_bytes as f64 / f64::from(1 << 20) / wall.as_secs_f64(),
        pass.throughput
    ));

    for (j, e) in admin.epochs.iter().enumerate() {
        let expect = epoch0 + 1 + j as u64;
        if e.is_some_and(|e| e != expect) {
            pass.mismatches.push(format!(
                "commit {j} reported epoch {e:?}, the stream was checked against {expect}"
            ));
            break;
        }
    }

    // Commit → first TAG_EPOCH at or past that epoch on the stream.
    let mut visible = Vec::new();
    let mut invisible = 0u64;
    for (i, e) in admin.epochs.iter().enumerate() {
        let sent = admin.ledger.sent(i).unwrap_or(admin.ledger.due(i));
        match e.and_then(|e| stream.epochs.iter().find(|&&(se, _)| se >= e)) {
            Some(&(_, at)) => visible.push(ms(at.saturating_duration_since(sent))),
            None => invisible += 1,
        }
    }
    pass.latency = visible;
    pass.late_ms = admin.ledger.lateness_ms();
    pass.absorb(&stream);
    let ops = (commits * (crate::inputs::BATCH + 1)) as u64;
    pass.attempted += ops;
    pass.failed += admin.dict_errors + (ops - admin.replies.min(ops)) + invisible;
    for e in admin.errors.iter().chain(&warm.errors) {
        pass.lines.push(format!("admin error: {e}"));
        pass.failed += 1;
    }
    pass.lines.push(format!(
        "commit round trip (DICT_COMMIT sent to DICT_OK): {}",
        summarize(&admin.ledger.latencies_ms()).describe("ms")
    ));
    pass.lines.push(format!(
        "warm-up commit (hydrates the dynamic matcher): {warm_ms:.3} ms; {commits} timed commits every {} ms; {} epochs adopted on the stream",
        interval.as_millis(),
        stream.epochs.len()
    ));
    pass
}

/// Closed-loop sessions' acknowledged bytes per second, in MiB/s, over
/// `windows` equal windows of `[t0, stop)`.
fn ack_windows(recs: &[StreamRecord], t0: Instant, stop: Instant, windows: usize) -> Vec<f64> {
    let span = (stop - t0).as_secs_f64() / windows as f64;
    let mut bytes = vec![0u64; windows];
    for rec in recs {
        let mut prev = 0;
        for (k, &hi) in rec.acks.iter().enumerate() {
            if let Some(at) = rec.ledger.done(k) {
                let w = ((at - t0).as_secs_f64() / span) as usize;
                if w < windows {
                    bytes[w] += hi - prev;
                }
            }
            prev = hi;
        }
    }
    bytes
        .iter()
        .map(|&b| b as f64 / f64::from(1 << 20) / span)
        .collect()
}
