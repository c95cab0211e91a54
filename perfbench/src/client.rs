//! Load-generating TCP client for the `pdm` frame protocol.
//!
//! One thread drives one connection: a non-blocking socket polled for
//! readability (and writability while output is queued), so the client
//! reads matches while it is still sending and never deadlocks against
//! the server's bounded queues.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token};
use pdm_stream::proto::{
    decode_ack, decode_epoch, decode_hello_ack, decode_match, decode_summary, encode_hello,
    read_frame, write_frame, FrameDecoder, Hello, TAG_ACK, TAG_CHUNK, TAG_CLOSE, TAG_DICT_ADD,
    TAG_DICT_COMMIT, TAG_DICT_ERR, TAG_DICT_OK, TAG_EPOCH, TAG_ERROR, TAG_HELLO, TAG_HELLO_ACK,
    TAG_MATCH, TAG_SUMMARY,
};
use pdm_stream::SessionSummary;

use crate::oracle::{periodic_slice, Hit, Oracle};
use crate::schedule::{Ledger, OpenLoop};
use crate::trace::Tracer;

const SOCK: Token = Token(0);
/// Sent prefix of the output buffer that triggers compaction.
const COMPACT_AT: usize = 1 << 20;
/// Longest a load thread sleeps in `poll` before re-checking its clock.
const TICK: Duration = Duration::from_millis(20);

/// A connected, non-blocking protocol connection.
pub struct Conn {
    sock: TcpStream,
    poll: Poll,
    events: Events,
    out: Vec<u8>,
    out_pos: usize,
    queued: u64,
    flushed: u64,
    dec: FrameDecoder,
    rbuf: Vec<u8>,
    pub bytes_read: u64,
    writable: bool,
    pub eof: bool,
}

impl Conn {
    /// Connect; with `ack_every`, send `HELLO` and wait (blocking) for the
    /// `HELLO_ACK` before switching to non-blocking mode.
    pub fn open(addr: SocketAddr, ack_every: Option<u32>) -> io::Result<Conn> {
        let mut sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        let mut bytes_read = 0;
        if let Some(ack_every) = ack_every {
            let hello = encode_hello(&Hello {
                resume_offset: 0,
                ack_every,
            });
            write_frame(&mut sock, TAG_HELLO, &hello)?;
            sock.set_read_timeout(Some(Duration::from_secs(30)))?;
            match read_frame(&mut sock)? {
                Some((TAG_HELLO_ACK, p)) if decode_hello_ack(&p).is_some() => {
                    bytes_read += 5 + p.len() as u64;
                }
                other => {
                    return Err(io::Error::other(format!(
                        "expected HELLO_ACK, got {:?}",
                        other.map(|f| f.0)
                    )))
                }
            }
            sock.set_read_timeout(None)?;
        }
        sock.set_nonblocking(true)?;
        let poll = Poll::new()?;
        poll.register(&sock, SOCK, Interest::READABLE)?;
        Ok(Conn {
            sock,
            poll,
            events: Events::with_capacity(4),
            out: Vec::with_capacity(1 << 20),
            out_pos: 0,
            queued: 0,
            flushed: 0,
            dec: FrameDecoder::new(),
            rbuf: vec![0; 256 << 10],
            bytes_read,
            writable: false,
            eof: false,
        })
    }

    /// Queue one frame; returns the stream position just past it.
    pub fn queue(&mut self, tag: u8, payload: &[u8]) -> u64 {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos >= COMPACT_AT {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        write_frame(&mut self.out, tag, payload).expect("frame fits MAX_FRAME");
        self.queued += 5 + payload.len() as u64;
        self.queued
    }

    /// Bytes handed to the kernel so far.
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// Hand as much queued output to the kernel as it takes now.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.sock.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.flushed += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Flush what is queued, wait up to `timeout` for the socket, then read
    /// and decode every frame available.
    pub fn pump(
        &mut self,
        timeout: Duration,
        tracer: &Tracer,
        on_frame: &mut dyn FnMut(u8, &[u8]),
    ) -> io::Result<()> {
        self.flush()?;
        let want_write = self.out_pos < self.out.len();
        if want_write != self.writable {
            let interest = if want_write {
                Interest::READABLE.add(Interest::WRITABLE)
            } else {
                Interest::READABLE
            };
            self.poll.reregister(&self.sock, SOCK, interest)?;
            self.writable = want_write;
        }
        if !self.eof {
            self.poll.poll(&mut self.events, Some(timeout))?;
        }
        self.flush()?;
        loop {
            match self.sock.read(&mut self.rbuf) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.bytes_read += n as u64;
                    let span = tracer.open("client.decode", 0, 0);
                    self.dec.feed(&self.rbuf[..n]);
                    while let Some((tag, payload)) = self.dec.next_frame()? {
                        on_frame(tag, &payload);
                    }
                    tracer.close(span);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// How a streaming session paces its chunks.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Keep `window` chunks unacknowledged; stop sending at `stop_at`.
    Closed { window: usize, stop_at: Instant },
    /// Send `chunks` chunks on a fixed schedule.
    Open { sched: OpenLoop, chunks: u64 },
}

/// Everything a streaming session observed. Each chunk's matches are
/// checked against the oracle when its `ACK` has arrived and then dropped,
/// so the record's size does not grow with the matches the server sends.
#[derive(Debug, Default)]
pub struct StreamRecord {
    pub finished: Option<Instant>,
    /// Offset in the periodic text the session began at.
    pub text_off: u64,
    /// One entry per chunk: due, sent and acknowledged times.
    pub ledger: Ledger,
    /// `consumed` offset of each `ACK`, in order (one per chunk).
    pub acks: Vec<u64>,
    /// Every `TAG_EPOCH` with its arrival time.
    pub epochs: Vec<(u64, Instant)>,
    /// `MATCH` frames received.
    pub matches: u64,
    pub text_bytes: u64,
    pub wire_bytes_read: u64,
    pub summary: Option<SessionSummary>,
    pub errors: Vec<String>,
    /// Oracle disagreements (the first few; any one fails the run).
    pub mismatches: Vec<String>,
}

/// Oracle disagreements a session keeps word of.
const MAX_MISMATCHES: usize = 3;

impl StreamRecord {
    fn mismatch(&mut self, msg: String) {
        if self.mismatches.len() < MAX_MISMATCHES {
            self.mismatches.push(msg);
        }
    }
}

/// What a session's matches are checked against: `live(pattern, epoch)`
/// says whether a pattern counts in a chunk matched under `epoch`.
pub struct Check<'a> {
    pub oracle: &'a Oracle,
    pub live: &'a (dyn Fn(u32, u64) -> bool + Sync),
}

impl Check<'_> {
    /// A fixed dictionary: every pattern counts in every chunk.
    pub fn all(oracle: &Oracle) -> Check<'_> {
        Check {
            oracle,
            live: &|_, _| true,
        }
    }
}

/// Stream the periodic `text` from offset `text_off` on, in `chunk`-byte
/// chunks over one session (`HELLO ack_every=1`), then `CLOSE` and wait
/// for the `SUMMARY`. `epoch0` is the dictionary epoch the session starts
/// under.
#[allow(clippy::too_many_arguments)]
pub fn stream_session(
    addr: SocketAddr,
    text: &[u8],
    text_off: u64,
    chunk: usize,
    pace: Pace,
    epoch0: u64,
    check: &Check,
    tracer: &Tracer,
) -> StreamRecord {
    let mut rec = StreamRecord {
        text_off,
        ..StreamRecord::default()
    };
    let connect = tracer.open("stream.server.connect", 0, 0);
    let mut conn = match Conn::open(addr, Some(1)) {
        Ok(c) => c,
        Err(e) => {
            rec.errors.push(format!("connect: {e}"));
            return rec;
        }
    };
    tracer.close(connect);
    let mut payload = Vec::with_capacity(chunk);
    // (chunk index, stream position past its frame) not yet fully sent.
    let mut unsent: VecDeque<(usize, u64)> = VecDeque::new();
    let mut next: u64 = 0;
    let mut closing = false;
    let mut epoch = epoch0;
    // Matches not yet checked, and per newly acknowledged chunk: (chunk,
    // end of its run in `hits`, epoch it was matched under).
    let mut hits: Vec<Hit> = Vec::new();
    let mut acked: Vec<(usize, usize, u64)> = Vec::new();
    let mut want: Vec<Hit> = Vec::new();
    loop {
        let now = Instant::now();
        loop {
            let due = match pace {
                Pace::Closed { window, stop_at } => {
                    (now < stop_at && rec.ledger.len() - rec.acks.len() < window).then_some(now)
                }
                Pace::Open { sched, chunks } => (next < chunks)
                    .then(|| sched.due(next))
                    .filter(|&d| d <= now),
            };
            let Some(due) = due.filter(|_| !closing) else {
                break;
            };
            let i = rec.ledger.add(due);
            periodic_slice(text, text_off + next * chunk as u64, chunk, &mut payload);
            unsent.push_back((i, conn.queue(TAG_CHUNK, &payload)));
            rec.text_bytes += chunk as u64;
            next += 1;
        }
        let stop_sending = match pace {
            Pace::Closed { stop_at, .. } => now >= stop_at,
            Pace::Open { chunks, .. } => next >= chunks,
        };
        if stop_sending && !closing {
            conn.queue(TAG_CLOSE, &[]);
            closing = true;
        }
        let timeout = match pace {
            Pace::Open { sched, chunks } if next < chunks => {
                sched.due(next).saturating_duration_since(now).min(TICK)
            }
            _ => TICK,
        };
        let flushed = conn.flush();
        mark_sent(&mut unsent, &conn, &mut rec.ledger);
        let result = flushed.and_then(|()| {
            conn.pump(timeout, tracer, &mut |tag, p| match tag {
                TAG_MATCH => match decode_match(p) {
                    Some(m) => {
                        rec.matches += 1;
                        // Session offsets → offsets in the periodic text.
                        hits.push((text_off + m.start, m.len, m.pat));
                    }
                    None => rec.errors.push("malformed MATCH frame".into()),
                },
                TAG_ACK => {
                    let at = Instant::now();
                    let k = rec.acks.len();
                    if k >= rec.ledger.len() {
                        rec.errors.push("ACK for a chunk never sent".into());
                        return;
                    }
                    rec.acks.push(decode_ack(p).unwrap_or(u64::MAX));
                    acked.push((k, hits.len(), epoch));
                    rec.ledger.mark_done(k, at);
                    tracer.record("stream.chunk", 0, k as u64, rec.ledger.due(k), at);
                }
                TAG_EPOCH => match decode_epoch(p) {
                    Some(e) => {
                        epoch = e.epoch;
                        rec.epochs.push((e.epoch, Instant::now()));
                    }
                    None => rec.errors.push("malformed EPOCH frame".into()),
                },
                TAG_SUMMARY => {
                    rec.summary = decode_summary(p);
                    rec.finished = Some(Instant::now());
                }
                TAG_ERROR => rec
                    .errors
                    .push(format!("server error: {}", String::from_utf8_lossy(p))),
                other => rec.errors.push(format!("unexpected frame tag {other:#x}")),
            })
        });
        mark_sent(&mut unsent, &conn, &mut rec.ledger);
        // Checked after the read loop, so the check never delays the
        // timestamp of a later ACK in the same read.
        let mut from = 0;
        for &(k, to, epoch) in &acked {
            check_chunk(
                &mut rec,
                check,
                chunk as u64,
                k,
                epoch,
                &mut hits[from..to],
                &mut want,
            );
            from = to;
        }
        hits.drain(..from);
        acked.clear();
        if let Err(e) = result {
            rec.errors.push(format!("socket: {e}"));
            break;
        }
        if rec.summary.is_some() || !rec.errors.is_empty() {
            break;
        }
        if conn.eof {
            rec.errors.push("connection closed before SUMMARY".into());
            break;
        }
    }
    if !hits.is_empty() {
        rec.mismatch(format!("{} MATCH frames after the last ACK", hits.len()));
    }
    if let Some(s) = rec.summary {
        if s.consumed != rec.text_bytes || s.matches != rec.matches {
            rec.mismatch(format!(
                "SUMMARY says {} bytes / {} matches, client saw {} / {}",
                s.consumed, s.matches, rec.text_bytes, rec.matches
            ));
        }
    }
    rec.wire_bytes_read = conn.bytes_read;
    rec
}

/// Check acknowledged chunk `k`, whose matches are `got` (in text
/// offsets), against the oracle.
fn check_chunk(
    rec: &mut StreamRecord,
    check: &Check,
    chunk: u64,
    k: usize,
    epoch: u64,
    got: &mut [Hit],
    want: &mut Vec<Hit>,
) {
    let (lo, hi) = (k as u64 * chunk, rec.acks[k]);
    if hi != lo + chunk {
        rec.mismatch(format!(
            "chunk {k}: ACK covers {hi} bytes, sent {}",
            lo + chunk
        ));
        return;
    }
    let off = rec.text_off;
    if let Err(e) = check.oracle.check_from(
        off,
        off + lo,
        off + hi,
        got,
        |p| (check.live)(p, epoch),
        want,
    ) {
        rec.mismatch(format!("chunk {k} (epoch {epoch}): {e}"));
    }
}

/// Mark every request whose frame the kernel has now taken as sent.
fn mark_sent(unsent: &mut VecDeque<(usize, u64)>, conn: &Conn, ledger: &mut Ledger) {
    let now = Instant::now();
    while unsent
        .front()
        .is_some_and(|&(_, end)| conn.flushed() >= end)
    {
        let (i, _) = unsent.pop_front().expect("checked non-empty");
        ledger.mark_sent(i, now);
    }
}

/// What the admin connection observed.
#[derive(Debug, Default)]
pub struct AdminRecord {
    /// Per batch: due, sent (the `DICT_COMMIT` frame handed to the kernel)
    /// and acknowledged (`DICT_OK` for the commit) times.
    pub ledger: Ledger,
    /// Per batch: the epoch its commit's `DICT_OK` reported, if any.
    pub epochs: Vec<Option<u64>>,
    pub replies: u64,
    pub dict_errors: u64,
    pub errors: Vec<String>,
}

/// Send each batch as `DICT_ADD`×k + `DICT_COMMIT`, batch `i` when it is
/// due on `sched`, and collect every reply.
pub fn admin_session(
    addr: SocketAddr,
    batches: &[Vec<Vec<u8>>],
    sched: OpenLoop,
    tracer: &Tracer,
) -> AdminRecord {
    let mut rec = AdminRecord::default();
    let mut conn = match Conn::open(addr, None) {
        Ok(c) => c,
        Err(e) => {
            rec.errors.push(format!("connect: {e}"));
            return rec;
        }
    };
    let expected: u64 = batches.iter().map(|b| b.len() as u64 + 1).sum();
    // Pending replies, oldest first: (batch, is the commit reply).
    let mut reply_owner: VecDeque<(usize, bool)> = VecDeque::new();
    let mut unsent: VecDeque<(usize, u64)> = VecDeque::new();
    let mut next = 0usize;
    let mut closed = false;
    loop {
        let now = Instant::now();
        while next < batches.len() && sched.due(next as u64) <= now {
            let i = rec.ledger.add(sched.due(next as u64));
            rec.epochs.push(None);
            for p in &batches[next] {
                conn.queue(TAG_DICT_ADD, p);
                reply_owner.push_back((i, false));
            }
            unsent.push_back((i, conn.queue(TAG_DICT_COMMIT, &[])));
            reply_owner.push_back((i, true));
            next += 1;
        }
        if next == batches.len() && rec.replies == expected && !closed {
            conn.queue(TAG_CLOSE, &[]);
            closed = true;
        }
        let timeout = if next < batches.len() {
            sched
                .due(next as u64)
                .saturating_duration_since(now)
                .min(TICK)
        } else {
            TICK
        };
        let mut summary = false;
        let flushed = conn.flush();
        mark_sent(&mut unsent, &conn, &mut rec.ledger);
        let result = flushed.and_then(|()| {
            conn.pump(timeout, tracer, &mut |tag, p| match tag {
                TAG_DICT_OK | TAG_DICT_ERR => {
                    rec.replies += 1;
                    let Some((i, is_commit)) = reply_owner.pop_front() else {
                        rec.errors.push("admin reply without a request".into());
                        return;
                    };
                    if tag == TAG_DICT_ERR {
                        rec.dict_errors += 1;
                        return;
                    }
                    if is_commit {
                        let epoch = p.get(..8).map_or(0, |b| {
                            u64::from_le_bytes(b.try_into().expect("8-byte slice"))
                        });
                        rec.epochs[i] = Some(epoch);
                        rec.ledger.mark_done(i, Instant::now());
                    }
                }
                TAG_SUMMARY => summary = true,
                TAG_ERROR => rec
                    .errors
                    .push(format!("server error: {}", String::from_utf8_lossy(p))),
                other => rec
                    .errors
                    .push(format!("unexpected admin frame {other:#x}")),
            })
        });
        mark_sent(&mut unsent, &conn, &mut rec.ledger);
        if let Err(e) = result {
            rec.errors.push(format!("socket: {e}"));
            break;
        }
        if summary || conn.eof || !rec.errors.is_empty() {
            break;
        }
    }
    rec
}
