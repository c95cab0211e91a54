//! Open-loop request accounting.
//!
//! An open-loop generator sends request `i` when it falls due, at
//! `start + i · interval`, whether or not earlier requests have finished.
//! Latency is measured from the due time, not the send time, so a stalled
//! send still charges its wait to every request queued behind it; how late
//! the generator itself sent is reported separately.

use std::time::{Duration, Instant};

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub start: Instant,
    pub interval: Duration,
}

impl OpenLoop {
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }
}

/// Due, send and completion times of every request of one generator.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    due: Vec<Instant>,
    sent: Vec<Option<Instant>>,
    done: Vec<Option<Instant>>,
}

impl Ledger {
    /// Register the next request; returns its index.
    pub fn add(&mut self, due: Instant) -> usize {
        self.due.push(due);
        self.sent.push(None);
        self.done.push(None);
        self.due.len() - 1
    }

    pub fn len(&self) -> usize {
        self.due.len()
    }

    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }

    pub fn due(&self, i: usize) -> Instant {
        self.due[i]
    }

    pub fn sent(&self, i: usize) -> Option<Instant> {
        self.sent[i]
    }

    pub fn mark_sent(&mut self, i: usize, at: Instant) {
        self.sent[i].get_or_insert(at);
    }

    pub fn mark_done(&mut self, i: usize, at: Instant) {
        self.done[i].get_or_insert(at);
    }

    pub fn done(&self, i: usize) -> Option<Instant> {
        self.done[i]
    }

    /// Completed requests' latencies in ms, each counted from its due time.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latencies_by_due()
            .into_iter()
            .map(|(_, l)| l)
            .collect()
    }

    /// Completed requests' due times and latencies in ms.
    pub fn latencies_by_due(&self) -> Vec<(Instant, f64)> {
        self.due
            .iter()
            .zip(&self.done)
            .filter_map(|(&d, done)| done.map(|t| (d, ms(t.saturating_duration_since(d)))))
            .collect()
    }

    /// How late each sent request left the generator, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .filter_map(|(&d, sent)| sent.map(|t| ms(t.saturating_duration_since(d))))
            .collect()
    }

    /// Requests registered but never completed.
    pub fn unfinished(&self) -> usize {
        self.done.iter().filter(|d| d.is_none()).count()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
