//! Host metadata and process memory, read with std only.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `VmHWM` (peak resident set) of this process in MiB, 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// `VmRSS` (current resident set) of this process in MiB, 0 if unreadable.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

fn status_mib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Samples the resident set every [`RssSampler::PERIOD`] on a thread of
/// its own, from [`RssSampler::start`] until [`RssSampler::finish`].
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl RssSampler {
    pub const PERIOD: Duration = Duration::from_millis(50);

    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = vec![rss_mib()];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Self::PERIOD);
                samples.push(rss_mib());
            }
            samples
        });
        RssSampler { stop, thread }
    }

    /// Stop sampling; the samples in MiB, in the order taken.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("RSS sampler panicked")
    }
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
