//! End-to-end and per-layer benchmark of `pdm`: four seeded workloads run
//! through the library's public entry points, every output checked against
//! an Aho–Corasick oracle. `src/main.rs` is the command line; this library
//! holds the parts the self-tests in `tests/` exercise.

pub mod client;
pub mod host;
pub mod index;
pub mod inputs;
pub mod oracle;
pub mod probe;
pub mod schedule;
pub mod serving;
pub mod stats;
pub mod trace;
