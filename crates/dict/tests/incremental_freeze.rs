//! Incremental epochs are frozen from the store's dynamic matcher into a
//! read-only `StaticMatcher` (`DynamicMatcher::freeze`). These properties
//! pin that read path to the two independent ones:
//!
//! * for every epoch committed down `SnapshotPath::Incremental`,
//!   `find_all` equals the same epoch's `FullRebuild` snapshot and the
//!   Aho–Corasick oracle, at pool widths 1, 2 and 4;
//! * an incremental epoch serializes to a v2 sidecar that cold-loads to the
//!   same matches, and the frozen matcher itself is not `cold_loaded`.
//!
//! Patterns are random prefixes of three base strings, so patterns are
//! often prefixes of each other, and removing a prefix while its extension
//! stays live leaves an unmarked trie node behind. Pattern symbols are ten
//! rare bytes and texts pad past `PREFILTER_MIN_TEXT` with common filler,
//! so the SWAR prefilter is active and incremental epochs take its path.

use pdm_baselines::AhoCorasick;
use pdm_core::dict::{PatId, Sym};
use pdm_core::prefilter::PREFILTER_MIN_TEXT;
use pdm_dict::{DictStore, Snapshot, SnapshotPath};
use pdm_pram::Ctx;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const RARE: &[u8] = b"QXZJKVWY#@";
const FILLER: &[u8] = b"aeiou tn";
const BASE_LEN: usize = 10;

fn rare(i: u32) -> Sym {
    Sym::from(RARE[i as usize % RARE.len()])
}

/// Text from `(kind, base, len)` segments: a base prefix (kind 0–1) or a
/// filler run, padded with filler to at least twice `PREFILTER_MIN_TEXT`.
fn build_text(bases: &[Vec<Sym>], segs: &[(u32, usize, usize)]) -> Vec<Sym> {
    let mut text = Vec::new();
    for &(kind, b, len) in segs {
        if kind < 2 {
            text.extend_from_slice(&bases[b][..len]);
        } else {
            text.extend((0..len).map(|i| Sym::from(FILLER[(i + kind as usize) % FILLER.len()])));
        }
    }
    while text.len() < 2 * PREFILTER_MIN_TEXT {
        text.push(Sym::from(FILLER[text.len() % FILLER.len()]));
    }
    text
}

fn oracle(live: &[Vec<Sym>], text: &[Sym]) -> Vec<(usize, PatId)> {
    if live.is_empty() {
        return Vec::new();
    }
    let mut v: Vec<(usize, PatId)> = AhoCorasick::new(live)
        .find_all(text)
        .into_iter()
        .map(|o| (o.start, o.pat as PatId))
        .collect();
    v.sort_unstable();
    v
}

/// Drive two stores through the same commits, one forced incremental and
/// one forced to full rebuilds, and check every incremental epoch. Returns
/// how many incremental finds ran through an active prefilter scan.
fn check_trace(
    ctx: &Ctx,
    bases: &[Vec<Sym>],
    ops: &[(u32, usize, usize)],
    batch: usize,
    text: &[Sym],
) -> Result<usize, TestCaseError> {
    let mut inc = DictStore::in_memory();
    let mut full = DictStore::in_memory();
    let mut prefiltered = 0;
    let mut staged = 0usize;
    for &(roll, b, len) in ops {
        let p = &bases[b][..len];
        let ok = if roll < 6 {
            inc.stage_add(p).is_ok() && full.stage_add(p).is_ok()
        } else {
            inc.stage_remove(p).is_ok() && full.stage_remove(p).is_ok()
        };
        staged += usize::from(ok);
        if staged < batch {
            continue;
        }
        staged = 0;
        let a = inc
            .commit_with(ctx, Some(SnapshotPath::Incremental))
            .unwrap();
        let f = full
            .commit_with(ctx, Some(SnapshotPath::FullRebuild))
            .unwrap();
        let (a, f) = (a.snapshot, f.snapshot);
        prop_assert_eq!(a.path(), SnapshotPath::Incremental);
        prop_assert_eq!(a.identity_bytes(), f.identity_bytes());
        let live = inc.live_patterns();
        let scans0 = a.matcher().stats().prefilter_counters.scans;
        let got = a.find_all(ctx, text);
        prefiltered += (a.matcher().stats().prefilter_counters.scans - scans0) as usize;
        prop_assert_eq!(&got, &f.find_all(ctx, text), "epoch {}", a.epoch());
        prop_assert_eq!(&got, &oracle(&live, text), "epoch {}", a.epoch());
        prop_assert!(!a.matcher().cold_loaded(), "frozen, not loaded");
        match a.to_sidecar_bytes() {
            Some(bytes) => {
                let back = Snapshot::from_bytes(ctx, &bytes).unwrap();
                prop_assert_eq!(back.path(), SnapshotPath::ColdLoaded);
                prop_assert_eq!(back.find_all(ctx, text), got);
            }
            None => prop_assert!(live.is_empty(), "non-empty epochs have a sidecar"),
        }
    }
    Ok(prefiltered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_equals_full_rebuild_and_aho_corasick(
        raw_bases in proptest::collection::vec(
            proptest::collection::vec(0u32..10, BASE_LEN..BASE_LEN + 1), 3..4),
        ops in proptest::collection::vec((0u32..10, 0usize..3, 1usize..BASE_LEN + 1), 1..40),
        segs in proptest::collection::vec((0u32..5, 0usize..3, 1usize..BASE_LEN + 1), 4..40),
        batch in 1usize..5,
    ) {
        let bases: Vec<Vec<Sym>> = raw_bases
            .iter()
            .map(|b| b.iter().map(|&i| rare(i)).collect())
            .collect();
        let text = build_text(&bases, &segs);
        for w in [1, 2, 4] {
            check_trace(&Ctx::with_threads(w), &bases, &ops, batch, &text)?;
        }
    }
}

#[test]
fn incremental_epochs_take_the_prefilter_path() {
    // Fixed trace: prefix patterns, a removed prefix under a live
    // extension, then a re-add — every epoch incremental and prefiltered.
    let bases: Vec<Vec<Sym>> = ["QXZJKVWY#@", "Y#@QQXZJKV", "@@KJVWQXZY"]
        .iter()
        .map(|s| s.bytes().map(Sym::from).collect())
        .collect();
    let ops = [
        (0, 0, 3),
        (0, 0, 7),
        (0, 1, 2),
        (0, 1, 9),
        (0, 2, 4),
        (9, 0, 3), // drop "QXZ"; "QXZJKVW" stays live
        (0, 2, 1),
        (0, 0, 3), // re-add "QXZ"
    ];
    let segs = [(0, 0, 10), (2, 0, 30), (1, 1, 10), (3, 0, 20), (0, 2, 6)];
    let text = build_text(&bases, &segs);
    for w in [1, 2, 4] {
        let n = check_trace(&Ctx::with_threads(w), &bases, &ops, 2, &text).unwrap();
        assert_eq!(n, ops.len() / 2, "width {w}: every epoch scanned");
    }
}
