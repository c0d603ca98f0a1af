//! EXPERIMENTS.md is the golden copy of every paper table that is a
//! function of (seed, dataset) alone. Each test here recomputes one table
//! with the sizes and seed `repro` uses, renders it with `repro`'s
//! renderer, and compares it with the block that follows the table's
//! `<!-- pinned: NAME -->` line in EXPERIMENTS.md. On a mismatch it prints
//! the fresh block, ready to paste in place of the old one (and then the
//! verdict beside it has to be re-read against the new numbers).
//!
//! Tables that depend on threads and wall-clock time (Table 4, the
//! external-granule ablation, the §2 false-conflict counts) are not
//! here: EXPERIMENTS.md labels them with the core count and commit they
//! were measured on.

use dgl_bench::experiments::{ablation, granule_change, table2, zorder};

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

/// `repro`'s dataset size and seed; §2 and the ablation run at 8,000.
const N: usize = 32_000;
const N_SMALL: usize = 8_000;
const SEED: u64 = 42;

/// The table lines right after the line `<!-- pinned: NAME -->`.
fn pinned(name: &str) -> String {
    let marker = format!("<!-- pinned: {name} -->");
    let mut lines = EXPERIMENTS.lines();
    assert!(
        lines.any(|l| l.trim() == marker),
        "EXPERIMENTS.md has no `{marker}` line"
    );
    lines
        .take_while(|l| l.starts_with('|'))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn check(name: &str, fresh: String) {
    assert!(
        pinned(name) == fresh,
        "EXPERIMENTS.md's `{name}` table differs from what the code computes. \
         Fresh block:\n\n{fresh}"
    );
}

#[test]
fn table2_matches_experiments_md() {
    check("table2", table2::render(&table2::run_table2(N, SEED)));
}

#[test]
fn granule_change_matches_experiments_md() {
    check(
        "granule-change",
        granule_change::render(&granule_change::run_sweep(N, SEED)),
    );
}

#[test]
fn zorder_locks_per_scan_match_experiments_md() {
    check(
        "zorder-locks-per-scan",
        zorder::render_sweep(&zorder::lock_overhead_sweep(N_SMALL, SEED)),
    );
}

#[test]
fn insertion_policy_ablation_matches_experiments_md() {
    check(
        "insertion-policy",
        ablation::render_insertion_policy(&ablation::insertion_policy_sweep(N_SMALL, SEED)),
    );
}
