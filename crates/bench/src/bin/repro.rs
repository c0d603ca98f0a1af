//! `repro` — regenerates every quantitative artefact of the paper and
//! prints paper-style markdown tables.
//!
//! Usage:
//! ```text
//! repro [--quick] [table2|granule-change|table4|zorder|ablations|connections|all]
//! ```
//! `--quick` shrinks the datasets (2,000 objects instead of the paper's
//! 32,000, fewer transactions) for smoke runs.

use dgl_bench::experiments::{ablation, connections, granule_change, table2, table4, zorder};
use dgl_workload::OpMix;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let all = which.is_empty() || which.contains(&"all");
    let n = if quick { 2_000 } else { 32_000 };
    let seed = 42;

    if all || which.contains(&"table2") {
        println!("## Table 2 — avg. page accesses per insertion (overlapping-path traversal)\n");
        println!("Dataset: {n} uniform objects; ADA per paper level (root = level 1).\n");
        let rows = table2::run_table2(n, seed);
        println!("{}", table2::render(&rows));
    }

    if all || which.contains(&"granule-change") {
        println!("## §3.4 — fraction of inserters changing a granule boundary\n");
        let rows = granule_change::run_sweep(n, seed);
        println!("{}", granule_change::render(&rows));
    }

    if all || which.contains(&"table4") {
        println!("## Table 4 — protocol comparison under multi-user load\n");
        let cfg = table4::Table4Config {
            threads: 8,
            txns_per_thread: if quick { 50 } else { 250 },
            preload: if quick { 500 } else { 4_000 },
            think_time: std::time::Duration::from_millis(1),
            ..Default::default()
        };
        for (label, mix) in [
            ("read-mostly", OpMix::read_mostly()),
            ("write-heavy", OpMix::write_heavy()),
        ] {
            println!("### {label} mix, {} threads\n", cfg.threads);
            let rows = table4::run_comparison(mix, &cfg);
            println!("{}", table4::render(&rows));
        }
    }

    if all || which.contains(&"zorder") {
        println!("## §2 — Z-order key-range locking vs granular locking\n");
        println!("### Lock overhead per region scan\n");
        let rows = zorder::lock_overhead_sweep(n.min(8_000), seed);
        println!("{}", zorder::render_sweep(&rows));
        println!("### False conflicts on spatially disjoint workloads\n");
        let fc = zorder::false_conflicts(if quick { 60 } else { 200 }, seed);
        println!("{}", zorder::render_false_conflicts(&fc));
    }

    if all || which.contains(&"ablations") {
        println!("## Ablation — insertion policy (base vs modified, §3.4)\n");
        let rows = ablation::insertion_policy_sweep(n.min(8_000), seed);
        println!("{}", ablation::render_insertion_policy(&rows));

        println!("## Ablation — per-node vs single external granule (§3.1)\n");
        let a = ablation::external_granule(8, if quick { 40 } else { 150 }, seed);
        println!("{}", ablation::render_external_granule(&a));
    }

    if all || which.contains(&"connections") {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!("## Server throughput vs connection count (loopback, {cores} core(s))\n");
        println!("{}", connections::render(&connections::run_sweep(quick)));
    }
}
