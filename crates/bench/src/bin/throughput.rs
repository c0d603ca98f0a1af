//! `throughput` — multi-threaded aggregate ops/sec sweep of the DGL
//! protocol against whole-tree locking, with the durable / snapshot /
//! hash-index / sharded contender pairs each isolating one subsystem.
//!
//! Usage:
//! ```text
//! throughput [--smoke] [--chaos [SEED]] [--out PATH] [--prom PATH] \
//!            [--threads N,N,..] [--txns N] [--shards N,N,..] \
//!            [--net] [--connections N,N,..]
//! ```
//! Writes `BENCH_throughput.json` (or PATH) and prints a markdown table
//! plus the headline ratios. `--smoke` runs a seconds-scale
//! configuration for CI. `--chaos` (needs a build with
//! `--features chaos`) arms a seeded fault schedule for the whole
//! sweep, turning the run into a chaos smoke: the sweep must still
//! reach every commit target with faults firing. `--prom PATH` also
//! writes a Prometheus-format dump of every DGL contender's
//! observability registry. `--net` adds the loopback
//! `dgl-net` contender: real `dgl-client` connections driving a
//! `dgl-server` over the wire protocol, swept over the connection
//! count (`--connections`, default 8,64,256,1000; smoke 4,16). Net
//! rows land in the same JSON with the `connections` column set.

use dgl_bench::experiments::{net, throughput};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let with_net = args.iter().any(|a| a == "--net");
    let chaos = args.iter().position(|a| a == "--chaos");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());
    let prom_path = args
        .iter()
        .position(|a| a == "--prom")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut cfg = if smoke {
        throughput::ThroughputConfig::smoke()
    } else {
        throughput::ThroughputConfig::default()
    };
    if let Some(n) = args
        .iter()
        .position(|a| a == "--txns")
        .and_then(|i| args.get(i + 1))
    {
        cfg.txns_per_thread = n.parse().expect("--txns takes a count per thread");
    }
    if let Some(list) = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
    {
        cfg.threads = list
            .split(',')
            .map(|s| s.parse().expect("--threads takes e.g. 2,4,8"))
            .collect();
    }
    if let Some(list) = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
    {
        cfg.shards = list
            .split(',')
            .map(|s| s.parse().expect("--shards takes e.g. 2,4"))
            .collect();
    }

    #[cfg(feature = "chaos")]
    let chaos_handle = chaos.map(|i| {
        let seed = args
            .get(i + 1)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0xC0FFEE);
        eprintln!("chaos armed with seed {seed} (rerun: --chaos {seed})");
        dgl_bench::chaos::arm_chaos(seed)
    });
    #[cfg(not(feature = "chaos"))]
    if chaos.is_some() {
        eprintln!(
            "--chaos ignored: this binary was built without the `chaos` \
             feature (rebuild with `--features chaos`)"
        );
    }

    eprintln!(
        "running throughput sweep: threads {:?}, {} txns/thread ({} mode)",
        cfg.threads,
        cfg.txns_per_thread,
        if smoke { "smoke" } else { "full" }
    );
    let (mut rows, mut prom) = throughput::run_sweep_with_dump(&cfg);

    if with_net {
        let mut net_cfg = if smoke {
            net::NetConfig::smoke()
        } else {
            net::NetConfig::default()
        };
        if let Some(list) = args
            .iter()
            .position(|a| a == "--connections")
            .and_then(|i| args.get(i + 1))
        {
            net_cfg.connections = list
                .split(',')
                .map(|s| s.parse().expect("--connections takes e.g. 8,64,1000"))
                .collect();
        }
        eprintln!(
            "running net sweep over loopback: connections {:?}",
            net_cfg.connections
        );
        let (net_rows, net_prom) = net::run_net_sweep_with_dump(&net_cfg);
        rows.extend(net_rows);
        prom.push_str(&net_prom);
    }

    println!("## Aggregate throughput\n");
    println!("{}", throughput::render(&rows));
    // Label the headlines with the in-process thread axis — net rows
    // reuse the threads column for the connection count.
    let max_threads = rows
        .iter()
        .filter(|r| r.connections.is_none())
        .map(|r| r.threads)
        .max()
        .unwrap_or(0);
    if let Some(snap) = throughput::headline_snapshot_speedup(&rows) {
        println!(
            "headline: snapshot reads / locked reads = {snap:.2}x aggregate ops/sec \
             (scan-heavy mix, {max_threads} threads; scans issue zero lock requests)"
        );
    }
    if let Some(tax) = throughput::headline_durability_tax(&rows) {
        println!(
            "headline: durable commit p95 = {tax:.2}x non-durable \
             (group commit, balanced mix, 4-thread point; target ≤ ~3x)"
        );
    }
    if let Some(hash) = throughput::headline_hash_speedup(&rows) {
        println!(
            "headline: hash-index point reads = {hash:.2}x traversal point reads \
             (point-heavy mix, {max_threads} threads; both sides pay index \
             maintenance — the ratio is the read-path fast path alone)"
        );
    }
    if let Some((shards, ratio)) = throughput::headline_shard_scaling(&rows) {
        println!(
            "headline: {shards}-shard router = {ratio:.2}x single-tree aggregate ops/sec \
             (read-heavy 90/10 mix, {max_threads} threads; target ≥ 1.5x with cores ≥ threads)"
        );
    }
    if let Some(r) = rows
        .iter()
        .filter(|r| r.connections.is_some())
        .max_by_key(|r| r.connections)
    {
        println!(
            "net: {} concurrent connections sustained at {:.0} ops/sec over \
             loopback, zero non-retryable protocol errors",
            r.connections.unwrap_or(0),
            r.ops_per_sec
        );
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    if cores < 2 {
        println!(
            "note: {cores} core(s) available — aggregate ops/sec cannot reflect \
             reader parallelism (sharded scaling included: with every shard's \
             worker multiplexed onto one core the router's fan-out cost shows \
             but its parallelism cannot)"
        );
    }

    #[cfg(feature = "chaos")]
    if let Some(h) = &chaos_handle {
        println!(
            "chaos: {} faults injected; every point still reached its commit target",
            h.fires()
        );
        assert!(h.fires() > 0, "chaos run injected no faults");
    }

    let json = throughput::to_json(&cfg, &rows);
    std::fs::write(&out_path, json).expect("write BENCH_throughput.json");
    eprintln!("wrote {out_path}");
    if let Some(p) = prom_path {
        std::fs::write(&p, prom).expect("write prometheus dump");
        eprintln!("wrote {p}");
    }
}
