//! The repo benchmark. See `benchmark/README.md` for the metric catalogue
//! and the reasons behind every design decision, `/BENCHMARK.json` for the
//! contract the driver checks.
//!
//! ```text
//! dgl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! dgl-benchmark --smoke            # all four workloads, a few seconds in total
//! ```
//!
//! Every metric is printed by name with its unit; the last line of standard
//! output is the one-line JSON result.

mod drive;
mod gen;
mod host;
mod layers;
mod rec;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use drive::{NoProbe, Phase, Until, Verdict};
use gen::{Generator, CLASS_NAMES, COMMIT, DELETE, INSERT, POINT, SCAN, SNAP, TXN, UPDATE};
use host::{HostGuard, Pin, Watchdog};
use workloads::{Kind, Outcome, System, Target, Workload, WORKLOADS};

/// Full set-ups per run; `setup_s` is the quiet estimate over them.
const SETUPS: usize = 3;

#[derive(Clone, Copy)]
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Fixed sizes of a `--smoke` run: counts, not seconds, so that count-class
/// metrics repeat exactly. Operations per segment are a whole number of
/// transactions on every workload.
pub const SMOKE_SEGMENTS: usize = 12;
const SMOKE_SEGMENT_OPS: usize = 1_024;

/// Length of a segment: ≈200 ms, and shorter in short runs so that there
/// are ≥100 of them even when the host slows down after the warm-up sized
/// them (130 nominal).
pub fn segment_seconds(run_seconds: f64) -> f64 {
    (run_seconds / 130.0).min(0.2)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: dgl-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       dgl-benchmark --smoke",
        names.join("|")
    )
}

/// One `Args` per workload to run: the one named, or all four for a bare
/// `--smoke`.
fn parse(argv: &[String]) -> Result<Vec<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, 42u64, 24.0f64, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workloads::workload(name)
                        .ok_or_else(|| format!("unknown workload '{name}'\n{}", usage()))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let chosen: Vec<&'static Workload> = match workload {
        Some(w) => vec![w],
        None if smoke => WORKLOADS.iter().collect(),
        None => return Err(usage()),
    };
    let args = |workload| Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    };
    Ok(chosen.into_iter().map(args).collect())
}

/// `benchmark/out/`, inside the checkout the command runs from.
fn out_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// The directory of one run, removed on every path out.
pub struct RunDir(pub PathBuf);

impl RunDir {
    fn create(args: &Args) -> Outcome<RunDir> {
        let dir = out_dir().join(format!(
            "run-{}-{}-{}",
            args.workload.name,
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One value of the result: printed by name with its unit, and written
/// into the JSON line with all its digits.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A diagnostic: printed, never gated, not part of the JSON result.
pub fn diag(name: &str, value: f64, unit: &str, note: &str) {
    println!("diag   {name:<36} {value:>16.4} {unit:<6} {note}");
}

/// The contract's result line. A run that attempted nothing or measured a
/// non-finite value is a bug, not a result: it ends like every other broken
/// run, non-zero and without this line.
fn result_line(verdict: &Verdict, metrics: &[Metric]) -> Outcome<String> {
    if verdict.attempted == 0 {
        return Err("no transaction was attempted".into());
    }
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.correct(),
        verdict.attempted,
        verdict.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    s.push_str("}}");
    Ok(s)
}

/// Everything a run shares between its phases.
pub struct Run<'a> {
    pub args: &'a Args,
    pub pin: &'a Pin,
    pub dog: &'a Watchdog,
    pub dir: &'a RunDir,
    pub guard: HostGuard,
    pub verdict: Verdict,
    pub gen: Generator,
    pub txn_seq: u64,
}

impl Run<'_> {
    /// Transactions per smoke segment.
    pub fn smoke_txns(&self) -> usize {
        SMOKE_SEGMENT_OPS / self.args.workload.mix.txn_ops
    }
}

/// Sets the system up `times` times (tearing all but the last down again)
/// and returns it with each set-up's seconds.
fn set_up(run: &Run, times: usize) -> Outcome<(System, Vec<f64>)> {
    let data = gen::dataset();
    let mut took = Vec::new();
    let mut system = None;
    for i in 0..times {
        if let Some(previous) = Option::take(&mut system) {
            run.dog.set_dump(None);
            System::shut_down(previous)?;
        }
        run.dog.phase(&format!("set-up {}", i + 1));
        let t0 = Instant::now();
        let s = System::set_up(
            run.args.workload.kind,
            &data,
            &run.dir.0.join(format!("store-{i}")),
        )?;
        took.push(t0.elapsed().as_secs_f64());
        run.dog.set_dump(Some(s.dump_fn()));
        system = Some(s);
    }
    Ok((system.expect("at least one set-up"), took))
}

/// After the last transaction: the index must hold exactly the oracle's
/// live set, by its own count, its invariants and a scan of everything.
fn final_check<T: Target>(target: &mut T, db: &dgl_core::DglRTree, run: &mut Run) -> Outcome<()> {
    use dgl_core::TransactionalRTree as _;
    run.dog.phase("final check");
    db.quiesce().map_err(|e| e.to_string())?;
    if let Err(e) = db.validate() {
        run.verdict.wrong(format!("validate(): {e}"));
    }
    let mut want: Vec<(u64, u64)> = run.gen.live().iter().map(|o| (o.oid, o.version)).collect();
    want.sort_unstable();
    if db.len() != want.len() {
        run.verdict
            .wrong(format!("len() = {}, oracle {}", db.len(), want.len()));
    }
    let txn = target.begin()?;
    let hits = target.scan(txn, dgl_core::Rect2::unit())?;
    target.commit(txn)?;
    let mut got: Vec<(u64, u64)> = hits.iter().map(|h| (h.oid.0, h.version)).collect();
    got.sort_unstable();
    if got != want {
        run.verdict.wrong(format!(
            "full scan: {} objects, oracle {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// The end-to-end run (`--trace 0`): set-up ×3, warm-up, measured segments.
fn end_to_end<T: Target>(
    target: &mut T,
    run: &mut Run,
    setup_s: &[f64],
    rss: f64,
) -> (Phase, Vec<Metric>) {
    let args = run.args;
    run.dog.phase("warm-up");
    let (txns, until) = if args.smoke {
        let txns = run.smoke_txns();
        run.phase(target, &mut NoProbe, txns, Until::Segments(1), None);
        (txns, Until::Segments(SMOKE_SEGMENTS))
    } else {
        let txns = run.warm_up(
            target,
            &mut NoProbe,
            args.seconds / 8.0,
            segment_seconds(args.seconds),
            None,
        );
        (txns, Until::Seconds(args.seconds))
    };
    run.dog.phase("measured");
    let phase = run.phase(target, &mut NoProbe, txns, until, None);
    let metrics = vec![
        metric("throughput_ops_s", phase.throughput(), "1/s"),
        metric("cpu_us_per_txn", phase.cpu_us_per_txn(), "us"),
        metric("txn_p50_us", phase.p50_us(TXN), "us"),
        metric("scan_p50_us", phase.p50_us(SCAN), "us"),
        metric("snap_scan_p50_us", phase.p50_us(SNAP), "us"),
        metric("point_p50_us", phase.p50_us(POINT), "us"),
        metric("insert_p50_us", phase.p50_us(INSERT), "us"),
        metric("delete_p50_us", phase.p50_us(DELETE), "us"),
        metric("update_p50_us", phase.p50_us(UPDATE), "us"),
        metric("commit_p50_us", phase.p50_us(COMMIT), "us"),
        metric("rss_mib", rss, "MiB"),
        metric("setup_s", rec::quiet_low(setup_s), "s"),
    ];
    (phase, metrics)
}

/// Segment-median, whole-run and all-sample figures: printed, never gated.
pub fn print_diagnostics(phase: &Phase) {
    let n = phase.seg_rate.len();
    if n == 0 {
        return;
    }
    diag(
        "segments",
        n as f64,
        "count",
        &format!("of {} txns each", phase.txns_per_segment),
    );
    diag(
        "throughput.segment_median",
        rec::quantile(&phase.seg_rate, 0.5),
        "1/s",
        "",
    );
    diag(
        "throughput.whole_run",
        phase.ops as f64 / phase.wall_s,
        "1/s",
        "",
    );
    diag(
        "cpu_us_per_txn.whole_run",
        phase.cpu_s * 1e6 / phase.txns as f64,
        "us",
        "",
    );
    for (class, name) in CLASS_NAMES.iter().enumerate() {
        let all = &phase.all[class];
        if phase.seg_p50_ns[class].is_empty() {
            continue;
        }
        let note = format!("n={}", all.count());
        diag(
            &format!("{name}_p50_us.segment_median"),
            rec::quantile(&phase.seg_p50_ns[class], 0.5) / 1e3,
            "us",
            "",
        );
        diag(
            &format!("{name}_p50_us.all_samples"),
            all.quantile(0.5) / 1e3,
            "us",
            &note,
        );
        // A percentile is printed only with ≥10 samples beyond it.
        for (label, q) in [("p99", 0.99), ("p99.9", 0.999)] {
            if let Some(v) = all.tail(q) {
                diag(
                    &format!("{name}_{label}_us.all_samples"),
                    v / 1e3,
                    "us",
                    &note,
                );
            }
        }
    }
    for (k, name) in [(SCAN, "scan"), (SNAP, "snap_scan")] {
        if phase.calls[k] > 0 {
            diag(
                &format!("{name}.hits_per_call"),
                phase.hits[k] as f64 / phase.calls[k] as f64,
                "count",
                "",
            );
        }
    }
    diag(
        "loadgen.gen_ns_per_op",
        phase.gen_ns as f64 / phase.ops as f64,
        "ns",
        "outside the timed window",
    );
}

/// The machine as this run saw it: `diag` lines of an end-to-end run,
/// per-layer metrics of a traced one.
pub fn host_readings(run: &Run, measured: &Phase, calib: (f64, f64)) -> Vec<Metric> {
    vec![
        metric("host.nproc", run.pin.nproc() as f64, "count"),
        metric(
            "host.pinned",
            f64::from(u8::from(run.pin.cpu.is_some())),
            "bool",
        ),
        metric("host.calib_ms_before", calib.0, "ms"),
        metric("host.calib_ms_after", calib.1, "ms"),
        metric("host.steal_share", run.guard.steal_share(), "share"),
        metric("host.steal_wait_s", run.guard.steal_wait_s(), "s"),
        metric("host.runq_wait_share", run.guard.runq_wait_share(), "share"),
        metric(
            "host.disturbed_segment_share",
            measured.disturbed_share(),
            "share",
        ),
    ]
}

/// What the traced durable run learns from its epilogue (0 elsewhere).
#[derive(Default)]
struct Recovery {
    recover_s: f64,
    snapshot_s: f64,
    replay_records_per_s: f64,
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> Outcome<()> {
    let io = |e: std::io::Error| format!("copy {} -> {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

/// Seconds to recover the store in `dir` (the recovered index is dropped,
/// which joins its flusher).
fn timed_recover(dir: &std::path::Path, dog: &Watchdog) -> Outcome<f64> {
    let t0 = Instant::now();
    let db = dgl_core::DglRTree::recover(dir, dgl_core::DglConfig::default())
        .map_err(|e| e.to_string())?;
    let s = t0.elapsed().as_secs_f64();
    dog.beat();
    drop(db);
    Ok(s)
}

/// Transactions of the fixed log tail the timed recoveries replay.
const RECOVERY_TAIL_TXNS: usize = 150;

/// The durable workload's epilogue, on every run and untimed: leave one
/// transaction uncommitted, `crash_wal()` (every segment cut back to its
/// fsynced prefix), recover, and compare with what was acknowledged.
///
/// The traced run also times recovery here: `checkpoint()`, a fixed tail of
/// transactions, the crash, then three recoveries of byte-identical copies
/// of the store, and one of a copy taken right after the checkpoint (the
/// snapshot's share).
fn crash_and_recover(system: System, run: &mut Run) -> Outcome<Option<Recovery>> {
    use dgl_core::{DglConfig, DglRTree, Rect2, TransactionalRTree as _};
    let System::Durable { db, dir } = system else {
        System::shut_down(system)?;
        return Ok(None);
    };
    run.dog.phase("crash + recover");
    let mut timing = None;
    if run.args.trace {
        db.checkpoint().map_err(|e| e.to_string())?;
        copy_dir(&dir, &run.dir.0.join("copy-snapshot"))?;
        let records = layers::exported_counter(db.obs(), "wal_records");
        let txns = if run.args.smoke {
            run.smoke_txns()
        } else {
            RECOVERY_TAIL_TXNS
        };
        run.phase(
            &mut workloads::Local::dgl(&db),
            &mut NoProbe,
            txns,
            Until::Segments(1),
            None,
        );
        timing = Some(layers::exported_counter(db.obs(), "wal_records") - records);
    }
    let gen::Op::Insert { oid, rect } = run.gen.uncommitted_insert() else {
        unreachable!("uncommitted_insert makes an insert");
    };
    let orphan = db.begin();
    db.insert(orphan, dgl_core::ObjectId(oid), rect)
        .map_err(|e| e.to_string())?;
    db.crash_wal();
    drop(db);
    let recovery = match timing {
        Some(tail_records) => {
            let mut took = Vec::new();
            for i in 0..3 {
                let copy = run.dir.0.join(format!("copy-{i}"));
                copy_dir(&dir, &copy)?;
                took.push(timed_recover(&copy, run.dog)?);
            }
            let recover_s = rec::quantile(&took, 0.5);
            let snapshot_s = timed_recover(&run.dir.0.join("copy-snapshot"), run.dog)?;
            Some(Recovery {
                recover_s,
                snapshot_s,
                replay_records_per_s: if recover_s > snapshot_s {
                    tail_records as f64 / (recover_s - snapshot_s)
                } else {
                    0.0
                },
            })
        }
        None => None,
    };
    let t0 = Instant::now();
    let recovered = DglRTree::recover(&dir, DglConfig::default()).map_err(|e| e.to_string())?;
    diag(
        "durability.recover_s",
        t0.elapsed().as_secs_f64(),
        "s",
        "the checked recovery, one sample",
    );
    let txn = recovered.begin();
    let hits = recovered
        .read_scan(txn, Rect2::unit())
        .map_err(|e| e.to_string())?;
    recovered.commit(txn).map_err(|e| e.to_string())?;
    let mut got: Vec<u64> = hits.iter().map(|h| h.oid.0).collect();
    got.sort_unstable();
    let mut want: Vec<u64> = run.gen.live().iter().map(|o| o.oid).collect();
    want.sort_unstable();
    if got.binary_search(&oid).is_ok() {
        run.verdict
            .wrong(format!("recovery kept uncommitted object {oid}"));
    }
    if got != want {
        run.verdict.wrong(format!(
            "recovered {} objects, acknowledged {}",
            got.len(),
            want.len()
        ));
    }
    if let Err(e) = recovered.validate() {
        run.verdict.wrong(format!("validate() after recovery: {e}"));
    }
    Ok(recovery)
}

fn run_workload(args: &Args, pin: &Pin, dog: &Watchdog) -> Outcome<()> {
    let w = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {} smoke {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    println!("why      {}", w.why);
    println!(
        "load     closed loop, 1 client thread, 1 connection, {} ops per txn, {} objects (constant data set), pinned to cpu {:?}",
        w.mix.txn_ops,
        gen::DATASET_SIZE,
        pin.cpu
    );
    if w.kind == Kind::Durable {
        println!("flush    default durability: SyncPolicy::Immediate (one fsync per commit), auto-checkpoint every 8 MiB of log; store under benchmark/out/");
    }
    let dir = RunDir::create(args)?;
    dog.set_run_dir(Some(dir.0.clone()));
    let mut run = Run {
        args,
        pin,
        dog,
        dir: &dir,
        guard: HostGuard::new(pin.cpu),
        verdict: Verdict::default(),
        gen: Generator::new(args.seed, w.mix, gen::dataset()),
        txn_seq: 0,
    };
    dog.phase("calibration");
    let calib_before = host::calibrate_ms();
    let setups = if args.trace || args.smoke { 1 } else { SETUPS };
    let (mut system, setup_s) = set_up(&run, setups)?;
    let rss = host::rss_mib();
    run.guard = HostGuard::new(pin.cpu);

    let mut metrics = if args.trace {
        layers::traced_run(&mut system, &mut run, calib_before)?
    } else {
        let store = match &system {
            System::Durable { dir, .. } => Some(dir.clone()),
            _ => None,
        };
        let generation = || store.as_deref().map_or(0.0, layers::generation);
        let checkpoints_before = generation();
        let (phase, metrics) = end_to_end(&mut system.connect().0, &mut run, &setup_s, rss);
        if store.is_some() {
            let n = generation() - checkpoints_before;
            diag(
                "durability.checkpoints",
                n,
                "count",
                "auto-checkpoints, warm-up included",
            );
        }
        dog.phase("calibration");
        let calib_after = host::calibrate_ms();
        print_diagnostics(&phase);
        for h in host_readings(&run, &phase, (calib_before, calib_after)) {
            diag(h.name, h.value, h.unit, "");
        }
        for (i, s) in setup_s.iter().enumerate() {
            diag(&format!("setup_s.{}", i + 1), *s, "s", "");
        }
        metrics
    };

    if run.verdict.failed == 0 {
        if let System::Net { client, .. } = &mut system {
            let count = client.count().map_err(|e| e.to_string())?;
            if count as usize != run.gen.live().len() {
                run.verdict.wrong(format!(
                    "count() = {count}, oracle {}",
                    run.gen.live().len()
                ));
            }
        }
        let (mut conn, db) = system.connect();
        final_check(&mut conn, db, &mut run)?;
    }
    dog.phase("shut-down");
    dog.set_dump(None);
    let recovery = if run.verdict.failed == 0 {
        crash_and_recover(system, &mut run)?
    } else {
        System::shut_down(system)?;
        None
    };
    if args.trace {
        let r = recovery.unwrap_or_default();
        metrics.extend([
            metric("durability.recover_s", r.recover_s, "s"),
            metric("durability.recover_snapshot_s", r.snapshot_s, "s"),
            metric(
                "durability.replay_records_per_s",
                r.replay_records_per_s,
                "1/s",
            ),
        ]);
    }

    println!(
        "checked  {} point reads, {} scans against the oracle; final state, count and full scan{}",
        run.verdict.points_checked,
        run.verdict.scans_checked,
        if w.kind == Kind::Durable {
            "; recovery after crash_wal()"
        } else {
            ""
        }
    );
    for w in &run.verdict.wrong {
        println!("WRONG    {w}");
    }
    for m in &metrics {
        println!("metric {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    dog.set_run_dir(None);
    let verdict = std::mem::take(&mut run.verdict);
    drop(run);
    drop(dir);
    println!("{}", result_line(&verdict, &metrics)?);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let runs = match parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists, so that every thread inherits it.
    let pin = host::pin();
    let dog = Watchdog::start();
    for args in &runs {
        if let Err(e) = run_workload(args, &pin, &dog) {
            // No result line: the driver must not mistake this for a run.
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(1);
        }
    }
    // A wrong answer is reported in the result line (`correct: false`),
    // not through the exit code: the run itself completed.
    ExitCode::SUCCESS
}
