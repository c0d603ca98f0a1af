//! The machine under the benchmark: CPU pinning, CPU-time and memory
//! readings, a steal guard, a fixed calibration load and a hang watchdog.
//!
//! PR 12's noise study is why this exists. On the sandbox `nproc` = 2
//! delivers the throughput of one core, the host has slow phases lasting
//! minutes, and one recorded 8-minute CPU-steal event halved every number.
//! So the process pins itself to one CPU before any thread exists, refuses
//! to measure while the hypervisor is taking that CPU away, and reports how
//! disturbed the run was (`host.*`) beside the results.

use std::fs;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// 1024 CPUs, the kernel's default `cpu_set_t`.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

// Declared here instead of through a `libc` crate: the build is offline
// and std already links the C library these come from.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The CPUs the calling thread may run on.
fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// Pinning state of the process.
pub struct Pin {
    /// The CPU the process is pinned to, if pinning worked.
    pub cpu: Option<usize>,
    /// The affinity the process started with, for the one measurement that
    /// needs two CPUs ([`parallel_speedup`]).
    original: Option<CpuSet>,
}

impl Pin {
    /// CPUs the process was allowed on before it pinned itself.
    pub fn nproc(&self) -> usize {
        match self.original {
            Some(set) => set.iter().map(|w| w.count_ones() as usize).sum(),
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Pins the calling thread — and every thread spawned after it — to the
/// first CPU it is allowed on. Call before spawning anything.
pub fn pin() -> Pin {
    let original = affinity();
    let cpu = original.and_then(|set| {
        let cpu = (0..1024).find(|c| set[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one).then_some(cpu)
    });
    Pin { cpu, original }
}

/// CPU time the whole process (all threads) has used, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `timespec` with the layout the C library
    // uses on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Resident set size of the process in MiB.
pub fn rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of one CPU (of all CPUs without a pin).
fn cpu_jiffies(cpu: Option<usize>) -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    (fields.len() >= 8).then(|| (fields[7], fields[..8].iter().sum()))
}

/// `(running, waiting on the run queue)` nanoseconds of the calling thread.
fn thread_sched_ns() -> Option<(u64, u64)> {
    let s = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

/// Steal above this share of the pinned CPU holds the run back.
const STEAL_LIMIT: f64 = 0.05;
/// Most a run waits for steal to pass, in total.
const STEAL_BUDGET: Duration = Duration::from_secs(45);

/// Watches the hypervisor's `steal` on the pinned CPU and the run-queue
/// wait of the client thread.
pub struct HostGuard {
    cpu: Option<usize>,
    start_jiffies: Option<(u64, u64)>,
    last_jiffies: Option<(u64, u64)>,
    start_sched: Option<(u64, u64)>,
    waited: Duration,
}

impl HostGuard {
    pub fn new(cpu: Option<usize>) -> Self {
        let now = cpu_jiffies(cpu);
        HostGuard {
            cpu,
            start_jiffies: now,
            last_jiffies: now,
            start_sched: thread_sched_ns(),
            waited: Duration::ZERO,
        }
    }

    /// Steal share since the previous call.
    fn steal_since_last(&mut self) -> f64 {
        let now = cpu_jiffies(self.cpu);
        let share = match (self.last_jiffies, now) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        self.last_jiffies = now;
        share
    }

    /// Call before the measured phase and between segments. While the
    /// interval since the previous call lost more than 5 % to steal, keeps
    /// the CPU busy for 100 ms at a time (an idle vCPU accrues no steal, so
    /// sleeping would hide the event) until it has passed or the run's wait
    /// budget is spent.
    pub fn settle(&mut self, dog: &Watchdog) {
        while self.steal_since_last() > STEAL_LIMIT && self.waited < STEAL_BUDGET {
            dog.beat();
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(100) {
                black_box(alu_load(50_000));
            }
            self.waited += t0.elapsed();
        }
    }

    /// Seconds spent waiting for steal to pass.
    pub fn steal_wait_s(&self) -> f64 {
        self.waited.as_secs_f64()
    }

    /// Steal share of the pinned CPU since the guard was created.
    pub fn steal_share(&self) -> f64 {
        match (self.start_jiffies, cpu_jiffies(self.cpu)) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }

    /// Share of the client thread's runnable time spent waiting for the CPU.
    pub fn runq_wait_share(&self) -> f64 {
        match (self.start_sched, thread_sched_ns()) {
            (Some((r0, w0)), Some((r1, w1))) if r1 + w1 > r0 + w0 => {
                (w1 - w0) as f64 / ((r1 - r0) + (w1 - w0)) as f64
            }
            _ => 0.0,
        }
    }
}

/// A dependent multiply-xorshift chain: pure ALU work, no memory.
fn alu_load(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    x
}

/// The fixed calibration load — an ALU chain plus a pointer chase through
/// 16 MiB (past L2) — in milliseconds. The same instructions on every run,
/// so its time is a reading of the machine, not of the program. The chase
/// table is built and freed inside the call so it never shows in `rss_mib`.
pub fn calibrate_ms() -> f64 {
    // Sattolo's shuffle: a uniformly random single-cycle permutation.
    let n = 4 << 20;
    let mut chain: Vec<u32> = (0..n as u32).collect();
    let mut rng = crate::gen::Rng::new(0xCA11_B8A7E);
    for i in (1..n).rev() {
        chain.swap(i, rng.below(i));
    }
    let t0 = Instant::now();
    black_box(alu_load(black_box(12_000_000)));
    let mut at = 0u32;
    for _ in 0..black_box(1_000_000) {
        at = chain[at as usize];
    }
    black_box(at);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Throughput of two threads over one on the CPUs the process started
/// with: ≈1.0 means the second CPU is not a second core's worth of work,
/// and anything multi-client would time the scheduler.
pub fn parallel_speedup(pin: &Pin) -> f64 {
    let original = pin.original;
    let work = move || {
        if let Some(set) = original {
            set_affinity(&set);
        }
        let t0 = Instant::now();
        black_box(alu_load(black_box(40_000_000)));
        t0.elapsed().as_secs_f64()
    };
    let alone = thread::spawn(work).join().expect("calibration thread");
    let t0 = Instant::now();
    let (a, b) = (thread::spawn(work), thread::spawn(work));
    a.join().expect("calibration thread");
    b.join().expect("calibration thread");
    2.0 * alone / t0.elapsed().as_secs_f64()
}

/// No call into the system and no set-up step may take longer than this.
const HANG_LIMIT: Duration = Duration::from_secs(20);

type DumpFn = Box<dyn Fn() -> String + Send>;

struct WatchdogShared {
    /// Bumped by the driver whenever a call or set-up step completes.
    beats: AtomicU64,
    stop: AtomicBool,
    phase: Mutex<String>,
    /// Renders the merged lock table of the index under test, if one is up.
    dump: Mutex<Option<DumpFn>>,
    /// Removed before a forced exit, so a wedge leaves nothing behind.
    run_dir: Mutex<Option<std::path::PathBuf>>,
}

/// Hang watchdog. ROADMAP item 0's `quiesce → dispatch_version_gc →
/// quiesce` wedge is open and every mix drops snapshots, so a run that
/// stops making progress must end loudly — phase and lock table on stderr,
/// non-zero exit, no result line — instead of hanging the driver.
pub struct Watchdog {
    shared: Arc<WatchdogShared>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start() -> Self {
        let shared = Arc::new(WatchdogShared {
            beats: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            phase: Mutex::new("start".into()),
            dump: Mutex::new(None),
            run_dir: Mutex::new(None),
        });
        let seen = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("bench-watchdog".into())
            .spawn(move || {
                let (mut last, mut since) = (0, Instant::now());
                while !seen.stop.load(Ordering::Acquire) {
                    thread::park_timeout(Duration::from_millis(500));
                    let beats = seen.beats.load(Ordering::Relaxed);
                    if beats != last {
                        (last, since) = (beats, Instant::now());
                    } else if since.elapsed() > HANG_LIMIT {
                        let phase = seen.phase.lock().map(|p| p.clone()).unwrap_or_default();
                        eprintln!("benchmark wedged: nothing completed for {HANG_LIMIT:?} in phase '{phase}'");
                        if let Ok(dump) = seen.dump.lock() {
                            if let Some(render) = dump.as_ref() {
                                eprintln!("{}", render());
                            }
                        }
                        if let Ok(dir) = seen.run_dir.lock() {
                            if let Some(dir) = dir.as_ref() {
                                let _ = fs::remove_dir_all(dir);
                            }
                        }
                        // The wedged threads cannot be joined; ending the
                        // process is what stops them.
                        std::process::exit(3);
                    }
                }
            })
            .expect("spawn watchdog");
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    /// A call or set-up step completed.
    #[inline]
    pub fn beat(&self) {
        self.shared.beats.fetch_add(1, Ordering::Relaxed);
    }

    pub fn phase(&self, name: &str) {
        *self.shared.phase.lock().expect("watchdog phase") = name.to_string();
        self.beat();
    }

    pub fn set_dump(&self, dump: Option<DumpFn>) {
        *self.shared.dump.lock().expect("watchdog dump") = dump;
    }

    pub fn set_run_dir(&self, dir: Option<std::path::PathBuf>) {
        *self.shared.run_dir.lock().expect("watchdog run dir") = dir;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        assert!(rss_mib() > 0.5);
        let c0 = process_cpu_ns();
        black_box(alu_load(3_000_000));
        assert!(process_cpu_ns() > c0);
        if let Some((steal, total)) = cpu_jiffies(None) {
            assert!(steal <= total);
        }
    }

    #[test]
    fn guard_reports_shares_in_range() {
        let mut g = HostGuard::new(None);
        g.settle(&Watchdog::start());
        for share in [g.steal_share(), g.runq_wait_share()] {
            assert!((0.0..=1.0).contains(&share));
        }
        assert!(g.steal_wait_s() <= STEAL_BUDGET.as_secs_f64() + 1.0);
    }

    #[test]
    fn watchdog_stops_and_joins() {
        let w = Watchdog::start();
        w.phase("test");
        w.beat();
        drop(w);
    }
}
