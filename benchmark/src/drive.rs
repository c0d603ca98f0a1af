//! The closed loop: one client, one transaction at a time, the next call
//! only after the previous one returned.
//!
//! A run is cut into equal-op-count **segments**. A segment's operations
//! are generated (and the oracle's expectations computed) before its clock
//! starts; inside the clock there is one timestamp pair per call and a
//! `Vec` push, nothing else. Each segment yields a rate, a CPU cost per
//! transaction and a median per latency class; the quiet decile over the
//! segments ([`crate::rec`]) is what is gated.

use std::time::Instant;

use dgl_core::ScanHit;

use crate::gen::{Op, Segment, CLASSES, COMMIT, SCAN, SNAP, TXN, UNCHECKED};
use crate::host::{process_cpu_ns, Watchdog};
use crate::rec::{median_u32, quiet_high, quiet_low, Recorder};
use crate::workloads::{Outcome, Target};
use crate::Run;

/// Observer of the calls the driver makes. The untraced run uses
/// [`NoProbe`], whose methods compile to nothing.
pub trait Probe {
    /// Just before the timestamp pair of a call of `class` in transaction
    /// `txn` (the system's own id; 0 before `begin` returned it).
    fn pre(&mut self, class: usize, txn: u64);
    /// Just after it: the call's class, its two timestamps, the
    /// transaction it belongs to (a per-run sequence number) and the hits
    /// it returned.
    fn post(&mut self, class: usize, start: Instant, end: Instant, txn_seq: u64, hits: usize);
}

pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn pre(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn post(&mut self, _: usize, _: Instant, _: Instant, _: u64, _: usize) {}
}

/// Class index of `begin` calls; they are traced but have no latency class
/// of their own (`txn` covers begin to commit).
pub const BEGIN: usize = CLASSES;

/// Correctness tally of a run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Transactions attempted.
    pub attempted: u64,
    /// Transactions in which a call returned an error.
    pub failed: u64,
    /// Answers that disagreed with the oracle (first few, for the log).
    pub wrong: Vec<String>,
    pub wrong_count: u64,
    pub points_checked: u64,
    pub scans_checked: u64,
}

impl Verdict {
    pub fn wrong(&mut self, what: String) {
        self.wrong_count += 1;
        if self.wrong.len() < 5 {
            self.wrong.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong_count == 0
    }
}

fn sorted_pairs(hits: &[ScanHit]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = hits.iter().map(|h| (h.oid.0, h.version)).collect();
    v.sort_unstable();
    v
}

/// Raw result of one timed segment.
pub struct Timed {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub txns: usize,
    /// Hits returned by locking scans and by snapshot scans.
    pub hits: [u64; 2],
    /// XOR of `oid ⊕ version·φ` over every scan hit plus every point
    /// answer: equal for equal answers, whatever order hits come in.
    pub digest: u64,
}

/// Per-call latency samples of the segment being run, by class.
pub type Samples = [Vec<u32>; CLASSES];

fn nanos(from: Instant, to: Instant) -> u32 {
    u32::try_from(to.duration_since(from).as_nanos()).unwrap_or(u32::MAX)
}

/// Runs one generated segment against `target`, timing every call.
// The loop's whole state is passed explicitly; a struct around it would
// only rename the arguments.
#[allow(clippy::too_many_arguments)]
pub fn run_segment<T: Target, P: Probe>(
    target: &mut T,
    seg: &Segment,
    txn_ops: usize,
    txn_seq: &mut u64,
    samples: &mut Samples,
    probe: &mut P,
    verdict: &mut Verdict,
    dog: &Watchdog,
) -> Outcome<Timed> {
    samples.iter_mut().for_each(Vec::clear);
    let mut kept: Vec<(u32, Vec<ScanHit>)> = Vec::new();
    let mut hits = [0u64; 2];
    let mut digest = 0u64;
    let mut mix =
        |oid: u64, version: u64| digest ^= oid ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let cpu0 = process_cpu_ns();
    let wall0 = Instant::now();
    for txn_body in seg.ops.chunks(txn_ops) {
        *txn_seq += 1;
        verdict.attempted += 1;
        probe.pre(BEGIN, 0);
        let t_begin = Instant::now();
        let txn = target.begin()?;
        probe.post(BEGIN, t_begin, Instant::now(), *txn_seq, 0);
        for op in txn_body {
            let class = op.kind();
            probe.pre(class, txn);
            let (t0, t1, n) = match *op {
                Op::Scan { query, check } | Op::SnapScan { query, check } => {
                    let t0 = Instant::now();
                    let found = if class == SCAN {
                        target.scan(txn, query)?
                    } else {
                        target.snap_scan(txn, query)?
                    };
                    let t1 = Instant::now();
                    let n = found.len();
                    hits[class] += n as u64;
                    found.iter().for_each(|h| mix(h.oid.0, h.version));
                    if check != UNCHECKED {
                        kept.push((check, found));
                    }
                    (t0, t1, n)
                }
                Op::Point { oid, rect, expect } => {
                    let t0 = Instant::now();
                    let got = target.point(txn, oid, rect)?;
                    let t1 = Instant::now();
                    mix(oid, got.unwrap_or(0));
                    verdict.points_checked += 1;
                    if got != Some(expect) {
                        verdict.wrong(format!("read of {oid}: {got:?}, oracle {expect}"));
                    }
                    (t0, t1, 0)
                }
                Op::Insert { oid, rect } => {
                    let t0 = Instant::now();
                    target.insert(txn, oid, rect)?;
                    (t0, Instant::now(), 0)
                }
                Op::Delete { oid, rect } => {
                    let t0 = Instant::now();
                    let existed = target.delete(txn, oid, rect)?;
                    let t1 = Instant::now();
                    if !existed {
                        verdict.wrong(format!("delete of live object {oid} found nothing"));
                    }
                    (t0, t1, 0)
                }
                Op::Update { oid, rect } => {
                    let t0 = Instant::now();
                    let existed = target.update(txn, oid, rect)?;
                    let t1 = Instant::now();
                    if !existed {
                        verdict.wrong(format!("update of live object {oid} found nothing"));
                    }
                    (t0, t1, 0)
                }
            };
            samples[class].push(nanos(t0, t1));
            probe.post(class, t0, t1, *txn_seq, n);
        }
        probe.pre(COMMIT, txn);
        let t_commit = Instant::now();
        target.commit(txn)?;
        let t_end = Instant::now();
        samples[COMMIT].push(nanos(t_commit, t_end));
        samples[TXN].push(nanos(t_begin, t_end));
        probe.post(COMMIT, t_commit, t_end, *txn_seq, 0);
        probe.post(TXN, t_begin, t_end, *txn_seq, 0);
        dog.beat();
    }
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - cpu0;
    for (check, found) in kept {
        verdict.scans_checked += 1;
        let got = sorted_pairs(&found);
        let want = &seg.expected[check as usize];
        if got != *want {
            verdict.wrong(format!(
                "scan #{check}: {} hits, oracle {} (first difference {:?})",
                got.len(),
                want.len(),
                got.iter().zip(want).find(|(g, w)| g != w)
            ));
        }
    }
    Ok(Timed {
        wall_ns,
        cpu_ns,
        txns: seg.ops.len() / txn_ops,
        hits,
        digest,
    })
}

/// What a phase of equal segments measured.
#[derive(Default)]
pub struct Phase {
    pub seg_rate: Vec<f64>,
    pub seg_cpu_us_per_txn: Vec<f64>,
    pub seg_p50_ns: [Vec<f64>; CLASSES],
    /// Every sample of the phase, by class.
    pub all: [Recorder; CLASSES],
    pub txns: u64,
    pub ops: u64,
    pub hits: [u64; 2],
    /// Calls by operation kind.
    pub calls: [u64; 6],
    pub wall_s: f64,
    pub cpu_s: f64,
    pub gen_ns: u64,
    /// Digest of every answer, segment by segment (untimed ones included).
    pub digests: Vec<u64>,
    pub txns_per_segment: usize,
}

impl Phase {
    fn absorb(&mut self, seg: &Segment, timed: &Timed, samples: &mut Samples) {
        let ops = seg.ops.len() as f64;
        let wall_s = timed.wall_ns as f64 / 1e9;
        self.seg_rate.push(ops / wall_s);
        self.seg_cpu_us_per_txn
            .push(timed.cpu_ns as f64 / 1e3 / timed.txns as f64);
        for (class, of_class) in samples.iter_mut().enumerate() {
            for &s in of_class.iter() {
                self.all[class].record(u64::from(s));
            }
            // A class with no sample in this segment (possible only in
            // tiny smoke segments) simply has one value fewer.
            if let Some(p50) = median_u32(of_class) {
                self.seg_p50_ns[class].push(p50);
            }
        }
        self.txns += timed.txns as u64;
        self.ops += seg.ops.len() as u64;
        self.wall_s += wall_s;
        self.cpu_s += timed.cpu_ns as f64 / 1e9;
        for k in [SCAN, SNAP] {
            self.hits[k] += timed.hits[k];
        }
        for op in &seg.ops {
            self.calls[op.kind()] += 1;
        }
    }

    /// Quiet-decile rate in operations per second.
    pub fn throughput(&self) -> f64 {
        quiet_high(&self.seg_rate)
    }

    /// Quiet-decile CPU microseconds per transaction, all threads.
    pub fn cpu_us_per_txn(&self) -> f64 {
        quiet_low(&self.seg_cpu_us_per_txn)
    }

    /// Quiet-decile median latency of a class in microseconds.
    pub fn p50_us(&self, class: usize) -> f64 {
        quiet_low(&self.seg_p50_ns[class]) / 1e3
    }

    /// Share of segments that ran more than 25 % slower than the quiet
    /// decile: how much of the run the host disturbed.
    pub fn disturbed_share(&self) -> f64 {
        let quiet = self.throughput();
        if quiet == 0.0 {
            return 0.0;
        }
        let slow = self.seg_rate.iter().filter(|&&r| r < quiet / 1.25).count();
        slow as f64 / self.seg_rate.len() as f64
    }
}

/// How long a phase runs: until its segments' wall times sum to a number
/// of seconds, or for a fixed number of segments (`--smoke`, where counts
/// must repeat exactly).
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Seconds(f64),
    Segments(usize),
}

impl Run<'_> {
    /// Runs segments of `txns_per_segment` transactions until `until`.
    /// Segments are handed to `retain` after they ran (the traced run
    /// replays them on the layers one by one). Stops early, with the
    /// verdict marked, if a call fails: the oracle is then out of step.
    pub fn phase<T: Target, P: Probe>(
        &mut self,
        target: &mut T,
        probe: &mut P,
        txns_per_segment: usize,
        until: Until,
        mut retain: Option<&mut Vec<Segment>>,
    ) -> Phase {
        let mut phase = Phase {
            txns_per_segment,
            ..Phase::default()
        };
        let txn_ops = self.args.workload.mix.txn_ops;
        let mut samples: Samples = Default::default();
        for v in samples.iter_mut() {
            v.reserve(txns_per_segment * txn_ops);
        }
        loop {
            let done = match until {
                Until::Seconds(s) => phase.wall_s >= s,
                Until::Segments(n) => phase.seg_rate.len() >= n,
            };
            if done {
                break;
            }
            let g0 = Instant::now();
            let seg = self.gen.segment(txns_per_segment);
            phase.gen_ns += g0.elapsed().as_nanos() as u64;
            self.dog.beat();
            self.guard.settle(self.dog);
            let ran = run_segment(
                target,
                &seg,
                txn_ops,
                &mut self.txn_seq,
                &mut samples,
                probe,
                &mut self.verdict,
                self.dog,
            );
            match ran {
                Ok(timed) => {
                    phase.digests.push(timed.digest);
                    phase.absorb(&seg, &timed, &mut samples);
                }
                Err(e) => {
                    self.verdict.failed += 1;
                    eprintln!("call failed, run stopped: {e}");
                    break;
                }
            }
            if let Some(kept) = retain.as_deref_mut() {
                kept.push(seg);
            }
        }
        phase
    }

    /// Warm-up: caches fill, lazy set-up finishes, and the rate is learned.
    /// Returns the transactions per segment that make a segment last
    /// `segment_s`. Timings are discarded; the traced run keeps the
    /// segments, because its replicas must see the same stream from the
    /// first operation on.
    pub fn warm_up<T: Target, P: Probe>(
        &mut self,
        target: &mut T,
        probe: &mut P,
        seconds: f64,
        segment_s: f64,
        mut retain: Option<&mut Vec<Segment>>,
    ) -> usize {
        let mut txns = (256 / self.args.workload.mix.txn_ops).max(4);
        let t0 = Instant::now();
        let mut rate = 0.0;
        while t0.elapsed().as_secs_f64() < seconds && self.verdict.failed == 0 {
            let p = self.phase(
                target,
                probe,
                txns,
                Until::Segments(1),
                retain.as_deref_mut(),
            );
            if p.wall_s > 0.0 {
                rate = p.txns as f64 / p.wall_s;
            }
            // Grow towards segments of the target length.
            txns = ((rate * segment_s) as usize).clamp(txns, txns * 4);
        }
        ((rate * segment_s) as usize).max(4)
    }
}

/// Replays already generated segments, in order, against another target
/// (the traced run's replicas). Segments before `skip` keep the replica's
/// state in step but are not timed; `budget` bounds the wall time spent.
pub fn replay<T: Target>(
    target: &mut T,
    segments: &[Segment],
    skip: usize,
    txn_ops: usize,
    budget: Option<std::time::Duration>,
    verdict: &mut Verdict,
    dog: &Watchdog,
) -> Phase {
    let mut phase = Phase::default();
    let mut samples: Samples = Default::default();
    let (t0, mut txn_seq) = (Instant::now(), 0);
    for (i, seg) in segments.iter().enumerate() {
        if budget.is_some_and(|b| t0.elapsed() > b) {
            break;
        }
        match run_segment(
            target,
            seg,
            txn_ops,
            &mut txn_seq,
            &mut samples,
            &mut NoProbe,
            verdict,
            dog,
        ) {
            Ok(timed) => {
                phase.digests.push(timed.digest);
                if i >= skip {
                    phase.absorb(seg, &timed, &mut samples);
                }
            }
            Err(e) => {
                verdict.failed += 1;
                eprintln!("replay failed: {e}");
                break;
            }
        }
    }
    phase
}
