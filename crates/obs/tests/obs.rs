//! Integration tests for the observability crate: cross-shard merging,
//! snapshot deltas, exporter formats (Prometheus golden), event stream,
//! and a proptest that bucketing always contains the recorded value.

use dgl_obs::{
    bucket_lower_bound, bucket_of, bucket_upper_bound, json_snapshot, prometheus_text, span, Ctr,
    Event, Hist, Histogram, Registry, Res, BUCKETS,
};
use proptest::prelude::*;

#[test]
fn merge_across_shards_sees_every_thread() {
    let hist = Histogram::default();
    let threads = 16;
    let per_thread = 1000u64;
    crossbeam::scope(|s| {
        for t in 0..threads {
            let hist = &hist;
            s.spawn(move |_| {
                for i in 0..per_thread {
                    hist.record(t * per_thread + i);
                }
            });
        }
    })
    .unwrap();
    let snap = hist.snapshot();
    assert_eq!(snap.count, threads * per_thread);
    assert_eq!(snap.buckets.iter().sum::<u64>(), threads * per_thread);
    let expected_sum: u64 = (0..threads * per_thread).sum();
    assert_eq!(snap.sum, expected_sum);
}

#[test]
fn counters_merge_across_threads() {
    let reg = Registry::new();
    crossbeam::scope(|s| {
        for _ in 0..8 {
            let reg = &reg;
            s.spawn(move |_| {
                for _ in 0..500 {
                    reg.incr(Ctr::LockReqShort);
                }
            });
        }
    })
    .unwrap();
    assert_eq!(reg.ctr(Ctr::LockReqShort), 4000);
}

#[test]
fn since_delta_isolates_a_phase() {
    let reg = Registry::new();
    for v in [10u64, 20, 30] {
        reg.record(Hist::LockWait, v);
    }
    reg.add(Ctr::PageReads, 5);
    let before = reg.snapshot();

    for v in [100u64, 200] {
        reg.record(Hist::LockWait, v);
    }
    reg.add(Ctr::PageReads, 7);
    let delta = reg.snapshot().since(&before);

    assert_eq!(delta.hist(Hist::LockWait).count, 2);
    assert_eq!(delta.hist(Hist::LockWait).sum, 300);
    assert_eq!(delta.ctr(Ctr::PageReads), 7);
    // Untouched metrics difference to zero.
    assert_eq!(delta.hist(Hist::Commit).count, 0);
    assert_eq!(delta.ctr(Ctr::MaintCompleted), 0);
}

/// Golden-file check of the Prometheus text format. The layout (TYPE
/// lines, cumulative `le` buckets up to the highest non-empty bucket,
/// `+Inf`, `_sum`/`_count`, `_total` counters) is consumed by CI's
/// artifact upload; change the golden file deliberately if the format
/// changes.
#[test]
fn prometheus_text_matches_golden() {
    let reg = Registry::new();
    // 3 -> bucket 2 ([2,3]), 4 -> bucket 3 ([4,7]), 1000 -> bucket 10.
    for v in [3u64, 4, 1000] {
        reg.record(Hist::LockWait, v);
    }
    reg.record(Hist::Commit, 0); // bucket 0
    reg.add(Ctr::LockReqShort, 12);
    reg.add(Ctr::LockReqCommit, 3);
    // Durability metrics: one fsync batch of 4 grouped commits, one
    // replayed recovery, some appended bytes — pins the wal_* exporter
    // names alongside the locking ones.
    reg.record(Hist::WalFsync, 1 << 20);
    reg.record(Hist::WalReplay, 5_000_000);
    reg.incr(Ctr::WalFsyncs);
    reg.add(Ctr::WalGroupCommitCommits, 4);
    reg.add(Ctr::WalRecords, 9);
    reg.add(Ctr::WalAppendedBytes, 413);
    // Deadlock metrics: one self-reported stall and the lock-manager
    // verdicts — pins the deadlock exporter names dashboards grep for.
    reg.incr(Ctr::WatchdogStalls);
    reg.add(Ctr::LockDeadlocks, 2);
    reg.add(Ctr::LockTimeouts, 5);
    // Hash-index metrics: a point-read fast path mix — pins the hash_*
    // exporter names the CI hashidx job greps for.
    reg.record(Hist::HashLookup, 800);
    reg.add(Ctr::HashHits, 19);
    reg.incr(Ctr::HashMisses);
    reg.add(Ctr::DupProbesSkipped, 6);

    let got = prometheus_text(&reg.snapshot());
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/prometheus_golden.txt");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(golden_path, &got).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path).unwrap();
    assert_eq!(
        got, golden,
        "Prometheus dump drifted from golden file (REGEN_GOLDEN=1 to update)"
    );
}

/// The durability metrics are first-class exporter citizens: stable
/// names, TYPE lines, and counter arithmetic that merges like every
/// other metric.
#[test]
fn wal_metrics_export_with_stable_names() {
    let reg = Registry::new();
    reg.record(Hist::WalFsync, 250_000);
    reg.record(Hist::WalReplay, 1_000);
    reg.add(Ctr::WalFsyncs, 2);
    reg.add(Ctr::WalGroupCommitCommits, 7);
    reg.add(Ctr::WalRecords, 21);
    reg.add(Ctr::WalAppendedBytes, 1_234);

    let text = prometheus_text(&reg.snapshot());
    for needle in [
        "# TYPE dgl_wal_fsync_nanos histogram",
        "# TYPE dgl_wal_replay_nanos histogram",
        "dgl_wal_fsync_nanos_count 1",
        "dgl_wal_replay_nanos_count 1",
        "dgl_wal_fsyncs_total 2",
        "dgl_wal_group_commit_commits_total 7",
        "dgl_wal_records_total 21",
        "dgl_wal_appended_bytes_total 1234",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // Deltas isolate a phase for the wal counters too.
    let before = reg.snapshot();
    reg.add(Ctr::WalFsyncs, 3);
    reg.add(Ctr::WalGroupCommitCommits, 12);
    let delta = reg.snapshot().since(&before);
    assert_eq!(delta.ctr(Ctr::WalFsyncs), 3);
    assert_eq!(delta.ctr(Ctr::WalGroupCommitCommits), 12);
    assert_eq!(delta.ctr(Ctr::WalRecords), 0);
}

/// The deadlock-detection metrics keep stable exporter names: the CI
/// deadlock job and dashboards grep for these exact series.
#[test]
fn deadlock_metrics_export_with_stable_names() {
    let reg = Registry::new();
    reg.add(Ctr::WatchdogStalls, 2);
    reg.add(Ctr::LockDeadlocks, 4);
    reg.add(Ctr::LockTimeouts, 6);

    let text = prometheus_text(&reg.snapshot());
    for needle in [
        "# TYPE dgl_watchdog_stalls_total counter",
        "dgl_watchdog_stalls_total 2",
        "dgl_lock_deadlocks_total 4",
        "dgl_lock_timeouts_total 6",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // Phase deltas work for the verdict counters too — the bench's
    // timeout/deadlock abort columns are built on exactly this.
    let before = reg.snapshot();
    reg.incr(Ctr::WatchdogStalls);
    reg.add(Ctr::LockTimeouts, 2);
    let delta = reg.snapshot().since(&before);
    assert_eq!(delta.ctr(Ctr::WatchdogStalls), 1);
    assert_eq!(delta.ctr(Ctr::LockTimeouts), 2);
    assert_eq!(delta.ctr(Ctr::LockDeadlocks), 0);
}

/// The hash-index metrics keep stable exporter names: the CI hashidx
/// job greps the Prometheus artifact for these exact series, and the
/// bench's hash-hit-rate column is built on the snapshot deltas.
#[test]
fn hash_metrics_export_with_stable_names() {
    let reg = Registry::new();
    reg.record(Hist::HashLookup, 1_500);
    reg.add(Ctr::HashHits, 42);
    reg.add(Ctr::HashMisses, 3);
    reg.add(Ctr::DupProbesSkipped, 17);

    let text = prometheus_text(&reg.snapshot());
    for needle in [
        "# TYPE dgl_hash_lookup_nanos histogram",
        "# TYPE dgl_hash_hits_total counter",
        "dgl_hash_lookup_nanos_count 1",
        "dgl_hash_hits_total 42",
        "dgl_hash_misses_total 3",
        "dgl_dup_probes_skipped_total 17",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // Deltas isolate a phase: hit-rate columns subtract a warmup
    // snapshot, so the counters must difference cleanly.
    let before = reg.snapshot();
    reg.add(Ctr::HashHits, 8);
    reg.incr(Ctr::HashMisses);
    let delta = reg.snapshot().since(&before);
    assert_eq!(delta.ctr(Ctr::HashHits), 8);
    assert_eq!(delta.ctr(Ctr::HashMisses), 1);
    assert_eq!(delta.ctr(Ctr::DupProbesSkipped), 0);
    assert_eq!(delta.hist(Hist::HashLookup).count, 0);
}

/// The operator-facing catalogue (README.md "Metric catalogue": name,
/// unit, layer, what a bad value means) has one row per exported series —
/// adding a metric without documenting it fails here.
#[test]
fn readme_catalogue_lists_every_metric() {
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).unwrap();
    let names = Ctr::ALL
        .iter()
        .map(|c| c.name())
        .chain(Hist::ALL.iter().map(|h| h.name()));
    for name in names {
        let rows = readme
            .lines()
            .filter(|l| l.starts_with(&format!("| `{name}` |")))
            .count();
        assert_eq!(rows, 1, "README.md metric catalogue rows for `{name}`");
    }
}

#[test]
fn json_snapshot_has_percentiles_and_counters() {
    let reg = Registry::new();
    for _ in 0..99 {
        reg.record(Hist::LatchHold, 1);
    }
    reg.record(Hist::LatchHold, 1 << 20);
    reg.incr(Ctr::ExecRetries);
    let json = json_snapshot(&reg.snapshot());
    assert!(json.contains("\"x_latch_hold_nanos\":{\"count\":100"));
    assert!(json.contains("\"p50\":1"));
    // p99 rank 99 still lands in bucket 1; p100 would hit the tail.
    assert!(json.contains("\"exec_retries\":1"));
    // Hand-rolled JSON must stay balanced.
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced JSON: {json}"
    );
}

#[test]
fn span_macro_records_and_emits() {
    let reg = Registry::new();
    reg.set_detail(true);
    let out = span!(
        reg,
        Hist::PlanPhase,
        op = "insert",
        phase = "plan",
        txn = 42,
        { 7 * 6 }
    );
    assert_eq!(out, 42);
    assert_eq!(reg.hist(Hist::PlanPhase).count, 1);
    let events = reg.take_events();
    assert_eq!(events.len(), 1);
    match &events[0] {
        Event::Span { op, phase, txn, .. } => {
            assert_eq!(*op, "insert");
            assert_eq!(*phase, "plan");
            assert_eq!(*txn, 42);
        }
        other => panic!("expected span event, got {other:?}"),
    }
}

#[test]
fn events_require_detail_mode() {
    let reg = Registry::new();
    reg.emit(Event::LockGranted {
        txn: 1,
        res: Res::Page(3),
        mode: "S",
        duration: "commit",
    });
    assert_eq!(reg.events_len(), 0, "detail off: nothing buffered");

    reg.set_detail(true);
    reg.emit(Event::LockBlocked {
        txn: 2,
        res: Res::Page(3),
        mode: "IX",
        holders: vec![(1, "S")],
    });
    let events = reg.take_events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].txn(), 2);
    assert_eq!(reg.events_len(), 0, "take_events drains");
}

#[test]
fn event_ring_drops_oldest_when_full() {
    let reg = Registry::new();
    reg.set_detail(true);
    let cap = dgl_obs::EVENT_RING_CAPACITY;
    for i in 0..(cap as u64 + 10) {
        reg.emit(Event::Span {
            op: "x",
            phase: "y",
            txn: i,
            nanos: 0,
        });
    }
    assert_eq!(reg.events_len(), cap);
    assert_eq!(reg.events_dropped(), 10);
    let events = reg.take_events();
    assert_eq!(events[0].txn(), 10, "oldest 10 were dropped");
}

#[test]
fn res_display_matches_lockmgr_format() {
    assert_eq!(Res::Page(3).to_string(), "page:P3");
    assert_eq!(Res::Object(9).to_string(), "obj:9");
    assert_eq!(Res::Tree.to_string(), "tree");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every recorded value lands in a bucket whose [lower, upper] range
    /// contains it.
    #[test]
    fn recorded_value_lands_in_containing_bucket(v in any::<u64>()) {
        let b = bucket_of(v);
        prop_assert!(b < BUCKETS);
        prop_assert!(bucket_lower_bound(b) <= v, "lower {} > {}", bucket_lower_bound(b), v);
        prop_assert!(v <= bucket_upper_bound(b), "{} > upper {}", v, bucket_upper_bound(b));

        let h = Histogram::default();
        h.record(v);
        let s = h.snapshot();
        prop_assert_eq!(s.buckets[b], 1);
        prop_assert_eq!(s.count, 1);
        prop_assert_eq!(s.sum, v);
        // The quantile answer is conservative: never below the value's bucket lower bound.
        prop_assert!(s.p99() >= v || b == BUCKETS - 1);
    }
}
