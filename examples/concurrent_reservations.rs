//! Land-parcel reservations: many agents concurrently try to claim
//! rectangular plots; a claim is valid only if the plot is free, so each
//! reservation transaction is *scan (must be empty) → insert*. Phantom
//! protection is exactly what makes this correct: between the emptiness
//! check and the insert, no other transaction may slip a claim into the
//! scanned region. The demo proves no two committed claims overlap.
//!
//! ```sh
//! cargo run --example concurrent_reservations
//! ```

use std::sync::Arc;

use granular_rtree::core::{DglConfig, DglRTree, Rect2, TransactionalRTree, TxnError};
use granular_rtree::obs::{Ctr, Hist};
use granular_rtree::rtree::ObjectId;

const AGENTS: u64 = 8;
const ATTEMPTS_PER_AGENT: u64 = 60;

fn main() {
    let db = Arc::new(DglRTree::new(DglConfig::default()));

    let claims: Vec<Vec<(u64, Rect2)>> = crossbeam::scope(|s| {
        let mut handles = Vec::new();
        for agent in 0..AGENTS {
            let db = Arc::clone(&db);
            handles.push(s.spawn(move |_| {
                let mut state = (agent + 1) * 0x9E37_79B9;
                let mut rnd = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 / (1u64 << 53) as f64
                };
                let mut won = Vec::new();
                for k in 0..ATTEMPTS_PER_AGENT {
                    // Agents deliberately draw from a small pool of plot
                    // locations so conflicts actually happen.
                    let cell = (rnd() * 36.0) as u64;
                    let x = 0.05 + 0.15 * (cell % 6) as f64;
                    let y = 0.05 + 0.15 * (cell / 6) as f64;
                    let plot = Rect2::new([x, y], [x + 0.1, y + 0.1]);
                    let oid = ObjectId(agent * ATTEMPTS_PER_AGENT + k + 1);

                    let txn = db.begin();
                    // 1. Emptiness check — phantom-protected until commit.
                    let occupied = match db.read_scan(txn, plot) {
                        Ok(hits) => !hits.is_empty(),
                        Err(TxnError::Deadlock | TxnError::Timeout) => continue,
                        Err(e) => panic!("scan: {e}"),
                    };
                    if occupied {
                        db.abort(txn).unwrap();
                        continue;
                    }
                    // 2. Claim it.
                    match db.insert(txn, oid, plot) {
                        Ok(()) => {}
                        Err(TxnError::Deadlock | TxnError::Timeout) => continue,
                        Err(e) => panic!("insert: {e}"),
                    }
                    match db.commit(txn) {
                        Ok(()) => won.push((oid.0, plot)),
                        Err(e) => panic!("commit: {e}"),
                    }
                }
                won
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();

    // Correctness: committed claims are pairwise non-overlapping.
    let all: Vec<(u64, Rect2)> = claims.into_iter().flatten().collect();
    let mut conflicts = 0;
    for (i, (oa, ra)) in all.iter().enumerate() {
        for (ob, rb) in all.iter().skip(i + 1) {
            if ra.overlap_area(rb) > 0.0 {
                eprintln!("DOUBLE BOOKING: {oa} and {ob} overlap");
                conflicts += 1;
            }
        }
    }
    assert_eq!(
        conflicts, 0,
        "phantom protection must prevent double booking"
    );
    db.validate().unwrap();

    let obs = db.obs().snapshot();
    println!(
        "{} agents made {} committed claims ({} plots of 36 available)",
        AGENTS,
        all.len(),
        all.len()
    );
    println!(
        "transactions: {} started, {} committed, {} aborted",
        obs.ctr(Ctr::TxnsStarted),
        obs.ctr(Ctr::TxnsCommitted),
        obs.ctr(Ctr::TxnsAborted)
    );
    println!(
        "lock manager: {} requests, {} waits, {} deadlock victims",
        obs.lock_requests(),
        obs.hist(Hist::LockWait).count,
        obs.ctr(Ctr::LockDeadlocks)
    );
    println!("concurrent_reservations OK — no double bookings");
}
