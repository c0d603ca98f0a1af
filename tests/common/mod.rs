//! Shared by the schedule tests: a hard deadline that reports instead of
//! hanging.
#![allow(dead_code)] // each test binary uses a subset of these helpers

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Far beyond any healthy schedule (they finish in milliseconds, a loaded
/// two-vCPU box included).
pub const DEADLINE: Duration = Duration::from_secs(20);

/// Runs `schedule` on a thread of its own under [`DEADLINE`]. A schedule
/// that wedges fails the test with `dump()` — the merged wait-for view —
/// printed, instead of parking until CI kills the job; its threads are
/// left behind for process exit.
pub fn within_deadline<T: Send + 'static>(
    dump: impl Fn() -> String,
    schedule: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(schedule());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(out) => {
            worker.join().expect("schedule already reported");
            out
        }
        // The schedule panicked before reporting: surface its panic.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("schedule dropped its sender"))
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("schedule wedged past {DEADLINE:?}:\n{}", dump())
        }
    }
}

/// Polls (1 ms) until `ready`; the enclosing [`within_deadline`] bounds it.
pub fn wait_until(ready: impl Fn() -> bool) {
    while !ready() {
        std::thread::sleep(Duration::from_millis(1));
    }
}
