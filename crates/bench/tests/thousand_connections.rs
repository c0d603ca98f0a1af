//! The acceptance cell of `repro connections`, in a test binary of its
//! own: a thousand sockets must not share two vCPUs with the statistical
//! tests of the library's unit-test binary (`ablation`, `maintenance`),
//! which lost to it about one run in eight.

use dgl_bench::experiments::connections::run_cell;

/// One thousand concurrent sessions — every socket connected and
/// handshaken before the barrier drops — with zero non-retryable
/// protocol errors (asserted inside the cell).
#[test]
fn sustains_thousand_concurrent_connections() {
    let row = run_cell(1000, 1000, 100, 0.0);
    assert!(row.commits >= 1000, "{row:?}");
}
