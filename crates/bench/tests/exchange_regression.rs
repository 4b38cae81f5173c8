//! Pins the exchange scheduler's per-sender-row behaviour.
//!
//! `ScheduleEngine::schedule_transfers` replaced an O(T²) rescan-per-commit
//! with per-sender rows under a heap of row bounds; a plausible-looking edit
//! can silently degrade it back towards quadratic work without failing any
//! correctness test (schedules stay byte-identical to the retained oracle —
//! only the work done changes). This test pins the exact telemetry on
//! deterministic all-to-all workloads and gates the growth so such a
//! regression turns a build red instead of a future scaling sweep.

use gridcast_core::ScheduleEngine;
use gridcast_experiments::figures::gather::alltoall_transfer_set;

/// Exact pins on the 64-cluster all-to-all (T = 4032): row bounds popped,
/// the stale ones among them, and the keys the row scans evaluated.
/// Deterministic — drift means the row logic changed. If the change is an
/// intentional improvement, re-pin; if the numbers grew sharply, the rows
/// regressed towards the oracle's full rescans.
const PINNED_POPS_64: u64 = 16_791;
const PINNED_REINSERTS_64: u64 = 12_759;
const PINNED_ROW_SCANS_64: u64 = 534_942;

#[test]
fn exchange_heap_work_is_pinned_and_sub_quadratic() {
    let mut engine = ScheduleEngine::new();
    engine.take_telemetry();

    let set = alltoall_transfer_set(64, 1000);
    let t64 = set.transfers().len() as u64;
    assert_eq!(t64, 64 * 63);
    let _ = engine.schedule_transfers(&set);
    let tel = engine.take_telemetry();
    assert_eq!(tel.exchange_commits, t64);
    assert_eq!(
        tel.exchange_pops,
        tel.exchange_commits + tel.exchange_reinserts,
        "every pop either commits or rescans a stale row"
    );
    assert_eq!(
        (
            tel.exchange_pops,
            tel.exchange_reinserts,
            tel.exchange_row_scans
        ),
        (PINNED_POPS_64, PINNED_REINSERTS_64, PINNED_ROW_SCANS_64),
        "exchange telemetry drifted on the pinned 64-cluster all-to-all"
    );

    // The oracle's scan count is exactly T·(T+1)/2 — the quadratic yardstick
    // the rows are measured against: ~480x the pops at 64 clusters.
    let _ = engine.schedule_transfers_quadratic(&set);
    let oracle = engine.take_telemetry();
    assert_eq!(oracle.exchange_oracle_scans, t64 * (t64 + 1) / 2);
    assert!(
        tel.exchange_pops * 20 < oracle.exchange_oracle_scans,
        "the rows should pop at least 20x less than the oracle scans at 64 clusters"
    );

    // Growth gate at ≥200 clusters: doubling the cluster count quadruples T,
    // so quadratic work would grow ~16x per step. The rows pop ~4.4·T bounds
    // (~4.2x per step) and scan ~2.2·n·T keys (~8.4x per step); the gates
    // leave margin for workload drift but fail anything near-quadratic.
    let mut pops = Vec::new();
    let mut scans = Vec::new();
    for clusters in [100usize, 200] {
        let set = alltoall_transfer_set(clusters, 2000 + clusters as u64);
        let _ = engine.schedule_transfers(&set);
        let tel = engine.take_telemetry();
        let t = set.transfers().len() as u64;
        assert_eq!(tel.exchange_commits, t);
        // Far below the oracle's T·(T+1)/2 at this size.
        assert!(
            tel.exchange_pops < t * t / 8,
            "{clusters} clusters: {} pops vs T²/8 = {}",
            tel.exchange_pops,
            t * t / 8
        );
        pops.push(tel.exchange_pops);
        scans.push(tel.exchange_row_scans);
    }
    let growth = pops[1] as f64 / pops[0] as f64;
    assert!(
        growth < 12.0,
        "exchange pops grew {growth:.2}x from 100 to 200 clusters (quadratic-in-T would be ~16x)"
    );
    let growth = scans[1] as f64 / scans[0] as f64;
    assert!(
        growth < 12.0,
        "exchange row scans grew {growth:.2}x from 100 to 200 clusters (quadratic-in-T would be ~16x)"
    );
}
