//! Golden regression tests of the shared-bottleneck specs: every registry spec whose
//! tenants share the uplink must reproduce its committed fixture **bit for bit**, so any
//! change to the shared link, the global timeline interleaving, the starvation watchdog or
//! the fairness telemetry is intentional and reviewed alongside a fixture update. Their
//! contract tests live in `scenario_golden.rs`.

mod golden;

use golden::{assert_bit_stable, report, Family};

/// Every shared-uplink spec against its fixture.
#[test]
fn golden_contention_reports_are_bit_stable() {
    assert_bit_stable(Family::Contention, 4);
}

/// The engine is deterministic within a process: a fresh serial run of a shared-uplink
/// spec (new shared link and tenants, same seeds) reproduces the pooled registry run.
#[test]
fn contention_runs_are_deterministic() {
    let (spec, pooled) = report("shared-blackout");
    assert_eq!(&spec.run(), pooled);
}
