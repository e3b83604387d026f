//! `gateway_soak`: the resident gateway replays recorded sessions with
//! the audit + drift-detection middleware chain on every endpoint.

use crate::stats::Outcome;
use crate::Size;
use iotls_repro::core::{
    AuditObserver, DriftDetector, ExperimentCtx, Gateway, GatewayConfig, GatewayReport,
};
use iotls_repro::devices::Testbed;
use iotls_repro::tls::middleware::Chain;

/// Offered load: 2048 sessions a tick over 520 ticks (about 1.06M
/// sessions) at full size. Queue, pool and token buckets are sized
/// above the offered load so admission control rejects nothing and
/// the run measures session throughput.
pub fn config(size: Size) -> GatewayConfig {
    GatewayConfig {
        ticks: match size {
            Size::Full => 520,
            Size::Smoke => 16,
        },
        load: 2048,
        load_spread: 64,
        queue_capacity: 8192,
        pool_capacity: 4096,
        bucket_capacity: 4096,
        bucket_refill: 2048,
        ..GatewayConfig::default()
    }
}

/// Records the tapes and registers the chain on every endpoint, each
/// enrolled with that endpoint's roster baselines.
pub fn build<'a>(tb: &'a Testbed, ctx: &'a ExperimentCtx, size: Size) -> Gateway<'a> {
    let mut gw = Gateway::new(tb, ctx, config(size));
    let baselines = gw.endpoint_baselines();
    gw.register_chains(Box::new(move |endpoint| {
        let enrolled = baselines.get(endpoint).cloned().unwrap_or_default();
        Some(
            Chain::new()
                .with(Box::new(AuditObserver::default()))
                .with(Box::new(DriftDetector::new(&enrolled))),
        )
    }));
    gw
}

pub fn counter(report: &GatewayReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Counts a run's admitted sessions as attempted and those that did
/// not establish as failed, and checks the run's invariants.
pub fn check_run(report: &GatewayReport, out: &mut Outcome) {
    out.attempted += report.admitted;
    let not_established = report.admitted.saturating_sub(report.established);
    let mut problems = Vec::new();
    if !report.invariant_holds() {
        problems.push("admitted != completed + rejected + aborted".to_string());
    }
    if report.rejected() != 0 {
        problems.push(format!("{} sessions rejected", report.rejected()));
    }
    if report.admitted != report.completed || report.completed != report.established {
        problems.push(format!(
            "admitted {}, completed {}, established {}",
            report.admitted, report.completed, report.established
        ));
    }
    let flags = counter(report, "gateway.middleware.intercepts")
        + counter(report, "gateway.middleware.aborts");
    if flags != 0 {
        problems.push(format!("drift detector flagged {flags} benign sessions"));
    }
    if !problems.is_empty() {
        out.failed += not_established.max(1);
        out.correct = false;
        out.problems
            .push(format!("gateway run: {}", problems.join("; ")));
    }
}
