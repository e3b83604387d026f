//! `active_audit`: the Table 7 interception audit followed by the
//! root-store probe (Tables 3/4/9, Figure 4), back to back.

use crate::metrics_ctx;
use crate::stats::Outcome;
use crate::trace::Tracer;
use iotls_repro::analysis::{figures, tables};
use iotls_repro::capture::json::Json;
use iotls_repro::core::{
    Experiment, ExperimentKind, InterceptionAudit, InterceptionReport, ProbeVerdict, RootProbe,
    RootProbeReport,
};
use iotls_repro::devices::Testbed;
use iotls_repro::obs::Registry;
use iotls_repro::simnet::sessions_driven;

const TABLE7: &str = include_str!("../../tests/golden/table7_interception.json");
const TABLE9: &str = include_str!("../../tests/golden/table9_rootstores.json");
const FIG4: &str = include_str!("../../tests/golden/fig4_staleness.json");

/// One audit + root-probe sweep and what it drove.
pub struct Sweep {
    pub audit: InterceptionReport,
    pub probe: RootProbeReport,
    pub counters: Registry,
    pub sessions: u64,
    pub seconds: f64,
}

/// One sweep at the canonical experiment seeds, whose rendered output
/// the golden fixtures pin.
pub fn sweep(tb: &Testbed, tr: &Tracer) -> Sweep {
    let audit_ctx = metrics_ctx(ExperimentKind::InterceptionAudit.canonical_seed());
    let probe_ctx = metrics_ctx(ExperimentKind::RootProbe.canonical_seed());
    let driven = sessions_driven();
    let start = std::time::Instant::now();
    let audit = tr.span("core.audit.sweep", || InterceptionAudit.run(tb, &audit_ctx));
    let probe = tr.span("core.rootprobe.sweep", || RootProbe.run(tb, &probe_ctx));
    let seconds = start.elapsed().as_secs_f64();
    let sessions = sessions_driven() - driven;
    let mut counters = audit_ctx.metrics_snapshot();
    counters.merge(&probe_ctx.metrics_snapshot());
    Sweep {
        audit,
        probe,
        counters,
        sessions,
        seconds,
    }
}

fn artifact(name: &str, text: String) -> String {
    Json::Obj(vec![
        ("artifact".into(), Json::Str(name.into())),
        ("text".into(), Json::Str(text)),
    ])
    .encode()
        + "\n"
}

/// Checks one sweep as a single attempted operation: the rendered
/// Table 7, Table 9 and Figure 4 must equal the golden fixtures, and
/// the row counts and the verdict counters must add up.
pub fn check_sweep(tb: &Testbed, s: &Sweep, out: &mut Outcome) {
    let mut problems = Vec::new();
    let rendered = [
        (
            "table7_interception",
            tables::table7_interception(&s.audit),
            TABLE7,
        ),
        (
            "table9_rootstores",
            tables::table9_rootstores(&s.probe),
            TABLE9,
        ),
        (
            "fig4_staleness",
            figures::fig4_staleness(tb.pki, &s.probe),
            FIG4,
        ),
    ];
    for (name, text, golden) in rendered {
        if artifact(name, text) != golden {
            problems.push(format!("{name} differs from tests/golden/{name}.json"));
        }
    }

    let c = |name: &str| s.counters.counter(name);
    let active = tb.devices.iter().filter(|d| d.spec.in_active).count() as u64;
    let rows = s.audit.rows.len() as u64;
    if rows != active || c("audit.devices.audited") != rows {
        problems.push(format!(
            "audit rows {rows}, audited counter {}, active devices {active}",
            c("audit.devices.audited")
        ));
    }
    let flagged = [
        (
            "audit.verdicts.no_validation",
            s.audit.rows.iter().filter(|r| r.no_validation).count(),
        ),
        (
            "audit.verdicts.invalid_basic_constraints",
            s.audit
                .rows
                .iter()
                .filter(|r| r.invalid_basic_constraints)
                .count(),
        ),
        (
            "audit.verdicts.wrong_hostname",
            s.audit.rows.iter().filter(|r| r.wrong_hostname).count(),
        ),
    ];
    for (name, n) in flagged {
        if c(name) != n as u64 {
            problems.push(format!(
                "{name} = {} but {n} rows carry the verdict",
                c(name)
            ));
        }
    }
    if s.audit
        .rows
        .iter()
        .any(|r| !r.vulnerable_destinations.is_subset(&r.total_destinations))
    {
        problems.push("a compromised destination is missing from its row's observed set".into());
    }

    let p = &s.probe;
    let fates = [
        ("rootprobe.fate.probed", p.rows.len()),
        (
            "rootprobe.fate.reboot_unsafe",
            p.excluded_reboot_unsafe.len(),
        ),
        (
            "rootprobe.fate.no_validation",
            p.excluded_no_validation.len(),
        ),
        ("rootprobe.devices.amenable", p.amenable_rows().len()),
    ];
    for (name, n) in fates {
        if c(name) != n as u64 {
            problems.push(format!("{name} = {} but the report has {n}", c(name)));
        }
    }
    let considered =
        (p.rows.len() + p.excluded_reboot_unsafe.len() + p.excluded_no_validation.len()) as u64;
    if considered != active {
        problems.push(format!(
            "root probe accounted for {considered} of {active} devices"
        ));
    }
    let mut verdicts = [0u64; 3];
    for v in p
        .rows
        .iter()
        .flat_map(|r| r.common.values().chain(r.deprecated.values()))
    {
        verdicts[match v {
            ProbeVerdict::Present => 0,
            ProbeVerdict::Absent => 1,
            ProbeVerdict::Inconclusive => 2,
        }] += 1;
    }
    let counted = [
        c("rootprobe.verdicts.present"),
        c("rootprobe.verdicts.absent"),
        c("rootprobe.verdicts.inconclusive"),
    ];
    if counted != verdicts {
        problems.push(format!(
            "root-probe verdict counters {counted:?} differ from the report's verdicts {verdicts:?}"
        ));
    }

    out.attempted += 1;
    if !problems.is_empty() {
        out.fail(format!("active sweep: {}", problems.join("; ")));
    }
}
