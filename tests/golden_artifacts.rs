//! Golden-snapshot suite: every exported paper artifact — Tables 1–9,
//! Figures 1–5, and the §5.1 summary statistics — serialized to
//! canonical JSON and pinned byte-for-byte against fixtures under
//! `tests/golden/`.
//!
//! A failure here means an artifact changed. If the change is
//! intentional (a renderer edit, a deliberate model change),
//! regenerate the fixtures and review the diff before committing:
//!
//! ```sh
//! IOTLS_BLESS=1 cargo test -q --offline --test golden_artifacts
//! git diff tests/golden/
//! ```
//!
//! Fixtures are canonical JSON (sorted behavior comes from the
//! renderers themselves being deterministic; the JSON encoder keeps
//! insertion order and emits no whitespace). Floats are serialized as
//! fixed-precision strings so the files stay byte-stable across
//! formatting changes.

use iotls_repro::analysis::{experiment_artifacts, figures, tables};
use iotls_repro::capture::json::Json;
use iotls_repro::capture::{global_dataset, CaptureCtx};
use iotls_repro::core::{
    cipher_series, library_alert_matrix, passive_summary, revocation_summary, version_series,
    Experiment, ExperimentCtx, ExperimentKind, FingerprintSurveyor, InterceptionAudit,
    Orchestrator, Report,
};
use iotls_repro::devices::Testbed;
use iotls_repro::obs::{Registry, SharedRegistry};
use iotls_repro::simnet::FaultPlan;
use std::path::PathBuf;

/// Seed for the labeled application fingerprint database Figure 5
/// joins against (the experiment seeds themselves are canonical:
/// [`ExperimentKind::canonical_seed`]).
const FPDB_SEED: u64 = 0xDB;

/// Seed of the passive capture run whose counters are pinned under
/// faults (the active engines use their canonical seeds).
const CAPTURE_SEED: u64 = 0x10AD;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Compares (or, under `IOTLS_BLESS=1`, rewrites) one artifact's
/// fixture.
fn check(name: &str, artifact: Json) {
    let encoded = artifact.encode() + "\n";
    let path = fixture_path(name);
    if std::env::var("IOTLS_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &encoded)
            .unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing fixture {} — regenerate with IOTLS_BLESS=1 (see module docs)",
            path.display()
        )
    });
    assert_eq!(
        want, encoded,
        "artifact `{name}` drifted from its golden fixture; if intentional, \
         rebless with IOTLS_BLESS=1 and review the diff"
    );
}

/// Wraps a rendered table/figure in the canonical artifact envelope.
fn text_artifact(name: &str, text: String) -> Json {
    Json::Obj(vec![
        ("artifact".into(), Json::Str(name.into())),
        ("text".into(), Json::Str(text)),
    ])
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

#[test]
fn golden_static_tables() {
    check(
        "table1_roster",
        text_artifact("table1_roster", tables::table1_roster(Testbed::global())),
    );
    check(
        "table2_attacks",
        text_artifact("table2_attacks", tables::table2_attacks()),
    );
    check(
        "table3_platforms",
        text_artifact("table3_platforms", tables::table3_platforms()),
    );
    check(
        "table4_library_alerts",
        text_artifact(
            "table4_library_alerts",
            tables::table4_library_alerts(&library_alert_matrix()),
        ),
    );
}

#[test]
fn golden_experiment_registry() {
    // One orchestrator pass over the whole registry at the canonical
    // seeds covers every experiment-backed fixture: Tables 5, 6, 7, 9,
    // Figures 4 and 5, and the gateway drain snapshot. The audit
    // service backs no fixture but still runs, so a panic in any
    // engine fails this test.
    let testbed = Testbed::global();
    let ctx = ExperimentCtx::new(0);
    let runs = Orchestrator::new(testbed, &ctx).canonical_seeds().run_all();
    assert_eq!(runs.len(), ExperimentKind::ALL.len());
    let mut checked = 0;
    for run in &runs {
        let report = run
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", run.kind.name()));
        let rendered = experiment_artifacts(testbed, report, FPDB_SEED);
        let names: Vec<&str> = rendered.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, report.fixtures(), "{}", run.kind.name());
        for (name, text) in rendered {
            check(name, text_artifact(name, text));
            checked += 1;
        }
    }
    assert_eq!(checked, 7, "fixture coverage shrank");
}

#[test]
fn golden_table8_revocation() {
    let ds = global_dataset();
    check(
        "table8_revocation",
        text_artifact(
            "table8_revocation",
            tables::table8_revocation(&revocation_summary(ds), &ds.device_names()),
        ),
    );
}

#[test]
fn golden_longitudinal_figures() {
    let ds = global_dataset();
    let summary = passive_summary(ds);
    let axis = figures::month_axis(ds);
    check(
        "fig1_versions",
        text_artifact(
            "fig1_versions",
            figures::fig1_versions(&axis, &version_series(ds), &summary.fig1_devices),
        ),
    );
    check(
        "fig2_insecure",
        text_artifact("fig2_insecure", figures::fig2_insecure(&axis, &cipher_series(ds))),
    );
    check(
        "fig3_strong",
        text_artifact("fig3_strong", figures::fig3_strong(&axis, &cipher_series(ds))),
    );
}

#[test]
fn golden_section51_summary() {
    let s = passive_summary(global_dataset());
    check(
        "section51_summary",
        Json::Obj(vec![
            ("artifact".into(), Json::Str("section51_summary".into())),
            (
                "tls12_exclusive_devices".into(),
                str_arr(&s.tls12_exclusive_devices),
            ),
            ("fig1_devices".into(), str_arr(&s.fig1_devices)),
            ("null_anon_seen".into(), Json::Bool(s.null_anon_seen)),
            (
                "devices_advertising_insecure".into(),
                str_arr(&s.devices_advertising_insecure),
            ),
            (
                "devices_establishing_insecure".into(),
                str_arr(&s.devices_establishing_insecure),
            ),
            (
                "devices_advertising_fs".into(),
                str_arr(&s.devices_advertising_fs),
            ),
            (
                "devices_mostly_without_fs".into(),
                str_arr(&s.devices_mostly_without_fs),
            ),
            (
                "pct_connections_tls13".into(),
                Json::Str(format!("{:.4}", s.pct_connections_tls13)),
            ),
            (
                "pct_connections_rc4".into(),
                Json::Str(format!("{:.4}", s.pct_connections_rc4)),
            ),
        ]),
    );
}

/// Wraps a deterministic counter section in the artifact envelope.
fn counters_artifact(name: &str, reg: &Registry) -> Json {
    let counters = Json::parse(&reg.counters_json()).expect("counters_json is valid JSON");
    Json::Obj(vec![
        ("artifact".into(), Json::Str(name.into())),
        ("counters".into(), counters),
    ])
}

#[test]
fn golden_counter_sections_under_faults() {
    // The session-path counters (`sim.*` — tap records and bytes,
    // injected faults, failure causes — plus the `core.*` recovery and
    // `capture.*` lane tallies) of the three tapped pipelines, pinned
    // at two uniform fault rates. Report fixtures alone cannot see a
    // change in how the gateway observes the wire; these can.
    let tb = Testbed::global();
    for pm in [50u16, 150] {
        let ctx = |kind: ExperimentKind| {
            let seed = kind.canonical_seed();
            ExperimentCtx::builder()
                .seed(seed)
                .plan(FaultPlan::uniform(seed, pm))
                .threads(2)
                .metrics(true)
                .build()
        };
        let audit_ctx = ctx(ExperimentKind::InterceptionAudit);
        InterceptionAudit.run(tb, &audit_ctx);
        let name = format!("counters_audit_pm{pm}");
        check(&name, counters_artifact(&name, &audit_ctx.metrics_snapshot()));

        let survey_ctx = ctx(ExperimentKind::FingerprintSurvey);
        FingerprintSurveyor.run(tb, &survey_ctx);
        let name = format!("counters_survey_pm{pm}");
        check(&name, counters_artifact(&name, &survey_ctx.metrics_snapshot()));

        let metrics = SharedRegistry::live();
        CaptureCtx::new(CAPTURE_SEED)
            .with_plan(FaultPlan::uniform(CAPTURE_SEED, pm))
            .with_threads(2)
            .with_metrics(metrics.clone())
            .generate_columnar(tb);
        let name = format!("counters_capture_pm{pm}");
        check(&name, counters_artifact(&name, &metrics.snapshot()));
    }
}
