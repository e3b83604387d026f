//! Tiny-size runs of every workload, untraced and traced: each must
//! pass its correctness checks and emit exactly the named metrics,
//! each with its unit, and those names must be the ones
//! `BENCHMARK.json` declares.

use iotls_perfbench::stats::valid_metric_name;
use iotls_perfbench::{run, Config, Size, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("perfbench-smoke-{trace}")),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_iotls-perfbench")),
    }
}

fn emitted(cfg: &Config) -> Vec<(&'static str, &'static str)> {
    let out = run(cfg);
    assert!(out.correct, "{}: {:?}", cfg.workload.name(), out.problems);
    assert_eq!(out.failed, 0);
    assert!(out.attempted >= 1);
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    out.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn untraced_smoke_runs_emit_every_end_to_end_metric() {
    for w in Workload::ALL {
        assert_eq!(emitted(&smoke(w, false)), END_TO_END, "{}", w.name());
    }
}

#[test]
fn traced_smoke_runs_emit_every_per_layer_metric() {
    for w in Workload::ALL {
        assert_eq!(emitted(&smoke(w, true)), PER_LAYER, "{}", w.name());
    }
}

/// `(name, unit, has_bound)` of every metric line in BENCHMARK.json,
/// which lists one metric object per line.
fn declared() -> Vec<(String, String, bool)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    text.lines()
        .filter_map(|l| {
            Some((
                field(l, "name")?,
                field(l, "unit")?,
                l.contains("\"bound\""),
            ))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let declared = declared();
    let e2e: BTreeSet<(String, String)> = declared
        .iter()
        .filter(|d| d.2)
        .map(|d| (d.0.clone(), d.1.clone()))
        .collect();
    let layers: Vec<(String, String)> = declared
        .iter()
        .filter(|d| !d.2)
        .map(|d| (d.0.clone(), d.1.clone()))
        .collect();
    let want_e2e: BTreeSet<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let want_layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, want_e2e);
    assert_eq!(layers, want_layers);
    for (name, _, _) in &declared {
        assert!(valid_metric_name(name), "{name}");
    }
}
