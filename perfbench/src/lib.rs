//! Closed-loop benchmark of the three IoTLS pipelines.
//!
//! Each run executes one workload in its own process at the worker
//! count `IOTLS_THREADS` gives the program (1 in every gated run) and
//! checks every output it times:
//!
//! - `active_audit`: interception audit + root-store probe sweeps;
//! - `gateway_soak`: the resident gateway replaying recorded sessions
//!   through the audit + drift-detection chain;
//! - `passive_corpus`: corpus ingest into a segmented store, full
//!   re-analysis, and the (month × device) slice mix.
//!
//! An untraced run reports the end-to-end metrics, the same three for
//! every workload. A traced run reports every per-layer metric: it
//! records spans around the benchmark's calls into each layer, drives
//! all three pipelines once, times the layers' public functions
//! directly, and measures the tracing overhead on its own workload.

pub mod active;
pub mod alloc;
pub mod gateway;
pub mod layers;
pub mod passive;
pub mod stats;
pub mod trace;

use iotls_repro::core::ExperimentCtx;
use iotls_repro::crypto::Drbg;
use iotls_repro::devices::Testbed;
use stats::{median, Outcome};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ActiveAudit,
    GatewaySoak,
    PassiveCorpus,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ActiveAudit,
        Workload::GatewaySoak,
        Workload::PassiveCorpus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ActiveAudit => "active_audit",
            Workload::GatewaySoak => "gateway_soak",
            Workload::PassiveCorpus => "passive_corpus",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics an untraced run of any workload reports.
/// `unit_s` is the median wall time of one unit of the workload: an
/// audit + root-probe sweep, a `Gateway::run`, or a passive cycle.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("unit_s", "s")];

/// Every per-layer metric a traced run reports, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("devices.testbed_build_s", "s"),
    ("crypto.rsa_keygen_ms", "ms"),
    ("crypto.rsa_sign_us", "us"),
    ("crypto.rsa_verify_us", "us"),
    ("crypto.modpow_us", "us"),
    ("crypto.sha256_mb_per_s", "MB/s"),
    ("crypto.chacha20_mb_per_s", "MB/s"),
    ("x509.verify_cold_us", "us"),
    ("x509.verify_warm_us", "us"),
    ("x509.cache_hit_ratio", "ratio"),
    ("tls.handshake_us", "us"),
    ("tls.record_roundtrip_ns", "ns"),
    ("tls.middleware.dispatch_ns_per_session", "ns"),
    ("gateway.middleware.invocations_per_session", "count"),
    ("simnet.drive_us", "us"),
    ("simnet.sessions_per_s", "1/s"),
    ("simnet.replay_ns", "ns"),
    ("simnet.replay_allocs_per_session", "count"),
    ("simnet.par.scaling_2w", "ratio"),
    ("core.lab.boot_p50_ms", "ms"),
    ("core.lab.boot_p99_ms", "ms"),
    ("core.audit.sweep_s", "s"),
    ("core.rootprobe.sweep_s", "s"),
    ("core.gateway.new_s", "s"),
    ("core.gateway.run_s", "s"),
    ("core.gateway.allocs_per_session", "count"),
    ("gateway.queue.peak_depth", "count"),
    ("gateway.session.rounds_mean", "count"),
    ("capture.generate_rows_per_s", "1/s"),
    ("capture.segstore.add_chunk_ms", "ms"),
    ("capture.segstore.finish_ms", "ms"),
    ("capture.pool.dedup_ratio", "ratio"),
    ("capture.segstore.open_ms", "ms"),
    ("capture.read_chunk_mb_per_s", "MB/s"),
    ("capture.crc32c_gb_per_s", "GB/s"),
    ("capture.select_chunks_us", "us"),
    ("capture.store.bytes_read_ratio", "ratio"),
    ("capture.store.chunks_pruned_ratio", "ratio"),
    ("core.passive.fold_rows_per_s", "1/s"),
    ("core.passive.finish_ms", "ms"),
    ("core.passive.slice_p50_ms", "ms"),
    ("core.passive.slice_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Full size is the gated benchmark; smoke size runs every code path
/// on tiny inputs for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Smoke,
    Full,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time budget of the run.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Directory (inside the checkout) for the corpus store and the
    /// trace dump.
    pub work_dir: PathBuf,
    /// The benchmark binary, started as a child process for each
    /// set-up sample.
    pub exe: PathBuf,
}

impl Config {
    fn setup_samples(&self) -> usize {
        match self.size {
            Size::Full => 5,
            Size::Smoke => 1,
        }
    }

    fn corpus_dir(&self) -> PathBuf {
        self.work_dir.join(format!(
            "corpus-{}-{}",
            self.workload.name(),
            std::process::id()
        ))
    }
}

/// A seed for one named input, derived from the workload seed.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    Drbg::from_seed(seed).fork(label).next_u64()
}

/// An experiment context with the program's metrics registry live, at
/// the worker count `IOTLS_THREADS` resolves to.
pub fn metrics_ctx(seed: u64) -> ExperimentCtx {
    ExperimentCtx::builder().seed(seed).metrics(true).build()
}

/// Ops run, and checked, before the timed ones: the first ingest,
/// sweep or gateway run of a process also pays for first-touch page
/// faults and cache fills.
const WARMUP_OPS: usize = 1;

/// Runs `op`, which returns its own wall time, [`WARMUP_OPS`] + `min`
/// times at least and then until `budget` has passed; returns the
/// set-up samples and the times of the ops after the warm-up.
/// Set-up samples are spread over the run: one before the first op
/// and one each time the elapsed time crosses a further
/// `1/samples` of the budget, so they see the same host conditions
/// as the ops they sit between.
fn measure_loop(
    budget: Duration,
    min: usize,
    samples: usize,
    mut setup: impl FnMut() -> f64,
    mut op: impl FnMut(usize) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut units = Vec::new();
    let mut i = 0;
    loop {
        let done = start.elapsed().as_secs_f64() / budget.as_secs_f64().max(1e-9);
        if setups.len() < samples && done >= setups.len() as f64 / samples as f64 {
            setups.push(setup());
        }
        if i >= WARMUP_OPS + min && start.elapsed() >= budget {
            break;
        }
        let seconds = op(i);
        if i >= WARMUP_OPS {
            units.push(seconds);
        }
        i += 1;
    }
    while setups.len() < samples {
        setups.push(setup());
    }
    (setups, units)
}

/// One set-up of `workload` in a fresh process: testbed build (the
/// process-wide PKI, roster root stores, cloud endpoints), plus tape
/// recording and chain registration for the gateway. Returns its
/// seconds.
pub fn setup_once(workload: Workload) -> f64 {
    let start = Instant::now();
    let tb = Testbed::build();
    if workload == Workload::GatewaySoak {
        let ctx = metrics_ctx(0);
        // Tape recording does not depend on the run length, so the
        // full-size gateway stands for both sizes.
        black_box(gateway::build(&tb, &ctx, Size::Full));
    }
    start.elapsed().as_secs_f64()
}

/// Times one set-up of `workload` in a child process of the benchmark
/// binary, so the set-up's memory stays out of this process's peak RSS.
fn setup_sample(cfg: &Config, workload: Workload) -> f64 {
    let child = Command::new(&cfg.exe)
        .args(["--setup-sample", workload.name()])
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| panic!("start {}: {e}", cfg.exe.display()));
    let text = String::from_utf8_lossy(&child.stdout);
    match text.trim().parse() {
        Ok(seconds) if child.status.success() => seconds,
        _ => panic!("set-up sample failed ({}): {text}", child.status),
    }
}

/// Runs the configured workload and returns its result.
pub fn run(cfg: &Config) -> Outcome {
    std::fs::create_dir_all(&cfg.work_dir).expect("create benchmark work directory");
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn run_untraced(cfg: &Config) -> Outcome {
    let tb = Testbed::global();
    let mut out = Outcome::new();
    let off = Tracer::new(false);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let setup = || setup_sample(cfg, cfg.workload);
    let samples = cfg.setup_samples();
    let (setups, units) = match cfg.workload {
        Workload::ActiveAudit => measure_loop(budget, 3, samples, setup, |i| {
            let s = active::sweep(tb, &off);
            eprintln!(
                "perfbench: sweep {i}: {:.4} s, {} sessions",
                s.seconds, s.sessions
            );
            active::check_sweep(tb, &s, &mut out);
            s.seconds
        }),
        Workload::GatewaySoak => {
            let ctx = metrics_ctx(derive_seed(cfg.seed, "gateway"));
            let gw = gateway::build(tb, &ctx, cfg.size);
            measure_loop(budget, 3, samples, setup, |i| {
                let start = Instant::now();
                let report = gw.run();
                let seconds = start.elapsed().as_secs_f64();
                eprintln!(
                    "perfbench: gateway run {i}: {seconds:.4} s, {} sessions",
                    report.completed
                );
                gateway::check_run(&report, &mut out);
                seconds
            })
        }
        Workload::PassiveCorpus => {
            let mut run = passive::CorpusRun::new(tb, cfg, derive_seed(cfg.seed, "passive"));
            measure_loop(budget, 3, samples, setup, |_| run.cycle(&off, &mut out))
        }
    };
    let values = [median(&setups), alloc::peak_rss_mb(), median(&units)];
    for (&(name, unit), value) in END_TO_END.iter().zip(values) {
        match value {
            Some(v) => out.metric(name, unit, v),
            None => out.fail(format!("{name}: too few samples")),
        }
    }
    out
}

fn run_traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::new();
    let mut layer = layers::Layers::default();
    let setups: Vec<f64> = (0..cfg.setup_samples())
        .map(|_| setup_sample(cfg, Workload::ActiveAudit))
        .collect();
    layer.set("devices.testbed_build_s", median(&setups));

    let overhead = layers::tracing_overhead(cfg, &mut out);
    layer.set("trace.overhead_pct", overhead);

    let tr = Tracer::new(true);
    layers::pipelines(cfg, &tr, &mut layer, &mut out);
    layers::microbenches(cfg, &mut layer, &mut out);

    let dump = cfg
        .work_dir
        .join(format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": {}, \"counters\": {}}}\n",
        cfg.workload.name(),
        cfg.seed,
        tr.summary_json(),
        layer.counters_json()
    );
    match std::fs::write(&dump, body) {
        Ok(()) => eprintln!(
            "perfbench: spans and program counters written to {}",
            dump.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", dump.display()),
    }

    for &(name, unit) in PER_LAYER {
        match layer.get(name) {
            Some(v) => out.metric(name, unit, v),
            None => out.fail(format!("{name}: not measured")),
        }
    }
    out
}

/// One unit of the configured workload (a sweep, a gateway run, or a
/// passive cycle) under `tr`, checked, returning its wall time. The
/// traced run times it with tracing off and on.
pub(crate) fn workload_unit(cfg: &Config, tr: &Tracer, out: &mut Outcome) -> f64 {
    let tb = Testbed::global();
    match cfg.workload {
        Workload::ActiveAudit => {
            let s = active::sweep(tb, tr);
            active::check_sweep(tb, &s, out);
            s.seconds
        }
        Workload::GatewaySoak => {
            let ctx = metrics_ctx(derive_seed(cfg.seed, "gateway"));
            let gw = gateway::build(tb, &ctx, cfg.size);
            let start = Instant::now();
            let report = tr.span("core.gateway.run", || gw.run());
            let seconds = start.elapsed().as_secs_f64();
            gateway::check_run(&report, out);
            seconds
        }
        Workload::PassiveCorpus => {
            let mut run = passive::CorpusRun::new(tb, cfg, derive_seed(cfg.seed, "passive"));
            run.cycle(tr, out)
        }
    }
}
