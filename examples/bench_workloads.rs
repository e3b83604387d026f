//! Perf harness: times the headline workloads and emits one JSON
//! entry per workload on stdout
//! (`{workload, seconds, threads, rss_mb, ...}`).
//!
//! `scripts/bench.sh` wraps this with the tier-1 test-suite timing and
//! writes `BENCH_baseline.json` / `BENCH_current.json`, so the perf
//! trajectory of the repo is measured the same way in every PR.
//! `scripts/bench_check.sh` diffs the two and fails on regressions.
//!
//! The `passive_10m` workload generates and analyzes the paper-scale
//! dataset — every simulated connection as its own row, ≥10M rows —
//! and records throughput and peak RSS; `passive_10m_t4`/`_t8` rerun
//! it pinned at 4 and 8 workers (byte-identical output, scaling curve
//! only). `passive_reload` persists the same corpus to an on-disk
//! columnar store, then times reopening it and re-running the full
//! analysis straight off disk (rows/sec). `passive_100m` ingests six
//! time-shifted study epochs (≥100M rows) into a segmented store
//! directory, and `partial_reanalysis` re-analyzes a one-month ×
//! one-device slice of it through the pruning directory, reporting
//! rows/sec and bytes-read vs bytes-total. The `gateway_soak` workload
//! multiplexes ≥1M sessions through the resident gateway runtime and
//! records sessions/sec alongside peak RSS; `gateway_mw_soak` reruns
//! it with the audit + drift-detection middleware chain registered on
//! every endpoint, and `steady_replay_chained` re-measures the
//! zero-allocation replay gate through the hook dispatch path (both
//! share `steady_replay`'s absolute allocs-per-session gate). With
//! `IOTLS_BENCH_LEGACY=1`
//! it instead runs the pre-streaming shape of that pipeline
//! (materialize the full `String`-laden row vector, then one full
//! scan per table), which is what `bench.sh baseline` records.
//!
//! Set `IOTLS_METRICS=path.json` to also write the run's
//! observability registry (deterministic counters + wall timings) as
//! JSON; `bench.sh` stores it next to each timing snapshot so
//! `bench_check.sh` can flag behavioral regressions (cache hit rates,
//! dedup/pruning ratios) alongside wall-clock ones.
//!
//! Run with: `cargo run --release --example bench_workloads`
//!
//! All workloads run from one [`ExperimentCtx`] (re-seeded per
//! workload), so `--threads`/`IOTLS_THREADS` and the metrics sink are
//! resolved once, up front. Flags: `--seed N --threads N --faults PM
//! --metrics` (see `iotls_repro::cli`).

use iotls_repro::capture::{
    generate, ColumnarStore, RevRow, SegmentedStore, SegmentedWriter, StoreWriter, DEFAULT_SEED,
};
use iotls_repro::cli::ExampleArgs;
use iotls_repro::core::{
    analyze_store, analyze_store_slice, analyze_streamed, cipher_series, passive_summary,
    revocation_summary, version_series, version_transitions, AuditObserver, DriftDetector,
    Experiment, ExperimentCtx, Gateway, GatewayConfig, InterceptionAudit, RootProbe,
};
use iotls_repro::crypto::drbg::Drbg;
use iotls_repro::crypto::rsa::RsaPrivateKey;
use iotls_repro::devices::Testbed;
use iotls_repro::simnet::{
    replay_flow_chained, replay_flow_with, sessions_driven, ReplayScratch, SessionFaults,
    SessionFlow,
};
use iotls_repro::tls::client::{ClientConfig, ClientConnection};
use iotls_repro::tls::middleware::{Chain, RecordCounter};
use iotls_repro::tls::server::{ServerConfig, ServerConnection};
use iotls_repro::x509::{CertifiedKey, DistinguishedName, IssueParams, Month, RootStore, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting shim over the system allocator, backing the
/// `steady_replay` workload's `allocs_per_session` field (gated at 0
/// by `bench_check.sh`). One relaxed atomic add per allocation —
/// unmeasurable against the workloads it rides along with.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Resets the kernel's peak-RSS watermark for this process so each
/// workload's `VmHWM` reading is its own (Linux ≥ 4.0; a failed write
/// degrades to a whole-process high-water mark).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Times one workload, capturing wall seconds and its peak RSS.
/// `f` returns extra JSON fields (e.g. row counts), empty for none.
fn timed(name: &str, threads: usize, f: impl FnOnce() -> String) -> String {
    reset_peak_rss();
    let start = Instant::now();
    let extra = f();
    let seconds = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    eprintln!("bench: {name} finished in {seconds:.2}s (peak RSS {rss:.0} MB)");
    format!(
        "  {{\"workload\": \"{name}\", \"seconds\": {seconds:.3}, \"threads\": {threads}, \
         \"rss_mb\": {rss:.1}{extra}}}"
    )
}

/// Allocation-discipline probe: records one clean session tape, then
/// replays it through the gateway's hot path ([`replay_flow_with`]
/// with a warm [`ReplayScratch`]) and reports heap allocations per
/// replayed session — **zero** since the sans-IO rework, and
/// `bench_check.sh` fails the run if it ever climbs back above zero.
/// Also reports replay throughput, the gateway's per-worker ceiling.
fn steady_replay() -> String {
    let flow = bench_tape();

    let mut scratch = ReplayScratch::new();
    black_box(replay_flow_with(&flow, SessionFaults::none(), 64, &mut scratch)); // warmup

    const SESSIONS: u64 = 200_000;
    let alloc_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..SESSIONS {
        let outcome = replay_flow_with(&flow, SessionFaults::none(), 64, &mut scratch);
        debug_assert!(outcome.established);
        black_box(&outcome);
    }
    let seconds = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - alloc_before;
    let per_session = allocs / SESSIONS;
    let rate = SESSIONS as f64 / seconds.max(1e-9);
    format!(
        ", \"sessions\": {SESSIONS}, \"sessions_per_sec\": {rate:.0}, \
         \"allocs_per_session\": {per_session}"
    )
}

/// The same allocation probe through [`replay_flow_chained`] with an
/// observe-only middleware chain riding every record: hook dispatch
/// must stay off the allocator too, so this workload shares the
/// absolute zero-allocs gate with `steady_replay` and its throughput
/// delta IS the cost of the hook surface.
fn steady_replay_chained() -> String {
    let flow = bench_tape();

    let mut chain = Chain::new().with(Box::new(RecordCounter::default()));
    let mut scratch = ReplayScratch::new();
    black_box(replay_flow_chained(
        &flow,
        SessionFaults::none(),
        64,
        &mut scratch,
        &mut chain,
    )); // warmup grows scratch and the chain's deframers

    const SESSIONS: u64 = 200_000;
    let alloc_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..SESSIONS {
        let outcome =
            replay_flow_chained(&flow, SessionFaults::none(), 64, &mut scratch, &mut chain);
        debug_assert!(outcome.established);
        black_box(&outcome);
    }
    let seconds = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - alloc_before;
    let per_session = allocs / SESSIONS;
    let rate = SESSIONS as f64 / seconds.max(1e-9);
    format!(
        ", \"sessions\": {SESSIONS}, \"sessions_per_sec\": {rate:.0}, \
         \"allocs_per_session\": {per_session}"
    )
}

/// One clean recorded tape over a minimal PKI — the flow both steady
/// replay probes multiplex.
fn bench_tape() -> SessionFlow {
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xA110C));
    let root = CertifiedKey::self_signed(
        IssueParams::ca(
            DistinguishedName::new("Bench Root", "SimCA", "US"),
            1,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        key,
    );
    let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xA110D));
    let leaf = root.issue(
        IssueParams::leaf("cloud.example.com", 2, Timestamp::from_ymd(2020, 6, 1), 500),
        &leaf_key,
    );
    let client = ClientConnection::new(
        ClientConfig::modern(RootStore::from_certs([root.cert.clone()])),
        "cloud.example.com",
        Timestamp::from_ymd(2021, 3, 1),
        Drbg::from_seed(1),
    );
    let server = ServerConnection::new(ServerConfig::typical(vec![leaf], leaf_key), Drbg::from_seed(2));
    let flow = SessionFlow::record(client, server, Some(b"ping"), Some(b"ok"));
    assert!(flow.established, "bench tape must establish");
    flow
}

/// Paper-scale passive run: ≥10M connections, one row each, streamed
/// through the single-pass accumulator. Memory stays bounded at one
/// open chunk plus the integer cells.
fn passive_10m_streamed(ctx: &ExperimentCtx) -> String {
    let a = analyze_streamed(Testbed::global(), ctx, 1);
    assert!(
        a.total_connections >= 10_000_000,
        "paper scale means >=10M connections, got {}",
        a.total_connections
    );
    assert!(!a.summary.fig1_devices.is_empty());
    let rows = a.total_connections; // one row per connection
    black_box(&a);
    format!(", \"rows\": {rows}, \"connections\": {}", a.total_connections)
}

/// The pre-streaming shape of the same workload: materialize every
/// row as a `String`-carrying observation, then run one full scan per
/// deliverable (Figures 1–3 series, transitions, summary, Table 8),
/// the way the row-vector pipeline did.
fn passive_10m_legacy(ctx: &ExperimentCtx) -> String {
    let mut chunks = Vec::new();
    let capture = ctx.capture_ctx();
    let mut cds = capture.generate_streamed(Testbed::global(), 1, &mut |c| chunks.push(c));
    cds.chunks = chunks;
    let ds = cds.to_rows();
    drop(cds);
    let connections = ds.total_connections();
    assert!(connections >= 10_000_000);
    black_box(version_series(&ds));
    black_box(cipher_series(&ds));
    black_box(version_transitions(&ds));
    black_box(passive_summary(&ds));
    black_box(revocation_summary(&ds));
    let rows = ds.observations.len();
    format!(", \"rows\": {rows}, \"connections\": {connections}")
}

/// Gateway soak at bench scale: ≥1M multiplexed sessions through the
/// resident runtime, sized so nothing is rejected (the bench measures
/// session throughput, not admission control). Reports sessions/sec;
/// peak RSS comes from the shared `timed` wrapper.
fn gateway_soak(ctx: &ExperimentCtx) -> String {
    let cfg = GatewayConfig {
        ticks: 520,
        load: 2048,
        load_spread: 64,
        queue_capacity: 8192,
        pool_capacity: 4096,
        bucket_capacity: 4096,
        bucket_refill: 2048,
        ..GatewayConfig::default()
    };
    let start = Instant::now();
    let report = Gateway::new(Testbed::global(), ctx, cfg).run();
    let seconds = start.elapsed().as_secs_f64();
    assert!(
        report.completed >= 1_000_000,
        "bench scale means >=1M completed sessions, got {}",
        report.completed
    );
    assert!(report.invariant_holds());
    let rate = report.completed as f64 / seconds.max(1e-9);
    black_box(&report);
    format!(
        ", \"sessions\": {}, \"sessions_per_sec\": {rate:.0}",
        report.completed
    )
}

/// `gateway_soak` with the full middleware complement every
/// endpoint chain carries in production: the audit observer plus the
/// drift detector enrolled with the roster baselines. Reports
/// sessions/sec — the throughput delta against `gateway_soak` is the
/// end-to-end cost of middleware dispatch on the resident runtime.
fn gateway_mw_soak(ctx: &ExperimentCtx) -> String {
    let cfg = GatewayConfig {
        ticks: 520,
        load: 2048,
        load_spread: 64,
        queue_capacity: 8192,
        pool_capacity: 4096,
        bucket_capacity: 4096,
        bucket_refill: 2048,
        ..GatewayConfig::default()
    };
    let start = Instant::now();
    let mut gw = Gateway::new(Testbed::global(), ctx, cfg);
    let baselines = gw.endpoint_baselines();
    gw.register_chains(Box::new(move |endpoint| {
        let enrolled = baselines.get(endpoint).cloned().unwrap_or_default();
        Some(
            Chain::new()
                .with(Box::new(AuditObserver::default()))
                .with(Box::new(DriftDetector::new(&enrolled))),
        )
    }));
    let report = gw.run();
    let seconds = start.elapsed().as_secs_f64();
    assert!(
        report.completed >= 1_000_000,
        "bench scale means >=1M completed sessions, got {}",
        report.completed
    );
    assert!(report.invariant_holds());
    let rate = report.completed as f64 / seconds.max(1e-9);
    black_box(&report);
    format!(
        ", \"sessions\": {}, \"sessions_per_sec\": {rate:.0}",
        report.completed
    )
}

/// Persist-then-reload: streams the paper-scale corpus into an
/// on-disk columnar store (untimed setup), then times opening the
/// store and re-running the full passive analysis straight off disk.
/// Frames `pread` one at a time, so peak RSS stays near the streamed
/// path's. Reports rows/sec; the corpus file is removed afterwards.
fn passive_reload(ctx: &ExperimentCtx, tb: &Testbed) -> String {
    let path = Path::new("target/bench_corpus.iotls");
    let capture = ctx.capture_ctx();
    let mut writer = StoreWriter::create(path).expect("create bench corpus");
    let tail = capture.generate_streamed(tb, 1, &mut |c| {
        writer.add_chunk(&c).expect("write bench corpus chunk");
    });
    writer
        .finish(&tail.strings, &tail.fps, &tail.revocation_flows, tail.truncated)
        .expect("finish bench corpus");
    let entry = timed("passive_reload", ctx.threads(), || {
        let start = Instant::now();
        let store = ColumnarStore::open(path).expect("open bench corpus");
        let a = analyze_store(&store, ctx).expect("analyze bench corpus");
        let seconds = start.elapsed().as_secs_f64();
        assert!(a.total_connections >= 10_000_000);
        let rows = store.total_rows();
        let rate = rows as f64 / seconds.max(1e-9);
        black_box(&a);
        format!(", \"rows\": {rows}, \"rows_per_sec\": {rate:.0}")
    });
    let _ = std::fs::remove_file(path);
    entry
}

/// Directory of the segmented bench corpus `passive_100m` builds and
/// `partial_reanalysis` slices; removed when the latter finishes.
const SEG_DIR: &str = "target/bench_corpus_seg";

/// Builds the ≥100M-row segmented corpus: six 27-month study epochs,
/// each the paper-scale stream time-shifted three years past the
/// previous one, appended into one segmented store (one sealed
/// segment boundary per epoch, default chunk roll inside). This is
/// the "2 years of pcap at the gateway" ingestion shape: chunks flow
/// straight from the generator into immutable segment files, memory
/// stays bounded at one open chunk, and the manifest publishes once.
fn passive_100m(ctx: &ExperimentCtx, tb: &Testbed) -> String {
    let dir = Path::new(SEG_DIR);
    let _ = std::fs::remove_dir_all(dir);
    timed("passive_100m", ctx.threads(), || {
        let span = Month::new(2021, 1).start().0 - Month::new(2018, 1).start().0;
        let capture = ctx.capture_ctx();
        let mut writer = SegmentedWriter::create(dir).expect("create segmented corpus");
        let mut rows = 0u64;
        let mut flows: Vec<RevRow> = Vec::new();
        let mut truncated = 0u64;
        let mut tables = None;
        for epoch in 0..6i64 {
            let dt = epoch * span;
            let tail = capture.generate_streamed(tb, 1, &mut |c| {
                rows += c.len() as u64;
                writer.add_chunk(&c.shifted(dt)).expect("write segment chunk");
            });
            writer.seal_segment();
            flows.extend(
                tail.revocation_flows
                    .iter()
                    .map(|f| RevRow { time: f.time + dt, ..*f }),
            );
            truncated += tail.truncated;
            tables = Some((tail.strings, tail.fps));
        }
        let (strings, fps) = tables.expect("at least one epoch");
        writer
            .finish(&strings, &fps, &flows, truncated)
            .expect("publish segmented corpus");
        assert!(rows >= 100_000_000, "bench scale means >=100M rows, got {rows}");
        let store = SegmentedStore::open(dir).expect("reopen segmented corpus");
        assert_eq!(store.total_rows(), rows);
        format!(", \"rows\": {rows}, \"segments\": {}", store.segment_count())
    })
}

/// Pruned-slice re-analysis over the `passive_100m` corpus: one month
/// × one device, selected through the two-level pruning directory, so
/// only the segments that can contain the slice are ever read.
/// Reports rows/sec over the folded slice and bytes-read vs
/// bytes-total (the pruning ratio `bench_check.sh` gates). The
/// corpus directory is removed afterwards.
fn partial_reanalysis(ctx: &ExperimentCtx) -> String {
    let dir = Path::new(SEG_DIR);
    let month = Month::new(2019, 6);
    let (from, to) = (month.start().0, month.end().0);
    // Pick the slice device off the corpus itself (the first device
    // with traffic inside the window) so the workload never chases a
    // device the timeline had not yet activated. Probe reads happen
    // on a throwaway open; the timed run starts with clean counters.
    let device = {
        let probe = SegmentedStore::open(dir).expect("open segmented corpus");
        let mut found = None;
        'probe: for ci in probe.select_chunks(from, to, None) {
            let chunk = probe.read_chunk(ci).expect("probe corpus chunk");
            for i in 0..chunk.len() {
                let row = chunk.row(i);
                if row.time() >= from && row.time() <= to {
                    found = Some(probe.strings().resolve(row.device()).to_string());
                    break 'probe;
                }
            }
        }
        found.expect("bench window must contain traffic")
    };
    let entry = timed("partial_reanalysis", ctx.threads(), || {
        let start = Instant::now();
        let store = SegmentedStore::open(dir).expect("open segmented corpus");
        let a = analyze_store_slice(&store, from, to, Some(&device), ctx)
            .expect("analyze corpus slice");
        let seconds = start.elapsed().as_secs_f64();
        // The corpus expands one row per connection, so the folded
        // slice's connection total IS its row count.
        let rows = a.total_connections;
        assert!(rows > 0, "slice must contain traffic");
        let bytes_read = store.frame_bytes_read();
        let bytes_total = store.frame_bytes_total();
        assert!(
            bytes_read < bytes_total / 4,
            "pruning must skip most of the corpus ({bytes_read} of {bytes_total} read)"
        );
        let rate = rows as f64 / seconds.max(1e-9);
        let ratio = bytes_read as f64 / bytes_total.max(1) as f64;
        black_box(&a);
        format!(
            ", \"rows\": {rows}, \"rows_per_sec\": {rate:.0}, \"bytes_read\": {bytes_read}, \
             \"bytes_total\": {bytes_total}, \"bytes_read_ratio\": {ratio:.5}"
        )
    });
    let _ = std::fs::remove_dir_all(dir);
    entry
}

fn main() {
    let args = ExampleArgs::parse();
    let ctx = args.ctx(DEFAULT_SEED);
    let threads = ctx.threads();
    let legacy = std::env::var("IOTLS_BENCH_LEGACY").is_ok_and(|v| v == "1");
    // Testbed/PKI construction is shared setup, not a workload. The
    // workloads pin their historical seeds (re-seeding the shared
    // ctx) so bench snapshots stay comparable across runs.
    let tb = Testbed::global();

    let mut entries = vec![
        timed("passive_generate", threads, || {
            let ds = generate(tb, 0xCAFE);
            assert!(ds.total_connections() > 0);
            String::new()
        }),
        timed("active_sweep", threads, || {
            let driven_before = sessions_driven();
            let start = Instant::now();
            let report = InterceptionAudit.run(tb, &ctx.with_seed(0x7AB1E7));
            let seconds = start.elapsed().as_secs_f64();
            assert!(!report.rows.is_empty());
            let driven = sessions_driven() - driven_before;
            let rate = driven as f64 / seconds.max(1e-9);
            format!(", \"sessions\": {driven}, \"sessions_per_sec\": {rate:.0}")
        }),
        timed("rootprobe_sweep", threads, || {
            let driven_before = sessions_driven();
            let start = Instant::now();
            let report = RootProbe.run(tb, &ctx.with_seed(0x6007));
            let seconds = start.elapsed().as_secs_f64();
            assert!(!report.rows.is_empty());
            let driven = sessions_driven() - driven_before;
            let rate = driven as f64 / seconds.max(1e-9);
            format!(", \"sessions\": {driven}, \"sessions_per_sec\": {rate:.0}")
        }),
        timed("steady_replay", 1, steady_replay),
        timed("steady_replay_chained", 1, steady_replay_chained),
        timed("passive_10m", threads, || {
            let passive = ctx.with_seed(DEFAULT_SEED);
            if legacy {
                passive_10m_legacy(&passive)
            } else {
                passive_10m_streamed(&passive)
            }
        }),
    ];
    if !legacy {
        // The same paper-scale workload pinned at higher worker
        // counts: output is byte-identical by construction (sharded
        // lanes merged in roster order), so these entries track the
        // scaling curve, not correctness.
        for t in [4usize, 8] {
            entries.push(timed(&format!("passive_10m_t{t}"), t, || {
                passive_10m_streamed(&ctx.with_seed(DEFAULT_SEED).with_threads(t))
            }));
        }
        entries.push(passive_reload(&ctx.with_seed(DEFAULT_SEED), tb));
        entries.push(passive_100m(&ctx.with_seed(DEFAULT_SEED), tb));
        entries.push(partial_reanalysis(&ctx.with_seed(DEFAULT_SEED)));
    }
    entries.push(timed("gateway_soak", threads, || {
        gateway_soak(&ctx.with_seed(0x6A7E))
    }));
    entries.push(timed("gateway_mw_soak", threads, || {
        gateway_mw_soak(&ctx.with_seed(0x6A7E))
    }));
    println!("{}", entries.join(",\n"));

    args.finish(&ctx);
}
