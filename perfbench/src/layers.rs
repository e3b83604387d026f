//! The traced run's per-layer measurements: spans around one pass of
//! each pipeline, direct timings of each layer's public functions, and
//! the tracing overhead on the run's own workload.

use crate::alloc::count_allocs;
use crate::stats::{median, tail_percentile, Outcome};
use crate::trace::Tracer;
use crate::{active, derive_seed, gateway, metrics_ctx, passive, workload_unit, Config, Size};
use iotls_repro::capture::store::crc32;
use iotls_repro::capture::{ObsChunk, SegmentedStore};
use iotls_repro::core::{
    ActiveLab, AuditObserver, DriftDetector, FlowBaseline, InterceptPolicy, PassiveAccumulator,
};
use iotls_repro::crypto::{sha256, ChaCha20, Drbg, RsaPrivateKey, Uint};
use iotls_repro::devices::Testbed;
use iotls_repro::obs::Registry;
use iotls_repro::rootstore::probe_time;
use iotls_repro::simnet::{
    drive_session, replay_flow_chained, replay_flow_with, ReplayScratch, SessionFaults,
    SessionFlow, SessionParams,
};
use iotls_repro::tls::middleware::Chain;
use iotls_repro::tls::{
    ClientConnection, ContentType, Deframer, ProtocolVersion, ServerConnection, SessionBuf,
};
use iotls_repro::x509::{
    validate_chain, Certificate, RootStore, ValidationPolicy, VerificationCache,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer values gathered so far, plus the program's own registry
/// counters copied from every context the traced run used.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    counters: Registry,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.values.insert(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    fn copy_counters(&mut self, reg: &Registry) {
        self.counters.merge(reg);
    }

    pub fn counters_json(&self) -> String {
        self.counters.counters_json()
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Median per-call seconds of `f` over `batches` batches of `per`
/// calls each.
fn per_call(batches: usize, per: usize, mut f: impl FnMut()) -> Option<f64> {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per {
                f();
            }
            start.elapsed().as_secs_f64() / per as f64
        })
        .collect();
    median(&samples)
}

/// `trace.overhead_pct`: the run's own workload unit timed with
/// tracing off and on, alternating, as the difference of the medians
/// over the untraced median.
pub fn tracing_overhead(cfg: &Config, out: &mut Outcome) -> Option<f64> {
    let pairs = match cfg.size {
        Size::Full => 3,
        Size::Smoke => 1,
    };
    let mut off = Vec::new();
    let mut on = Vec::new();
    for _ in 0..pairs {
        off.push(workload_unit(cfg, &Tracer::new(false), out));
        on.push(workload_unit(cfg, &Tracer::new(true), out));
    }
    let (off, on) = (median(&off)?, median(&on)?);
    Some((on - off) / off * 100.0)
}

/// One traced pass through each pipeline.
pub fn pipelines(cfg: &Config, tr: &Tracer, layer: &mut Layers, out: &mut Outcome) {
    let tb = Testbed::global();

    let s = active::sweep(tb, tr);
    active::check_sweep(tb, &s, out);
    layer.set(
        "core.audit.sweep_s",
        Some(tr.stats("core.audit.sweep").busy_s()),
    );
    layer.set(
        "core.rootprobe.sweep_s",
        Some(tr.stats("core.rootprobe.sweep").busy_s()),
    );
    layer.set("simnet.sessions_per_s", Some(s.sessions as f64 / s.seconds));
    layer.set(
        "x509.cache_hit_ratio",
        ratio(
            s.counters.counter("x509.cache.hits"),
            s.counters.counter("x509.cache.hits") + s.counters.counter("x509.cache.misses"),
        ),
    );
    layer.copy_counters(&s.counters);

    gateway_pass(cfg, tb, tr, layer, out);
    passive_pass(cfg, tb, tr, layer, out);
}

fn gateway_pass(cfg: &Config, tb: &Testbed, tr: &Tracer, layer: &mut Layers, out: &mut Outcome) {
    let ctx = metrics_ctx(derive_seed(cfg.seed, "gateway"));
    let gw = tr.span("core.gateway.new", || gateway::build(tb, &ctx, cfg.size));
    let (report, allocs) = count_allocs(|| tr.span("core.gateway.run", || gw.run()));
    gateway::check_run(&report, out);
    let run_s = tr.stats("core.gateway.run").busy_s();
    layer.set(
        "core.gateway.new_s",
        Some(tr.stats("core.gateway.new").busy_s()),
    );
    layer.set("core.gateway.run_s", Some(run_s));
    layer.set(
        "core.gateway.allocs_per_session",
        ratio(allocs, report.completed),
    );
    layer.set("gateway.queue.peak_depth", Some(report.queue_peak as f64));
    let invocations: u64 = report
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("gateway.middleware.stage.") && n.ends_with(".invocations"))
        .map(|(_, v)| v)
        .sum();
    layer.set(
        "gateway.middleware.invocations_per_session",
        ratio(invocations, report.completed),
    );
    let reg = ctx.metrics_snapshot();
    if let Some(h) = reg.histogram("gateway.session.rounds") {
        layer.set("gateway.session.rounds_mean", ratio(h.sum(), h.count()));
    }
    layer.copy_counters(&reg);

    // Never gated: the same soak at two workers, for the scaling curve.
    let ctx2 = ctx.with_threads(2);
    let gw2 = gateway::build(tb, &ctx2, cfg.size);
    let start = Instant::now();
    let report2 = gw2.run();
    let run2_s = start.elapsed().as_secs_f64();
    gateway::check_run(&report2, out);
    layer.set(
        "simnet.par.scaling_2w",
        Some((report2.completed as f64 / run2_s) / (report.completed as f64 / run_s)),
    );
}

fn passive_pass(cfg: &Config, tb: &Testbed, tr: &Tracer, layer: &mut Layers, out: &mut Outcome) {
    let ctx = metrics_ctx(derive_seed(cfg.seed, "passive"));
    let dir = cfg.corpus_dir();
    let mcpr = passive::max_count_per_row(cfg.size);

    let gen_ctx = metrics_ctx(derive_seed(cfg.seed, "passive"));
    let start = Instant::now();
    let mut generated = 0u64;
    gen_ctx
        .capture_ctx()
        .generate_streamed(tb, mcpr, &mut |c| generated += c.len() as u64);
    layer.set(
        "capture.generate_rows_per_s",
        Some(generated as f64 / start.elapsed().as_secs_f64()),
    );
    let gen_reg = gen_ctx.metrics_snapshot();
    let (mut hits, mut appends) = (0, 0);
    for (name, v) in gen_reg.counters() {
        if name.contains(".pool.") && name.ends_with(".dedup_hits") {
            hits += v;
        } else if name.contains(".pool.") && name.ends_with(".appends") {
            appends += v;
        }
    }
    layer.set("capture.pool.dedup_ratio", ratio(hits, hits + appends));
    layer.copy_counters(&gen_reg);

    let (rows, _) = passive::ingest(tb, &ctx, &dir, cfg.size, tr);
    let ms = |name: &str| tr.stats(name).p50_ns().map(|ns| ns / 1e6);
    layer.set(
        "capture.segstore.add_chunk_ms",
        ms("capture.segstore.add_chunk"),
    );
    layer.set("capture.segstore.finish_ms", ms("capture.segstore.finish"));

    let reference = match passive::scan(&dir, &ctx, tr) {
        Ok((analysis, scanned, _)) => {
            out.check(scanned == rows, || {
                format!("scan read {scanned} of {rows} rows")
            });
            analysis
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("traced scan: {e}"));
            return;
        }
    };
    layer.set("capture.segstore.open_ms", ms("capture.segstore.open"));

    let store = match SegmentedStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("traced open: {e}"));
            return;
        }
    };
    let qs = passive::queries(&reference, derive_seed(cfg.seed, "slices"));
    let slice_ctx = metrics_ctx(0);
    // The whole mix at least once, and until the p99 has enough samples
    let slices = || tr.stats("core.passive.slice");
    while slices().count < 1000 && !qs.is_empty() {
        for month in &qs {
            passive::slice_month(&store, month, &slice_ctx, tr, out);
        }
    }
    let slices = slices();
    let ms = |ns: Option<f64>| ns.map(|ns| ns / 1e6);
    layer.set("core.passive.slice_p50_ms", ms(slices.p50_ns()));
    layer.set("core.passive.slice_p99_ms", ms(slices.p99_ns()));
    let reg = slice_ctx.metrics_snapshot();
    let c = |n: &str| reg.counter(n);
    layer.set(
        "capture.store.bytes_read_ratio",
        ratio(
            c("capture.store.bytes.read"),
            c("capture.store.bytes.total"),
        ),
    );
    layer.set(
        "capture.store.chunks_pruned_ratio",
        ratio(
            c("capture.store.chunks.pruned"),
            c("capture.store.chunks.pruned") + c("capture.store.chunks.scanned"),
        ),
    );
    layer.copy_counters(&reg);
    layer.copy_counters(&ctx.metrics_snapshot());

    let mut select = Vec::new();
    for q in qs.iter().flatten() {
        let device = q.device.as_deref().and_then(|d| store.strings().lookup(d));
        let start = Instant::now();
        black_box(store.select_chunks(q.from, q.to, device));
        select.push(start.elapsed().as_secs_f64() * 1e6);
    }
    layer.set("capture.select_chunks_us", median(&select));

    // Read every chunk (pread + CRC + decode), keeping the first few
    // to time the fold on chunks already in memory.
    let mut scratch = Vec::new();
    let mut kept: Vec<ObsChunk> = Vec::new();
    let bytes_before = store.frame_bytes_read();
    let mut read_s = 0.0;
    let mut acc = PassiveAccumulator::new();
    for i in 0..store.chunk_count() {
        let start = Instant::now();
        let chunk = store.read_chunk_with(i, &mut scratch);
        read_s += start.elapsed().as_secs_f64();
        match chunk {
            Ok(chunk) => {
                acc.add_chunk(&chunk);
                if kept.len() < 32 {
                    kept.push(chunk);
                }
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("read chunk {i}: {e}"));
            }
        }
    }
    let bytes = store.frame_bytes_read() - bytes_before;
    layer.set(
        "capture.read_chunk_mb_per_s",
        Some(bytes as f64 / 1e6 / read_s),
    );
    acc.add_flows(store.revocation_flows());
    let start = Instant::now();
    let analysis = acc.finish(store.strings());
    layer.set(
        "core.passive.finish_ms",
        Some(start.elapsed().as_secs_f64() * 1e3),
    );
    out.check(analysis == reference, || {
        "chunk-by-chunk fold differs from the scan".into()
    });

    let kept_rows: usize = kept.iter().map(|c| c.len()).sum();
    let start = Instant::now();
    let mut fold = PassiveAccumulator::new();
    for chunk in &kept {
        fold.add_chunk(chunk);
    }
    black_box(&fold);
    layer.set(
        "core.passive.fold_rows_per_s",
        Some(kept_rows as f64 / start.elapsed().as_secs_f64()),
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One roster connection: what a device presents and what it trusts.
struct Pair {
    device: String,
    hostname: String,
    client: iotls_repro::tls::ClientConfig,
    server: iotls_repro::tls::ServerConfig,
    payload: Vec<u8>,
    chain: Vec<Certificate>,
    roots: Arc<RootStore>,
}

fn roster_pairs(tb: &Testbed) -> Vec<Pair> {
    let month = probe_time().month();
    let mut pairs = Vec::new();
    for device in tb.devices.iter().filter(|d| d.spec.in_active) {
        for dest in device.spec.boot_destinations() {
            let Some(endpoint) = tb.cloud().endpoint(&dest.hostname) else {
                continue;
            };
            pairs.push(Pair {
                device: device.spec.name.clone(),
                hostname: dest.hostname.clone(),
                client: tb.client_config_for(device, dest, month),
                server: tb.server_config(dest),
                payload: dest
                    .payload
                    .clone()
                    .unwrap_or_else(|| "ping".into())
                    .into_bytes(),
                chain: endpoint.chain.clone(),
                roots: device.truth.store.clone(),
            });
        }
    }
    pairs
}

fn endpoints(pair: &Pair, seed: u64) -> (ClientConnection, ServerConnection) {
    let rng = Drbg::from_seed(seed).fork(&pair.hostname);
    let server_rng = rng.fork("server");
    (
        ClientConnection::new(pair.client.clone(), &pair.hostname, probe_time(), rng),
        ServerConnection::new(pair.server.clone(), server_rng),
    )
}

/// Direct timings of each layer's public functions.
pub fn microbenches(cfg: &Config, layer: &mut Layers, out: &mut Outcome) {
    let tb = Testbed::global();
    let full = cfg.size == Size::Full;
    let batches = if full { 7 } else { 3 };
    let pairs = roster_pairs(tb);
    out.check(!pairs.is_empty(), || {
        "roster has no active connections".into()
    });
    let Some(first) = pairs.first() else { return };
    let key = tb
        .cloud()
        .endpoint(&first.hostname)
        .expect("roster endpoint is provisioned")
        .key
        .clone();

    // crypto
    let bits = key.public_key().modulus_len() * 8;
    let mut rng = Drbg::from_seed(derive_seed(cfg.seed, "keygen"));
    layer.set(
        "crypto.rsa_keygen_ms",
        per_call(if full { 5 } else { 1 }, 1, || {
            black_box(RsaPrivateKey::generate(bits, &mut rng));
        })
        .map(|s| s * 1e3),
    );
    let msg = sha256(b"perfbench");
    let sig = key.sign(&msg);
    let ok = key.public_key().verify(&msg, &sig).is_ok();
    out.check(ok, || "RSA signature does not verify".into());
    layer.set(
        "crypto.rsa_sign_us",
        per_call(batches, 50, || {
            black_box(key.sign(black_box(&msg)));
        })
        .map(|s| s * 1e6),
    );
    layer.set(
        "crypto.rsa_verify_us",
        per_call(batches, 200, || {
            black_box(key.public_key().verify(black_box(&msg), &sig).is_ok());
        })
        .map(|s| s * 1e6),
    );
    let encoded = key.public_key().to_bytes();
    let n_len = u32::from_be_bytes(encoded[..4].try_into().expect("4-byte length")) as usize;
    let n = Uint::from_be_bytes(&encoded[4..4 + n_len]);
    let mut bytes = vec![0u8; n_len];
    rng.fill_bytes(&mut bytes);
    let base = Uint::from_be_bytes(&bytes).rem(&n);
    rng.fill_bytes(&mut bytes);
    let exp = Uint::from_be_bytes(&bytes);
    layer.set(
        "crypto.modpow_us",
        per_call(batches, 5, || {
            black_box(black_box(&base).modpow(&exp, &n));
        })
        .map(|s| s * 1e6),
    );
    let mut buf = vec![0u8; 1 << 20];
    rng.fill_bytes(&mut buf);
    let mb = buf.len() as f64 / 1e6;
    layer.set(
        "crypto.sha256_mb_per_s",
        per_call(batches, 8, || {
            black_box(sha256(black_box(&buf)));
        })
        .map(|s| mb / s),
    );
    layer.set(
        "crypto.chacha20_mb_per_s",
        per_call(batches, 8, || {
            ChaCha20::new(&[7; 32], &[9; 12], 0).apply(black_box(&mut buf));
        })
        .map(|s| mb / s),
    );
    layer.set(
        "capture.crc32c_gb_per_s",
        per_call(batches, 64, || {
            black_box(crc32(black_box(&buf)));
        })
        .map(|s| mb / 1e3 / s),
    );

    // x509
    let now = probe_time();
    let policy = ValidationPolicy::strict();
    let verify_all = |verify: &dyn Fn(&Pair) -> bool| pairs.iter().filter(|p| verify(p)).count();
    let cold = |p: &Pair| validate_chain(&p.chain, &p.roots, &p.hostname, now, &policy).is_ok();
    let valid = verify_all(&cold);
    let cache = VerificationCache::new();
    let warm = |p: &Pair| {
        cache
            .validate(&p.chain, &p.roots, &p.hostname, now, &policy)
            .is_ok()
    };
    out.check(verify_all(&warm) == valid, || {
        "cached verdicts differ from uncached".into()
    });
    let per_pair = pairs.len();
    layer.set(
        "x509.verify_cold_us",
        per_call(batches, 1, || {
            black_box(verify_all(&cold));
        })
        .map(|s| s / per_pair as f64 * 1e6),
    );
    layer.set(
        "x509.verify_warm_us",
        per_call(batches, 10, || {
            black_box(verify_all(&warm));
        })
        .map(|s| s / per_pair as f64 * 1e6),
    );

    // tls: handshakes recorded as replayable tapes, and record framing
    let mut flows: Vec<SessionFlow> = Vec::new();
    let mut handshake = Vec::new();
    for (i, p) in pairs.iter().enumerate() {
        let (client, server) = endpoints(p, derive_seed(cfg.seed, &format!("tape/{i}")));
        let start = Instant::now();
        let flow = SessionFlow::record(client, server, Some(&p.payload), Some(b"ok"));
        handshake.push(start.elapsed().as_secs_f64() * 1e6);
        if flow.established {
            flows.push(flow);
        }
    }
    layer.set("tls.handshake_us", median(&handshake));
    out.check(!flows.is_empty(), || "no roster tape established".into());

    let mut drive = Vec::new();
    for (i, p) in pairs.iter().enumerate() {
        let (client, server) = endpoints(p, derive_seed(cfg.seed, &format!("drive/{i}")));
        let params = SessionParams {
            client_payload: Some(&p.payload),
            server_payload: Some(b"ok"),
            tap: false,
            time: now,
            device: &p.device,
            destination: &p.hostname,
        };
        let start = Instant::now();
        black_box(drive_session(client, server, params));
        drive.push(start.elapsed().as_secs_f64() * 1e6);
    }
    layer.set("simnet.drive_us", median(&drive));

    let payload = vec![0x5Au8; 1024];
    let mut wire = SessionBuf::new();
    let mut deframer = Deframer::new();
    layer.set(
        "tls.record_roundtrip_ns",
        per_call(batches, 20_000, || {
            wire.clear();
            iotls_repro::tls::write_record(
                ContentType::ApplicationData,
                ProtocolVersion::Tls12,
                black_box(&payload),
                &mut wire,
            );
            deframer.push(wire.as_slice());
            black_box(deframer.pop_ref().ok().flatten().map(|r| r.payload.len()));
        })
        .map(|s| s * 1e9),
    );

    // simnet replay, with and without the gateway's chain
    let reps = if full { 400 } else { 20 };
    let sessions = (reps * flows.len()) as f64;
    let mut scratch = ReplayScratch::new();
    for flow in &flows {
        black_box(replay_flow_with(
            flow,
            SessionFaults::none(),
            64,
            &mut scratch,
        ));
    }
    let (plain_s, allocs) = count_allocs(|| {
        let start = Instant::now();
        for _ in 0..reps {
            for flow in &flows {
                black_box(replay_flow_with(
                    flow,
                    SessionFaults::none(),
                    64,
                    &mut scratch,
                ));
            }
        }
        start.elapsed().as_secs_f64()
    });
    layer.set("simnet.replay_ns", Some(plain_s / sessions * 1e9));
    layer.set(
        "simnet.replay_allocs_per_session",
        Some(allocs as f64 / sessions),
    );
    let mut chains: Vec<Chain> = flows
        .iter()
        .map(|f| {
            Chain::new()
                .with(Box::new(AuditObserver::default()))
                .with(Box::new(DriftDetector::new(&[FlowBaseline::of(f)])))
        })
        .collect();
    for (flow, chain) in flows.iter().zip(&mut chains) {
        black_box(replay_flow_chained(
            flow,
            SessionFaults::none(),
            64,
            &mut scratch,
            chain,
        ));
    }
    let start = Instant::now();
    for _ in 0..reps {
        for (flow, chain) in flows.iter().zip(&mut chains) {
            black_box(replay_flow_chained(
                flow,
                SessionFaults::none(),
                64,
                &mut scratch,
                chain,
            ));
        }
    }
    let chained_s = start.elapsed().as_secs_f64();
    layer.set(
        "tls.middleware.dispatch_ns_per_session",
        Some((chained_s - plain_s) / sessions * 1e9),
    );

    // core.lab: boot-and-connect per device × policy until the p99
    // has enough samples
    let policies = [
        None,
        Some(InterceptPolicy::SelfSigned),
        Some(InterceptPolicy::WrongHostname),
        Some(InterceptPolicy::InvalidBasicConstraints),
    ];
    let devices: Vec<_> = tb.devices.iter().filter(|d| d.spec.in_active).collect();
    let mut boots = Vec::new();
    let mut round = 0u64;
    while boots.len() < 1000 {
        let mut lab = ActiveLab::new(tb, derive_seed(cfg.seed, &format!("lab/{round}")));
        for device in &devices {
            for policy in &policies {
                let start = Instant::now();
                black_box(lab.boot_and_connect(device, policy.as_ref()));
                boots.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        round += 1;
    }
    layer.set("core.lab.boot_p50_ms", median(&boots));
    layer.set("core.lab.boot_p99_ms", tail_percentile(&boots, 0.99));
}
