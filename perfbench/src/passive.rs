//! `passive_corpus`: ingest of the 27-month corpus into a fresh
//! segmented store, full re-analysis off the store, and the slice mix
//! over the study axis — writes beside reads on one corpus.

use crate::stats::Outcome;
use crate::trace::Tracer;
use crate::{derive_seed, metrics_ctx, Config, Size};
use iotls_repro::capture::{SegmentedStore, SegmentedWriter};
use iotls_repro::core::{
    analyze_store, analyze_store_slice, analyze_streamed, ExperimentCtx, PassiveAnalysis,
};
use iotls_repro::crypto::Drbg;
use iotls_repro::devices::Testbed;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rows per weighted observation: 1 expands the corpus to one row per
/// connection (≥17M rows); the smoke size keeps seed-scale weighted
/// rows.
pub fn max_count_per_row(size: Size) -> u64 {
    match size {
        Size::Full => 1,
        Size::Smoke => u64::MAX,
    }
}

/// Generates the corpus straight into a fresh segmented store at
/// `dir`: generate → intern → seal → CRC-32C frame write → manifest
/// publish. Returns the rows generated and the wall time.
pub fn ingest(
    tb: &Testbed,
    ctx: &ExperimentCtx,
    dir: &Path,
    size: Size,
    tr: &Tracer,
) -> (u64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let mut writer = SegmentedWriter::create(dir).expect("create corpus store");
    let mut rows = 0u64;
    let tail = tr.span("capture.generate", || {
        ctx.capture_ctx()
            .generate_streamed(tb, max_count_per_row(size), &mut |chunk| {
                rows += chunk.len() as u64;
                tr.span("capture.segstore.add_chunk", || writer.add_chunk(&chunk))
                    .expect("write corpus chunk");
            })
    });
    tr.span("capture.segstore.finish", || {
        writer.finish(
            &tail.strings,
            &tail.fps,
            &tail.revocation_flows,
            tail.truncated,
        )
    })
    .expect("publish corpus manifest");
    (rows, start.elapsed().as_secs_f64())
}

/// Opens the store and re-analyzes all of it.
pub fn scan(
    dir: &Path,
    ctx: &ExperimentCtx,
    tr: &Tracer,
) -> Result<(PassiveAnalysis, u64, f64), String> {
    let start = Instant::now();
    let store = tr
        .span("capture.segstore.open", || SegmentedStore::open(dir))
        .map_err(|e| e.to_string())?;
    let analysis = tr
        .span("core.passive.analyze_store", || analyze_store(&store, ctx))
        .map_err(|e| e.to_string())?;
    Ok((analysis, store.total_rows(), start.elapsed().as_secs_f64()))
}

/// One slice query: a month of the study axis, for one device or all.
#[derive(Debug, Clone)]
pub struct Query {
    pub from: i64,
    pub to: i64,
    pub device: Option<String>,
}

/// The slice mix: for each month of the study axis, the all-device
/// slice and every (month × device) slice. Months and the queries
/// inside each month are shuffled by `seed`.
pub fn queries(reference: &PassiveAnalysis, seed: u64) -> Vec<Vec<Query>> {
    let mut rng = Drbg::from_seed(seed);
    let mut months: Vec<Vec<Query>> = reference
        .month_axis
        .iter()
        .map(|m| {
            let devices = reference.device_names.iter().map(|d| Some(d.clone()));
            let mut qs: Vec<Query> = std::iter::once(None)
                .chain(devices)
                .map(|device| Query {
                    from: m.start().0,
                    to: m.end().0,
                    device,
                })
                .collect();
            shuffle(&mut qs, &mut rng);
            qs
        })
        .collect();
    shuffle(&mut months, &mut rng);
    months
}

fn shuffle<T>(v: &mut [T], rng: &mut Drbg) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Runs every query of one month and checks that the device slices
/// sum to the all-device slice. Each query is one attempted operation.
pub fn slice_month(
    store: &SegmentedStore,
    month: &[Query],
    ctx: &ExperimentCtx,
    tr: &Tracer,
    out: &mut Outcome,
) {
    let mut device_sum = 0u64;
    let mut all = None;
    for q in month {
        let result = tr.span("core.passive.slice", || {
            analyze_store_slice(store, q.from, q.to, q.device.as_deref(), ctx)
        });
        out.attempted += 1;
        match result {
            Ok(a) => match q.device {
                Some(_) => device_sum += a.total_connections,
                None => all = Some(a.total_connections),
            },
            Err(e) => out.fail(format!("slice {q:?}: {e}")),
        }
    }
    if let Some(all) = all {
        if device_sum != all {
            out.fail(format!(
                "month from {}: device slices sum to {device_sum}, all-device slice {all}",
                month[0].from
            ));
        }
    }
}

/// The passive workload on one corpus. Each cycle does the same work:
/// it ingests the corpus afresh, scans it once, and runs the whole
/// slice mix, so writes and reads see the same host conditions and
/// every cycle's wall time measures one full pass.
pub struct CorpusRun<'a> {
    tb: &'a Testbed,
    ctx: ExperimentCtx,
    dir: PathBuf,
    size: Size,
    reference: PassiveAnalysis,
    months: Vec<Vec<Query>>,
}

impl<'a> CorpusRun<'a> {
    /// Computes the reference the scans must reproduce — the streamed
    /// analysis of the same seed — before anything is timed.
    pub fn new(tb: &'a Testbed, cfg: &Config, seed: u64) -> CorpusRun<'a> {
        let ctx = metrics_ctx(seed);
        let reference = analyze_streamed(tb, &ctx, max_count_per_row(cfg.size));
        let months = queries(&reference, derive_seed(seed, "slices"));
        CorpusRun {
            tb,
            ctx,
            dir: cfg.corpus_dir(),
            size: cfg.size,
            reference,
            months,
        }
    }

    /// One checked cycle; returns its wall time in seconds.
    pub fn cycle(&mut self, tr: &Tracer, out: &mut Outcome) -> f64 {
        let start = Instant::now();
        let (rows, ingest_s) = ingest(self.tb, &self.ctx, &self.dir, self.size, tr);
        let store = match SegmentedStore::open(&self.dir) {
            Ok(store) => store,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("reopen after ingest: {e}"));
                return start.elapsed().as_secs_f64();
            }
        };
        out.check(store.total_rows() == rows, || {
            format!(
                "ingest: generated {rows} rows, store holds {}",
                store.total_rows()
            )
        });

        let scan_s = match scan(&self.dir, &self.ctx, tr) {
            Ok((analysis, _, seconds)) => {
                out.check(analysis == self.reference, || {
                    "scan differs from the streamed analysis".into()
                });
                seconds
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("scan: {e}"));
                0.0
            }
        };

        let slices = Instant::now();
        for month in &self.months {
            slice_month(&store, month, &self.ctx, tr, out);
        }
        eprintln!(
            "perfbench: passive cycle: ingest {rows} rows {ingest_s:.4} s, \
             scan {scan_s:.4} s, slice mix {:.4} s",
            slices.elapsed().as_secs_f64()
        );
        start.elapsed().as_secs_f64()
    }
}

impl Drop for CorpusRun<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
