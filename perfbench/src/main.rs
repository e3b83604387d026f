//! `iotls-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --work-dir DIR`
//!
//! Runs one workload and prints one JSON result line on stdout.
//! `perfbench/run.py` builds this binary and calls it with one worker.
//!
//! `iotls-perfbench --setup-sample NAME` times one set-up of the
//! workload and prints its seconds. A run starts it as a child process
//! for every set-up sample.

use iotls_perfbench::stats::failed_share;
use iotls_perfbench::{run, setup_once, Config, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn workload(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or(format!("unknown workload {name}"))
}

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut w, mut seed, mut seconds, mut trace, mut work_dir) = (None, None, None, None, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => w = Some(workload(value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: w.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        exe: std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, name] = &args[..] {
        if flag == "--setup-sample" {
            return match workload(name) {
                Ok(w) => {
                    println!("{:?}", setup_once(w));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("iotls-perfbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("iotls-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    for p in &out.problems {
        eprintln!("iotls-perfbench: check failed: {p}");
    }
    eprintln!(
        "iotls-perfbench: {} of {} operations failed ({:.4}%)",
        out.failed,
        out.attempted,
        failed_share(out.attempted, out.failed) * 100.0
    );
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
