//! Summary statistics and the result record the benchmark prints.

/// Samples a tail percentile must leave beyond it before it is
/// reported: a p99 needs at least 1000 samples.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count),
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `xs`, reported only
/// when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Share of attempted operations that failed; 0 when nothing was
/// attempted.
pub fn failed_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// True when `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one benchmark run reports: the correctness verdict, the
/// operations attempted and failed, and its metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable reasons for every failed check.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records one attempted operation; a failed `check` counts it as
    /// failed and marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Marks one already-attempted operation as failed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.correct = false;
        self.problems.push(why);
    }

    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite value makes the run
    /// incorrect rather than producing invalid JSON.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct && self.failed == 0;
        let mut parts = Vec::new();
        for m in &self.metrics {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                correct = false;
                "0.0".to_string()
            };
            parts.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&xs[..19], 0.5), None);
        assert_eq!(tail_percentile(&xs[..20], 0.5), Some(10.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "core.lab.boot_p99_ms",
            "simnet.par.scaling_2w",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "rate/s", "p99%", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn failure_share_counts_against_attempts() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(4, 1), 0.25);
        let mut o = Outcome::new();
        o.check(true, String::new);
        o.check(false, || "broken".into());
        o.check(true, String::new);
        assert_eq!((o.attempted, o.failed, o.correct), (3, 1, false));
        assert_eq!(failed_share(o.attempted, o.failed), 1.0 / 3.0);
        assert!(o
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut o = Outcome::new();
        o.check(true, String::new);
        o.metric("setup_s", "s", 0.812_734_5);
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}}}"
        );
    }
}
