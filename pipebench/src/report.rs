//! Metric catalogue, summary statistics and the printed result.
//!
//! Every metric row carries its name, unit, direction, workload, seed and
//! sample count. Rows are printed one JSON object per line; the last line
//! of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

use crate::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry: a metric name with its unit and direction.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    spec("wall_s", "s", Lower),
    spec("cpu_s", "s", Lower),
    spec("cost_norm", "%", Lower),
    spec("setup_s", "s", Lower),
    spec("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    spec("properties.analyze_s", "s", Lower),
    spec("properties.shard_analyze_s", "s", Lower),
    spec("properties.rounds", "count", Lower),
    spec("properties.ordered_pairs", "count", Higher),
    spec("greedy.construct_s", "s", Lower),
    spec("local.tabu.iters_per_s", "1/s", Higher),
    spec("local.vns.iters_per_s", "1/s", Higher),
    spec("local.tabu.cost_norm", "%", Lower),
    spec("local.vns.cost_norm", "%", Lower),
    spec("exact.cp.nodes_per_s", "1/s", Higher),
    spec("core.delta_swap_ns", "ns", Lower),
    spec("portfolio.overrun_s", "s", Lower),
    spec("portfolio.nodes", "count", Higher),
    spec("portfolio.elapsed_gap_s", "s", Lower),
    spec("decompose.graph_s", "s", Lower),
    spec("decompose.partition_s", "s", Lower),
    spec("decompose.project_s", "s", Lower),
    spec("decompose.shards", "count", Higher),
    spec("decompose.shard_solve_s", "s", Lower),
    spec("decompose.shard_solve_max_s", "s", Lower),
    spec("decompose.merge_s", "s", Lower),
    spec("decompose.verify_s", "s", Lower),
    spec("replan.calls", "count", Lower),
    spec("replan.ms", "ms", Lower),
    spec("replan.improved_frac", "frac", Higher),
    spec("deploy.static_s", "s", Lower),
    spec("deploy.builds", "count", Lower),
    spec("deploy.retries", "count", Lower),
    spec("deploy.slot_idle_frac", "frac", Lower),
    spec("deploy.out_of_order", "count", Lower),
    spec("journal.records", "count", Lower),
    spec("journal.bytes", "bytes", Lower),
    spec("journal.encode_s", "s", Lower),
    spec("journal.decode_s", "s", Lower),
    spec("journal.replay_s", "s", Lower),
    spec("telemetry.overhead_s", "s", Lower),
];

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the "exclusive" method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp raised `j`: Python extrapolates there.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Counts attempted and failed checked operations; a failure's reason is
/// echoed to standard error once.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation and passes its value through.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(reason) => {
                self.failed += 1;
                eprintln!("pipebench: check failed: {what}: {reason}");
                None
            }
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A JSON number, or `null` for a non-finite value (JSON has neither).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The measured metrics of one run plus everything its rows need.
pub struct RunReport {
    pub workload: Workload,
    pub seed: u64,
    pub catalogue: &'static [MetricSpec],
    /// `(name, samples)`; the reported value is the median of the samples.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Rows printed for information only, outside the result's metrics.
    pub extra: Vec<(MetricSpec, Vec<f64>)>,
    pub tally: Tally,
}

impl RunReport {
    pub fn new(workload: Workload, seed: u64, catalogue: &'static [MetricSpec]) -> Self {
        Self {
            workload,
            seed,
            catalogue,
            samples: Vec::new(),
            extra: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Adds samples of a catalogued metric. An empty sample list marks the
    /// metric as missing.
    pub fn put(&mut self, name: &'static str, samples: Vec<f64>) {
        debug_assert!(self.catalogue.iter().any(|s| s.name == name), "{name}");
        self.samples.push((name, samples));
    }

    /// Adds an informational row that is not part of the result's metrics.
    pub fn put_extra(&mut self, spec: MetricSpec, samples: Vec<f64>) {
        self.extra.push((spec, samples));
    }

    /// Adds one measured value.
    pub fn put_one(&mut self, name: &'static str, value: f64) {
        self.put(name, vec![value]);
    }

    /// Prints one row per catalogued and informational metric, then the
    /// result line. A metric without a finite value (say, `cpu_s` without
    /// `/proc`) is left out of the metrics, never reported as 0. Returns
    /// whether the run is correct: something was checked and every check
    /// passed.
    pub fn print(&self) -> bool {
        let mut metrics = Vec::new();
        for spec in self.catalogue {
            let samples = self
                .samples
                .iter()
                .find(|(n, _)| *n == spec.name)
                .map(|(_, s)| s.as_slice())
                .unwrap_or(&[]);
            match self.print_row(spec, samples, samples.len()) {
                Some(v) => metrics.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    spec.name,
                    num(v),
                    spec.unit
                )),
                None => eprintln!("pipebench: metric {} is missing", spec.name),
            }
        }
        for (spec, samples) in &self.extra {
            self.print_row(spec, samples, samples.len());
        }
        let fail_frac = spec("fail_frac", "frac", Lower);
        self.print_row(
            &fail_frac,
            &[self.tally.fail_frac()],
            self.tally.attempted as usize,
        );
        let correct = self.tally.failed == 0 && self.tally.attempted > 0;
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
        correct
    }

    /// Prints one row of `count` samples summarized by `samples`; returns
    /// the median when it is finite.
    fn print_row(&self, spec: &MetricSpec, samples: &[f64], count: usize) -> Option<f64> {
        let value = median(samples).filter(|v| v.is_finite());
        let (q1, q3) = quartiles(samples).unwrap_or((f64::NAN, f64::NAN));
        let (min, max) = samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        println!(
            "{{\"row\": {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \
             \"workload\": \"{}\", \"seed\": {}, \"samples\": {}, \"value\": {}, \
             \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}}}}}",
            spec.name,
            spec.unit,
            spec.better.label(),
            self.workload.name(),
            self.seed,
            count,
            value.map_or("null".to_string(), num),
            num(q1),
            num(q3),
            num(min),
            num(max),
        );
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fail_frac_counts_failed_checks() {
        let mut tally = Tally::default();
        assert_eq!(tally.record("ok", Ok::<_, String>(1)), Some(1));
        assert_eq!(tally.record("bad", Err::<i32, _>("no".into())), None);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.fail_frac(), 0.5);
    }
}
