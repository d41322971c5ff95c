//! Pipeline benchmark of the index deployment ordering system.
//!
//! One client thread issues one call at a time and waits for its reply (a
//! closed loop with one client), the way a design tool waits for its plan.
//! Four workloads:
//!
//! * `tpcds-plan` — the recommended portfolio on the TPC-DS-like instance
//!   with seeded query weights, 2 s budget;
//! * `blocks-plan` — the same call on n = 256 (8 independent 32-index
//!   blocks), planned whole;
//! * `blocks-sharded` — the sharded solver on n = 1024 (32 independent
//!   32-index blocks), 2 s split across the shards;
//! * `deploy-evolve` — an n = 256 greedy plan deployed on 2 slots under a
//!   mixed drift / revision / failure scenario with slot-aware greedy
//!   replans, journal recorded.
//!
//! `BENCHMARK.json` lists the two planning workloads only; `blocks-sharded`
//! and `deploy-evolve` are run by hand. Their calls are pure computation,
//! so their times follow the host's speed, and on a shared VM that speed
//! changes by up to 1.4x for minutes at a time: no run length averages it
//! out, and their medians spread past any bound a regression gate can use.
//! A planning call spends most of its time in its fixed wall-clock budget,
//! so only its seeding and overrun follow the host; a faster search shows
//! in `cost_norm`, a faster seed in `wall_s`. The traced run still times
//! every layer, decomposition, runtime and journal included, on every
//! workload.
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off; `--trace
//! 1` runs the workload once more with telemetry on and times each layer's
//! public calls from outside (see `traced.rs`). Every output is checked.
//!
//! Usage: `pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

mod inputs;
mod pipeline;
mod procfs;
mod report;
mod spans;
mod traced;

use inputs::Inputs;
use report::{RunReport, END_TO_END};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpcdsPlan,
    BlocksPlan,
    BlocksSharded,
    DeployEvolve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TpcdsPlan,
        Workload::BlocksPlan,
        Workload::BlocksSharded,
        Workload::DeployEvolve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpcdsPlan => "tpcds-plan",
            Workload::BlocksPlan => "blocks-plan",
            Workload::BlocksSharded => "blocks-sharded",
            Workload::DeployEvolve => "deploy-evolve",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Set-up repeats: at least [`SETUP_REPS`], and more while they total under
/// [`SETUP_MIN_S`] seconds, up to [`SETUP_MAX_REPS`]. A set-up of a few
/// milliseconds needs many samples for a steady median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!(
                "usage: pipebench --workload <tpcds-plan|blocks-plan|blocks-sharded|deploy-evolve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let correct = if args.trace {
        traced::run(args.workload, args.seed)
    } else {
        run_untraced(&args)
    };
    if !correct {
        std::process::exit(1);
    }
}

/// Generates inputs of the run's family from scratch, timing each, and
/// keeps the first [`SETUP_REPS`]; returns them and every set-up time.
fn setup(workload: Workload, seed: u64) -> Result<(Vec<Inputs>, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut family = Vec::with_capacity(SETUP_REPS);
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        let started = Instant::now();
        let inputs = Inputs::generate(workload, inputs::member_seed(seed, times.len()))?;
        times.push(started.elapsed().as_secs_f64());
        if family.len() < SETUP_REPS {
            family.push(inputs);
        }
    }
    Ok((family, times))
}

/// The end-to-end run: issue calls back to back, the `k`-th on the run's
/// `k`-th input, until `seconds` have passed (at least one call); check
/// each, and report medians.
fn run_untraced(args: &Args) -> bool {
    let (family, setup_times) = match setup(args.workload, args.seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pipebench: set-up failed: {e}");
            return false;
        }
    };
    let mut report = RunReport::new(args.workload, args.seed, END_TO_END);
    let off = idd_telemetry::Telemetry::off();
    let (mut walls, mut cpus, mut costs, mut gaps) = (vec![], vec![], vec![], vec![]);
    let started = Instant::now();
    let mut spare = None;
    while walls.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let k = walls.len();
        if k >= family.len() {
            match family[0].regenerate(args.workload, inputs::member_seed(args.seed, k)) {
                Ok(next) => spare = Some(next),
                Err(e) => {
                    report.tally.record::<()>("input generation", Err(e));
                    break;
                }
            }
        }
        let inputs = family.get(k).or(spare.as_ref()).expect("generated above");
        let cpu_before = procfs::cpu_seconds();
        let call_started = Instant::now();
        let output = pipeline::call(inputs, &off);
        let wall = call_started.elapsed().as_secs_f64();
        let cpu_after = procfs::cpu_seconds();
        walls.push(wall);
        if let (Some(before), Some(after)) = (cpu_before, cpu_after) {
            cpus.push(after - before);
        }
        if let Some(reported) = output.reported_elapsed_s() {
            gaps.push(wall - reported);
        }
        let checked = pipeline::check(inputs, &output);
        if let Some(cost) = report.tally.record(args.workload.name(), checked) {
            costs.push(cost);
        }
    }
    if !gaps.is_empty() {
        // Not gated: how far the solver's own clock is from the wall.
        report.put_extra(
            report::MetricSpec {
                name: "portfolio.elapsed_gap_s",
                unit: "s",
                better: report::Better::Lower,
            },
            gaps,
        );
    }
    report.put("wall_s", walls);
    report.put("cpu_s", cpus);
    report.put("cost_norm", costs);
    report.put("setup_s", setup_times);
    report.put("peak_rss_mb", procfs::peak_rss_mb().into_iter().collect());
    report.print()
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{MetricSpec, PER_LAYER};
    use serde_json::Value;

    fn load(relative: &str) -> Value {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
        let text = std::fs::read_to_string(&path).unwrap();
        serde_json::parse_value(&text).unwrap()
    }

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        match value {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no `{key}`")),
            _ => panic!("not an object"),
        }
    }

    fn text(value: &Value) -> &str {
        match value {
            Value::String(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn list(value: &Value) -> &[Value] {
        match value {
            Value::Array(items) => items,
            _ => panic!("not an array"),
        }
    }

    fn assert_catalogue(declared: &Value, catalogue: &[MetricSpec]) {
        let declared = list(declared);
        assert_eq!(declared.len(), catalogue.len());
        for (entry, spec) in declared.iter().zip(catalogue) {
            assert_eq!(text(field(entry, "name")), spec.name);
            assert_eq!(text(field(entry, "unit")), spec.unit);
            assert_eq!(text(field(entry, "better")), spec.better.label());
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_measured_metrics() {
        let bench = load("../BENCHMARK.json");
        assert_catalogue(field(&bench, "end_to_end"), END_TO_END);
        assert_catalogue(field(&bench, "per_layer"), PER_LAYER);
        let names: Vec<&str> = list(field(&bench, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(names, ["tpcds-plan", "blocks-plan"]);
        assert!(names.iter().all(|n| Workload::parse(n).is_some()));
    }

    #[test]
    fn every_layer_metric_has_a_prediction() {
        let predictions = load("predictions.json");
        let workloads: Vec<&str> = list(field(&predictions, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        let entries = list(field(&predictions, "predictions"));
        let metrics: Vec<&str> = entries.iter().map(|p| text(field(p, "metric"))).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|s| s.name).collect();
        assert_eq!(metrics, layers);
        for entry in entries {
            for pair in list(field(entry, "moves"))
                .iter()
                .chain(list(field(entry, "holds")))
            {
                let (workload, metric) = text(pair).split_once(':').unwrap();
                assert!(Workload::parse(workload).is_some(), "{workload}");
                assert!(END_TO_END.iter().any(|s| s.name == metric), "{metric}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload tpcds-plan --seed 3 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::TpcdsPlan, 3, 2.0, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 2 --trace 0",
            "--workload tpcds-plan --seed x --seconds 2 --trace 0",
            "--workload tpcds-plan --seed 3 --seconds 0 --trace 0",
            "--workload tpcds-plan --seed 3 --seconds 2 --trace 2",
            "--workload tpcds-plan --seed 3 --seconds 2",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
