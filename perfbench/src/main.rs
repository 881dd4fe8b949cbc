//! Host-measured serving benchmark for the netpu-m workspace.
//!
//! ```text
//! perfbench --workload <serve_stream|fleet_hot|fleet_churn>
//!           --seed <n> --seconds <s> [--trace <0|1>]
//! ```
//!
//! Run from the repository root. Prints report lines, one provenance
//! JSON line, and last the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits 1 when any output disagrees with the oracle.
//! `perfbench/run.py` builds this binary and runs it; see the README.

mod calib;
mod common;
mod fleet;
mod loadgen;
mod replay;
mod serve;
mod spans;
mod stats;

use common::Report;
use std::path::Path;
use std::time::Duration;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up runs at least this many times per run, and for at least
/// `SETUP_SECONDS` in all (a short set-up is timed many times);
/// `setup_s` is the median.
pub const SETUPS: usize = 9;
pub const SETUP_SECONDS: f64 = 2.0;

/// Where traced runs write their spans, relative to the repository root.
const SPANS_DIR: &str = "perfbench/out";

impl Args {
    pub fn run_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Untimed requests before the timed phase.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.05).min(0.5))
    }
}

fn parse() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Writes the traced run's spans next to the other outputs.
pub fn write_spans(args: &Args, spans: &spans::Spans, report: &mut Report) {
    let path =
        Path::new(SPANS_DIR).join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => report
            .lines
            .push(format!("wrote {} spans to {}", spans.len(), path.display())),
        Err(e) => report.lines.push(format!("could not write spans: {e}")),
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "serve_stream" => serve::run(&args),
        "fleet_hot" => fleet::run_hot(&args),
        "fleet_churn" => fleet::run_churn(&args),
        w => {
            eprintln!("error: unknown workload {w:?}");
            std::process::exit(2);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let samples: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("{}:{}", json_str(&m.name), m.samples))
        .collect();
    println!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"profile\":{},\"rustc\":{},\"git_rev\":{},\"source_digest\":{},\"samples\":{{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::nproc(),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_GIT_REV")),
        json_str(&env("PERFBENCH_SOURCE_DIGEST")),
        samples.join(",")
    );
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.failed == 0 && report.attempted > 0 && finite;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                v,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
