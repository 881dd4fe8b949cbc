//! Models, input pools, the output oracle and result records shared by
//! every workload.

use crate::stats::{self, median};
use netpu_nn::dataset::{self, GeneratorConfig};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_nn::QuantMlp;
use netpu_runtime::Driver;
use std::time::Instant;

/// Seed tags: each purpose draws from its own stream of the workload seed.
pub const TAG_MODEL: u64 = 1;
pub const TAG_POOL: u64 = 2;
pub const TAG_REQUESTS: u64 = 3;
pub const TAG_SAMPLE: u64 = 4;

/// One model of a workload: a zoo architecture and its weight seed.
#[derive(Clone, Copy, Debug)]
pub struct ModelSpec {
    pub zoo: ZooModel,
    pub seed: u64,
}

impl ModelSpec {
    pub fn build(&self) -> QuantMlp {
        self.zoo
            .build_untrained(self.seed, BnMode::Folded)
            .expect("zoo models export")
    }

    /// Lower-case zoo name, e.g. `lfc-w1a1`.
    pub fn name(&self) -> String {
        self.zoo.name().to_lowercase()
    }
}

/// `n` seeded 28×28 digit images.
pub fn input_pool(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let cfg = GeneratorConfig::default();
    dataset::generate(n, stats::derive(seed, TAG_POOL, 0), &cfg)
        .examples
        .into_iter()
        .map(|e| e.pixels)
        .collect()
}

/// Expected outputs, computed before set-up from models of its own
/// (dropped afterwards, so they do not count toward the run's memory):
/// `class[m][i]` is `netpu_nn::reference::infer` of model `m` on pool
/// input `i`, and `cycles[m]` the static timing model's per-inference
/// cycle count.
pub struct Oracle {
    pub class: Vec<Vec<usize>>,
    pub cycles: Vec<u64>,
    /// Each model's compiled stream length, words.
    pub stream_words: Vec<usize>,
}

impl Oracle {
    /// `pairs[m]` lists the pool inputs model `m` is ever asked about.
    pub fn compute(specs: &[ModelSpec], pool: &[Vec<u8>], pairs: &[Vec<usize>]) -> Oracle {
        let models: Vec<QuantMlp> = specs.iter().map(ModelSpec::build).collect();
        let models = &models;
        let hw = Driver::builder().build().hw;
        let jobs: Vec<(usize, usize)> = pairs
            .iter()
            .enumerate()
            .flat_map(|(m, inputs)| inputs.iter().map(move |&i| (m, i)))
            .collect();
        let threads = nproc().max(1);
        let results: Vec<Vec<(usize, usize, usize)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let jobs = &jobs;
                    s.spawn(move || {
                        jobs.iter()
                            .skip(t)
                            .step_by(threads)
                            .map(|&(m, i)| (m, i, netpu_nn::reference::infer(&models[m], &pool[i])))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle thread"))
                .collect()
        });
        let mut class = vec![vec![usize::MAX; pool.len()]; models.len()];
        for (m, i, c) in results.into_iter().flatten() {
            class[m][i] = c;
        }
        let streams: Vec<Vec<u64>> = models
            .iter()
            .map(|m| {
                netpu_compiler::compile(m, &pool[0])
                    .expect("zoo models compile")
                    .words
            })
            .collect();
        Oracle {
            class,
            cycles: streams
                .iter()
                .map(|w| netpu_check::predict_cycles(w, &hw).expect("compiled streams decode"))
                .collect(),
            stream_words: streams.iter().map(Vec::len).collect(),
        }
    }
}

/// A live set-up that must be shut down before it is dropped.
pub trait Teardown {
    fn teardown(self);
}

/// Runs `setup` at least `SETUPS` times and for at least
/// `SETUP_SECONDS` of wall time in all, each after a calibration of the
/// host's speed; keeps the last set-up. Each earlier one is torn down
/// before the next starts, so only one set-up is alive at a time.
/// Returns the set-up times in seconds at the reference speed: each
/// wall time scaled by the median of the calibrations (a set-up is too
/// short to pair with its own calibration, whose noise would dominate).
pub fn timed_setups<L: Teardown>(mut setup: impl FnMut() -> L) -> (L, Vec<f64>) {
    let (mut secs, mut speeds) = (Vec::new(), Vec::new());
    let mut kept: Option<L> = None;
    while secs.len() < crate::SETUPS || secs.iter().sum::<f64>() < crate::SETUP_SECONDS {
        if let Some(old) = kept.take() {
            old.teardown();
        }
        speeds.push(crate::calib::speed(1));
        let t = Instant::now();
        kept = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    let speed = median(&speeds);
    let scaled = secs.iter().map(|s| s * speed).collect();
    (kept.expect("at least one set-up"), scaled)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Returns freed heap pages to the kernel and restarts the `VmHWM`
/// count, so `peak_rss_mb` measures the serving phase rather than what
/// the allocator kept from the oracle and the repeated set-ups (which
/// varies from run to run with heap fragmentation).
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers; it only
        // releases free memory at the allocator's discretion and is
        // safe to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets the peak RSS of this process (Linux clear_refs). On a
    // kernel without it the peak simply keeps counting from start-up.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: u64,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: samples as u64,
    }
}

/// Median of `values` as a metric (0 with no samples).
pub fn median_metric(name: &str, values: &[f64], unit: &'static str) -> Metric {
    let v = if values.is_empty() {
        0.0
    } else {
        median(values)
    };
    metric(name, v, unit, values.len())
}

/// What one workload run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}
