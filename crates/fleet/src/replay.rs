//! Deterministic synthetic-traffic replay through the live fleet.
//!
//! The harness generates a seeded bursty heavy-tail arrival process
//! (many tenants × many models × few boards) and drives a live
//! [`FleetServer`] with it: each request is submitted at its virtual
//! arrival time and its ticket awaited before the next submit, so the
//! token buckets, shard routing, compiled-model cache, value kernel,
//! [`SHADOW_EVERY`](crate::SHADOW_EVERY) oracle and board placement
//! are the ones every live request goes through, and the schedule is
//! measured entirely in virtual µs. Everything is a pure function of
//! [`ReplayConfig`] — one request in flight, no wall clock, no
//! `HashMap` iteration — so the same config reproduces the same
//! [`ReplayReport`] bit for bit on any host; the determinism suite
//! asserts exactly that.
//!
//! What it exists to show (`artifacts/serve/fleet_replay.tsv`, written
//! by `xtask serve-report`): tail latency
//! (p50/p99/p999), per-tenant fairness under token-bucket throttling,
//! compiled-cache hit rate, and — the headline — swaps-per-request
//! under [`DispatchPolicy::SwapAware`] versus
//! [`DispatchPolicy::NaiveFifo`], measured against the analytic
//! [`ClusterThroughput`] transfer bound from the paper's §V loading
//! economics.

use crate::cache::CompiledModelCache;
use crate::sched::DispatchPolicy;
use crate::shard::{FleetConfig, FleetRequest, FleetServer, FleetSubmit};
use crate::tenant::TenantPolicy;
use netpu_arith::cast;
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_nn::QuantMlp;
use netpu_runtime::{ClusterThroughput, Driver, DriverError};
use netpu_serve::RejectReason;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::sync::Arc;

/// Shape of one replay run. Everything downstream is a pure function
/// of this struct.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// RNG seed for traffic generation.
    pub seed: u64,
    /// Dispatch shards (each with its own DMA and boards).
    pub shards: usize,
    /// Boards per shard.
    pub boards_per_shard: usize,
    /// Number of tenants offering load (skewed toward low ids).
    pub tenants: usize,
    /// Number of distinct models (cycled over the zoo with distinct
    /// weight seeds).
    pub models: usize,
    /// Total requests generated.
    pub requests: usize,
    /// Mean of the exponential inter-arrival gap, µs.
    pub mean_interarrival_us: f64,
    /// Probability an arrival rides the previous one (zero gap): burst
    /// trains.
    pub burst_prob: f64,
    /// Probability a gap stretches 8×: heavy-tail lulls between bursts.
    pub lull_prob: f64,
    /// Per-request completion deadline relative to arrival, µs.
    pub deadline_us: f64,
    /// Board placement / dispatch ordering policy.
    pub policy: DispatchPolicy,
    /// Per-tenant token-bucket policy.
    pub tenant_policy: TenantPolicy,
    /// Compiled-model cache budget, bytes.
    pub cache_capacity_bytes: u64,
}

impl ReplayConfig {
    /// The acceptance-scale workload: 64 boards (8 shards × 8), 20
    /// models, 12 tenants, 10 000 requests.
    pub fn acceptance() -> ReplayConfig {
        ReplayConfig {
            seed: 7,
            shards: 8,
            boards_per_shard: 8,
            tenants: 12,
            models: 20,
            requests: 10_000,
            mean_interarrival_us: 40.0,
            burst_prob: 0.35,
            lull_prob: 0.05,
            deadline_us: 50_000.0,
            policy: DispatchPolicy::SwapAware,
            tenant_policy: TenantPolicy {
                rate_rps: 4_000.0,
                burst: 64.0,
            },
            cache_capacity_bytes: 256 << 20,
        }
    }

    /// A seconds-scale smoke workload for CI: 4 boards, 6 models,
    /// 600 requests.
    pub fn smoke() -> ReplayConfig {
        ReplayConfig {
            seed: 11,
            shards: 2,
            boards_per_shard: 2,
            tenants: 5,
            models: 6,
            requests: 600,
            mean_interarrival_us: 60.0,
            burst_prob: 0.3,
            lull_prob: 0.05,
            deadline_us: 50_000.0,
            policy: DispatchPolicy::SwapAware,
            tenant_policy: TenantPolicy {
                rate_rps: 6_000.0,
                burst: 32.0,
            },
            cache_capacity_bytes: 64 << 20,
        }
    }

    /// The same workload under the other policy (for A/B rows).
    pub fn with_policy(mut self, policy: DispatchPolicy) -> ReplayConfig {
        self.policy = policy;
        self
    }
}

/// Per-tenant outcome row.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantRow {
    /// Tenant id.
    pub tenant: u64,
    /// Requests the tenant offered.
    pub offered: u64,
    /// Requests the token bucket refused.
    pub throttled: u64,
    /// Requests completed.
    pub completed: u64,
    /// Mean end-to-end latency of the completed requests, µs.
    pub mean_latency_us: f64,
}

/// Everything one replay run measured.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ReplayReport {
    /// Policy the run used (`naive_fifo` / `swap_aware`).
    pub policy: String,
    /// RNG seed.
    pub seed: u64,
    /// Total boards (shards × boards per shard).
    pub boards: usize,
    /// Shards.
    pub shards: usize,
    /// Distinct models.
    pub models: usize,
    /// Requests generated.
    pub offered: u64,
    /// Requests the token buckets refused.
    pub throttled: u64,
    /// Requests scheduled to completion.
    pub completed: u64,
    /// Completions later than their deadline.
    pub deadline_missed: u64,
    /// Median end-to-end latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Jain fairness index over per-tenant completion ratios, `(0, 1]`.
    pub jain_fairness: f64,
    /// Compiled-cache hits.
    pub cache_hits: u64,
    /// Compiled-cache misses (= admissions run).
    pub cache_misses: u64,
    /// Compiled-cache hit rate.
    pub cache_hit_rate: f64,
    /// Models evicted from the cache.
    pub cache_evictions: u64,
    /// Placements that displaced a board's weight residency.
    pub swaps: u64,
    /// Swaps per completed request.
    pub swaps_per_request: f64,
    /// Placements that reused resident weights.
    pub resident_hits: u64,
    /// Fraction of placements that reused resident weights.
    pub resident_hit_rate: f64,
    /// Virtual time at which every shard finished, µs.
    pub makespan_us: f64,
    /// Completed requests per second of virtual time.
    pub measured_fps: f64,
    /// Analytic `min(boards/latency, 1/transfer)` bound summed over
    /// shards, using request-weighted mean cold-service figures.
    pub analytic_fps_bound: f64,
    /// `measured_fps / analytic_fps_bound`.
    pub bound_ratio: f64,
    /// Mean DMA busy fraction across shards.
    pub dma_utilization: f64,
    /// Per-tenant rows, ascending tenant id.
    pub tenants: Vec<TenantRow>,
}

struct GenRequest {
    arrival_us: f64,
    tenant: usize,
    model: usize,
}

/// Runs one replay. Deterministic: identical `cfg` (including seed)
/// yields an identical report.
pub fn run_replay(driver: &Driver, cfg: &ReplayConfig) -> Result<ReplayReport, DriverError> {
    let traffic = generate_traffic(cfg);
    let (models, per_shard_bound) = admit_zoo(driver, cfg, &traffic)?;
    let fleet = FleetServer::start(
        driver.clone(),
        FleetConfig {
            shards: cfg.shards,
            boards_per_shard: cfg.boards_per_shard,
            policy: cfg.policy,
            tenant_policy: cfg.tenant_policy,
            cache_capacity_bytes: cfg.cache_capacity_bytes,
            ..FleetConfig::default()
        },
    );
    let mut tenants: Vec<TenantRow> = (0..cfg.tenants)
        .map(|t| TenantRow {
            tenant: cast::u64_from_usize(t),
            offered: 0,
            throttled: 0,
            completed: 0,
            mean_latency_us: 0.0,
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(traffic.len());
    // One request in flight: the fleet sees the arrivals in order, so
    // its schedule is a pure function of the traffic.
    let driven = traffic.iter().enumerate().try_for_each(|(i, gen)| {
        let row = &mut tenants[gen.tenant];
        row.offered += 1;
        let model = &models[gen.model];
        let req = FleetRequest {
            tenant: row.tenant,
            model_id: cast::u64_from_usize(gen.model),
            model: Arc::clone(model),
            pixels: vec![cast::lo8(cast::u64_from_usize(i)); model.input.len],
            deadline_us: Some(cfg.deadline_us),
        };
        let ticket = match fleet.submit_at(req, gen.arrival_us) {
            FleetSubmit::Accepted(ticket) => ticket,
            FleetSubmit::Denied(RejectReason::Throttled { .. }) => {
                row.throttled += 1;
                return Ok(());
            }
            FleetSubmit::Denied(reason) => return Err(DriverError::Rejected(reason)),
        };
        // A deadline miss still ran to completion on its board.
        let latency = match ticket.wait() {
            Ok(resp) => resp.latency_us,
            Err(DriverError::Timeout { elapsed_us, .. }) => elapsed_us,
            Err(e) => return Err(e),
        };
        latencies.push(latency);
        row.completed += 1;
        row.mean_latency_us += latency;
        Ok(())
    });
    let m = fleet.shutdown();
    driven?;
    for row in &mut tenants {
        if row.completed > 0 {
            row.mean_latency_us /= cast::f64_from_u64(row.completed);
        }
    }

    let completed = m.completed + m.timed_out;
    latencies.sort_by(f64::total_cmp);
    let mean_us = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / cast::f64_from_usize(latencies.len())
    };

    // Each shard owns its own DMA, so the per-shard bound sums across
    // shards.
    let analytic_fps_bound = per_shard_bound.fps * cast::f64_from_usize(cfg.shards);
    let makespan_us = m.shards.iter().map(|s| s.makespan_us).fold(0.0, f64::max);
    let measured_fps = if makespan_us > 0.0 {
        cast::f64_from_u64(completed) * 1e6 / makespan_us
    } else {
        0.0
    };
    let active: Vec<f64> = m
        .shards
        .iter()
        .filter(|s| s.makespan_us > 0.0)
        .map(|s| s.dma_busy_us / s.makespan_us)
        .collect();
    let ratios: Vec<f64> = tenants
        .iter()
        .filter(|t| t.offered > 0)
        .map(|t| cast::f64_from_u64(t.completed) / cast::f64_from_u64(t.offered))
        .collect();

    Ok(ReplayReport {
        policy: cfg.policy.name().to_string(),
        seed: cfg.seed,
        boards: cfg.shards * cfg.boards_per_shard,
        shards: cfg.shards,
        models: cfg.models,
        offered: cast::u64_from_usize(cfg.requests),
        throttled: m.throttled,
        completed,
        deadline_missed: m.timed_out,
        p50_us: quantile(&latencies, 0.50),
        p99_us: quantile(&latencies, 0.99),
        p999_us: quantile(&latencies, 0.999),
        mean_us,
        jain_fairness: jain(&ratios),
        cache_hits: m.cache.hits,
        cache_misses: m.cache.misses,
        cache_hit_rate: m.cache.hit_rate().unwrap_or(0.0),
        cache_evictions: m.cache.evictions,
        swaps: m.shards.iter().map(|s| s.swaps).sum(),
        swaps_per_request: m.swaps_per_placement().unwrap_or(0.0),
        resident_hits: m.shards.iter().map(|s| s.resident_hits).sum(),
        resident_hit_rate: m.resident_hit_rate().unwrap_or(0.0),
        makespan_us,
        measured_fps,
        analytic_fps_bound,
        bound_ratio: if analytic_fps_bound > 0.0 {
            measured_fps / analytic_fps_bound
        } else {
            0.0
        },
        dma_utilization: if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / cast::f64_from_usize(active.len())
        },
        tenants,
    })
}

/// Builds `cfg.models` distinct untrained zoo models (model `i` is
/// fleet id `i`) and one shard's analytic [`ClusterThroughput`] bound
/// at the request-weighted mean cold-service latency and transfer. Weight
/// seeds that fail strict admission (untrained weights occasionally
/// trip the range analyzer) deterministically step to the next seed.
/// Admission runs on a scratch cache, so the fleet's own cache still
/// sees each model's first request as its miss.
fn admit_zoo(
    driver: &Driver,
    cfg: &ReplayConfig,
    traffic: &[GenRequest],
) -> Result<(Vec<Arc<QuantMlp>>, ClusterThroughput), DriverError> {
    let cache = CompiledModelCache::new(driver.clone(), cfg.cache_capacity_bytes);
    let mut counts = vec![0u64; cfg.models];
    for req in traffic {
        counts[req.model] += 1;
    }
    let total = cast::f64_from_u64(counts.iter().sum::<u64>().max(1));
    let (mut latency, mut transfer) = (0.0, 0.0);
    let mut models = Vec::with_capacity(cfg.models);
    for (i, &n) in counts.iter().enumerate() {
        let zoo = ZooModel::ALL[i % ZooModel::ALL.len()];
        let id = cast::u64_from_usize(i);
        let mut last_err = DriverError::EmptyResponse;
        let mut ok = None;
        for attempt in 0u64..24 {
            let seed = 1_000 + id + attempt * cast::u64_from_usize(cfg.models.max(1));
            let Ok(model) = zoo.build_untrained(seed, BnMode::Folded) else {
                continue;
            };
            match cache.get_or_admit(id, &model) {
                Ok(admitted) => {
                    ok = Some((model, admitted));
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        let (model, admitted) = ok.ok_or(last_err)?;
        let w = cast::f64_from_u64(n) / total;
        latency += w * admitted.run.measured_latency_us;
        transfer += w * admitted.transfer_us;
        models.push(Arc::new(model));
    }
    // An empty workload prices a nominal 1 µs compute-bound request.
    if traffic.is_empty() {
        (latency, transfer) = (1.0, 0.0);
    }
    let bound = ClusterThroughput::from_parts(cfg.boards_per_shard, latency, transfer)?;
    Ok((models, bound))
}

/// The seeded bursty heavy-tail arrival process.
fn generate_traffic(cfg: &ReplayConfig) -> Vec<GenRequest> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        let gap = if rng.gen_bool(cfg.burst_prob.clamp(0.0, 1.0)) {
            0.0 // ride the previous arrival: burst train
        } else {
            let u: f64 = rng.gen();
            let mut g = -cfg.mean_interarrival_us * (1.0 - u).ln();
            if rng.gen_bool(cfg.lull_prob.clamp(0.0, 1.0)) {
                g *= 8.0; // heavy-tail lull
            }
            g
        };
        t += gap;
        // Tenant load is skewed quadratically toward low ids.
        let u: f64 = rng.gen();
        let tenant = cast::usize_sat(cast::f64_to_u64_sat(
            cast::f64_from_usize(cfg.tenants) * u * u,
        ))
        .min(cfg.tenants - 1);
        // Tenants mostly hit a small preferred model set (affinity the
        // swap-aware scheduler can exploit), with a uniform tail.
        let model = if rng.gen_bool(0.8) {
            (tenant * 3 + rng.gen_range(0..3usize)) % cfg.models
        } else {
            rng.gen_range(0..cfg.models)
        };
        out.push(GenRequest {
            arrival_us: t,
            tenant,
            model,
        });
    }
    out
}

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (cast::f64_from_usize(sorted.len()) * q).ceil();
    let idx = cast::usize_sat(cast::f64_to_u64_sat(rank)).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`; 1.0 means perfectly even.
fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (cast::f64_from_usize(xs.len()) * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.50), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.999), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn jain_rewards_even_allocations() {
        assert!((jain(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let uneven = jain(&[1.0, 0.0, 0.0]);
        assert!((uneven - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_is_a_pure_function_of_the_config() {
        let cfg = ReplayConfig::smoke();
        let a = generate_traffic(&cfg);
        let b = generate_traffic(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_us.to_bits(), y.arrival_us.to_bits());
            assert_eq!((x.tenant, x.model), (y.tenant, y.model));
        }
        // Arrivals are monotone and actually bursty (some zero gaps).
        let zero_gaps = a
            .windows(2)
            .filter(|w| w[1].arrival_us == w[0].arrival_us)
            .count();
        assert!(zero_gaps > 0, "no burst trains generated");
        assert!(a.windows(2).all(|w| w[1].arrival_us >= w[0].arrival_us));
    }

    #[test]
    fn smoke_replay_completes_and_balances() {
        let report = run_replay(&Driver::builder().build(), &ReplayConfig::smoke()).unwrap();
        assert_eq!(report.offered, 600);
        assert!(report.completed + report.throttled == report.offered);
        assert!(report.completed > 0);
        assert!(report.p50_us <= report.p99_us && report.p99_us <= report.p999_us);
        assert!(
            report.cache_hit_rate > 0.9,
            "hit rate {}",
            report.cache_hit_rate
        );
        assert!(report.jain_fairness > 0.0 && report.jain_fairness <= 1.0 + 1e-12);
        assert!(report.measured_fps > 0.0);
        assert!(report.analytic_fps_bound > 0.0);
        assert!(
            report.bound_ratio <= 1.0 + 1e-6,
            "measured {} exceeds the analytic bound {}",
            report.measured_fps,
            report.analytic_fps_bound
        );
    }

    #[test]
    fn cache_figures_count_only_the_requests_the_fleet_served() {
        // Throttled requests never reach the cache: each model's first
        // served request is its one admission, every later one a hit.
        let cfg = ReplayConfig::smoke();
        let report = run_replay(&Driver::builder().build(), &cfg).unwrap();
        assert!(report.throttled > 0, "the smoke workload throttles");
        let models = cast::u64_from_usize(cfg.models);
        assert_eq!(report.cache_misses, models);
        assert_eq!(report.cache_hits, report.completed - models);
        assert_eq!(
            report.cache_hit_rate,
            cast::f64_from_u64(report.completed - models) / cast::f64_from_u64(report.completed)
        );
    }

    #[test]
    fn swap_aware_swaps_less_than_naive_fifo() {
        let driver = Driver::builder().build();
        let naive = run_replay(
            &driver,
            &ReplayConfig::smoke().with_policy(DispatchPolicy::NaiveFifo),
        )
        .unwrap();
        let aware = run_replay(
            &driver,
            &ReplayConfig::smoke().with_policy(DispatchPolicy::SwapAware),
        )
        .unwrap();
        assert_eq!(naive.completed, aware.completed, "same workload");
        assert!(
            aware.swaps_per_request < naive.swaps_per_request,
            "swap-aware {} vs naive {}",
            aware.swaps_per_request,
            naive.swaps_per_request
        );
        assert!(aware.resident_hit_rate > naive.resident_hit_rate);
    }

    #[test]
    fn replay_is_deterministic() {
        let driver = Driver::builder().build();
        let cfg = ReplayConfig::smoke();
        let a = run_replay(&driver, &cfg).unwrap();
        let b = run_replay(&driver, &cfg).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same report");
    }
}
