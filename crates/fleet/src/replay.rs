//! Deterministic synthetic-traffic replay over the fleet scheduler.
//!
//! The harness generates a seeded bursty heavy-tail arrival process
//! (many tenants × many models × few boards), pushes it through the
//! same admission pipeline, cache, token buckets, and
//! [`BoardPool`] placement the live server uses, and measures the
//! resulting schedule entirely in virtual µs. Everything is a pure
//! function of [`ReplayConfig`] — one thread, no wall clock, no
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

use crate::cache::{AdmittedModel, CompiledModelCache};
use crate::sched::{BoardPool, Candidate, DispatchPolicy};
use crate::shard::route;
use crate::tenant::{TenantLimiter, TenantPolicy};
use netpu_arith::cast;
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_runtime::{ClusterThroughput, Driver, DriverError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::VecDeque;
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
    /// Dispatch reorder window (1 = strict FIFO order even for
    /// swap-aware placement).
    pub window: usize,
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
            window: 32,
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
            window: 16,
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
    deadline_us: f64,
    tenant: usize,
    model: usize,
}

/// Runs one replay. Deterministic: identical `cfg` (including seed)
/// yields an identical report.
pub fn run_replay(driver: &Driver, cfg: &ReplayConfig) -> Result<ReplayReport, DriverError> {
    let models = admit_zoo(driver, cfg)?;
    let traffic = generate_traffic(cfg);

    // Front door: token buckets in arrival order, before sharding —
    // exactly where the live server throttles.
    let mut limiter = TenantLimiter::new(cfg.tenant_policy);
    let mut offered_per_tenant = vec![0u64; cfg.tenants];
    let mut throttled_per_tenant = vec![0u64; cfg.tenants];
    let mut admitted_requests: Vec<GenRequest> = Vec::with_capacity(traffic.len());
    for req in traffic {
        offered_per_tenant[req.tenant] += 1;
        if limiter.try_admit(cast::u64_from_usize(req.tenant), req.arrival_us) {
            admitted_requests.push(req);
        } else {
            throttled_per_tenant[req.tenant] += 1;
        }
    }

    // Shard by model id, preserving arrival order within each shard.
    let mut per_shard: Vec<VecDeque<GenRequest>> =
        (0..cfg.shards).map(|_| VecDeque::new()).collect();
    for req in admitted_requests {
        let shard = route(models.0[req.model].id, cfg.shards);
        per_shard[shard].push_back(req);
    }

    // Dispatch each shard's queue through its own board pool.
    let mut latencies: Vec<f64> = Vec::new();
    let mut completed_per_tenant = vec![0u64; cfg.tenants];
    let mut latency_per_tenant = vec![0.0f64; cfg.tenants];
    let mut deadline_missed = 0u64;
    let mut swaps = 0u64;
    let mut resident_hits = 0u64;
    let mut placements = 0u64;
    let mut makespan_us = 0.0f64;
    let mut dma_util_sum = 0.0f64;
    let mut active_shards = 0usize;
    for mut pending in per_shard {
        if pending.is_empty() {
            continue;
        }
        active_shards += 1;
        let mut pool = BoardPool::new(cfg.boards_per_shard);
        while !pending.is_empty() {
            let span = pending.len().min(cfg.window.max(1));
            let window: Vec<Candidate<'_>> = pending
                .iter()
                .take(span)
                .map(|r| Candidate {
                    model: &models.0[r.model],
                    arrival_us: r.arrival_us,
                    deadline_us: r.deadline_us,
                })
                .collect();
            let pick = pool.pick_next(cfg.policy, &window);
            let Some(req) = pending.remove(pick) else {
                break;
            };
            let placement = pool.place(cfg.policy, &models.0[req.model], req.arrival_us);
            let latency = placement.grant.complete_us - req.arrival_us;
            latencies.push(latency);
            completed_per_tenant[req.tenant] += 1;
            latency_per_tenant[req.tenant] += latency;
            if placement.grant.complete_us > req.deadline_us {
                deadline_missed += 1;
            }
        }
        swaps += pool.swaps();
        resident_hits += pool.resident_hits();
        placements += pool.placements();
        let makespan = pool.arbiter().makespan_us();
        makespan_us = makespan_us.max(makespan);
        if makespan > 0.0 {
            dma_util_sum += pool.arbiter().dma_busy_us() / makespan;
        }
    }

    let completed = cast::u64_from_usize(latencies.len());
    latencies.sort_by(f64::total_cmp);
    let mean_us = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / cast::f64_from_usize(latencies.len())
    };

    // Analytic transfer bound, request-weighted over the admitted
    // models' cold-service figures: each shard owns its own DMA, so the
    // per-shard bound sums across shards.
    let (weighted_latency, weighted_transfer) = request_weighted_costs(&models.0, &models.1);
    let per_shard_bound =
        ClusterThroughput::from_parts(cfg.boards_per_shard, weighted_latency, weighted_transfer)?;
    let analytic_fps_bound = per_shard_bound.fps * cast::f64_from_usize(cfg.shards);
    let measured_fps = if makespan_us > 0.0 {
        cast::f64_from_u64(completed) * 1e6 / makespan_us
    } else {
        0.0
    };

    let cache_stats = models.2;
    let tenants: Vec<TenantRow> = (0..cfg.tenants)
        .map(|t| TenantRow {
            tenant: cast::u64_from_usize(t),
            offered: offered_per_tenant[t],
            throttled: throttled_per_tenant[t],
            completed: completed_per_tenant[t],
            mean_latency_us: if completed_per_tenant[t] > 0 {
                latency_per_tenant[t] / cast::f64_from_u64(completed_per_tenant[t])
            } else {
                0.0
            },
        })
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
        throttled: throttled_per_tenant.iter().sum(),
        completed,
        deadline_missed,
        p50_us: quantile(&latencies, 0.50),
        p99_us: quantile(&latencies, 0.99),
        p999_us: quantile(&latencies, 0.999),
        mean_us,
        jain_fairness: jain(&ratios),
        cache_hits: cache_stats.hits,
        cache_misses: cache_stats.misses,
        cache_hit_rate: cache_stats.hit_rate().unwrap_or(0.0),
        cache_evictions: cache_stats.evictions,
        swaps,
        swaps_per_request: if completed > 0 {
            cast::f64_from_u64(swaps) / cast::f64_from_u64(completed)
        } else {
            0.0
        },
        resident_hits,
        resident_hit_rate: if placements > 0 {
            cast::f64_from_u64(resident_hits) / cast::f64_from_u64(placements)
        } else {
            0.0
        },
        makespan_us,
        measured_fps,
        analytic_fps_bound,
        bound_ratio: if analytic_fps_bound > 0.0 {
            measured_fps / analytic_fps_bound
        } else {
            0.0
        },
        dma_utilization: if active_shards > 0 {
            dma_util_sum / cast::f64_from_usize(active_shards)
        } else {
            0.0
        },
        tenants,
    })
}

type AdmittedZoo = (Vec<Arc<AdmittedModel>>, Vec<u64>, crate::cache::CacheStats);

/// Builds and admits `cfg.models` distinct untrained zoo models,
/// then replays the request stream's cache lookups so the reported
/// hit/miss figures match what the live path would see. Weight seeds
/// that fail strict admission (untrained weights occasionally trip the
/// range analyzer) deterministically step to the next seed.
fn admit_zoo(driver: &Driver, cfg: &ReplayConfig) -> Result<AdmittedZoo, DriverError> {
    let cache = CompiledModelCache::new(driver.clone(), cfg.cache_capacity_bytes);
    let mut admitted = Vec::with_capacity(cfg.models);
    for i in 0..cfg.models {
        let zoo = ZooModel::ALL[i % ZooModel::ALL.len()];
        let id = cast::u64_from_usize(i);
        let mut last_err = DriverError::EmptyResponse;
        let mut ok = None;
        for attempt in 0u64..24 {
            let seed = 1_000 + id + attempt * cast::u64_from_usize(cfg.models.max(1));
            let model = match zoo.build_untrained(seed, BnMode::Folded) {
                Ok(m) => m,
                Err(_) => continue,
            };
            match cache.get_or_admit(id, &model) {
                Ok(m) => {
                    ok = Some(m);
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        match ok {
            Some(m) => admitted.push(m),
            None => return Err(last_err),
        }
    }
    // Replay the per-request lookups the live path would issue, so the
    // cache's hit statistics reflect the workload (every request after
    // a model's first is a hit).
    let traffic = generate_traffic(cfg);
    for req in &traffic {
        let _ = cache.lookup(admitted[req.model].id);
    }
    let request_counts = {
        let mut counts = vec![0u64; cfg.models];
        for req in &traffic {
            counts[req.model] += 1;
        }
        counts
    };
    let stats = cache.stats();
    Ok((admitted, request_counts, stats))
}

/// Request-weighted mean `(cold_latency_us, cold_transfer_us)`.
fn request_weighted_costs(models: &[Arc<AdmittedModel>], counts: &[u64]) -> (f64, f64) {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return (1.0, 0.0);
    }
    let mut latency = 0.0;
    let mut transfer = 0.0;
    for (model, &n) in models.iter().zip(counts) {
        let w = cast::f64_from_u64(n) / cast::f64_from_u64(total);
        latency += w * model.run.measured_latency_us;
        transfer += w * model.transfer_us;
    }
    (latency, transfer)
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
            deadline_us: t + cfg.deadline_us,
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
