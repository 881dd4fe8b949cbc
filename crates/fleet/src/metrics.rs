//! Fleet-wide counters and the shutdown snapshot.

use crate::cache::CacheStats;
use netpu_arith::cast;
use netpu_serve::worker::PoolCounters;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters the fleet front door and workers update.
#[derive(Debug, Default)]
pub(crate) struct FleetCounters {
    /// The outcome counters the shared worker pool keeps.
    pub pool: PoolCounters,
    pub submitted: AtomicU64,
    pub throttled: AtomicU64,
    pub rejected_busy: AtomicU64,
    pub shadow_checks: AtomicU64,
    pub shadow_mismatches: AtomicU64,
}

impl FleetCounters {
    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One shard's scheduling statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct ShardStats {
    /// Requests placed on this shard's boards.
    pub placements: u64,
    /// Placements that displaced another model's weight residency.
    pub swaps: u64,
    /// Placements that reused resident weights.
    pub resident_hits: u64,
    /// Time this shard's DMA spent streaming, virtual µs.
    pub dma_busy_us: f64,
    /// Virtual time at which all the shard's granted work finished, µs.
    pub makespan_us: f64,
}

/// A point-in-time copy of everything the fleet measures.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FleetMetrics {
    /// Requests presented at the front door.
    pub submitted: u64,
    /// Requests admitted to a shard queue.
    pub accepted: u64,
    /// Requests refused by the tenant token bucket.
    pub throttled: u64,
    /// Requests refused because the target shard's queue was full.
    pub rejected_busy: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed (admission, compile, or accelerator).
    pub failed: u64,
    /// Requests whose deadline elapsed before completion.
    pub timed_out: u64,
    /// Worker panics absorbed by the crash-only recovery path; the
    /// worker thread survives every one.
    pub worker_panics: u64,
    /// Crashed requests put back on their shard queue for another
    /// attempt (the rest were rejected with `WORKER_CRASH`).
    pub crash_requeued: u64,
    /// Requests whose kernel-served value the simulator re-checked
    /// (one in [`SHADOW_EVERY`](crate::SHADOW_EVERY)).
    pub shadow_checks: u64,
    /// Shadow checks where the simulator disagreed with the kernel's
    /// value or the certificate's cycles; each such request failed with
    /// `DriverError::ValueMismatch` or `DriverError::CycleMismatch`.
    pub shadow_mismatches: u64,
    /// Compiled-model cache statistics.
    pub cache: CacheStats,
    /// Per-shard scheduling statistics.
    pub shards: Vec<ShardStats>,
}

impl FleetMetrics {
    /// Board swaps per placement across all shards, `None` before any
    /// placement.
    pub fn swaps_per_placement(&self) -> Option<f64> {
        let placements: u64 = self.shards.iter().map(|s| s.placements).sum();
        let swaps: u64 = self.shards.iter().map(|s| s.swaps).sum();
        (placements > 0).then(|| cast::f64_from_u64(swaps) / cast::f64_from_u64(placements))
    }

    /// Fraction of placements that reused resident weights, `None`
    /// before any placement.
    pub fn resident_hit_rate(&self) -> Option<f64> {
        let placements: u64 = self.shards.iter().map(|s| s.placements).sum();
        let hits: u64 = self.shards.iter().map(|s| s.resident_hits).sum();
        (placements > 0).then(|| cast::f64_from_u64(hits) / cast::f64_from_u64(placements))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_derive_from_shard_sums() {
        let m = FleetMetrics {
            submitted: 10,
            accepted: 10,
            throttled: 0,
            rejected_busy: 0,
            completed: 10,
            failed: 0,
            timed_out: 0,
            worker_panics: 0,
            crash_requeued: 0,
            shadow_checks: 0,
            shadow_mismatches: 0,
            cache: CacheStats::default(),
            shards: vec![
                ShardStats {
                    placements: 6,
                    swaps: 1,
                    resident_hits: 4,
                    ..ShardStats::default()
                },
                ShardStats {
                    placements: 4,
                    swaps: 1,
                    resident_hits: 2,
                    ..ShardStats::default()
                },
            ],
        };
        assert!((m.swaps_per_placement().unwrap() - 0.2).abs() < 1e-12);
        assert!((m.resident_hit_rate().unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_fleet_reports_no_rates() {
        let m = FleetMetrics {
            submitted: 0,
            accepted: 0,
            throttled: 0,
            rejected_busy: 0,
            completed: 0,
            failed: 0,
            timed_out: 0,
            worker_panics: 0,
            crash_requeued: 0,
            shadow_checks: 0,
            shadow_mismatches: 0,
            cache: CacheStats::default(),
            shards: vec![ShardStats::default()],
        };
        assert_eq!(m.swaps_per_placement(), None);
        assert_eq!(m.resident_hit_rate(), None);
    }
}
