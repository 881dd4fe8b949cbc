//! Serving counters, latency histogram, and utilization snapshot.

use crate::worker::PoolCounters;
use netpu_check::StoreStats;
use netpu_core::SlabBreakdown;
use netpu_runtime::cast;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Upper bucket edges of the latency histogram, µs. The last bucket is
/// unbounded.
pub const LATENCY_BUCKETS_US: [f64; 8] = [
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    10_000.0,
    f64::INFINITY,
];

/// Lock-free counters the workers update while serving.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// The outcome counters the shared worker pool keeps.
    pub pool: PoolCounters,
    pub rejected: AtomicU64,
    pub range_flagged: AtomicU64,
    pub range_rejected: AtomicU64,
    pub equiv_flagged: AtomicU64,
    pub equiv_rejected: AtomicU64,
    pub retried: AtomicU64,
    pub frames_completed: AtomicU64,
    pub slabs_full: AtomicU64,
    pub slabs_partial: AtomicU64,
    pub queue_high_water: AtomicUsize,
    pub latency_buckets: [AtomicU64; 8],
}

impl Counters {
    /// Records one completed request's end-to-end virtual latency.
    pub fn observe_latency(&self, latency_us: f64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&edge| latency_us <= edge)
            .unwrap_or(LATENCY_BUCKETS_US.len() - 1);
        self.latency_buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the queue high-water mark to at least `depth`.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records how a completed batch decomposed across the value
    /// kernels, as reported by the driver's [`SlabBreakdown`]: full
    /// 64-image slabs that ran on the bitsliced kernel, and per-frame
    /// fallback work (a bitsliced batch's sub-slab tail *or* a whole
    /// batch on a model the bitsliced kernel does not admit) in
    /// under-occupied slab-equivalents. Counting the fallback path from
    /// the breakdown instead of the raw frame count keeps the metric
    /// honest for fallback-only models, which run zero slabs.
    pub fn observe_batch_slabs(&self, breakdown: SlabBreakdown) {
        self.slabs_full.fetch_add(
            cast::u64_from_usize(breakdown.slabs_full),
            Ordering::Relaxed,
        );
        self.slabs_partial.fetch_add(
            cast::u64_from_usize(breakdown.partial_slab_equivalents()),
            Ordering::Relaxed,
        );
    }
}

/// A point-in-time copy of everything the server measures.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests refused at admission (queue full or pre-flight
    /// verifier findings).
    pub rejected: u64,
    /// Submitted loadables whose pre-flight range analysis found
    /// error-class datapath unsoundness (NPC014/NPC018/NPC020),
    /// whether or not admission refused them.
    pub range_flagged: u64,
    /// Range-flagged submissions actually refused at admission
    /// (strict-range drivers only; always ≤ `range_flagged`).
    pub range_rejected: u64,
    /// Certified submissions whose translation validation found
    /// error-class inequivalence against the claimed source model
    /// (NPC021/NPC022/NPC024), whether or not admission refused them.
    /// Only [`Server::submit_certified`](crate::Server::submit_certified)
    /// submissions can contribute.
    pub equiv_flagged: u64,
    /// Equivalence-flagged submissions actually refused at admission
    /// (strict-equiv drivers only; always ≤ `equiv_flagged`).
    pub equiv_rejected: u64,
    /// Admission lookups answered from the driver's verdict store,
    /// counting those of every driver clone sharing the store.
    pub verdict_hits: u64,
    /// Admission lookups that ran a fresh analysis: the first sight of
    /// each distinct stream, plus every stream the store never keeps.
    pub verdict_misses: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed terminally (after exhausting retries).
    pub failed: u64,
    /// Delivery attempts that were retried after a stream fault.
    pub retried: u64,
    /// Requests whose deadline elapsed before completion.
    pub timed_out: u64,
    /// Worker panics absorbed by the crash-only recovery path
    /// (DESIGN.md §4.7). The worker thread survives every one.
    pub worker_panics: u64,
    /// Crashed requests put back on the admission queue for another
    /// attempt. The remaining `worker_panics` either had already
    /// delivered their outcome or were rejected with `WORKER_CRASH`.
    pub crash_requeued: u64,
    /// Frames across all completed requests (a batch counts each).
    pub frames_completed: u64,
    /// Completed batch slabs that filled all 64 image lanes of the
    /// bitsliced kernel. Only slabs the bitsliced kernel actually swept
    /// count; fallback-only models contribute zero.
    pub slabs_full: u64,
    /// Per-frame fallback work across completed batches, in
    /// under-occupied slab-equivalents (`ceil(fallback_frames / 64)`
    /// per batch): the sub-64-frame tail of a bitsliced batch, a whole
    /// small batch, or every frame of a batch whose model the
    /// bitsliced kernel does not admit.
    pub slabs_partial: u64,
    /// Deepest the admission queue ever got.
    pub queue_high_water: usize,
    /// `(upper_edge_us, count)` end-to-end latency histogram.
    pub latency_histogram: Vec<(f64, u64)>,
    /// Busy time per board on the virtual clock, µs.
    pub per_board_busy_us: Vec<f64>,
    /// Time the shared DMA engine spent streaming, µs.
    pub dma_busy_us: f64,
    /// Virtual time at which all granted work had finished, µs.
    pub makespan_us: f64,
}

impl MetricsSnapshot {
    pub(crate) fn gather(
        counters: &Counters,
        arbiter: &crate::arbiter::DmaArbiter,
        verdicts: StoreStats,
    ) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            accepted: load(&counters.pool.accepted),
            rejected: load(&counters.rejected),
            range_flagged: load(&counters.range_flagged),
            range_rejected: load(&counters.range_rejected),
            equiv_flagged: load(&counters.equiv_flagged),
            equiv_rejected: load(&counters.equiv_rejected),
            verdict_hits: verdicts.hits,
            verdict_misses: verdicts.misses,
            completed: load(&counters.pool.completed),
            failed: load(&counters.pool.failed),
            retried: load(&counters.retried),
            timed_out: load(&counters.pool.timed_out),
            worker_panics: load(&counters.pool.worker_panics),
            crash_requeued: load(&counters.pool.crash_requeued),
            frames_completed: load(&counters.frames_completed),
            slabs_full: load(&counters.slabs_full),
            slabs_partial: load(&counters.slabs_partial),
            queue_high_water: counters.queue_high_water.load(Ordering::Relaxed),
            latency_histogram: LATENCY_BUCKETS_US
                .iter()
                .zip(&counters.latency_buckets)
                .map(|(&edge, count)| (edge, count.load(Ordering::Relaxed)))
                .collect(),
            per_board_busy_us: arbiter.board_busy_us().to_vec(),
            dma_busy_us: arbiter.dma_busy_us(),
            makespan_us: arbiter.makespan_us(),
        }
    }

    /// Sustained throughput over the virtual schedule: completed frames
    /// divided by the makespan. `None` before anything finished.
    pub fn measured_fps(&self) -> Option<f64> {
        (self.frames_completed > 0 && self.makespan_us > 0.0)
            .then(|| cast::f64_from_u64(self.frames_completed) * 1e6 / self.makespan_us)
    }

    /// Fraction of the makespan each board spent busy, in `[0, 1]`.
    pub fn board_utilization(&self) -> Vec<f64> {
        if self.makespan_us <= 0.0 {
            return vec![0.0; self.per_board_busy_us.len()];
        }
        self.per_board_busy_us
            .iter()
            .map(|&b| b / self.makespan_us)
            .collect()
    }

    /// Fraction of the makespan the shared DMA spent streaming — 1.0
    /// means the cluster is fully transfer-bound.
    pub fn dma_utilization(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            0.0
        } else {
            self.dma_busy_us / self.makespan_us
        }
    }

    /// Fraction of completed batch slab-equivalents that filled all 64
    /// image lanes of the bitsliced kernel, in `[0, 1]`. Low occupancy
    /// means clients submit batches much smaller than
    /// [`netpu_core::SLAB_WIDTH`] (leaving lanes idle) or serve models
    /// that only admit the per-frame fallback walk. `None` before any
    /// batch completed.
    pub fn batch_slab_occupancy(&self) -> Option<f64> {
        let total = self.slabs_full + self.slabs_partial;
        (total > 0).then(|| cast::f64_from_u64(self.slabs_full) / cast::f64_from_u64(total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::DmaArbiter;

    #[test]
    fn histogram_buckets_by_upper_edge() {
        let c = Counters::default();
        c.observe_latency(10.0);
        c.observe_latency(50.0); // inclusive upper edge
        c.observe_latency(51.0);
        c.observe_latency(1e9); // unbounded tail
        let snap = MetricsSnapshot::gather(&c, &DmaArbiter::new(1), StoreStats::default());
        assert_eq!(snap.latency_histogram[0], (50.0, 2));
        assert_eq!(snap.latency_histogram[1], (100.0, 1));
        assert_eq!(snap.latency_histogram.last().unwrap().1, 1);
        let total: u64 = snap.latency_histogram.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn utilization_and_fps_derive_from_the_schedule() {
        let c = Counters::default();
        c.frames_completed.store(8, Ordering::Relaxed);
        let mut a = DmaArbiter::new(2);
        for _ in 0..8 {
            a.grant(0.0, 10.0, 15.0);
        }
        let snap = MetricsSnapshot::gather(&c, &a, StoreStats::default());
        // Transfer-bound: dma busy 80 µs over a makespan of ~85 µs.
        assert!((snap.dma_busy_us - 80.0).abs() < 1e-9);
        assert!(snap.dma_utilization() > 0.9);
        let fps = snap.measured_fps().unwrap();
        assert!((fps - 8.0 * 1e6 / snap.makespan_us).abs() < 1e-9);
        for u in snap.board_utilization() {
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn empty_snapshot_reports_no_rate() {
        let snap = MetricsSnapshot::gather(
            &Counters::default(),
            &DmaArbiter::new(3),
            StoreStats::default(),
        );
        assert_eq!(snap.measured_fps(), None);
        assert_eq!(snap.board_utilization(), vec![0.0; 3]);
        assert_eq!(snap.dma_utilization(), 0.0);
    }

    #[test]
    fn slab_occupancy_tracks_full_versus_partial() {
        let bitsliced = |frames: usize| SlabBreakdown {
            slabs_full: frames / netpu_core::SLAB_WIDTH,
            fallback_frames: frames % netpu_core::SLAB_WIDTH,
        };
        let c = Counters::default();
        let snap = MetricsSnapshot::gather(&c, &DmaArbiter::new(1), StoreStats::default());
        assert_eq!(snap.batch_slab_occupancy(), None);
        c.observe_batch_slabs(bitsliced(130)); // 2 full + tail
        c.observe_batch_slabs(bitsliced(64)); // exactly one full slab, no tail
        c.observe_batch_slabs(bitsliced(3)); // one partial slab
        let snap = MetricsSnapshot::gather(&c, &DmaArbiter::new(1), StoreStats::default());
        assert_eq!((snap.slabs_full, snap.slabs_partial), (3, 2));
        assert!((snap.batch_slab_occupancy().unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn fallback_only_batches_count_no_full_slabs() {
        // A 130-frame batch on a model the bitsliced kernel does not
        // admit runs zero slabs: all 130 frames are fallback work,
        // i.e. ceil(130/64) = 3 under-occupied slab-equivalents.
        let c = Counters::default();
        c.observe_batch_slabs(SlabBreakdown {
            slabs_full: 0,
            fallback_frames: 130,
        });
        let snap = MetricsSnapshot::gather(&c, &DmaArbiter::new(1), StoreStats::default());
        assert_eq!((snap.slabs_full, snap.slabs_partial), (0, 3));
        assert_eq!(snap.batch_slab_occupancy(), Some(0.0));
    }

    #[test]
    fn high_water_is_monotone() {
        let c = Counters::default();
        c.observe_queue_depth(3);
        c.observe_queue_depth(1);
        assert_eq!(c.queue_high_water.load(Ordering::Relaxed), 3);
    }
}
