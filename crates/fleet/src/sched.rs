//! Swap-aware board scheduling over the shared-DMA arbiter.
//!
//! NetPU-M reconfigures by weight stream (§V): placing a request on a
//! board that already holds its model's weights skips the weight
//! sections' DMA occupancy entirely ([`AdmittedModel::weight_stream_us`]),
//! while any other placement re-streams them and *swaps* the board's
//! residency. [`BoardPool`] tracks which model each board holds and
//! offers two placement policies; either way, requests are placed in
//! the order their shard queue hands them out:
//!
//! * [`DispatchPolicy::NaiveFifo`] — the `netpu-serve` baseline: the
//!   earliest-free board, residency ignored at choice time (hits still
//!   happen by accident and are charged honestly).
//! * [`DispatchPolicy::SwapAware`] — the board minimizing estimated
//!   completion *including* the swap premium, so an affinity board is
//!   preferred whenever waiting for it beats re-streaming weights
//!   elsewhere.
//!
//! All timing is virtual-µs through [`DmaArbiter`], so identical
//! request sequences produce identical schedules on any host.

use crate::cache::AdmittedModel;
use netpu_serve::{DmaArbiter, Grant};
use serde::Serialize;

/// How the dispatcher picks a board for each request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub enum DispatchPolicy {
    /// The earliest-free board.
    NaiveFifo,
    /// Residency-affine placement: the board whose estimated
    /// completion, swap premium included, is earliest.
    #[default]
    SwapAware,
}

impl DispatchPolicy {
    /// Stable lower-case name for experiment rows.
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::NaiveFifo => "naive_fifo",
            DispatchPolicy::SwapAware => "swap_aware",
        }
    }
}

/// One placement decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    /// The arbiter's schedule for the request.
    pub grant: Grant,
    /// The chosen board already held the model's weights.
    pub resident_hit: bool,
    /// The placement displaced another model's residency.
    pub swapped: bool,
}

/// A shard's boards: the DMA arbiter plus per-board weight residency.
#[derive(Clone, Debug)]
pub struct BoardPool {
    arbiter: DmaArbiter,
    resident: Vec<Option<u64>>,
    last_touch_us: Vec<f64>,
    placements: u64,
    swaps: u64,
    resident_hits: u64,
}

impl BoardPool {
    /// An idle pool of `boards` boards with no weights resident.
    pub fn new(boards: usize) -> BoardPool {
        BoardPool {
            arbiter: DmaArbiter::new(boards),
            resident: vec![None; boards],
            last_touch_us: vec![0.0; boards],
            placements: 0,
            swaps: 0,
            resident_hits: 0,
        }
    }

    /// Number of boards in the pool.
    pub fn boards(&self) -> usize {
        self.resident.len()
    }

    /// The underlying virtual-time arbiter.
    pub fn arbiter(&self) -> &DmaArbiter {
        &self.arbiter
    }

    /// Total placements so far.
    pub fn placements(&self) -> u64 {
        self.placements
    }

    /// Placements that displaced another model's residency.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Placements that reused resident weights.
    pub fn resident_hits(&self) -> u64 {
        self.resident_hits
    }

    /// Model currently resident on `board`.
    pub fn resident_on(&self, board: usize) -> Option<u64> {
        self.resident.get(board).copied().flatten()
    }

    /// Places `model` on the board `policy` chooses, committing the
    /// grant and updating residency.
    pub fn place(
        &mut self,
        policy: DispatchPolicy,
        model: &AdmittedModel,
        arrival_us: f64,
    ) -> Placement {
        let board = match policy {
            DispatchPolicy::NaiveFifo => self.earliest_free_board(),
            DispatchPolicy::SwapAware => self.swap_aware_board(model, arrival_us),
        };
        let resident_hit = self.resident[board] == Some(model.id);
        let (transfer_us, latency_us) = model.service_cost(resident_hit);
        let grant = self
            .arbiter
            .grant_on(board, arrival_us, transfer_us, latency_us);
        let swapped = !resident_hit && self.resident[board].is_some();
        self.resident[board] = Some(model.id);
        self.last_touch_us[board] = grant.complete_us;
        self.placements += 1;
        if swapped {
            self.swaps += 1;
        }
        if resident_hit {
            self.resident_hits += 1;
        }
        Placement {
            grant,
            resident_hit,
            swapped,
        }
    }

    fn earliest_free_board(&self) -> usize {
        let mut best = 0usize;
        for b in 1..self.boards() {
            if self.arbiter.board_free_us(b) < self.arbiter.board_free_us(best) {
                best = b;
            }
        }
        best
    }

    /// The board minimizing estimated completion including the swap
    /// premium. Ties (e.g. several idle boards) prefer a residency hit,
    /// then the board whose residency went stale longest ago (cheapest
    /// to preempt), then the lowest index.
    fn swap_aware_board(&self, model: &AdmittedModel, arrival_us: f64) -> usize {
        let mut best = 0usize;
        let mut best_key = self.board_key(0, model, arrival_us);
        for b in 1..self.boards() {
            let key = self.board_key(b, model, arrival_us);
            if key.0 < best_key.0 - 1e-9
                || ((key.0 - best_key.0).abs() <= 1e-9 && (key.1, key.2) < (best_key.1, best_key.2))
            {
                best = b;
                best_key = key;
            }
        }
        best
    }

    /// `(complete_us, !resident_hit, last_touch_us)` — lower is better
    /// on every component.
    fn board_key(&self, board: usize, model: &AdmittedModel, arrival_us: f64) -> (f64, bool, f64) {
        let hit = self.resident[board] == Some(model.id);
        let complete = self.completion_on(board, model, arrival_us, hit);
        (complete, !hit, self.last_touch_us[board])
    }

    fn completion_on(
        &self,
        board: usize,
        model: &AdmittedModel,
        arrival_us: f64,
        resident_hit: bool,
    ) -> f64 {
        let (transfer_us, latency_us) = model.service_cost(resident_hit);
        let start = arrival_us
            .max(self.arbiter.dma_free_us())
            .max(self.arbiter.board_free_us(board));
        start + latency_us.max(transfer_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CompiledModelCache;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;
    use netpu_runtime::Driver;
    use std::sync::Arc;

    fn admitted(id: u64, zoo: ZooModel) -> Arc<AdmittedModel> {
        let model = zoo.build_untrained(id + 100, BnMode::Folded).unwrap();
        CompiledModelCache::new(Driver::builder().build(), 256 << 20)
            .get_or_admit(id, &model)
            .unwrap()
    }

    #[test]
    fn swap_aware_prefers_the_resident_board() {
        let a = admitted(1, ZooModel::SfcW1A1);
        let mut pool = BoardPool::new(4);
        let first = pool.place(DispatchPolicy::SwapAware, &a, 0.0);
        assert!(!first.resident_hit);
        // The board is busy, but waiting for it still beats paying the
        // weight stream again on an idle board for back-to-back work.
        let second = pool.place(DispatchPolicy::SwapAware, &a, first.grant.complete_us);
        assert_eq!(second.grant.board, first.grant.board);
        assert!(second.resident_hit);
        assert!(!second.swapped);
        assert_eq!(pool.resident_hits(), 1);
    }

    #[test]
    fn naive_fifo_spreads_and_swaps() {
        let a = admitted(1, ZooModel::SfcW1A1);
        let b = admitted(2, ZooModel::SfcW2A2);
        let mut pool = BoardPool::new(1);
        assert!(!pool.place(DispatchPolicy::NaiveFifo, &a, 0.0).swapped);
        let p = pool.place(DispatchPolicy::NaiveFifo, &b, 0.0);
        assert!(p.swapped, "placing b over a's residency is a swap");
        assert_eq!(pool.swaps(), 1);
        assert_eq!(pool.resident_on(0), Some(2));
    }

    #[test]
    fn residency_hit_finishes_sooner_than_a_cold_board() {
        let a = admitted(1, ZooModel::SfcW1A1);
        let mut hot = BoardPool::new(1);
        hot.place(DispatchPolicy::SwapAware, &a, 0.0);
        let t0 = hot.arbiter().makespan_us();
        let hit = hot.place(DispatchPolicy::SwapAware, &a, t0);
        let mut cold = BoardPool::new(1);
        let miss = cold.place(DispatchPolicy::SwapAware, &a, t0);
        assert!(
            hit.grant.complete_us < miss.grant.complete_us,
            "resident {} vs cold {}",
            hit.grant.complete_us,
            miss.grant.complete_us
        );
    }
}
