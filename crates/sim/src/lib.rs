#![deny(missing_docs)]
//! Cycle-level hardware simulation kernel.
//!
//! The NetPU-M reproduction models the accelerator as synchronous state
//! machines stepped one clock cycle at a time. This crate provides the
//! substrate those machines are built from:
//!
//! * [`Fifo`] — a width×depth hardware FIFO with occupancy/stall
//!   statistics and a block-RAM mapping ([`fifo::bram36_for`]) used by the
//!   resource model.
//! * [`StreamSource`] / [`StreamSink`] — rate-limited 64-bit stream
//!   endpoints modelling the DMA-fed Network Input FIFO and the Network
//!   Output FIFO.
//! * [`engine`] — the [`Clocked`] component trait and the [`Simulator`]
//!   run harness with deadlock detection.
//! * [`Observer`] — the one observation hook: a bounded ring of
//!   component events for debugging datapath schedules and an unbounded
//!   log of datapath values backing the range-analysis soundness suite
//!   in `netpu-check`, each switched on when it is built.
//!
//! Nothing here is NetPU-specific; `netpu-finn` builds its baseline
//! pipeline on the same kernel.

pub mod engine;
pub mod fifo;
pub mod fpga;
pub mod observe;
pub mod stream;

pub use engine::{BulkClocked, Clocked, SimError, Simulator};
pub use fifo::{Fifo, FifoStats};
pub use observe::{Observer, ProbeSample, ProbeStage, TraceEvent};
pub use stream::{StreamSink, StreamSource};

/// A clock-cycle count.
pub type Cycle = u64;

/// Converts a cycle count at `clock_mhz` into microseconds, the unit the
/// paper's latency tables use.
pub fn cycles_to_us(cycles: Cycle, clock_mhz: f64) -> f64 {
    cycles as f64 / clock_mhz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_us_at_100mhz() {
        // 100 MHz → 100 cycles per microsecond (Table V's clock).
        assert_eq!(cycles_to_us(17_216, 100.0), 172.16);
        assert_eq!(cycles_to_us(0, 100.0), 0.0);
    }

    #[test]
    fn cycles_to_us_at_200mhz() {
        // FINN's Zynq7000 instances run at 200 MHz (Table VI).
        assert_eq!(cycles_to_us(488, 200.0), 2.44);
    }
}
