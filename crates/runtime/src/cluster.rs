//! Multi-FPGA deployment (§I.B application scenario: "Multiple FPGAs
//! pipelined NN inference acceleration").
//!
//! A host fans inference requests out to several NetPU-M boards. Each
//! board computes independently, but the host's DMA engine is shared:
//! only one loadable can stream at a time. Steady-state throughput is
//! therefore the *minimum* of the compute bound (`boards / latency`)
//! and the transfer bound (`1 / stream_time`) — adding boards stops
//! helping once the shared stream link saturates, which for NetPU-M
//! happens quickly because the architecture re-streams weights every
//! inference (the §V loading bottleneck at system scale).

use crate::driver::{Driver, DriverError};
use netpu_arith::cast;
use netpu_compiler::compile;
use netpu_nn::QuantMlp;
use serde::{Deserialize, Serialize};

/// Throughput analysis of a multi-board deployment.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterThroughput {
    /// Number of boards.
    pub boards: usize,
    /// Single-inference latency on one board (µs, incl. DMA setup).
    pub latency_us: f64,
    /// Time the shared host DMA is occupied per inference (µs).
    pub transfer_us: f64,
    /// Compute-bound throughput (frames/s).
    pub compute_bound_fps: f64,
    /// Transfer-bound throughput (frames/s).
    pub transfer_bound_fps: f64,
    /// Achievable steady-state throughput (frames/s).
    pub fps: f64,
}

impl ClusterThroughput {
    /// Builds the analysis from raw timings.
    ///
    /// Rejects non-positive latencies with
    /// [`DriverError::Degenerate`] instead of reporting an infinite
    /// compute bound — a zero-latency "run" is a modelling bug
    /// upstream, not free throughput. A zero transfer time is valid
    /// (ideal channel): the transfer bound is infinite and the cluster
    /// is compute-bound at every board count.
    pub fn from_parts(
        boards: usize,
        latency_us: f64,
        transfer_us: f64,
    ) -> Result<ClusterThroughput, DriverError> {
        if !latency_us.is_finite()
            || latency_us <= 0.0
            || !transfer_us.is_finite()
            || transfer_us < 0.0
        {
            return Err(DriverError::Degenerate { latency_us });
        }
        let compute_bound = cast::f64_from_usize(boards) * 1e6 / latency_us;
        let transfer_bound = if transfer_us > 0.0 {
            1e6 / transfer_us
        } else {
            f64::INFINITY
        };
        Ok(ClusterThroughput {
            boards,
            latency_us,
            transfer_us,
            compute_bound_fps: compute_bound,
            transfer_bound_fps: transfer_bound,
            fps: compute_bound.min(transfer_bound),
        })
    }
}

/// A cluster of identical NetPU-M boards behind one host DMA engine.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Per-board driver (accelerator + DMA + power models).
    pub driver: Driver,
    /// Board count.
    pub boards: usize,
}

impl Cluster {
    /// Builds a cluster of `boards` boards with the paper's setup each.
    pub fn new(boards: usize, driver: Driver) -> Cluster {
        assert!(boards > 0, "at least one board");
        Cluster { driver, boards }
    }

    /// Steady-state throughput for one model served by all boards.
    pub fn throughput(&self, model: &QuantMlp) -> Result<ClusterThroughput, DriverError> {
        let pixels = vec![0u8; model.input.len];
        let loadable = compile(model, &pixels).map_err(DriverError::Compile)?;
        let run = self.driver.run_loadable(&loadable)?;
        // DMA occupancy per inference: setup + the stream itself.
        let transfer_us = self
            .driver
            .dma
            .occupancy_us(loadable.len(), self.driver.hw.clock_mhz);
        ClusterThroughput::from_parts(self.boards, run.measured_latency_us, transfer_us)
    }

    /// Design-space sweep: throughput of every board count
    /// `1..=max_boards` for one model, evaluated in parallel (each
    /// entry runs its own accelerator simulation, so the sweep fans out
    /// across worker threads with rayon).
    pub fn scaling_sweep(
        driver: &Driver,
        model: &QuantMlp,
        max_boards: usize,
    ) -> Result<Vec<ClusterThroughput>, DriverError> {
        use rayon::prelude::*;
        (1..max_boards + 1)
            .into_par_iter()
            .map(|boards| Cluster::new(boards, driver.clone()).throughput(model))
            .collect()
    }

    /// Boards beyond this count no longer raise throughput (the shared
    /// DMA link is saturated).
    pub fn useful_boards(&self, model: &QuantMlp) -> Result<usize, DriverError> {
        let one = Cluster::new(1, self.driver.clone()).throughput(model)?;
        let boards = (one.transfer_bound_fps * one.latency_us / 1e6)
            .ceil()
            .max(1.0);
        Ok(cast::usize_sat(cast::f64_to_u64_sat(boards)))
    }

    /// Total cluster wall power.
    pub fn power_w(&self) -> f64 {
        let util = netpu_core::resources::netpu_utilization(&self.driver.hw);
        cast::f64_from_usize(self.boards)
            * self
                .driver
                .power
                .wall_power_w(&util, self.driver.hw.clock_mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;

    fn model() -> QuantMlp {
        ZooModel::SfcW1A1
            .build_untrained(1, BnMode::Folded)
            .unwrap()
    }

    #[test]
    fn one_board_is_latency_bound() {
        let c = Cluster::new(1, Driver::builder().build());
        let t = c.throughput(&model()).unwrap();
        assert_eq!(t.boards, 1);
        assert!((t.fps - 1e6 / t.latency_us).abs() < 1e-6);
        assert!(t.fps < t.transfer_bound_fps);
    }

    #[test]
    fn scaling_saturates_at_the_shared_dma() {
        let driver = Driver::builder().build();
        let mut last_fps = 0.0;
        let mut saturated = false;
        for boards in 1..=8 {
            let t = Cluster::new(boards, driver.clone())
                .throughput(&model())
                .unwrap();
            assert!(t.fps + 1e-9 >= last_fps, "throughput regressed");
            if (t.fps - t.transfer_bound_fps).abs() < 1e-9 {
                saturated = true;
            }
            last_fps = t.fps;
        }
        assert!(saturated, "8 boards never hit the DMA bound");
        // And the useful-board estimate reflects that.
        let useful = Cluster::new(1, driver).useful_boards(&model()).unwrap();
        assert!((2..=8).contains(&useful), "useful boards {useful}");
    }

    #[test]
    fn larger_models_are_more_transfer_bound() {
        // LFC streams ~8x the words of SFC: its DMA occupancy fraction
        // is higher, so fewer boards are useful.
        let driver = Driver::builder().build();
        let sfc = Cluster::new(1, driver.clone())
            .useful_boards(&model())
            .unwrap();
        let lfc_model = ZooModel::LfcW1A1
            .build_untrained(1, BnMode::Folded)
            .unwrap();
        let lfc = Cluster::new(1, driver).useful_boards(&lfc_model).unwrap();
        assert!(lfc <= sfc, "LFC useful boards {lfc} > SFC {sfc}");
    }

    #[test]
    fn scaling_sweep_matches_individual_throughputs() {
        let driver = Driver::builder().build();
        let sweep = Cluster::scaling_sweep(&driver, &model(), 6).unwrap();
        assert_eq!(sweep.len(), 6);
        for (i, t) in sweep.iter().enumerate() {
            let single = Cluster::new(i + 1, driver.clone())
                .throughput(&model())
                .unwrap();
            assert_eq!(*t, single);
        }
        // Throughput never regresses as boards are added.
        assert!(sweep.windows(2).all(|w| w[1].fps + 1e-9 >= w[0].fps));
    }

    #[test]
    fn degenerate_latencies_are_rejected() {
        for latency in [0.0, -1.0, f64::NAN] {
            match ClusterThroughput::from_parts(4, latency, 10.0) {
                Err(DriverError::Degenerate { latency_us }) => {
                    assert!(latency_us.is_nan() || latency_us == latency)
                }
                other => panic!("expected Degenerate, got {other:?}"),
            }
        }
        // Infinite / NaN transfer times are modelling bugs too.
        assert!(ClusterThroughput::from_parts(4, 10.0, f64::INFINITY).is_err());
        // A zero transfer time (ideal channel) is compute-bound.
        let t = ClusterThroughput::from_parts(4, 10.0, 0.0).unwrap();
        assert_eq!(t.fps, t.compute_bound_fps);
        assert_eq!(t.transfer_bound_fps, f64::INFINITY);
        // And the normal case agrees with the hand formula.
        let t = ClusterThroughput::from_parts(2, 50.0, 20.0).unwrap();
        assert!((t.fps - 40_000.0).abs() < 1e-9);
    }

    #[test]
    fn power_scales_linearly_with_boards() {
        let c1 = Cluster::new(1, Driver::builder().build());
        let c4 = Cluster::new(4, Driver::builder().build());
        assert!((c4.power_w() / c1.power_w() - 4.0).abs() < 1e-9);
    }
}
