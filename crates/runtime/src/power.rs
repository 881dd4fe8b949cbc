//! Wall-power model.
//!
//! Table VI reports wall-meter power (`P_wall`): the whole board, not
//! just the programmable logic. We model it as platform static power
//! plus activity-proportional dynamic power over the occupied resources
//! scaled by clock frequency:
//!
//! `P = static + f·(c_lut·LUTs + c_dsp·DSPs + c_bram·BRAM36)`
//!
//! Calibration anchors: NetPU-M on Ultra96-V2 at 100 MHz ≈ 6.9–7.05 W;
//! FINN `max` on a Zynq-7000 board at 200 MHz ≈ 21.2–22.6 W; FINN `fix`
//! ≈ 7.9–8.1 W. The 28 nm Zynq-7000 fabric burns several times more
//! energy per resource than the 16 nm UltraScale+, hence per-platform
//! coefficients.

use netpu_arith::cast;
use netpu_sim::fpga::Utilization;
use serde::{Deserialize, Serialize};

/// Per-platform power coefficients.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerParams {
    /// Board static power (PS, DRAM, regulators, fan) in watts.
    pub static_w: f64,
    /// Watts per LUT per MHz.
    pub lut_w_mhz: f64,
    /// Watts per DSP slice per MHz.
    pub dsp_w_mhz: f64,
    /// Watts per BRAM36 per MHz.
    pub bram_w_mhz: f64,
}

impl PowerParams {
    /// Ultra96-V2 (16 nm Zynq UltraScale+ ZU3EG) coefficients.
    pub fn ultra96() -> PowerParams {
        PowerParams {
            static_w: 4.9,
            lut_w_mhz: 0.25e-6,
            dsp_w_mhz: 1.5e-5,
            bram_w_mhz: 1.0e-5,
        }
    }

    /// Zynq-7000 ZC706 (28 nm) coefficients.
    pub fn zc706() -> PowerParams {
        PowerParams {
            static_w: 7.0,
            lut_w_mhz: 0.8e-6,
            dsp_w_mhz: 4.0e-5,
            bram_w_mhz: 2.0e-5,
        }
    }

    /// Wall power of a design occupying `util` at `clock_mhz`.
    pub fn wall_power_w(&self, util: &Utilization, clock_mhz: f64) -> f64 {
        self.static_w
            + clock_mhz
                * (self.lut_w_mhz * cast::f64_from_u64(util.luts)
                    + self.dsp_w_mhz * cast::f64_from_u64(util.dsps)
                    + self.bram_w_mhz * util.bram36)
    }

    /// Energy of one inference in microjoules.
    pub fn energy_uj(&self, util: &Utilization, clock_mhz: f64, latency_us: f64) -> f64 {
        self.wall_power_w(util, clock_mhz) * latency_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_core::resources::netpu_utilization;
    use netpu_core::HwConfig;
    use netpu_finn::{instance_utilization, FinnInstance};

    /// Table VI: NetPU-M draws ≈6.86–7.05 W on the Ultra96.
    #[test]
    fn netpu_power_matches_table6() {
        let util = netpu_utilization(&HwConfig::paper_instance());
        let p = PowerParams::ultra96().wall_power_w(&util, 100.0);
        assert!((6.5..=7.4).contains(&p), "NetPU power {p}");
    }

    /// Table VI: FINN max instances ≈21.2–22.6 W, fix ≈7.9–8.1 W.
    #[test]
    fn finn_power_matches_table6() {
        let zc = PowerParams::zc706();
        let max_p = zc.wall_power_w(&instance_utilization(&FinnInstance::sfc_max()), 200.0);
        assert!((18.0..=25.0).contains(&max_p), "SFC-max power {max_p}");
        let lfc_p = zc.wall_power_w(&instance_utilization(&FinnInstance::lfc_max()), 200.0);
        assert!((18.0..=25.0).contains(&lfc_p), "LFC-max power {lfc_p}");
        let fix_p = zc.wall_power_w(&instance_utilization(&FinnInstance::sfc_fix()), 200.0);
        assert!((7.0..=9.0).contains(&fix_p), "SFC-fix power {fix_p}");
    }

    /// The paper's power story: NetPU-M draws less than every FINN
    /// instance.
    #[test]
    fn netpu_draws_less_than_finn() {
        let netpu = PowerParams::ultra96()
            .wall_power_w(&netpu_utilization(&HwConfig::paper_instance()), 100.0);
        for inst in FinnInstance::table6() {
            let finn = PowerParams::zc706().wall_power_w(&instance_utilization(&inst), 200.0);
            assert!(netpu < finn, "{}: {netpu} !< {finn}", inst.name);
        }
    }

    #[test]
    fn energy_scales_with_latency() {
        let util = netpu_utilization(&HwConfig::paper_instance());
        let p = PowerParams::ultra96();
        let e1 = p.energy_uj(&util, 100.0, 100.0);
        let e2 = p.energy_uj(&util, 100.0, 200.0);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }
}
