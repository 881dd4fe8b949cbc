//! Static timing certification (tier four): a closed-form, cycle-exact
//! cost model of the accelerator derived from a decoded stream and the
//! instance configuration alone — no simulation.
//!
//! At bandwidth 1 (the canonical `run_inference_fast` setup) the stream
//! source holds every word from cycle 0 and the §III.B interleave
//! guarantees the top-level FSM never stalls, so the per-inference
//! cycle count is a *deterministic function* of the decoded layer
//! settings, the packing mode, and the instance geometry. This module
//! reconstructs that function phase by phase, as the same
//! [`CycleBreakdown`] both simulator engines fill edge by edge. The
//! `certify-timing` differential gate (DESIGN.md §4.9) compares every
//! layer × phase cell with zero tolerance: against the fast engine on
//! every pair, and against the tick engine on the zoo pairs.
//!
//! On top of the cycle certificate the analysis derives steady-state
//! batch throughput (pre-packaged bursts pay one inter-loadable reset),
//! the §V cold/resident reconfiguration latencies under a DMA channel
//! model, and the NPC027–NPC031 diagnostics: the exact cycle
//! certificate (Info), per-layer pipeline-bottleneck attribution
//! (Info), folding slack (Info: a cheaper folding provably meets the
//! same latency), deadline infeasibility (Error, when the caller
//! declares a request deadline), and a DMA-bound vs compute-bound
//! classification (Info).

use crate::diag::{Report, RuleId, Severity};
use netpu_arith::cast;
use netpu_compiler::stream::{neuron_weight_words_mode, param_words};
use netpu_compiler::{Decoded, LayerSetting, LayerType, PackingMode, StreamLayout};
use netpu_core::lpu::{
    dispatch_groups, init_cycles_per_neuron, input_word_cycles, write_out_cycles, PIPELINE_DEPTH,
};
use netpu_core::netpu::RESET_CYCLES;
use netpu_core::resources::netpu_utilization;
use netpu_core::{CycleBreakdown, HwConfig, LayerCycles, LayerPhase, StreamPhase};

/// The DMA / Processing System transfer path: a per-transfer setup cost
/// plus a bandwidth-bound streaming time. The paper's *measured*
/// latencies (Table VI) exceed the simulated ones (Table V) by a
/// near-constant ≈6 µs — the DMA descriptor setup and Zynq UltraScale+
/// PS control overhead per inference; the accelerator's own pipeline
/// time is the limiting factor whenever DMA bandwidth ≥ one 64-bit word
/// per cycle. The runtime driver prices its measured latencies with
/// this model (`netpu_runtime::DmaModel` re-exports it), and the §V
/// cold/resident figures of a [`StreamTiming`] use it too, so the two
/// agree bit-for-bit whenever the cycle prediction is exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DmaModel {
    /// Per-transfer setup + PS control overhead in microseconds
    /// (descriptor writes, cache maintenance, interrupt handling).
    pub setup_us: f64,
    /// Sustained bandwidth in 64-bit words per accelerator clock cycle.
    pub words_per_cycle: f64,
}

impl Default for DmaModel {
    fn default() -> DmaModel {
        DmaModel::zynq_uls()
    }
}

impl DmaModel {
    /// The Zynq UltraScale+ PS/DMA path of the Ultra96-V2, calibrated to
    /// the Table VI − Table V gap (≈5.9 µs per inference).
    pub fn zynq_uls() -> DmaModel {
        DmaModel {
            setup_us: 5.9,
            words_per_cycle: 1.0,
        }
    }

    /// An ideal channel (no setup, unlimited bandwidth): measured equals
    /// simulated.
    pub fn ideal() -> DmaModel {
        DmaModel {
            setup_us: 0.0,
            words_per_cycle: f64::INFINITY,
        }
    }

    /// Time the channel itself is occupied by one transfer of
    /// `stream_words` words: the per-transfer setup plus the
    /// bandwidth-bound streaming time. This is the *shared-resource*
    /// cost a multi-board host pays per inference — while one board's
    /// loadable streams, no other board can be fed.
    pub fn occupancy_us(&self, stream_words: usize, clock_mhz: f64) -> f64 {
        self.setup_us + self.streaming_us(stream_words, clock_mhz)
    }

    /// Wall-clock latency of one inference given the accelerator's
    /// simulated latency and the stream length: setup plus the larger
    /// of the pipeline time and the transfer time. The accelerator
    /// consumes at most one word per cycle, so with
    /// `words_per_cycle ≥ 1` the pipeline time dominates; a slower
    /// channel stretches the transfer instead.
    pub fn measured_latency_us(
        &self,
        sim_latency_us: f64,
        stream_words: usize,
        clock_mhz: f64,
    ) -> f64 {
        self.setup_us + sim_latency_us.max(self.streaming_us(stream_words, clock_mhz))
    }

    fn streaming_us(&self, stream_words: usize, clock_mhz: f64) -> f64 {
        if self.words_per_cycle.is_finite() {
            cast::f64_from_usize(stream_words) / self.words_per_cycle / clock_mhz
        } else {
            0.0
        }
    }
}

/// Caller-declared context for the diagnostic half of the analysis: the
/// DMA channel the stream would arrive over and an optional end-to-end
/// latency deadline (NPC030 fires when the deadline is statically
/// infeasible).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimingSpec {
    /// DMA channel model for the cold/resident transfer figures.
    /// Defaults to [`DmaModel::zynq_uls`].
    pub dma: DmaModel,
    /// Declared request deadline on the cold end-to-end latency, µs.
    pub deadline_us: Option<f64>,
}

/// The full static timing certificate of one loadable on one instance:
/// the exact per-inference cycle breakdown — the same
/// [`CycleBreakdown`] the simulator fills, cell for cell — plus the
/// derived throughput and §V transfer-latency figures. Keeps the layer
/// settings it was derived from so the NPC029 folding-slack search (and
/// the DSE pricer) can re-time alternative foldings without the
/// original stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamTiming {
    /// The exact per-layer, per-phase cycles of one inference.
    pub breakdown: CycleBreakdown,
    /// Total stream words of the loadable.
    pub stream_words: usize,
    /// §V resident prefix: header + settings + input-section words (the
    /// part re-streamed when the weights stay resident on the board).
    pub resident_words: usize,
    /// The decoded layer settings the certificate was derived from.
    pub settings: Vec<LayerSetting>,
    /// The weight packing mode the certificate was derived under.
    pub packing: PackingMode,
}

impl StreamTiming {
    /// The exact per-inference cycle count — equal, by the
    /// `certify-timing` gate, to what `run_inference_fast` (and the
    /// tick path it mirrors) reports for this stream.
    pub fn total_cycles(&self) -> u64 {
        self.breakdown.total()
    }

    /// Steady-state cycles per inference inside a pre-packaged burst:
    /// one full inference plus the inter-loadable reset.
    pub fn steady_state_cycles(&self) -> u64 {
        self.total_cycles() + RESET_CYCLES
    }

    /// Exact per-layer, per-phase cycles of a pre-packaged burst of
    /// `inferences` back-to-back loadables of this shape: every
    /// inference's layers in turn, each stream cell once per inference,
    /// and one more reset between consecutive loadables.
    pub fn burst_breakdown(&self, inferences: u64) -> CycleBreakdown {
        let mut burst = CycleBreakdown::default();
        for _ in 0..inferences {
            burst.layers.extend_from_slice(&self.breakdown.layers);
        }
        for phase in StreamPhase::all() {
            burst[phase] = inferences * self.breakdown[phase];
        }
        burst[StreamPhase::RESET] += inferences.saturating_sub(1) * RESET_CYCLES;
        burst
    }

    /// Exact cycle count of a pre-packaged burst of `inferences`
    /// back-to-back loadables of this shape: the total of its
    /// [`burst_breakdown`](Self::burst_breakdown).
    pub fn burst_cycles(&self, inferences: u64) -> u64 {
        self.burst_breakdown(inferences).total()
    }

    /// On-chip pipeline latency in microseconds at `clock_mhz`.
    pub fn latency_us(&self, clock_mhz: f64) -> f64 {
        cast::f64_from_u64(self.total_cycles()) / clock_mhz
    }

    /// Sustained steady-state throughput of an on-chip burst, frames
    /// per second at `clock_mhz` (DMA setup amortizes away over a long
    /// burst; bandwidth 1 word/cycle is already the simulated rate).
    pub fn steady_state_fps(&self, clock_mhz: f64) -> f64 {
        clock_mhz * 1e6 / cast::f64_from_u64(self.steady_state_cycles())
    }

    /// DMA channel occupancy of the full stream.
    pub fn transfer_us(&self, dma: &DmaModel, clock_mhz: f64) -> f64 {
        dma.occupancy_us(self.stream_words, clock_mhz)
    }

    /// DMA channel occupancy of the resident prefix alone.
    pub fn resident_transfer_us(&self, dma: &DmaModel, clock_mhz: f64) -> f64 {
        dma.occupancy_us(self.resident_words, clock_mhz)
    }

    /// DMA channel occupancy the weight and parameter sections add to
    /// the resident prefix: what a resident model saves per request.
    pub fn weight_stream_us(&self, dma: &DmaModel, clock_mhz: f64) -> f64 {
        (self.transfer_us(dma, clock_mhz) - self.resident_transfer_us(dma, clock_mhz)).max(0.0)
    }

    /// §V cold reconfiguration latency: DMA setup plus the larger of
    /// the pipeline time and the full-stream transfer time.
    pub fn cold_latency_us(&self, dma: &DmaModel, clock_mhz: f64) -> f64 {
        dma.measured_latency_us(self.latency_us(clock_mhz), self.stream_words, clock_mhz)
    }

    /// §V resident streaming latency: the weights stay on the board, so
    /// only the resident prefix (header + settings + input) re-streams.
    /// The fleet cache's swap economics read this.
    pub fn resident_latency_us(&self, dma: &DmaModel, clock_mhz: f64) -> f64 {
        let weight_stream = self.weight_stream_us(dma, clock_mhz);
        (self.cold_latency_us(dma, clock_mhz) - weight_stream)
            .max(self.resident_transfer_us(dma, clock_mhz))
    }

    /// `true` when the off-chip streaming time exceeds the on-chip
    /// pipeline time — the NPC031 DMA-bound classification.
    pub fn dma_bound(&self, dma: &DmaModel, clock_mhz: f64) -> bool {
        dma.occupancy_us(self.stream_words, clock_mhz) - dma.setup_us > self.latency_us(clock_mhz)
    }
}

/// Derives the timing certificate of a decoded loadable on `cfg`. The
/// result is exact for any stream the structural rules admit (the
/// decoder's reconstruction is section-faithful, and admissible streams
/// run stall-free at bandwidth 1).
pub fn analyze(decoded: &Decoded, cfg: &HwConfig) -> StreamTiming {
    analyze_settings(&decoded.settings, decoded.packing, cfg)
}

/// [`analyze`] from the layer settings and packing mode alone — the
/// per-inference cycle count depends on nothing else in the stream, so
/// design-space search can price a candidate folding without
/// recompiling the model.
pub fn analyze_settings(
    settings: &[LayerSetting],
    packing: PackingMode,
    cfg: &HwConfig,
) -> StreamTiming {
    let n_layers = settings.len();
    let layout = StreamLayout::of(settings, packing);
    let mut breakdown = CycleBreakdown::default();
    breakdown.layers = settings
        .iter()
        .map(|s| layer_cycles(s, packing, cfg))
        .collect();
    breakdown[StreamPhase::HEADER] = 1;
    breakdown[StreamPhase::SETTINGS] = cast::u64_from_usize(n_layers);
    breakdown[StreamPhase::INPUT_INGEST] = cast::u64_from_usize(layout.input.len());
    breakdown[StreamPhase::RESET] = cast::u64_from_usize(n_layers.saturating_sub(1)) * RESET_CYCLES;
    StreamTiming {
        breakdown,
        stream_words: layout.words(),
        resident_words: layout.input.end,
        settings: settings.to_vec(),
        packing,
    }
}

/// Closed-form cycle cost of one layer on `cfg` (parameter section plus
/// processing section), phase by phase. Stalls stay zero: admissible
/// streams run stall-free at bandwidth 1.
fn layer_cycles(s: &LayerSetting, packing: PackingMode, cfg: &HwConfig) -> LayerCycles {
    let mut t = LayerCycles::default();
    // An empty parameter section still costs its entry edge.
    t[LayerPhase::PARAMS] = cast::u64_from_usize(param_words(s).max(1));
    t[LayerPhase::READY] = 1;
    let neurons = cast::usize_from_u32(s.neurons);
    if s.layer_type == LayerType::Input {
        t[LayerPhase::INPUT] = cast::u64_from_usize(neurons.div_ceil(8)) * input_word_cycles(s);
        return t;
    }
    let chunks = neuron_weight_words_mode(s, packing);
    // Per-neuron dispatch subcycles beyond the ingest edge; double
    // buffering hides each word's first group behind its ingest cycle.
    let hidden = usize::from(cfg.double_buffered_weights);
    let dispatch_per_neuron: usize = (0..chunks)
        .map(|chunk| dispatch_groups(s, packing, cfg.mul_lanes, chunk) - hidden)
        .sum();
    t[LayerPhase::WEIGHT_INGEST] = cast::u64_from_usize(neurons * chunks);
    t[LayerPhase::WEIGHT_DISPATCH] = cast::u64_from_usize(neurons * dispatch_per_neuron);
    // Batch phases: neurons advance through the TNPUs `tnpus_per_lpu`
    // at a time; each batch pays initialization, drain, and write-out.
    let icpn = init_cycles_per_neuron(s);
    let mut start = 0usize;
    while start < neurons {
        let batch = (start + cfg.tnpus_per_lpu).min(neurons) - start;
        t[LayerPhase::INIT] += (icpn * cast::u64_from_usize(batch)).max(1);
        t[LayerPhase::DRAIN] += PIPELINE_DEPTH;
        t[LayerPhase::WRITE_OUT] += write_out_cycles(s, batch, cfg.softmax_output);
        start += batch;
    }
    t
}

/// Emits the NPC027–NPC031 diagnostics for a derived timing
/// certificate. Timing-family findings never gate structural admission
/// ([`Report::has_structural_errors`] excludes them); NPC030 is the one
/// error-severity member and fires only under a declared deadline.
pub fn report_timing(t: &StreamTiming, cfg: &HwConfig, spec: &TimingSpec, report: &mut Report) {
    let clock = cfg.clock_mhz;
    let total = t.total_cycles();
    let cold = t.cold_latency_us(&spec.dma, clock);
    let resident = t.resident_latency_us(&spec.dma, clock);
    // NPC027 — the exact cycle certificate.
    report.push(
        RuleId::Npc027,
        Severity::Info,
        None,
        None,
        format!(
            "exact cycle certificate: {total} cycles/inference ({:.2} us at {clock} MHz), \
             steady-state {} cycles ({:.0} fps); cold {cold:.2} us / resident {resident:.2} us",
            t.latency_us(clock),
            t.steady_state_cycles(),
            t.steady_state_fps(clock),
        ),
    );
    // NPC028 — per-layer bottleneck attribution.
    for (k, layer) in t.breakdown.layers.iter().enumerate() {
        let (phase, cycles) = bottleneck(layer);
        report.push(
            RuleId::Npc028,
            Severity::Info,
            None,
            Some(k),
            format!(
                "pipeline bottleneck: {} ({cycles} of {} layer cycles)",
                phase.name(),
                layer.total(),
            ),
        );
    }
    // NPC029 — folding slack: a strictly cheaper folding of the same
    // instance family that provably meets the identical cycle count.
    if let Some((folded, saved_luts, saved_dsps)) = folding_slack(t, cfg) {
        report.push(
            RuleId::Npc029,
            Severity::Info,
            None,
            None,
            format!(
                "folding slack: a {}x{}-TNPU / {}-lane folding meets the same {total}-cycle \
                 latency (saves {saved_luts} LUTs, {saved_dsps} DSPs)",
                folded.lpus, folded.tnpus_per_lpu, folded.mul_lanes,
            ),
        );
    }
    // NPC030 — deadline infeasibility (the only error in the family).
    if let Some(deadline) = spec.deadline_us {
        if cold > deadline {
            report.push(
                RuleId::Npc030,
                Severity::Error,
                None,
                None,
                format!(
                    "deadline infeasible: predicted end-to-end latency {cold:.2} us exceeds \
                     the declared {deadline:.2} us deadline on every admissible schedule"
                ),
            );
        }
    }
    // NPC031 — DMA-bound vs compute-bound classification.
    let streaming = spec.dma.occupancy_us(t.stream_words, clock) - spec.dma.setup_us;
    let pipeline = t.latency_us(clock);
    let class = if t.dma_bound(&spec.dma, clock) {
        "DMA-bound"
    } else {
        "compute-bound"
    };
    report.push(
        RuleId::Npc031,
        Severity::Info,
        None,
        None,
        format!(
            "{class}: stream transfer {streaming:.2} us vs pipeline {pipeline:.2} us \
             ({} of {total} cycles consume a stream word)",
            t.stream_words,
        ),
    );
}

/// The phase holding the largest share of a layer's cycles — the NPC028
/// bottleneck attribution. Ties break toward the earlier pipeline
/// stage, deterministically.
fn bottleneck(layer: &LayerCycles) -> (LayerPhase, u64) {
    let mut best = (LayerPhase::PARAMS, layer[LayerPhase::PARAMS]);
    for phase in LayerPhase::all() {
        if layer[phase] > best.1 {
            best = (phase, layer[phase]);
        }
    }
    best
}

/// Searches the `(tnpus_per_lpu, mul_lanes)` sub-foldings of `cfg` for
/// the cheapest one whose predicted cycle count equals the baseline's.
/// Returns the folded config and its LUT/DSP savings, or `None` when
/// the current folding is already tight for this stream. "Provably
/// meets the same latency" is literal: both sides are the certified
/// closed form, re-priced from the certificate's settings snapshot.
pub fn folding_slack(t: &StreamTiming, cfg: &HwConfig) -> Option<(HwConfig, u64, u64)> {
    let base_total = t.total_cycles();
    let base_util = netpu_utilization(cfg);
    let mut best: Option<(HwConfig, u64, u64)> = None;
    for tnpus in 1..=cfg.tnpus_per_lpu {
        for lanes in 1..=cfg.mul_lanes {
            if tnpus == cfg.tnpus_per_lpu && lanes == cfg.mul_lanes {
                continue;
            }
            let cand = HwConfig {
                tnpus_per_lpu: tnpus,
                mul_lanes: lanes,
                ..*cfg
            };
            if cand.validate().is_err() {
                continue;
            }
            if analyze_settings(&t.settings, t.packing, &cand).total_cycles() != base_total {
                continue;
            }
            let util = netpu_utilization(&cand);
            if util.luts > base_util.luts || util.dsps > base_util.dsps {
                continue;
            }
            let saved_luts = base_util.luts - util.luts;
            let saved_dsps = base_util.dsps - util.dsps;
            if saved_luts == 0 && saved_dsps == 0 {
                continue;
            }
            let better = match &best {
                None => true,
                Some((_, l, d)) => saved_luts > *l || (saved_luts == *l && saved_dsps > *d),
            };
            if better {
                best = Some((cand, saved_luts, saved_dsps));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_compiler::{compile, compile_packed, decode};
    use netpu_core::run_inference_fast;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::{random_model, ZooModel};

    fn configs() -> Vec<HwConfig> {
        let paper = HwConfig::paper_instance();
        vec![
            paper,
            HwConfig {
                tnpus_per_lpu: 3,
                mul_lanes: 2,
                ..paper
            },
            HwConfig {
                double_buffered_weights: true,
                softmax_output: true,
                ..paper
            },
        ]
    }

    #[test]
    fn predicted_breakdown_matches_simulator_on_zoo() {
        for cfg in configs() {
            for zoo in ZooModel::ALL {
                for mode in [BnMode::Folded, BnMode::Hardware] {
                    let model = zoo.build_untrained(7, mode).unwrap();
                    let pixels = vec![0u8; model.input.len];
                    let loadable = compile(&model, &pixels).unwrap();
                    let t = analyze(&decode(&loadable.words).unwrap(), &cfg);
                    let run = run_inference_fast(&cfg, loadable.words.clone()).unwrap();
                    assert_eq!(t.breakdown, run.breakdown, "{zoo:?}/{mode:?} on {cfg:?}");
                    assert_eq!(t.stream_words, loadable.words.len());
                    let resident = loadable.layout.header.len()
                        + loadable.layout.settings.len()
                        + loadable.layout.input.len();
                    assert_eq!(t.resident_words, resident);
                }
            }
        }
    }

    #[test]
    fn predicted_cycles_match_simulator_on_random_models() {
        let dense = HwConfig {
            dense_weight_packing: true,
            ..HwConfig::paper_instance()
        };
        for (packing, cfg, seeds) in [
            (PackingMode::Lanes8, HwConfig::paper_instance(), 40u64),
            (PackingMode::Dense, dense, 10),
        ] {
            for seed in 0..seeds {
                let model = random_model(seed);
                let pixels = vec![0u8; model.input.len];
                let loadable = compile_packed(&model, &pixels, packing).unwrap();
                let predicted = crate::predict_cycles(&loadable.words, &cfg).unwrap();
                let run = run_inference_fast(&cfg, loadable.words).unwrap();
                assert_eq!(
                    predicted, run.cycles,
                    "{packing:?} random model seed {seed}"
                );
            }
        }
    }

    #[test]
    fn folding_slack_candidates_are_simulation_exact() {
        // When the search reports slack, the claim must hold in the
        // simulator too, not just in the model's own arithmetic.
        let model = ZooModel::TfcW1A1
            .build_untrained(5, BnMode::Folded)
            .unwrap();
        let pixels = vec![0u8; model.input.len];
        let loadable = compile(&model, &pixels).unwrap();
        let cfg = HwConfig::paper_instance();
        let t = analyze(&decode(&loadable.words).unwrap(), &cfg);
        if let Some((cand, _, _)) = folding_slack(&t, &cfg) {
            let base = run_inference_fast(&cfg, loadable.words.clone()).unwrap();
            let folded = run_inference_fast(&cand, loadable.words).unwrap();
            assert_eq!(base.cycles, folded.cycles);
        }
    }

    #[test]
    fn full_bandwidth_adds_only_setup() {
        let dma = DmaModel::zynq_uls();
        let m = dma.measured_latency_us(172.165, 10_000, 100.0);
        assert!((m - (172.165 + 5.9)).abs() < 1e-9);
    }

    #[test]
    fn ideal_channel_is_transparent() {
        let dma = DmaModel::ideal();
        assert_eq!(dma.measured_latency_us(42.0, 1_000_000, 100.0), 42.0);
    }

    #[test]
    fn slow_channel_becomes_transfer_bound() {
        let dma = DmaModel {
            setup_us: 1.0,
            words_per_cycle: 0.25,
        };
        // 10,000 words at 0.25 words/cycle and 100 MHz → 400 µs transfer,
        // dominating a 100 µs pipeline.
        let m = dma.measured_latency_us(100.0, 10_000, 100.0);
        assert!((m - 401.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_counts_setup_and_streaming() {
        let dma = DmaModel::zynq_uls();
        // 1,000 words at 1 word/cycle and 100 MHz → 10 µs + 5.9 µs setup.
        assert!((dma.occupancy_us(1_000, 100.0) - 15.9).abs() < 1e-9);
        // An ideal channel is occupied only conceptually: zero time.
        assert_eq!(DmaModel::ideal().occupancy_us(1_000_000, 100.0), 0.0);
    }

    #[test]
    fn table6_gap_reproduced() {
        // Table V simulated vs Table VI measured pairs (µs).
        let pairs = [
            (38.745, 44.64),
            (133.785, 139.75),
            (974.745, 980.63),
            (172.165, 178.18),
            (882.085, 888.0),
            (7408.225, 7414.13),
        ];
        let dma = DmaModel::zynq_uls();
        for (sim, measured) in pairs {
            let m = dma.measured_latency_us(sim, 0, 100.0);
            assert!(
                (m - measured).abs() < 0.3,
                "sim {sim}: model {m} vs measured {measured}"
            );
        }
    }
}
