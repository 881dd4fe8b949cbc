//! Workspace automation (`cargo run -p xtask -- lint`,
//! `cargo run -p xtask -- replay <trace.bin>`,
//! `cargo run -p xtask -- certify [models]`,
//! `cargo run -p xtask -- certify-timing [models]`,
//! `cargo run -p xtask -- dse [--smoke] [--write]`, and
//! `cargo run -p xtask -- serve-report [--write]`).
//!
//! `replay` decodes a recorded binary trace, verifies its internal
//! consistency against the arbiter recurrence (`netpu_trace::verify`),
//! proves the decode → re-encode round trip is byte-identical, and
//! prints the replay summary — including a per-`RejectReason`-code
//! breakdown of every denied request the trace recorded and, where the
//! trace carries the driver's timing annotations, a cross-check that
//! the static cycle model predicted every recorded run exactly.
//!
//! `certify` is the translation-validation release gate (DESIGN.md
//! §4.8): it compiles the whole model zoo (both BN modes) plus a
//! deterministic sweep of random valid models (1000 by default),
//! certifies every emitted stream against its own source via
//! `netpu_check::compile_certified`, and re-validates each
//! [`netpu_check::Certificate`] from scratch. Any false inequivalence
//! or stale certificate fails the gate.
//!
//! `certify-timing` is the timing-soundness release gate (DESIGN.md
//! §4.9): it prices the same zoo + random-model corpus with the
//! closed-form cycle model (`netpu_check::timing`) against every
//! fuzzer sweep instance and compares every layer × phase cell of the
//! certified breakdown with zero tolerance: against the fast engine
//! (`netpu_core::run_inference_fast`) on all pairs, and against the
//! tick engine (`netpu_core::run_inference`) on the zoo pairs.
//!
//! `dse` is the offline design-space exploration: it enumerates
//! `HwConfig` × folding × packing × accumulator-width candidates,
//! prices each statically (timing + resources + minimal certified
//! widths), rejects unsound or over-budget points without ever
//! simulating them, and emits the Pareto frontier as a committed
//! reproducible artifact under `artifacts/dse/` (`--write` refreshes,
//! the default mode fails if the committed artifact is stale).
//!
//! `serve-report` renders the two virtual-time serving reports behind
//! the paper's §V system-scale loading claim — the `Server` board sweep
//! against `ClusterThroughput` and the acceptance-scale fleet replay
//! under naive FIFO and swap-aware dispatch — as committed TSVs under
//! `artifacts/serve/`, with the same staleness check and `--write` as
//! `dse`.
//!
//! `lint` enforces source-level gates that rustc and clippy cannot
//! express at the granularity the workspace wants:
//!
//! * **panic-free hot paths** — no `.unwrap()` / `.expect(` in the
//!   non-test code of `netpu-arith`, `netpu-core`, `netpu-sim`,
//!   `netpu-runtime`, `netpu-serve`, `netpu-fleet`, `netpu-check`,
//!   `netpu-compiler`, `netpu-trace`, `netpu-fuzz`, and `xtask`
//!   itself. These crates
//!   sit under the serving layer (the checker and compiler both run on
//!   the admission path, the trace sink runs inside the arbiter's
//!   critical section, and the arith kernels run inside every worker),
//!   where a panic poisons
//!   locks and wedges worker threads; fallible paths must return
//!   structured errors (or use the `let … else { panic!() }` form,
//!   which forces an explicit message at the site). The fuzzer is held
//!   to the same bar so a crash it reports is always the target's,
//!   never its own; `xtask` is held to it so a release gate that fails
//!   always fails with a diagnosis, not a backtrace.
//! * **audited numeric casts** — no bare `as <numeric>` casts in
//!   `netpu-arith`, `netpu-core`, `netpu-fleet`, `netpu-check`,
//!   `netpu-compiler`, `netpu-trace`, `netpu-fuzz`, and `xtask`.
//!   All width changes go through the checked/saturating helpers in
//!   `netpu_arith::cast`; that module itself is the single exemption,
//!   and every `as` inside it carries an `// audited:` comment.
//! * **gated kernel files** — both rules above also hold in
//!   `netpu-nn`'s value kernel (`crates/nn/src/kernel.rs`) and in the
//!   reference stages its walk calls (`crates/nn/src/reference.rs`:
//!   input quantization, MAC-domain conversion, the saturating
//!   accumulator, the post-accumulator stages and MaxOut), which answer
//!   every value-path request.
//! * **documented public surfaces** — every library crate's root
//!   carries `#![deny(missing_docs)]`.
//! * **NPC fixture coverage** — every `NpcNNN` rule ID declared in
//!   `crates/check/src/diag.rs` must appear in `crates/check/tests/`
//!   in both an accepting assertion (`!…fired(RuleId::NpcNNN)`) and a
//!   rejecting one (`…fired(RuleId::NpcNNN)`), so no diagnostic ships
//!   without a fixture that triggers it and one that stays clean.
//!
//! The scanner strips comments, strings, and `#[cfg(test)]`-gated items
//! before matching, so test fixtures and doc examples are free to use
//! whatever they like. Lines are assumed rustfmt-normalized (CI runs
//! `cargo fmt --check` first), so `as` casts always read ` as `.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose non-test code must not call `.unwrap()` / `.expect(`.
/// `xtask` holds itself to the same bar: the DSE search and the
/// certification gates are release tooling whose failures must be
/// structured errors, not panics.
const PANIC_FREE: &[&str] = &[
    "arith", "core", "sim", "runtime", "serve", "fleet", "check", "compiler", "trace", "fuzz",
    "xtask",
];

/// Crates whose non-test code must not contain bare numeric `as` casts.
const CAST_FREE: &[&str] = &[
    "arith", "core", "runtime", "serve", "fleet", "check", "compiler", "trace", "fuzz", "xtask",
];

/// Modules held to both rules by name: the value kernel, which answers
/// every fleet cache hit and re-admission, the reference stages its walk
/// calls (input quantization, MAC-domain conversion, the saturating
/// accumulator, the post-accumulator stages, MaxOut), model validation,
/// which runs inside every compile, and the three files that parse, pack
/// or digest a source model on every fleet miss. A file whose crate is
/// gated as well stays gated if its crate leaves the lists.
const GATED_FILES: &[&str] = &[
    "crates/nn/src/kernel.rs",
    "crates/nn/src/qmodel.rs",
    "crates/nn/src/reference.rs",
    "crates/nn/src/json.rs",
    "crates/compiler/src/stream.rs",
    "crates/check/src/store.rs",
];

/// The one module allowed to contain bare casts (each one audited).
const CAST_EXEMPT: &str = "crates/arith/src/cast.rs";

/// Library crates that must carry `#![deny(missing_docs)]`.
const DOCUMENTED: &[&str] = &[
    "arith", "bench", "check", "compiler", "core", "finn", "fleet", "fuzz", "nn", "runtime",
    "serve", "sim", "trace",
];

/// Primitive types whose `as` casts must go through `netpu_arith::cast`.
const NUMERIC: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("replay") => match args.next() {
            Some(path) => finish("replay", replay_file(Path::new(&path))),
            None => {
                eprintln!("usage: cargo run -p xtask -- replay <trace.bin>");
                ExitCode::FAILURE
            }
        },
        Some("certify") => match args.next().map(|n| n.parse::<usize>()) {
            None => finish("certify", certify_sweep(true, DEFAULT_CERTIFY_MODELS)),
            Some(Ok(models)) => finish("certify", certify_sweep(true, models)),
            Some(Err(_)) => {
                eprintln!("usage: cargo run -p xtask -- certify [models]");
                ExitCode::FAILURE
            }
        },
        Some("certify-timing") => match args.next().map(|n| n.parse::<usize>()) {
            None => finish(
                "certify-timing",
                certify_timing_sweep(true, DEFAULT_CERTIFY_MODELS),
            ),
            Some(Ok(models)) => finish("certify-timing", certify_timing_sweep(true, models)),
            Some(Err(_)) => {
                eprintln!("usage: cargo run -p xtask -- certify-timing [models]");
                ExitCode::FAILURE
            }
        },
        Some("dse") => {
            let mut smoke = false;
            let mut write = false;
            let mut bad = None;
            for flag in args {
                match flag.as_str() {
                    "--smoke" => smoke = true,
                    "--write" => write = true,
                    other => bad = Some(other.to_string()),
                }
            }
            match bad {
                None => finish("dse", dse_run(smoke, write)),
                Some(flag) => {
                    eprintln!(
                        "usage: cargo run -p xtask -- dse [--smoke] [--write]   (got {flag:?})"
                    );
                    ExitCode::FAILURE
                }
            }
        }
        Some("serve-report") => {
            let flags: Vec<String> = args.collect();
            match flags.as_slice() {
                [] => finish("serve-report", serve_report_run(false)),
                [flag] if flag == "--write" => finish("serve-report", serve_report_run(true)),
                _ => {
                    eprintln!(
                        "usage: cargo run -p xtask -- serve-report [--write]   (got {flags:?})"
                    );
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint | replay <trace.bin> | certify [models] | \
                 certify-timing [models] | dse [--smoke] [--write] | serve-report [--write]   \
                 (got {:?})",
                other.unwrap_or("<nothing>")
            );
            ExitCode::FAILURE
        }
    }
}

/// Prints a gate's summary on success, or its error prefixed with the
/// subcommand on failure, and maps the outcome to the exit code.
fn finish(command: &str, outcome: Result<String, String>) -> ExitCode {
    match outcome {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Decodes, round-trips, and verifies one binary trace file, returning
/// the printable summary line.
fn replay_file(path: &Path) -> Result<String, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let reader =
        netpu_trace::TraceReader::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    // The codec promises decode∘encode is the identity on accepted
    // input; hold it to that before trusting anything it decoded.
    if reader.to_bytes() != bytes {
        return Err(format!(
            "{}: decode → re-encode is not byte-identical",
            path.display()
        ));
    }
    let s = netpu_trace::verify(reader.records())
        .map_err(|e| format!("{}: inconsistent trace: {e}", path.display()))?;
    let mut summary = format!(
        "xtask replay: {} verified — {} records / {} requests \
         ({} completed, {} failed, {} rejected), {} crashes ({} requeued), \
         {} grants over {:.1} us makespan, {} sim events, {} probe samples",
        path.display(),
        s.records,
        s.requests,
        s.completed,
        s.failed,
        s.rejected,
        s.crashes,
        s.requeues,
        s.grants,
        s.makespan_us,
        s.sim_events,
        s.probe_samples
    );
    // Denied requests by stable RejectReason code, so a glance at the
    // replay line says *why* a trace's admissions failed (structural
    // stream rejects vs strict-range vs strict-equiv vs crash policy).
    let mut reject_codes: std::collections::BTreeMap<&str, usize> =
        std::collections::BTreeMap::new();
    for rec in reader.records() {
        if let netpu_trace::TraceEvent::Rejected { code, .. } = &rec.event {
            *reject_codes.entry(code.as_str()).or_insert(0) += 1;
        }
    }
    if !reject_codes.is_empty() {
        let breakdown: Vec<String> = reject_codes
            .iter()
            .map(|(code, n)| format!("{code}×{n}"))
            .collect();
        let _ = write!(summary, "; rejections by reason: {}", breakdown.join(", "));
    }
    // Predicted-vs-recorded cycle cross-check: the driver annotates
    // every sink-traced run with the static timing certificate next to
    // the simulator's own count (`timing.predicted_cycles` /
    // `timing.recorded_cycles` Meta pairs, in order). Replay re-pairs
    // them and holds the model to exactness on the recorded runs too.
    let mut predicted = Vec::new();
    let mut recorded = Vec::new();
    for rec in reader.records() {
        if let netpu_trace::TraceEvent::Meta { key, value } = &rec.event {
            match key.as_str() {
                "timing.predicted_cycles" => predicted.push(value.clone()),
                "timing.recorded_cycles" => recorded.push(value.clone()),
                _ => {}
            }
        }
    }
    if predicted.len() != recorded.len() {
        return Err(format!(
            "{}: {} predicted-cycle annotations but {} recorded-cycle annotations",
            path.display(),
            predicted.len(),
            recorded.len()
        ));
    }
    if !predicted.is_empty() {
        let mut exact = 0usize;
        for (i, (p, r)) in predicted.iter().zip(&recorded).enumerate() {
            if p != r {
                return Err(format!(
                    "{}: timing model diverges on recorded run {i}: \
                     predicted {p} cycles, recorded {r}",
                    path.display()
                ));
            }
            exact += 1;
        }
        let _ = write!(
            summary,
            "; timing model: {exact}/{exact} runs predicted == recorded cycles"
        );
    }
    Ok(summary)
}

/// Random-model sweep size of a bare `xtask certify`.
const DEFAULT_CERTIFY_MODELS: usize = 1000;

/// Compiles and certifies the zoo (when `zoo` is set) plus `models`
/// deterministic random models, failing on the first false
/// inequivalence or certificate that does not re-validate. Returns the
/// printable summary line.
fn certify_sweep(zoo: bool, models: usize) -> Result<String, String> {
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::{random_model, ZooModel};

    let cfg = netpu_core::HwConfig::paper_instance();
    let mut widths = (u8::MAX, 0u8);
    let mut zoo_count = 0usize;
    if zoo {
        for (i, variant) in ZooModel::ALL.into_iter().enumerate() {
            for mode in [BnMode::Folded, BnMode::Hardware] {
                let Ok(model) = variant.build_untrained(10 + u64::try_from(i).unwrap_or(0), mode)
                else {
                    continue;
                };
                certify_stream(&model, 99, &cfg, &mut widths)?;
                zoo_count += 1;
            }
        }
        if zoo_count < ZooModel::ALL.len() {
            return Err(format!("zoo sweep degenerated to {zoo_count} models"));
        }
    }
    for seed in 0..models {
        let seed = u64::try_from(seed).unwrap_or(0);
        let model = random_model(seed);
        certify_stream(&model, seed ^ 0xA5A5, &cfg, &mut widths)?;
    }
    let mut summary = format!(
        "xtask certify: {zoo_count} zoo + {models} random streams certified \
         equivalent, zero false inequivalences; every certificate re-validates"
    );
    if widths.0 <= widths.1 {
        let _ = write!(
            summary,
            " (exact min accumulator widths {}–{} bits)",
            widths.0, widths.1
        );
    }
    Ok(summary)
}

/// Compiles `model` on a seeded input and certifies the emitted stream
/// against it; extends `widths` with the certificate's exact minimal
/// accumulator width.
fn certify_stream(
    model: &netpu_nn::qmodel::QuantMlp,
    px_seed: u64,
    cfg: &netpu_core::HwConfig,
    widths: &mut (u8, u8),
) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(px_seed);
    let pixels: Vec<u8> = (0..model.input.len).map(|_| rng.gen()).collect();
    let (loadable, cert) = netpu_check::compile_certified(model, &pixels, cfg)
        .map_err(|e| format!("{}: {e}", model.name))?;
    if !cert.validate(model, &loadable.words, cfg) {
        return Err(format!("{}: certificate failed re-validation", model.name));
    }
    widths.0 = widths.0.min(cert.min_accumulator_bits);
    widths.1 = widths.1.max(cert.min_accumulator_bits);
    Ok(())
}

/// The timing-certification differential gate: proves the closed-form
/// cycle model (`netpu_check::timing`, DESIGN.md §4.9) **exact** in
/// every layer × phase cell, zero tolerance: against the fast engine on
/// all pairs, and against the tick engine as well on the zoo pairs. The
/// corpus is the zoo (both BN modes and packings) plus `models` random
/// models, each on every fuzzer sweep instance, plus a pre-packaged
/// burst. A pair the instance rejects is skipped (nothing simulated to
/// compare against); every admitted pair must match in every cell.
fn certify_timing_sweep(zoo: bool, models: usize) -> Result<String, String> {
    use netpu_compiler::PackingMode;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::{random_model, ZooModel};

    let configs = netpu_fuzz::sweep_configs();
    let (mut compared, mut skipped, mut cells) = (0usize, 0usize, 0usize);
    let mut tally = |outcome: Option<usize>| match outcome {
        Some(c) => {
            compared += 1;
            cells += c;
        }
        None => skipped += 1,
    };
    let (mut zoo_streams, mut burst_cells) = (0usize, 0usize);
    if zoo {
        for (i, variant) in ZooModel::ALL.into_iter().enumerate() {
            for mode in [BnMode::Folded, BnMode::Hardware] {
                let Ok(model) = variant.build_untrained(10 + u64::try_from(i).unwrap_or(0), mode)
                else {
                    continue;
                };
                for packing in [PackingMode::Lanes8, PackingMode::Dense] {
                    let words = compile_timing_stream(&model, 99, packing)?;
                    let stream = format!("{}/{mode:?}/{packing:?}", variant.name());
                    for cfg in &configs {
                        tally(certify_timing_stream(&stream, &words, cfg, true)?);
                    }
                    zoo_streams += 1;
                }
            }
        }
        if zoo_streams < 2 * ZooModel::ALL.len() {
            return Err(format!("zoo sweep degenerated to {zoo_streams} streams"));
        }
        burst_cells = certify_burst_timing()?;
    }
    for seed in 0..models {
        let seed = u64::try_from(seed).unwrap_or(0);
        let model = random_model(seed);
        let words = compile_timing_stream(&model, seed ^ 0xA5A5, PackingMode::Lanes8)?;
        let stream = format!("random model {seed}");
        for cfg in &configs {
            tally(certify_timing_stream(&stream, &words, cfg, false)?);
        }
    }
    if compared == 0 {
        return Err("no (stream, instance) pair was actually compared".into());
    }
    Ok(format!(
        "xtask certify-timing: {compared} (stream, instance) pairs cycle-exact in every \
         layer x phase cell ({cells} cells: fast engine on all pairs, tick engine on the zoo \
         pairs; {zoo_streams} zoo streams + {models} random models x {} sweep instances; \
         {skipped} pairs skipped where the instance rejects the stream), zero tolerance; \
         burst model exact in {burst_cells} cells on both engines",
        configs.len()
    ))
}

/// Compiles `model` on a seeded input under `packing`, returning the
/// raw stream words.
fn compile_timing_stream(
    model: &netpu_nn::qmodel::QuantMlp,
    px_seed: u64,
    packing: netpu_compiler::PackingMode,
) -> Result<Vec<u64>, String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(px_seed);
    let pixels: Vec<u8> = (0..model.input.len).map(|_| rng.gen()).collect();
    let loadable = netpu_compiler::compile_packed(model, &pixels, packing)
        .map_err(|e| format!("{}: {e}", model.name))?;
    Ok(loadable.words)
}

/// Proves one stream's certified cycle breakdown equal, cell by cell,
/// to the fast engine's on `cfg` and, with `tick`, to the tick
/// engine's. `Ok(None)` means the instance rejects the stream (nothing
/// to compare); otherwise the number of cells compared. Any mismatch
/// is an error naming the stream, the instance, the engine, and the
/// first differing layer and phase.
fn certify_timing_stream(
    stream: &str,
    words: &[u64],
    cfg: &netpu_core::HwConfig,
    tick: bool,
) -> Result<Option<usize>, String> {
    // Straight from the decode, not through admission: the instance may
    // reject the stream and the simulator still run it.
    let decoded = netpu_compiler::decode(words).map_err(|e| format!("{stream}: {e}"))?;
    let certified = netpu_check::timing::analyze(&decoded, cfg).breakdown;
    let layers = certified.layers.len();
    let Ok(fast) = netpu_core::run_inference_fast(cfg, words.to_vec()) else {
        return Ok(None);
    };
    let broken = |engine: &str, e: String| {
        format!(
            "timing certificate broken on {stream} at {} against the {engine} engine: {e}",
            netpu_fuzz::config_tag(cfg)
        )
    };
    let mut cells = compare_breakdowns(&certified, &fast.breakdown, fast.cycles, layers)
        .map_err(|e| broken("fast", e))?;
    if tick {
        let run = netpu_core::run_inference(cfg, words.to_vec())
            .map_err(|e| broken("tick", format!("simulation failed: {e}")))?;
        cells += compare_breakdowns(&certified, &run.breakdown, run.cycles, layers)
            .map_err(|e| broken("tick", e))?;
    }
    Ok(Some(cells))
}

/// Compares a certified breakdown with a simulated one, cell by cell,
/// zero tolerance, then checks that the simulated cells sum to the
/// run's cycle count. Returns the number of cells compared, or names
/// the first cell that differs: in a burst of loadables of
/// `loadable_layers` layers each, its loadable too.
fn compare_breakdowns(
    certified: &netpu_core::CycleBreakdown,
    simulated: &netpu_core::CycleBreakdown,
    cycles: u64,
    loadable_layers: usize,
) -> Result<usize, String> {
    let (c, s) = (certified.layers.len(), simulated.layers.len());
    if c != s {
        return Err(format!("certificate has {c} layers, simulator {s}"));
    }
    let per = loadable_layers.max(1);
    let burst = c > per;
    let mut cells = 0;
    for ((layer, phase, c), (_, _, s)) in certified.cells().zip(simulated.cells()) {
        if c != s {
            let at = match layer {
                None => "stream".to_string(),
                Some(k) if burst => format!("loadable {} layer {}", k / per, k % per),
                Some(k) => format!("layer {k}"),
            };
            return Err(format!(
                "{at} phase {phase}: certificate {c} cycles, simulator {s}"
            ));
        }
        cells += 1;
    }
    let total = simulated.total();
    if total != cycles {
        return Err(format!(
            "simulated cells sum to {total} cycles, the run took {cycles}"
        ));
    }
    Ok(cells)
}

/// Proves the burst extrapolation (`StreamTiming::burst_breakdown`)
/// exact in every cell, against both engines, on a pre-packaged
/// 3-inference burst of the TFC-W1A1 stream. Returns the cells
/// compared.
fn certify_burst_timing() -> Result<usize, String> {
    let (predicted, loadable_layers, runs) = burst_runs()?;
    check_burst(&predicted, loadable_layers, &runs)
}

/// The TFC-W1A1 3-loadable burst: its predicted breakdown, the layers
/// of one loadable, and the fast and the tick engines' runs.
#[allow(clippy::type_complexity)] // one test-facing tuple
fn burst_runs() -> Result<
    (
        netpu_core::CycleBreakdown,
        usize,
        [(&'static str, netpu_core::InferenceRun); 2],
    ),
    String,
> {
    use netpu_compiler::PackingMode;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let cfg = netpu_core::HwConfig::paper_instance();
    let model = ZooModel::TfcW1A1
        .build_untrained(7, BnMode::Folded)
        .map_err(|e| format!("burst model: {e}"))?;
    let mut rng = StdRng::seed_from_u64(123);
    let inputs: Vec<Vec<u8>> = (0..3)
        .map(|_| (0..model.input.len).map(|_| rng.gen()).collect())
        .collect();
    let burst = netpu_compiler::batch_stream(&model, &inputs, PackingMode::Lanes8)
        .map_err(|e| format!("burst stream: {e}"))?;
    let single = netpu_compiler::compile_packed(&model, &inputs[0], PackingMode::Lanes8)
        .map_err(|e| format!("burst head: {e}"))?;
    let decoded =
        netpu_compiler::decode(&single.words).map_err(|e| format!("burst head decode: {e}"))?;
    let timing = netpu_check::timing::analyze(&decoded, &cfg);
    let fast = netpu_core::run_inference_fast(&cfg, burst.clone())
        .map_err(|e| format!("burst simulation (fast): {e}"))?;
    let tick = netpu_core::run_inference(&cfg, burst)
        .map_err(|e| format!("burst simulation (tick): {e}"))?;
    Ok((
        timing.burst_breakdown(3),
        timing.breakdown.layers.len(),
        [("fast", fast), ("tick", tick)],
    ))
}

/// Compares the predicted burst breakdown with each engine's, cell by
/// cell.
fn check_burst(
    predicted: &netpu_core::CycleBreakdown,
    loadable_layers: usize,
    runs: &[(&str, netpu_core::InferenceRun)],
) -> Result<usize, String> {
    let mut cells = 0;
    for (engine, run) in runs {
        cells += compare_breakdowns(predicted, &run.breakdown, run.cycles, loadable_layers)
            .map_err(|e| format!("burst timing broken against the {engine} engine: {e}"))?;
    }
    Ok(cells)
}

/// The one staleness policy for committed artifacts. Under `--write`
/// it (re)writes `path` with `rendered`; otherwise the committed file
/// must equal `rendered` byte for byte, and the error names the file
/// and the `xtask <command> --write` that refreshes it.
fn check_artifact(path: &Path, rendered: &str, write: bool, command: &str) -> Result<(), String> {
    if write {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        return fs::write(path, rendered).map_err(|e| format!("{}: {e}", path.display()));
    }
    let committed = fs::read_to_string(path).map_err(|e| {
        format!(
            "{}: {e} (generate it with `xtask {command} --write`)",
            path.display()
        )
    })?;
    if committed != rendered {
        return Err(format!(
            "{}: committed artifact is stale; regenerate with `xtask {command} --write`",
            path.display()
        ));
    }
    Ok(())
}

/// Relative directory the committed DSE frontier artifacts live in.
const DSE_ARTIFACT_DIR: &str = "artifacts/dse";

/// One statically admissible design point, priced entirely offline by
/// the timing certificate and the resource model.
struct DsePoint {
    cfg: netpu_core::HwConfig,
    packing: netpu_compiler::PackingMode,
    cycles: u64,
    latency_us: f64,
    fps: f64,
    cold_us: f64,
    resident_us: f64,
    util: netpu_core::resources::Utilization,
}

impl DsePoint {
    /// Stable tag naming the point: the fuzzer's config tag plus the
    /// multiplier mappings (which only move resources, not cycles).
    fn tag(&self) -> String {
        format!(
            "{}{}{}",
            netpu_fuzz::config_tag(&self.cfg),
            if matches!(self.cfg.bn_mul, netpu_core::MulImpl::Lut) {
                "-bnlut"
            } else {
                ""
            },
            if matches!(self.cfg.int_mul, netpu_core::MulImpl::Lut) {
                "-intlut"
            } else {
                ""
            },
        )
    }

    /// Weak Pareto dominance on the four frontier objectives
    /// (per-inference cycles, LUTs, DSPs, BRAM36).
    fn dominates(&self, other: &DsePoint) -> bool {
        self.cycles <= other.cycles
            && self.util.luts <= other.util.luts
            && self.util.dsps <= other.util.dsps
            && self.util.bram36 <= other.util.bram36
    }
}

/// Everything one DSE search produced for one model.
struct DseOutcome {
    frontier: Vec<DsePoint>,
    seed: DsePoint,
    candidates: usize,
    infeasible: usize,
    unsound: usize,
    min_acc: u8,
}

/// Runs the offline design-space search for the given zoo targets
/// (TFC-W1A1 only under `--smoke`), checks each frontier against the
/// committed artifact (or regenerates it under `--write`), asserts the
/// hand-picked paper instance is reproduced or statically dominated,
/// and prints the Table VI-style comparison.
fn dse_run(smoke: bool, write: bool) -> Result<String, String> {
    use netpu_nn::zoo::ZooModel;
    let targets: &[ZooModel] = if smoke {
        &[ZooModel::TfcW1A1]
    } else {
        &[ZooModel::TfcW1A1, ZooModel::SfcW1A1, ZooModel::LfcW1A1]
    };
    let root = workspace_root();
    let mut lines = Vec::new();
    for &variant in targets {
        let outcome = dse_model(variant)?;
        if !outcome.frontier.iter().any(|p| p.dominates(&outcome.seed)) {
            return Err(format!(
                "{}: no frontier point reproduces or dominates the paper instance",
                variant.name()
            ));
        }
        let artifact = dse_artifact(variant, &outcome);
        let path = root
            .join(DSE_ARTIFACT_DIR)
            .join(format!("{}.tsv", variant.name().to_lowercase()));
        check_artifact(&path, &artifact, write, "dse")?;
        lines.push(dse_comparison(variant, &outcome, &path, &root));
    }
    Ok(format!("xtask dse:\n{}", lines.join("\n")))
}

/// Enumerates and statically prices the full candidate grid for one
/// zoo model: ring/folding geometry x multiplier mappings x weight
/// packing x accumulator width (the absint-proved minimum and the
/// paper's 32). Candidates are rejected *statically* — an invalid
/// geometry or one over the Ultra96-V2 envelope is infeasible, and one
/// the four-tier checker finds errors on is unsound. Nothing here
/// simulates; `xtask certify-timing` is what makes the prices
/// trustworthy.
fn dse_model(variant: netpu_nn::zoo::ZooModel) -> Result<DseOutcome, String> {
    use netpu_compiler::PackingMode;
    use netpu_core::resources::{netpu_utilization, ULTRA96_V2};
    use netpu_core::{HwConfig, MulImpl};
    use netpu_nn::export::BnMode;

    let model = variant
        .build_untrained(42, BnMode::Folded)
        .map_err(|e| format!("{}: {e}", variant.name()))?;
    let pixels = vec![0u8; model.input.len];
    let mut streams = Vec::new();
    for packing in [PackingMode::Lanes8, PackingMode::Dense] {
        let loadable = netpu_compiler::compile_packed(&model, &pixels, packing)
            .map_err(|e| format!("{}: {e}", variant.name()))?;
        let decoded = netpu_compiler::decode(&loadable.words)
            .map_err(|e| format!("{}: decode: {e}", variant.name()))?;
        streams.push((packing, loadable.words, decoded.settings));
    }
    let reference = HwConfig::paper_instance();
    let analysis = netpu_check::analyze(&streams[0].1, &reference, Default::default()).range;
    let min_acc = analysis
        .as_ref()
        .map_or(32, minimal_accumulator_bits)
        .clamp(8, 32);
    let mut accs = vec![min_acc, 32];
    accs.dedup();
    let mut points = Vec::new();
    let mut candidates = 0usize;
    let mut infeasible = 0usize;
    let mut unsound = 0usize;
    for lpus in [2usize, 4] {
        for tnpus_per_lpu in [1usize, 2, 4, 8, 16] {
            for mul_lanes in [1usize, 2, 4, 8] {
                for double_buffered_weights in [false, true] {
                    for (packing, words, settings) in &streams {
                        for &accumulator_bits in &accs {
                            for bn_mul in [MulImpl::Dsp, MulImpl::Lut] {
                                for int_mul in [MulImpl::Dsp, MulImpl::Lut] {
                                    candidates += 1;
                                    let cfg = HwConfig {
                                        lpus,
                                        tnpus_per_lpu,
                                        mul_lanes,
                                        bn_mul,
                                        int_mul,
                                        double_buffered_weights,
                                        dense_weight_packing: matches!(packing, PackingMode::Dense),
                                        accumulator_bits,
                                        ..reference
                                    };
                                    if cfg.validate().is_err() {
                                        infeasible += 1;
                                        continue;
                                    }
                                    let util = netpu_utilization(&cfg);
                                    if !util.fits(&ULTRA96_V2) {
                                        infeasible += 1;
                                        continue;
                                    }
                                    if netpu_check::analyze(words, &cfg, Default::default())
                                        .report
                                        .has_errors()
                                    {
                                        unsound += 1;
                                        continue;
                                    }
                                    points.push(dse_price(cfg, *packing, settings, util));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let seed = dse_price(
        reference,
        PackingMode::Lanes8,
        &streams[0].2,
        netpu_utilization(&reference),
    );
    Ok(DseOutcome {
        frontier: dse_pareto(points),
        seed,
        candidates,
        infeasible,
        unsound,
        min_acc,
    })
}

/// Prices one admissible candidate with the timing certificate, the
/// §V DMA model, and the resource model.
fn dse_price(
    cfg: netpu_core::HwConfig,
    packing: netpu_compiler::PackingMode,
    settings: &[netpu_compiler::LayerSetting],
    util: netpu_core::resources::Utilization,
) -> DsePoint {
    let t = netpu_check::timing::analyze_settings(settings, packing, &cfg);
    let dma = netpu_check::DmaModel::zynq_uls();
    DsePoint {
        cycles: t.total_cycles(),
        latency_us: t.latency_us(cfg.clock_mhz),
        fps: t.steady_state_fps(cfg.clock_mhz),
        cold_us: t.cold_latency_us(&dma, cfg.clock_mhz),
        resident_us: t.resident_latency_us(&dma, cfg.clock_mhz),
        cfg,
        packing,
        util,
    }
}

/// The minimal signed accumulator width proved sufficient by the
/// absint bounds — the NPC019 answer, recomputed from the public
/// per-neuron intervals (the reference instance is 32-bit, so the
/// clamped intervals equal the true envelopes for any sound model).
fn minimal_accumulator_bits(analysis: &netpu_check::RangeAnalysis) -> u8 {
    let mut width = 0u8;
    for layer in &analysis.layers {
        for neuron in &layer.neurons {
            if let Some((lo, hi)) = neuron.acc {
                width = width.max(netpu_check::absint::signed_width((
                    i64::from(lo),
                    i64::from(hi),
                )));
            }
        }
    }
    if width == 0 {
        32
    } else {
        width
    }
}

/// Reduces priced points to the Pareto frontier over (cycles, LUTs,
/// DSPs, BRAM36), deterministically ordered by cycles then resources
/// then tag; exact objective ties keep only the first point in that
/// order.
fn dse_pareto(mut points: Vec<DsePoint>) -> Vec<DsePoint> {
    points.sort_by(|a, b| {
        a.cycles
            .cmp(&b.cycles)
            .then(a.util.luts.cmp(&b.util.luts))
            .then(a.util.dsps.cmp(&b.util.dsps))
            .then(
                a.util
                    .bram36
                    .partial_cmp(&b.util.bram36)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.tag().cmp(&b.tag()))
    });
    let mut frontier: Vec<DsePoint> = Vec::new();
    for p in points {
        if !frontier.iter().any(|q| q.dominates(&p)) {
            frontier.push(p);
        }
    }
    frontier
}

/// Renders one search's committed artifact: provenance header plus the
/// frontier as TSV, fully deterministic (fixed model seed, fixed input,
/// closed-form prices, stable ordering and float formatting).
fn dse_artifact(variant: netpu_nn::zoo::ZooModel, outcome: &DseOutcome) -> String {
    use netpu_core::resources::ULTRA96_V2;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# xtask dse frontier: {} (build_untrained seed 42, BN folded)",
        variant.name()
    );
    let _ = writeln!(
        out,
        "# budget: {} ({} LUT, {} DSP, {} FF, {} BRAM36)",
        ULTRA96_V2.name, ULTRA96_V2.luts, ULTRA96_V2.dsps, ULTRA96_V2.ffs, ULTRA96_V2.bram36
    );
    let _ = writeln!(
        out,
        "# search: {} candidates, {} infeasible, {} unsound, {} frontier points; \
         minimal certified accumulator width {} bits",
        outcome.candidates,
        outcome.infeasible,
        outcome.unsound,
        outcome.frontier.len(),
        outcome.min_acc
    );
    let _ = writeln!(
        out,
        "# seed instance: {}",
        dse_row(&outcome.seed).replace('\t', " ")
    );
    let _ = writeln!(
        out,
        "config\tpacking\tcycles\tlatency_us\tfps\tcold_us\tresident_us\tluts\tdsps\tffs\tbram36"
    );
    for p in &outcome.frontier {
        let _ = writeln!(out, "{}", dse_row(p));
    }
    out
}

/// One TSV row of a priced design point.
fn dse_row(p: &DsePoint) -> String {
    format!(
        "{}\t{:?}\t{}\t{:.3}\t{:.1}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{:.1}",
        p.tag(),
        p.packing,
        p.cycles,
        p.latency_us,
        p.fps,
        p.cold_us,
        p.resident_us,
        p.util.luts,
        p.util.dsps,
        p.util.ffs,
        p.util.bram36
    )
}

/// The printable Table VI-style comparison for one model: the
/// hand-picked seed instance against the frontier's best-latency point
/// and its cheapest point matching the seed's latency.
fn dse_comparison(
    variant: netpu_nn::zoo::ZooModel,
    outcome: &DseOutcome,
    path: &Path,
    root: &Path,
) -> String {
    let describe = |p: &DsePoint| {
        format!(
            "{} = {} cycles ({:.1} us, {:.0} fps, {} LUT, {} DSP, {:.1} BRAM36)",
            p.tag(),
            p.cycles,
            p.latency_us,
            p.fps,
            p.util.luts,
            p.util.dsps,
            p.util.bram36
        )
    };
    let mut out = format!(
        "{}:\n  seed     {}",
        variant.name(),
        describe(&outcome.seed)
    );
    if let Some(best) = outcome.frontier.first() {
        let _ = write!(out, "\n  fastest  {}", describe(best));
    }
    if let Some(cheapest) = outcome
        .frontier
        .iter()
        .filter(|p| p.cycles <= outcome.seed.cycles)
        .min_by_key(|p| (p.util.luts, p.util.dsps))
    {
        let _ = write!(out, "\n  cheapest@seed-latency  {}", describe(cheapest));
    }
    let _ = write!(
        out,
        "\n  frontier: {} points of {} candidates ({} infeasible, {} unsound statically \
         rejected), artifact {}",
        outcome.frontier.len(),
        outcome.candidates,
        outcome.infeasible,
        outcome.unsound,
        rel(root, path)
    );
    out
}

/// Relative directory the committed serving reports live in.
const SERVE_ARTIFACT_DIR: &str = "artifacts/serve";

/// Renders both virtual-time serving reports, checks each against its
/// committed artifact (or regenerates it under `--write`), and prints
/// each report's headline.
fn serve_report_run(write: bool) -> Result<String, String> {
    let root = workspace_root();
    let mut lines = vec!["xtask serve-report:".to_string()];
    for (name, artifact, headline) in serve_artifacts()? {
        let path = root.join(SERVE_ARTIFACT_DIR).join(name);
        check_artifact(&path, &artifact, write, "serve-report")?;
        lines.push(format!("  {}: {headline}", rel(&root, &path)));
    }
    Ok(lines.join("\n"))
}

/// The committed serving reports as (file name, TSV text, headline).
/// Both run in virtual time, so each is a pure function of the code.
fn serve_artifacts() -> Result<[(&'static str, String, String); 2], String> {
    let driver = netpu_runtime::Driver::builder().build();
    let (sweep, sweep_headline) = serve_board_sweep(&driver)?;
    let (replay, replay_headline) = serve_fleet_replay(&driver)?;
    Ok([
        ("board_sweep.tsv", sweep, sweep_headline),
        ("fleet_replay.tsv", replay, replay_headline),
    ])
}

/// One report row as (column, cell) pairs. Every `f64` cell is written
/// with `{}`, Rust's shortest round-trip form, so it parses back to the
/// same bits.
type TsvRow = Vec<(&'static str, String)>;

/// Renders `rows` as TSV under one `# ` comment line, the header taken
/// from the first row's column names.
fn render_tsv(comment: &str, rows: &[TsvRow]) -> String {
    let mut out = format!("# {comment}\n");
    if let Some(first) = rows.first() {
        let header: Vec<&str> = first.iter().map(|(column, _)| *column).collect();
        let _ = writeln!(out, "{}", header.join("\t"));
    }
    for row in rows {
        let cells: Vec<&str> = row.iter().map(|(_, cell)| cell.as_str()).collect();
        let _ = writeln!(out, "{}", cells.join("\t"));
    }
    out
}

/// `Server` throughput against the analytic `ClusterThroughput` bound
/// (the paper's §V shared-DMA loading bottleneck at system scale): for
/// 1, 2, 4 and 8 boards, 128 TFC-W1A1 requests all queued up front.
fn serve_board_sweep(driver: &netpu_runtime::Driver) -> Result<(String, String), String> {
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;
    use netpu_runtime::{Cluster, InferRequest};
    use netpu_serve::{Server, ServerConfig, Submit};
    const REQUESTS: usize = 128;

    let model = ZooModel::TfcW1A1
        .build_untrained(1, BnMode::Folded)
        .map_err(|e| format!("TFC-w1a1: {e}"))?;
    let loadable = netpu_compiler::compile(&model, &vec![100u8; model.input.len])
        .map_err(|e| format!("TFC-w1a1 compile: {e}"))?;
    let mut rows = Vec::new();
    let mut worst_error = 0.0f64;
    for boards in [1usize, 2, 4, 8] {
        let analytic = Cluster::new(boards, driver.clone())
            .throughput(&model)
            .map_err(|e| format!("{boards} boards: analytic bound: {e}"))?;
        let server = Server::start(
            driver.clone(),
            ServerConfig {
                boards,
                queue_capacity: REQUESTS,
                ..ServerConfig::default()
            },
        );
        let mut tickets = Vec::with_capacity(REQUESTS);
        for _ in 0..REQUESTS {
            match server.submit(InferRequest::loadable(loadable.clone())) {
                Submit::Accepted(ticket) => tickets.push(ticket),
                Submit::Denied(reason) => {
                    return Err(format!("{boards} boards: request denied: {reason}"))
                }
            }
        }
        for ticket in tickets {
            ticket
                .wait()
                .map_err(|e| format!("{boards} boards: request failed: {e}"))?;
        }
        let m = server.shutdown();
        let measured = m
            .measured_fps()
            .ok_or_else(|| format!("{boards} boards: no completed frames"))?;
        let binding = if analytic.fps == analytic.transfer_bound_fps {
            "transfer"
        } else {
            "compute"
        };
        let relative_error = (measured - analytic.fps).abs() / analytic.fps;
        worst_error = worst_error.max(relative_error);
        let board_utilization: Vec<String> =
            m.board_utilization().iter().map(f64::to_string).collect();
        rows.push(vec![
            ("name", format!("tfc_w1a1_{boards}_boards")),
            ("boards", boards.to_string()),
            ("requests", REQUESTS.to_string()),
            ("measured_fps", measured.to_string()),
            ("analytic_fps", analytic.fps.to_string()),
            ("compute_bound_fps", analytic.compute_bound_fps.to_string()),
            (
                "transfer_bound_fps",
                analytic.transfer_bound_fps.to_string(),
            ),
            ("binding", binding.to_string()),
            ("relative_error", relative_error.to_string()),
            ("dma_utilization", m.dma_utilization().to_string()),
            ("board_utilization", board_utilization.join(",")),
            ("makespan_us", m.makespan_us.to_string()),
        ]);
    }
    let comment = format!(
        "xtask serve-report: Server vs ClusterThroughput, {REQUESTS} saturated TFC-w1a1 \
         requests (build_untrained seed 1, BN folded, every pixel 100)"
    );
    let headline = format!(
        "1-8 boards measured within {:.2}% of ClusterThroughput",
        worst_error * 100.0
    );
    Ok((render_tsv(&comment, &rows), headline))
}

/// The acceptance-scale fleet replay (`ReplayConfig::acceptance()`)
/// under naive FIFO and swap-aware dispatch: swaps per request is the
/// §V weight-stream loading cost the swap-aware scheduler amortizes.
fn serve_fleet_replay(driver: &netpu_runtime::Driver) -> Result<(String, String), String> {
    use netpu_fleet::{run_replay, DispatchPolicy, ReplayConfig};

    let cfg = ReplayConfig::acceptance();
    let naive = run_replay(driver, &cfg.clone().with_policy(DispatchPolicy::NaiveFifo))
        .map_err(|e| format!("naive FIFO replay: {e}"))?;
    let aware = run_replay(driver, &cfg.with_policy(DispatchPolicy::SwapAware))
        .map_err(|e| format!("swap-aware replay: {e}"))?;
    let rows: Vec<TsvRow> = [&naive, &aware]
        .iter()
        .map(|r| {
            vec![
                ("name", format!("fleet_replay_{}", r.policy)),
                ("policy", r.policy.clone()),
                ("seed", r.seed.to_string()),
                ("boards", r.boards.to_string()),
                ("shards", r.shards.to_string()),
                ("models", r.models.to_string()),
                ("offered", r.offered.to_string()),
                ("throttled", r.throttled.to_string()),
                ("completed", r.completed.to_string()),
                ("deadline_missed", r.deadline_missed.to_string()),
                ("p50_us", r.p50_us.to_string()),
                ("p99_us", r.p99_us.to_string()),
                ("p999_us", r.p999_us.to_string()),
                ("mean_us", r.mean_us.to_string()),
                ("jain_fairness", r.jain_fairness.to_string()),
                ("cache_hit_rate", r.cache_hit_rate.to_string()),
                ("cache_evictions", r.cache_evictions.to_string()),
                ("swaps", r.swaps.to_string()),
                ("swaps_per_request", r.swaps_per_request.to_string()),
                ("resident_hit_rate", r.resident_hit_rate.to_string()),
                ("makespan_us", r.makespan_us.to_string()),
                ("measured_fps", r.measured_fps.to_string()),
                ("analytic_fps_bound", r.analytic_fps_bound.to_string()),
                ("bound_ratio", r.bound_ratio.to_string()),
                ("dma_utilization", r.dma_utilization.to_string()),
            ]
        })
        .collect();
    let comment = format!(
        "xtask serve-report: fleet replay, ReplayConfig::acceptance() ({} boards, {} shards, \
         {} models, {} tenants, {} requests, seed {}), naive FIFO vs swap-aware",
        aware.boards,
        aware.shards,
        aware.models,
        aware.tenants.len(),
        aware.offered,
        aware.seed
    );
    let headline = format!(
        "swaps/request {:.4} ({}) -> {:.4} ({}), cache hit rate {:.4}",
        naive.swaps_per_request,
        naive.policy,
        aware.swaps_per_request,
        aware.policy,
        aware.cache_hit_rate
    );
    Ok((render_tsv(&comment, &rows), headline))
}

fn lint() -> ExitCode {
    let violations = lint_violations();
    if violations.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("lint: {v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn lint_violations() -> Vec<String> {
    let root = workspace_root();
    let mut violations = Vec::new();

    for krate in PANIC_FREE {
        for file in rust_sources(&root.join("crates").join(krate).join("src")) {
            check_panic_free(&root, &file, &mut violations);
        }
    }
    for krate in CAST_FREE {
        for file in rust_sources(&root.join("crates").join(krate).join("src")) {
            if rel(&root, &file) == CAST_EXEMPT {
                continue;
            }
            check_cast_free(&root, &file, &mut violations);
        }
    }
    for file in GATED_FILES {
        let mut found = Vec::new();
        check_panic_free(&root, &root.join(file), &mut found);
        check_cast_free(&root, &root.join(file), &mut found);
        // Its crate's rules may have reported these already.
        found.retain(|v| !violations.contains(v));
        violations.extend(found);
    }
    for krate in DOCUMENTED {
        let lib = root.join("crates").join(krate).join("src").join("lib.rs");
        let text = read(&lib);
        if !text.contains("#![deny(missing_docs)]") {
            violations.push(format!(
                "{}: library root lacks #![deny(missing_docs)]",
                rel(&root, &lib)
            ));
        }
    }
    check_rule_fixture_coverage(&root, &mut violations);

    violations
}

/// Tests directory whose fixtures must cover every NPC rule both ways.
const RULE_FIXTURES: &str = "crates/check/tests";

fn check_rule_fixture_coverage(root: &Path, out: &mut Vec<String>) {
    let diag = strip_code(&read(&root.join("crates/check/src/diag.rs")));
    let rules = collect_rule_ids(&diag);
    if rules.is_empty() {
        out.push("crates/check/src/diag.rs: no NpcNNN rule IDs found".into());
        return;
    }
    let mut accepting = std::collections::BTreeSet::new();
    let mut rejecting = std::collections::BTreeSet::new();
    for file in rust_sources(&root.join(RULE_FIXTURES)) {
        classify_fired_assertions(&strip_code(&read(&file)), &mut accepting, &mut rejecting);
    }
    for rule in &rules {
        if !accepting.contains(rule) {
            out.push(format!(
                "{RULE_FIXTURES}: {rule} has no accepting fixture \
                 (an `!…fired(RuleId::{rule})` assertion)"
            ));
        }
        if !rejecting.contains(rule) {
            out.push(format!(
                "{RULE_FIXTURES}: {rule} has no rejecting fixture \
                 (a `…fired(RuleId::{rule})` assertion)"
            ));
        }
    }
}

/// Extracts every `NpcNNN` identifier from stripped source.
fn collect_rule_ids(stripped: &str) -> std::collections::BTreeSet<String> {
    let mut rules = std::collections::BTreeSet::new();
    let bytes = stripped.as_bytes();
    let mut search = 0;
    while let Some(found) = stripped[search..].find("Npc") {
        let start = search + found;
        let boundary = start == 0
            || !(bytes[start - 1].is_ascii_alphanumeric()
                || bytes[start - 1] == b'_'
                || bytes[start - 1] == b':');
        let digits: String = stripped[start + 3..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if boundary && !digits.is_empty() {
            rules.insert(format!("Npc{digits}"));
        }
        search = start + 3;
    }
    rules
}

/// Finds every `.fired(RuleId::NpcNNN)` call in stripped test source and
/// classifies it as accepting (the whole receiver expression is negated
/// with `!`) or rejecting (it is not).
fn classify_fired_assertions(
    stripped: &str,
    accepting: &mut std::collections::BTreeSet<String>,
    rejecting: &mut std::collections::BTreeSet<String>,
) {
    const NEEDLE: &str = ".fired(RuleId::Npc";
    let mut search = 0;
    while let Some(found) = stripped[search..].find(NEEDLE) {
        let dot = search + found;
        let digits_start = dot + NEEDLE.len();
        let digits: String = stripped[digits_start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if !digits.is_empty() {
            let rule = format!("Npc{digits}");
            if negated_receiver(stripped.as_bytes(), dot) {
                accepting.insert(rule);
            } else {
                rejecting.insert(rule);
            }
        }
        search = digits_start;
    }
}

/// Walks backward from the `.` of a `.fired(…)` call over the receiver
/// expression — identifiers, paths, field/method chains, and balanced
/// `(…)` / `[…]` groups — and reports whether the first character
/// beyond it is a `!` negation.
fn negated_receiver(bytes: &[u8], dot: usize) -> bool {
    let mut depth = 0usize;
    let mut j = dot;
    while j > 0 {
        j -= 1;
        let c = bytes[j] as char;
        if c == ')' || c == ']' {
            depth += 1;
        } else if c == '(' || c == '[' {
            if depth == 0 {
                return false;
            }
            depth -= 1;
        } else if depth > 0 || c.is_ascii_alphanumeric() || "_.:".contains(c) || c.is_whitespace() {
            // Still inside the receiver (or a nested group).
        } else {
            return c == '!';
        }
    }
    false
}

fn check_panic_free(root: &Path, file: &Path, out: &mut Vec<String>) {
    let masked = mask_tests(&strip_code(&read(file)));
    for (lineno, line) in masked.lines().enumerate() {
        for needle in [".unwrap()", ".expect("] {
            if line.contains(needle) {
                let mut v = String::new();
                let _ = write!(
                    v,
                    "{}:{}: `{}` in non-test code (return an error or use `let … else`)",
                    rel(root, file),
                    lineno + 1,
                    needle.trim_end_matches('(')
                );
                out.push(v);
            }
        }
    }
}

fn check_cast_free(root: &Path, file: &Path, out: &mut Vec<String>) {
    let masked = mask_tests(&strip_code(&read(file)));
    for (lineno, line) in masked.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find(" as ") {
            let after = &rest[pos + 4..];
            let target: String = after
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if NUMERIC.contains(&target.as_str()) {
                let mut v = String::new();
                let _ = write!(
                    v,
                    "{}:{}: bare `as {}` cast (use a netpu_arith::cast helper)",
                    rel(root, file),
                    lineno + 1,
                    target
                );
                out.push(v);
            }
            rest = after;
        }
    }
}

/// Blanks comments, string literals, and char literals with spaces,
/// preserving newlines so line numbers survive.
fn strip_code(src: &str) -> String {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < bytes.len() && bytes[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 1;
            out.push_str("  ");
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if bytes[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        } else if c == 'r' && matches!(next, Some('"') | Some('#')) && raw_string_at(&bytes, i) {
            i = blank_raw_string(&bytes, i, &mut out);
        } else if c == '"' {
            out.push(' ');
            i += 1;
            while i < bytes.len() {
                if bytes[i] == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if bytes[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                } else {
                    out.push(if bytes[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        } else if c == '\'' && char_literal_at(&bytes, i) {
            out.push(' ');
            i += 1;
            while i < bytes.len() {
                if bytes[i] == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if bytes[i] == '\'' {
                    out.push(' ');
                    i += 1;
                    break;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// `true` when the `r` at `i` starts a raw string (`r"…"`, `r#"…"#`).
fn raw_string_at(bytes: &[char], i: usize) -> bool {
    let mut j = i + 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Blanks a raw string starting at `i`; returns the index past it.
fn blank_raw_string(bytes: &[char], i: usize, out: &mut String) -> usize {
    let mut j = i + 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    // Opening `r##"`.
    for _ in i..=j {
        out.push(' ');
    }
    j += 1;
    while j < bytes.len() {
        if bytes[j] == '"' && bytes[j + 1..].iter().take(hashes).all(|c| *c == '#') {
            for _ in 0..=hashes {
                out.push(' ');
            }
            return j + 1 + hashes;
        }
        out.push(if bytes[j] == '\n' { '\n' } else { ' ' });
        j += 1;
    }
    j
}

/// `true` when the `'` at `i` starts a char literal rather than a
/// lifetime: `'x'` or `'\…'`.
fn char_literal_at(bytes: &[char], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some('\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Blanks every `#[cfg(test)]`-gated item (attribute through matching
/// closing brace or semicolon) in already-stripped source.
fn mask_tests(stripped: &str) -> String {
    let chars: Vec<char> = stripped.chars().collect();
    let mut blank = vec![false; chars.len()];
    let text: String = chars.iter().collect();
    let mut search = 0;
    while let Some(found) = text[search..].find("#[cfg(test)]") {
        let attr_start = search + found;
        let mut j = attr_start;
        // Blank the attribute, any stacked attributes after it, and the
        // gated item: through the matching `}` if a `{` comes before a
        // top-level `;`, else through the `;`.
        let mut depth = 0usize;
        let mut saw_brace = false;
        while j < chars.len() {
            match chars[j] {
                '{' => {
                    depth += 1;
                    saw_brace = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if saw_brace && depth == 0 {
                        blank[j] = true;
                        j += 1;
                        break;
                    }
                }
                ';' if !saw_brace => {
                    blank[j] = true;
                    j += 1;
                    break;
                }
                _ => {}
            }
            blank[j] = true;
            j += 1;
        }
        search = j.max(attr_start + 1);
    }
    chars
        .iter()
        .zip(&blank)
        .map(|(c, b)| if *b && *c != '\n' { ' ' } else { *c })
        .collect()
}

fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn read(path: &Path) -> String {
    match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask: cannot read {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask; CARGO_MANIFEST_DIR is set by
    // cargo for both `cargo run` and the test harness.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_strings_and_chars() {
        let s = strip_code("let x = \"a.unwrap()\"; // .expect(\nlet c = 'u'; let l: &'a u8;");
        assert!(!s.contains(".unwrap()"));
        assert!(!s.contains(".expect("));
        assert!(s.contains("let l: &'a u8;"));
    }

    #[test]
    fn strips_raw_strings_and_block_comments() {
        let s = strip_code("r#\"x.unwrap()\"#; /* outer /* a as u32 */ */ y");
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("as u32"));
        assert!(s.ends_with("y"));
    }

    #[test]
    fn masks_cfg_test_modules_and_items() {
        let s = mask_tests("fn a() {}\n#[cfg(test)]\nmod t {\n  x.unwrap();\n}\nfn b() {}");
        assert!(!s.contains("unwrap"));
        assert!(s.contains("fn a()") && s.contains("fn b()"));
        let s = mask_tests("#[cfg(test)]\nuse foo::bar;\nfn keep() {}");
        assert!(!s.contains("foo::bar") && s.contains("fn keep()"));
    }

    #[test]
    fn line_numbers_survive_masking() {
        let src = "line1\n\"str\nstr\"\nline4";
        assert_eq!(strip_code(src).lines().count(), src.lines().count());
    }

    #[test]
    fn cast_scan_flags_only_numeric_targets() {
        let root = workspace_root();
        let dir = std::env::temp_dir().join("xtask-cast-scan");
        fs::create_dir_all(&dir).expect("temp dir");
        let file = dir.join("probe.rs");
        fs::write(&file, "let a = x as u32;\nlet b = y as MyType;\n").expect("write probe");
        let mut v = Vec::new();
        check_cast_free(&root, &file, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("as u32"));
    }

    #[test]
    fn fired_assertions_classify_by_receiver_negation() {
        let mut acc = std::collections::BTreeSet::new();
        let mut rej = std::collections::BTreeSet::new();
        let src = "assert!(!check(&l, &cfg()).fired(RuleId::Npc001));\n\
                   assert!(r.has_errors() && r.fired(RuleId::Npc002));\n\
                   assert!(!reports[0].fired(RuleId::Npc003));";
        classify_fired_assertions(src, &mut acc, &mut rej);
        assert!(acc.contains("Npc001") && !rej.contains("Npc001"));
        assert!(rej.contains("Npc002") && !acc.contains("Npc002"));
        assert!(acc.contains("Npc003"));
    }

    #[test]
    fn rule_ids_collect_from_the_enum_declaration() {
        let rules = collect_rule_ids("enum RuleId { Npc001, Npc002 }\nRuleId::Npc002 => x,");
        assert_eq!(
            rules.into_iter().collect::<Vec<_>>(),
            vec!["Npc001", "Npc002"]
        );
    }

    #[test]
    fn workspace_is_clean() {
        // The real gate, run in-process so `cargo test` exercises it.
        let violations = lint_violations();
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    }

    #[test]
    fn gated_files_exist() {
        // A moved or renamed file would otherwise drop out of the gates
        // silently.
        let root = workspace_root();
        for file in GATED_FILES {
            assert!(root.join(file).is_file(), "{file} is gone");
        }
    }

    #[test]
    fn replay_verifies_a_recorded_trace_and_rejects_corruption() {
        use netpu_trace::{MemorySink, TraceEvent, TraceSink};

        let sink = MemorySink::new();
        sink.record(
            0.0,
            TraceEvent::Submitted {
                request: 1,
                tenant: 0,
                model: 0,
            },
        );
        sink.record(
            0.0,
            TraceEvent::Granted {
                request: 1,
                board: 0,
                arrival_us: 0.0,
                transfer_us: 10.0,
                latency_us: 25.0,
                start_us: 0.0,
                transfer_end_us: 10.0,
                complete_us: 25.0,
            },
        );
        sink.record(
            25.0,
            TraceEvent::Completed {
                request: 1,
                latency_us: 25.0,
            },
        );
        let dir = std::env::temp_dir().join("xtask-replay");
        fs::create_dir_all(&dir).expect("temp dir");
        let good = dir.join("good.bin");
        fs::write(&good, sink.to_bytes()).expect("write trace");
        let summary = replay_file(&good).expect("good trace verifies");
        assert!(summary.contains("1 requests"), "{summary}");
        assert!(summary.contains("1 grants"), "{summary}");

        // Truncated bytes must fail the decode, not verify anyway.
        let bad = dir.join("bad.bin");
        let mut bytes = sink.to_bytes();
        bytes.truncate(bytes.len() - 3);
        fs::write(&bad, bytes).expect("write trace");
        assert!(replay_file(&bad).is_err());
    }

    #[test]
    fn replay_summary_breaks_rejections_down_by_reason_code() {
        use netpu_trace::{MemorySink, TraceEvent, TraceSink};

        let sink = MemorySink::new();
        for (id, code) in [
            (1, "INVALID_STREAM"),
            (2, "INVALID_STREAM"),
            (3, "CRASH_POLICY"),
        ] {
            sink.record(
                0.0,
                TraceEvent::Submitted {
                    request: id,
                    tenant: 0,
                    model: 0,
                },
            );
            sink.record(
                0.0,
                TraceEvent::Rejected {
                    request: id,
                    code: code.into(),
                    rules: Vec::new(),
                },
            );
        }
        let dir = std::env::temp_dir().join("xtask-replay-rejects");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("rejects.bin");
        fs::write(&path, sink.to_bytes()).expect("write trace");
        let summary = replay_file(&path).expect("trace verifies");
        assert!(summary.contains("3 rejected"), "{summary}");
        assert!(
            summary.contains("rejections by reason: CRASH_POLICY×1, INVALID_STREAM×2"),
            "{summary}"
        );
    }

    #[test]
    fn replay_summary_cross_checks_predicted_against_recorded_cycles() {
        use netpu_trace::{MemorySink, TraceEvent, TraceSink};

        let annotated = |pairs: &[(u64, u64)]| {
            let sink = MemorySink::new();
            for (p, r) in pairs {
                sink.record(
                    0.0,
                    TraceEvent::Meta {
                        key: "timing.predicted_cycles".into(),
                        value: p.to_string(),
                    },
                );
                sink.record(
                    0.0,
                    TraceEvent::Meta {
                        key: "timing.recorded_cycles".into(),
                        value: r.to_string(),
                    },
                );
            }
            sink.to_bytes()
        };
        let dir = std::env::temp_dir().join("xtask-replay-timing");
        fs::create_dir_all(&dir).expect("temp dir");

        let exact = dir.join("exact.bin");
        fs::write(&exact, annotated(&[(3503, 3503), (2533, 2533)])).expect("write trace");
        let summary = replay_file(&exact).expect("exact trace verifies");
        assert!(
            summary.contains("timing model: 2/2 runs predicted == recorded cycles"),
            "{summary}"
        );

        // A single diverging run fails replay outright: the model is
        // certified exact, so drift means a broken recording or model.
        let drift = dir.join("drift.bin");
        fs::write(&drift, annotated(&[(3503, 3504)])).expect("write trace");
        let err = replay_file(&drift).expect_err("diverging trace must fail");
        assert!(err.contains("predicted 3503"), "{err}");

        // An unannotated trace gets no timing column and no error.
        let plain = dir.join("plain.bin");
        fs::write(&plain, MemorySink::new().to_bytes()).expect("write trace");
        let summary = replay_file(&plain).expect("plain trace verifies");
        assert!(!summary.contains("timing model"), "{summary}");
    }

    #[test]
    fn certify_sweep_passes_on_random_models_and_reports_widths() {
        let summary = certify_sweep(false, 6).expect("random models certify");
        assert!(summary.contains("6 random streams"), "{summary}");
        assert!(summary.contains("min accumulator widths"), "{summary}");
    }

    #[test]
    fn certify_timing_sweep_is_cycle_exact_on_random_models() {
        let summary = certify_timing_sweep(false, 4).expect("timing certifies");
        assert!(summary.contains("cycle-exact"), "{summary}");
        assert!(summary.contains("every layer x phase cell"), "{summary}");
        assert!(summary.contains("zero tolerance"), "{summary}");
    }

    #[test]
    fn timing_gate_names_the_layer_and_phase_of_a_one_cycle_difference() {
        use netpu_core::{LayerPhase, StreamPhase};
        let model = netpu_nn::zoo::ZooModel::TfcW1A1
            .build_untrained(7, netpu_nn::export::BnMode::Folded)
            .expect("zoo model builds");
        let words = compile_timing_stream(&model, 1, netpu_compiler::PackingMode::Lanes8)
            .expect("stream compiles");
        let decoded = netpu_compiler::decode(&words).expect("stream decodes");
        let hw = netpu_core::HwConfig::paper_instance();
        let certified = netpu_check::timing::analyze(&decoded, &hw).breakdown;
        let layers = certified.layers.len();
        let cells = compare_breakdowns(&certified, &certified, certified.total(), layers);
        assert_eq!(cells, Ok(4 + 9 * certified.layers.len()));

        let refusal = |simulated: &netpu_core::CycleBreakdown| {
            compare_breakdowns(&certified, simulated, simulated.total(), layers)
                .expect_err("a one-cycle difference is refused")
        };
        let mut simulated = certified.clone();
        simulated.layers[2][LayerPhase::DRAIN] += 1;
        let err = refusal(&simulated);
        assert!(err.contains("layer 2 phase drain"), "{err}");
        let mut simulated = certified.clone();
        simulated[StreamPhase::RESET] += 1;
        let err = refusal(&simulated);
        assert!(err.contains("stream phase reset"), "{err}");

        // Cells that do not sum to the run's cycle count are refused too.
        let err = compare_breakdowns(&certified, &certified, certified.total() + 1, layers)
            .expect_err("an unaccounted cycle is refused");
        assert!(err.contains("sum to"), "{err}");
    }

    #[test]
    fn burst_timing_is_cycle_exact() {
        use netpu_core::{LayerPhase, StreamPhase};
        let cells = certify_burst_timing().expect("burst extrapolation exact");
        let (predicted, layers, mut runs) = burst_runs().expect("burst runs");
        assert_eq!(cells, 2 * (4 + 9 * predicted.layers.len()));
        // Three loadables of five layers; the stream cells three times
        // a loadable's, plus a reset between consecutive loadables.
        assert_eq!((layers, predicted.layers.len()), (5, 15));
        let reset = predicted[StreamPhase::RESET];
        assert_eq!(reset, 3 * 8 + 2 * netpu_core::netpu::RESET_CYCLES);
        assert_eq!(predicted.total(), 10_513);
        for (_, run) in &runs {
            assert_eq!(run.cycles, predicted.total());
        }

        // A one-cycle fault in a later loadable's layer cell is refused,
        // naming the engine, the loadable, the layer and the phase.
        runs[1].1.breakdown.layers[7][LayerPhase::DRAIN] += 1;
        runs[1].1.cycles += 1;
        let err = check_burst(&predicted, layers, &runs).expect_err("a one-cycle fault is refused");
        assert!(err.contains("tick engine"), "{err}");
        assert!(err.contains("loadable 1 layer 2 phase drain"), "{err}");
    }

    #[test]
    fn dse_reproduces_or_dominates_the_paper_instance_on_tfc() {
        let outcome = dse_model(netpu_nn::zoo::ZooModel::TfcW1A1).expect("search runs");
        assert!(!outcome.frontier.is_empty());
        assert!(
            outcome.frontier.iter().any(|p| p.dominates(&outcome.seed)),
            "no frontier point reproduces or dominates the hand-picked seed instance"
        );
        // The frontier is a frontier: no point dominates another.
        for (i, p) in outcome.frontier.iter().enumerate() {
            for (j, q) in outcome.frontier.iter().enumerate() {
                assert!(i == j || !p.dominates(q) || !q.dominates(p));
            }
        }
        assert!(outcome.min_acc < 32, "absint found no width slack on TFC");
    }

    #[test]
    fn dse_frontier_prices_are_simulation_exact() {
        // The search never simulates; spot-check its prices against the
        // fast simulator on the cheapest and fastest frontier points.
        let variant = netpu_nn::zoo::ZooModel::TfcW1A1;
        let outcome = dse_model(variant).expect("search runs");
        let model = variant
            .build_untrained(42, netpu_nn::export::BnMode::Folded)
            .expect("zoo model builds");
        let pixels = vec![0u8; model.input.len];
        for p in [
            outcome.frontier.first().expect("frontier non-empty"),
            outcome.frontier.last().expect("frontier non-empty"),
        ] {
            let loadable = netpu_compiler::compile_packed(&model, &pixels, p.packing)
                .expect("frontier packing compiles");
            let run = netpu_core::run_inference_fast(&p.cfg, loadable.words)
                .expect("frontier instance admits the stream");
            assert_eq!(run.cycles, p.cycles, "stale price for {}", p.tag());
        }
    }

    #[test]
    fn committed_artifacts_are_current() {
        // The committed TFC frontier and both serving reports must
        // regenerate byte-identically (the CI `dse --smoke` and
        // `serve-report` stages re-check them from the binary).
        let root = workspace_root();
        let variant = netpu_nn::zoo::ZooModel::TfcW1A1;
        let outcome = dse_model(variant).expect("search runs");
        let mut artifacts = vec![(
            root.join(DSE_ARTIFACT_DIR).join("tfc-w1a1.tsv"),
            dse_artifact(variant, &outcome),
            "dse",
        )];
        for (name, text, _) in serve_artifacts().expect("serving reports render") {
            artifacts.push((
                root.join(SERVE_ARTIFACT_DIR).join(name),
                text,
                "serve-report",
            ));
        }
        for (path, rendered, command) in artifacts {
            check_artifact(&path, &rendered, false, command)
                .expect("committed artifact is current");
        }
    }

    #[test]
    fn artifact_gate_names_the_stale_file_and_the_write_command() {
        let committed = fs::read_to_string(
            workspace_root()
                .join(SERVE_ARTIFACT_DIR)
                .join("fleet_replay.tsv"),
        )
        .expect("committed fleet replay report exists");
        // Bump the last digit of the first data row's p50.
        let row = committed.lines().nth(2).expect("a data row");
        let p50 = row.split('\t').nth(10).expect("p50 column");
        let last = p50.chars().last().expect("non-empty cell");
        let bumped = char::from_digit((last.to_digit(10).expect("digit") + 1) % 10, 10)
            .expect("decimal digit");
        let edited_p50 = format!("{}{bumped}", &p50[..p50.len() - 1]);
        let edited = committed.replacen(p50, &edited_p50, 1);
        assert_ne!(edited, committed);

        let dir = std::env::temp_dir().join(format!("xtask-artifact-gate-{}", std::process::id()));
        let path = dir.join("fleet_replay.tsv");
        check_artifact(&path, &edited, true, "serve-report").expect("write the edited copy");
        let err = check_artifact(&path, &committed, false, "serve-report")
            .expect_err("an edited value must fail the gate");
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("`xtask serve-report --write`"), "{err}");
        // `--write` refreshes the file, after which the gate passes.
        check_artifact(&path, &committed, true, "serve-report").expect("rewrite");
        check_artifact(&path, &committed, false, "serve-report").expect("current after --write");
        let _ = fs::remove_dir_all(&dir);
    }
}
