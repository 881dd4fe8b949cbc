//! `netpu_cli` — the end-to-end workflow from a shell.
//!
//! ```text
//! netpu_cli train   --model tfc-w1a1 --epochs 8 --out model.json
//! netpu_cli compile --model model.json --out inference.npu [--dense]
//! netpu_cli run     --loadable inference.npu [--softmax on] [--trace t.log]
//! netpu_cli info    --loadable inference.npu
//! netpu_cli bench   --model model.json [--frames 16]
//! netpu_cli macros  [--lpus 2] [--tnpus 8]
//! netpu_cli zoo
//! ```
//!
//! Arguments are `--key value` pairs; unknown keys are rejected.

use netpu_compiler::{compile_packed, decode, Loadable, PackingMode};
use netpu_core::netpu::{run_to_completion, NetPu};
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::train::TrainConfig;
use netpu_nn::zoo::ZooModel;
use netpu_nn::{dataset, io, metrics};
use netpu_sim::{Observer, StreamSource};
use std::collections::HashMap;
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --key, got {key}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

fn zoo_by_name(name: &str) -> Result<ZooModel, String> {
    ZooModel::ALL
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown zoo model {name}; try `netpu_cli zoo`"))
}

fn bn_mode(args: &HashMap<String, String>) -> Result<BnMode, String> {
    match args.get("bn").map(String::as_str) {
        None | Some("folded") => Ok(BnMode::Folded),
        Some("hardware") => Ok(BnMode::Hardware),
        Some(other) => Err(format!("--bn must be folded|hardware, got {other}")),
    }
}

fn cmd_zoo() -> Result<(), String> {
    println!(
        "{:<10} {:>7} {:>8} {:>9} {:>12}",
        "model", "width", "w bits", "act bits", "weights"
    );
    for m in ZooModel::ALL {
        println!(
            "{:<10} {:>7} {:>8} {:>9} {:>12}",
            m.name(),
            m.hidden_width(),
            m.weight_bits(),
            m.act_bits(),
            m.weight_count()
        );
    }
    Ok(())
}

fn cmd_train(args: &HashMap<String, String>) -> Result<(), String> {
    let model = zoo_by_name(args.get("model").ok_or("--model required")?)?;
    let epochs: usize = args
        .get("epochs")
        .map_or(Ok(8), |v| v.parse())
        .map_err(|e| format!("--epochs: {e}"))?;
    let examples: usize = args
        .get("examples")
        .map_or(Ok(2000), |v| v.parse())
        .map_err(|e| format!("--examples: {e}"))?;
    let out = args.get("out").ok_or("--out required")?;
    let bn = bn_mode(args)?;
    let (train_ds, test_ds) = dataset::standard_splits(examples, examples / 5, 2026);
    eprintln!(
        "training {} for {epochs} epochs on {examples} examples…",
        model.name()
    );
    let (_, qm) = model
        .train(
            &train_ds,
            &TrainConfig {
                epochs,
                ..TrainConfig::default()
            },
            bn,
        )
        .map_err(|e| e.to_string())?;
    let acc = metrics::accuracy(&qm, &test_ds);
    io::save_quant(&qm, out).map_err(|e| e.to_string())?;
    println!("saved {out}: test accuracy {:.1}%", acc * 100.0);
    Ok(())
}

fn cmd_compile(args: &HashMap<String, String>) -> Result<(), String> {
    let model =
        io::load_quant(args.get("model").ok_or("--model required")?).map_err(|e| e.to_string())?;
    let out = args.get("out").ok_or("--out required")?;
    let mode = match args.get("packing").map(String::as_str) {
        None | Some("lanes8") => PackingMode::Lanes8,
        Some("dense") => PackingMode::Dense,
        Some(other) => return Err(format!("--packing must be lanes8|dense, got {other}")),
    };
    // A fresh synthetic input; replaceable per inference via the API.
    let seed: u64 = args
        .get("input-seed")
        .map_or(Ok(0), |v| v.parse())
        .map_err(|e| format!("--input-seed: {e}"))?;
    let ds = dataset::generate(1, seed, &dataset::GeneratorConfig::default());
    let loadable =
        compile_packed(&model, &ds.examples[0].pixels, mode).map_err(|e| e.to_string())?;
    loadable.save(out).map_err(|e| e.to_string())?;
    println!(
        "compiled {} → {out}: {} words ({} bytes), input digit {}",
        model.name,
        loadable.len(),
        loadable.len() * 8 + 16,
        ds.examples[0].label
    );
    Ok(())
}

fn cmd_run(args: &HashMap<String, String>) -> Result<(), String> {
    let loadable = Loadable::load(args.get("loadable").ok_or("--loadable required")?)
        .map_err(|e| e.to_string())?;
    let decoded = decode(&loadable.words).map_err(|e| e.to_string())?;
    let cfg = HwConfig {
        softmax_output: args.contains_key("softmax"),
        dense_weight_packing: decoded.packing == PackingMode::Dense,
        ..HwConfig::paper_instance()
    };
    let mut netpu =
        NetPu::new(cfg, StreamSource::new(loadable.words.clone(), 1)).map_err(|e| e.to_string())?;
    if args.contains_key("trace") {
        netpu = netpu.with_observer(Observer::new(10_000, false));
    }
    let cycles = run_to_completion(&mut netpu).map_err(|e| e.to_string())?;
    let (class, score) = netpu.result().expect("completed");
    println!(
        "class {class} (score {score}) in {cycles} cycles = {:.2} us at {} MHz",
        netpu_sim::cycles_to_us(cycles, cfg.clock_mhz),
        cfg.clock_mhz
    );
    if let Some(probs) = netpu.probabilities() {
        let line: Vec<String> = probs
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{i}:{p:.3}"))
            .collect();
        println!("probabilities: {}", line.join(" "));
    }
    if let Some(path) = args.get("trace") {
        let observer = netpu.take_observer();
        observer.save(path).map_err(|e| e.to_string())?;
        println!(
            "trace written to {path} ({} events)",
            observer.events().len()
        );
    }
    Ok(())
}

fn cmd_info(args: &HashMap<String, String>) -> Result<(), String> {
    let loadable = Loadable::load(args.get("loadable").ok_or("--loadable required")?)
        .map_err(|e| e.to_string())?;
    let d = decode(&loadable.words).map_err(|e| e.to_string())?;
    println!(
        "loadable: {} words, packing {:?}, {} layers",
        loadable.len(),
        d.packing,
        d.settings.len()
    );
    for (i, s) in d.settings.iter().enumerate() {
        println!(
            "  layer {i}: {:?} {}x{} in={} w={} out={} act={} bn_folded={}",
            s.layer_type,
            s.neurons,
            s.input_len,
            s.in_precision,
            s.weight_precision,
            s.out_precision,
            s.activation,
            s.bn_folded
        );
    }
    Ok(())
}

fn cmd_bench(args: &HashMap<String, String>) -> Result<(), String> {
    let model =
        io::load_quant(args.get("model").ok_or("--model required")?).map_err(|e| e.to_string())?;
    let frames: usize = args
        .get("frames")
        .map_or(Ok(16), |v| v.parse())
        .map_err(|e| format!("--frames: {e}"))?;
    let driver = netpu_runtime::Driver::builder().build();
    let inputs: Vec<Vec<u8>> = dataset::generate(frames, 1, &dataset::GeneratorConfig::default())
        .examples
        .iter()
        .map(|e| e.pixels.clone())
        .filter(|p| p.len() == model.input.len)
        .collect();
    if inputs.is_empty() {
        // Non-image input width: synthesize flat frames.
        let flat = vec![vec![128u8; model.input.len]; frames];
        let (_, fps) = driver
            .infer_burst(&model, &flat)
            .map_err(|e| e.to_string())?;
        println!("{}: {frames}-frame burst sustains {fps:.0} fps", model.name);
        return Ok(());
    }
    let single = driver
        .infer(&model, &inputs[0])
        .map_err(|e| e.to_string())?;
    let (_, fps) = driver
        .infer_burst(&model, &inputs)
        .map_err(|e| e.to_string())?;
    println!(
        "{}: latency {:.2} us (sim {:.2}), {} stream words, burst of {frames} sustains {fps:.0} fps, {:.2} W",
        model.name,
        single.measured_latency_us,
        single.sim_latency_us,
        single.stream_words,
        single.power_w
    );
    Ok(())
}

fn cmd_macros(args: &HashMap<String, String>) -> Result<(), String> {
    let mut cfg = HwConfig::paper_instance();
    if let Some(v) = args.get("lpus") {
        cfg.lpus = v.parse().map_err(|e| format!("--lpus: {e}"))?;
    }
    if let Some(v) = args.get("tnpus") {
        cfg.tnpus_per_lpu = v.parse().map_err(|e| format!("--tnpus: {e}"))?;
    }
    cfg.validate().map_err(|e| e.to_string())?;
    print!("{}", netpu_core::genconfig::to_verilog_macros(&cfg));
    let util = netpu_core::resources::netpu_utilization(&cfg);
    let rates = util.rates(&netpu_core::resources::ULTRA96_V2);
    eprintln!(
        "// estimated: {} LUTs ({:.1}%), {} DSPs ({:.1}%), {:.1} BRAM36 ({:.1}%) on Ultra96-V2",
        util.luts,
        rates.luts * 100.0,
        util.dsps,
        rates.dsps * 100.0,
        util.bram36,
        rates.bram36 * 100.0
    );
    Ok(())
}

fn dispatch() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv
        .split_first()
        .ok_or("usage: netpu_cli <zoo|train|compile|run|info|bench|macros> [--key value]…")?;
    let args = parse_args(rest)?;
    match cmd.as_str() {
        "zoo" => cmd_zoo(),
        "train" => cmd_train(&args),
        "compile" => cmd_compile(&args),
        "run" => cmd_run(&args),
        "info" => cmd_info(&args),
        "bench" => cmd_bench(&args),
        "macros" => cmd_macros(&args),
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
