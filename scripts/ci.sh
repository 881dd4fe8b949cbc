#!/usr/bin/env bash
# CI gate: formatting, lints, build, and the full workspace test suite.
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== xtask lint (panic-free hot paths, audited casts, doc gates) =="
cargo run -q -p xtask -- lint

echo "== cargo-deny (dependency policy) =="
if command -v cargo-deny >/dev/null 2>&1; then
    cargo deny check
elif [ "${CI:-}" = "true" ]; then
    # On CI the dependency policy is part of the gate: a runner image
    # without cargo-deny is a misconfigured runner, not a soft skip.
    echo "cargo-deny not installed but CI=true; failing" >&2
    exit 1
else
    echo "cargo-deny not installed; skipping (mandatory on CI)"
fi

echo "== build (release) =="
cargo build --release --workspace

echo "== perfbench build (release, the command perfbench/run.py runs) =="
# perfbench is its own cargo package linking the workspace crates'
# public APIs; building it here makes an API change that breaks the
# benchmark fail CI instead of the benchmark run.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}" \
    cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== tests (release) =="
cargo test -q --release --workspace

echo "== translation validation: certify zoo + 1000 random streams (release) =="
# The symbolic-equivalence soundness gate (DESIGN.md §4.8): every
# honest compile of the model zoo and a deterministic 1000-model random
# sweep must certify equivalent with zero false inequivalences, and
# every emitted certificate must re-validate from scratch.
cargo run -q --release -p xtask -- certify 1000

echo "== timing certification: every layer x phase cell, zero tolerance; fast engine on all pairs, tick engine on the zoo pairs (zoo + 1000 random streams x all sweep instances, release) =="
# The timing-soundness gate (DESIGN.md §4.9): the closed-form
# certificate's CycleBreakdown must equal the simulated one in every
# layer x phase cell, zero tolerance — against the fast engine
# (run_inference_fast) on all pairs and the tick engine (run_inference)
# on the zoo pairs — on the full zoo (both BN modes, both packings),
# 1000 deterministic random models, and every fuzzer sweep instance,
# plus the burst extrapolation.
cargo run -q --release -p xtask -- certify-timing 1000

echo "== design-space exploration smoke (frontier artifact reproducibility, release) =="
# Re-runs the TFC-W1A1 search and fails if the committed Pareto
# frontier artifact is stale or the paper's hand-picked instance is no
# longer reproduced/dominated.
cargo run -q --release -p xtask -- dse --smoke

echo "== serving reports (board sweep + fleet replay artifact reproducibility, release) =="
# Re-runs the virtual-time Server board sweep and the acceptance-scale
# fleet replay and fails if artifacts/serve/*.tsv differ from the
# committed reports (the section V loading-bottleneck evidence).
cargo run -q --release -p xtask -- serve-report

echo "== batch throughput smoke (bitsliced kernel, release) =="
cargo run -q --release --example batch_throughput

echo "== live fleet smoke (sharded FleetServer, admit-once, release) =="
# The example serves four models to three tenants over 2 shards x 2
# boards and asserts each model is compiled and admitted exactly once.
cargo run -q --release --example fleet

echo "== serving smoke (retried loadables on a 4-board Server, release) =="
# The example corrupts every request's first delivery attempt: the
# corrupted stream is admitted afresh and denied, the clean retry
# streams under its admission at submission, and every served request
# must report 2 attempts.
cargo run -q --release --example serving

echo "== stream fuzzer smoke (coverage-guided, seeded, release) =="
# A short deterministic campaign over the admission/simulator
# differential oracle; any crasher class fails the gate. The committed
# regression fixtures replay separately in the workspace test suite.
cargo run -q --release -p netpu-fuzz -- --iters 512 --seed 7

echo "== loom model check (admission queue, debug profile) =="
RUSTFLAGS="--cfg loom" cargo test -q -p netpu-serve --test loom

echo "== loom model check (crash-only recovery, debug profile) =="
RUSTFLAGS="--cfg loom" cargo test -q -p netpu-serve --test loom_crash

echo "== miri (netpu-arith cast/fixed modules), when available =="
# Optional UB hunt over the arithmetic kernels every other crate leans
# on. Miri needs a nightly toolchain; soft-skip where none is installed.
if rustup run nightly cargo miri --version >/dev/null 2>&1; then
    rustup run nightly cargo miri test -p netpu-arith cast:: fixed::
else
    echo "nightly cargo-miri not available; skipping"
fi

echo "CI gate passed."
