#!/usr/bin/env sh
# Repository CI gate. Run from the repo root:
#   ./ci.sh
#
# 1. formatting        (cargo fmt --check)
# 2. lints             (cargo clippy, warnings are errors)
# 3. tier-1            (release build + root-package tests)
# 4. full test suite   (every workspace crate)
# 5. graph compiler    (edgenn compile over every model x platform:
#                       per-pass deltas, EC06x rewrite legality, tier A+B)
# 6. static checker    (edgenn check over every bundled model x platform)
# 7. tier-D analyzer   (edgenn analyze over the same 36 combos: ownership
#                       proof, schedule explorer, measured<=certified gate)
# 8. functional bench  (smoke run + schema check + regression gate)
# 9. fault storm       (seeded Monte-Carlo resilience smoke, 100% survival)
# 10. siege            (seeded multi-tenant serving gate: faults armed,
#                       100% survival of admitted work, EC07x checker-clean)
# 11. flight recorder  (profile two models, validate Perfetto output,
#                       recorder-overhead gate at <=5%)
# 12. perfbench        (build the wall-clock benchmark, run its unit tests)
# 13. examples         (build every examples/*.rs in release, run each once)
set -eu

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test --workspace -q

echo "==> edgenn compile: rewrite legality (EC06x) on every model x platform"
# The graph compiler's per-pass node/edge deltas are archived as JSON;
# each compiled graph is re-verified with check_compiled (EC060-EC063)
# plus tier A, and must still plan cleanly (tier B) on its platform.
# The CLI exits non-zero on any error-severity diagnostic.
cargo build --release -p edgenn-cli
COMPILE_DIR=target/compile
mkdir -p "$COMPILE_DIR"
for model in fcnn lenet alexnet vgg squeezenet resnet; do
    for platform in jetson rpi phone server apu apple; do
        case "$platform" in
            rpi|phone) config=cpu-only ;;
            *)         config=edgenn ;;
        esac
        out="$COMPILE_DIR/$model-$platform.json"
        if ! ./target/release/edgenn compile \
                --model "$model" --platform "$platform" --config "$config" \
                --json > "$out"; then
            echo "compile FAILED for $model on $platform (see $out)"
            exit 1
        fi
    done
done
echo "    36/36 legal rewrites; reports archived in $COMPILE_DIR/"

echo "==> edgenn check: every model x platform"
# Every diagnostic report is archived as JSON; any error-severity
# diagnostic fails the gate (the CLI exits non-zero on errors).
cargo build --release -p edgenn-cli
CHECK_DIR=target/check
mkdir -p "$CHECK_DIR"
for model in fcnn lenet alexnet vgg squeezenet resnet; do
    for platform in jetson rpi phone server apu apple; do
        # GPU-less platforms take the CPU-only config; the tuner
        # (correctly) refuses to plan GPU work for them.
        case "$platform" in
            rpi|phone) config=cpu-only ;;
            *)         config=edgenn ;;
        esac
        out="$CHECK_DIR/$model-$platform.json"
        if ! ./target/release/edgenn check \
                --model "$model" --platform "$platform" --config "$config" \
                --json > "$out"; then
            echo "check FAILED for $model on $platform (see $out)"
            exit 1
        fi
    done
done
echo "    36/36 clean; reports archived in $CHECK_DIR/"

echo "==> edgenn analyze: tier-D ownership + explorer + conformance, 72 combos"
# The analyzer proves the zero-copy/write-once contracts on the lowered
# buffer schedule (EC05x), exhaustively explores the worker pool's
# interleavings, and — with --functional — gates the engine's measured
# slot/arena high-water marks against the statically certified bound.
# Both precisions run: the int8 kernels acquire i8/i16 scratch the f32
# path never touches, and the certified bound must dominate either way.
# The CLI exits non-zero on any diagnostic, explorer violation, or
# measured > certified.
ANALYZE_DIR=target/analyze
mkdir -p "$ANALYZE_DIR"
for model in fcnn lenet alexnet vgg squeezenet resnet; do
    for platform in jetson rpi phone server apu apple; do
        case "$platform" in
            rpi|phone) config=cpu-only ;;
            *)         config=edgenn ;;
        esac
        for precision in f32 int8; do
            out="$ANALYZE_DIR/$model-$platform-$precision.json"
            if ! ./target/release/edgenn analyze \
                    --model "$model" --platform "$platform" --config "$config" \
                    --precision "$precision" \
                    --scale tiny --functional --json > "$out"; then
                echo "analyze FAILED for $model on $platform ($precision, see $out)"
                exit 1
            fi
        done
    done
done
echo "    72/72 certified; reports archived in $ANALYZE_DIR/"

echo "==> functional bench: smoke run, schema check, regression + drop gates"
# A short measurement of the real execution engine in BOTH precisions
# (schema v3: every model carries an f32 and an int8 row). The gate
# compares each (model, precision) hybrid/reference time *ratio*
# against the committed baseline (BENCH_functional.json), so it is
# machine-portable: a >25% relative regression of the engine over the
# raw kernels fails CI in either precision. The drops gate requires
# flight_dropped == 0 on every row — the executor sizes the recorder's
# rings from the node count, and any drop means that estimate regressed.
cargo build --release -p edgenn-bench
./target/release/bench_functional validate BENCH_functional.json
./target/release/bench_functional drops BENCH_functional.json
./target/release/bench_functional run --smoke --out target/BENCH_functional_smoke.json
./target/release/bench_functional validate target/BENCH_functional_smoke.json
./target/release/bench_functional gate \
    target/BENCH_functional_smoke.json BENCH_functional.json --slack 0.25
./target/release/bench_functional drops target/BENCH_functional_smoke.json

echo "==> fault storm: seeded resilience smoke (6 models x APU)"
# Every run injects a seeded random fault plan; the gate requires 100%
# survival (no panics, checker-clean recovery traces including the
# EC04x codes, and functional output bitwise identical to the
# fault-free reference). The CLI exits non-zero below 100% survival.
STORM_DIR=target/storm
mkdir -p "$STORM_DIR"
./target/release/edgenn storm --platform apu --seed 42 --runs 25 \
    --out "$STORM_DIR/storm-apu.json"
echo "    storm summary archived in $STORM_DIR/"

echo "==> siege: seeded multi-tenant serving gate (2 tenants x 2 models, faults on)"
# The deterministic load generator drives the serving front end (admission
# control, bounded queue, weighted-fair batching, SLO degradation) in
# virtual time with fault injection armed. The gate requires 100% survival
# of admitted requests, zero lost requests, every completed output bitwise
# identical to its reference, the queue bound respected, and the full
# admission log replaying clean through the EC07x checker tier. The CLI
# exits non-zero on any violation; the report (including the event log)
# is archived for forensics.
SIEGE_DIR=target/siege
mkdir -p "$SIEGE_DIR"
./target/release/edgenn siege --seed 42 --duration-us 60000 \
    --out "$SIEGE_DIR/siege-jetson.json"
echo "    siege report archived in $SIEGE_DIR/"

echo "==> flight recorder: profile two models, perfetto traces, overhead gate"
# `edgenn profile` runs the functional engine with the flight recorder
# on, verifies the recorded spans through the tier-C checker (a dirty
# timeline exits non-zero), and re-parses the Perfetto trace it wrote
# before reporting success. See docs/profiling.md.
PROF_DIR=target/profile
mkdir -p "$PROF_DIR"
./target/release/edgenn profile squeezenet --platform apu --runs 2 \
    --perfetto "$PROF_DIR/squeezenet-apu.json" > "$PROF_DIR/squeezenet-apu.txt"
./target/release/edgenn profile resnet --platform jetson --runs 2 \
    --perfetto "$PROF_DIR/resnet-jetson.json" > "$PROF_DIR/resnet-jetson.txt"
for trace in "$PROF_DIR/squeezenet-apu.json" "$PROF_DIR/resnet-jetson.json"; do
    # Belt and braces on top of the CLI's own re-parse: the archived
    # artifact must name both timelines it promises to hold.
    for process in '"simulated (analytic model)"' '"measured (flight recorder)"'; do
        if ! grep -q "$process" "$trace"; then
            echo "perfetto trace $trace is missing the $process process"
            exit 1
        fi
    done
done
# The recorder-overhead gate bounds sum(recorder on)/sum(recorder off)
# at 5% across all bundled models, measured in one interleaved loop.
# Perf gates on shared hardware are probabilistic: a fresh process
# re-rolls memory placement, so retry up to three times and fail only
# if every attempt exceeds the budget (docs/profiling.md).
overhead_ok=0
for attempt in 1 2 3; do
    if ./target/release/bench_functional overhead --smoke --budget 0.05; then
        overhead_ok=1
        break
    fi
    echo "    overhead gate attempt $attempt over budget; retrying"
done
if [ "$overhead_ok" -ne 1 ]; then
    echo "flight recorder overhead gate failed all 3 attempts"
    exit 1
fi
echo "    profiles and traces archived in $PROF_DIR/"

echo "==> perfbench: build the wall-clock benchmark and run its unit tests"
# perfbench is a Cargo workspace of its own (path dependencies on
# crates/*), so `cargo test --workspace` never compiles it; an API change
# in the crates would otherwise break the benchmark unnoticed.
cargo test --release --manifest-path perfbench/Cargo.toml -q

echo "==> examples: build and run each once"
# `cargo test` only compiles the examples; running them catches a panic
# or an error exit (serving_pipeline, for one, writes a checked trace).
cargo build --release --examples
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    if ! ./target/release/examples/"$name" > /dev/null; then
        echo "example $name FAILED"
        exit 1
    fi
done
echo "    every example ran and exited 0"

echo "CI OK"
