#!/usr/bin/env bash
# Repository lint gate: clippy clean under -D warnings, docs building,
# formatting canonical, and the counter regression gate (scenario
# parameters and deterministic counters vs the committed BENCH_lts.json
# baseline, exact).
# Run from anywhere; operates on the workspace this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy, non-test code: float compares and unsafe blocks"
# `float_cmp` also flags the exact compares of the bitwise tests, so it
# covers only the libraries and binaries; compares against exact zero pass.
cargo clippy --workspace --lib --bins -- -D warnings \
  -D clippy::float_cmp -D clippy::undocumented_unsafe_blocks

echo "== cargo doc (intra-doc links resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo xtask lint (call-graph analyses from the hot roots)"
cargo xtask lint

echo "== lts-check (structural invariants over the four benchmark meshes)"
cargo run -q --release -p lts-check

echo "== golden partitions (every strategy, incl. the benchmark-size cases)"
# The partitioners' outputs are pinned by hash; the #[ignore]d cases are
# the benchmark's own meshes, too slow for the debug tier-1 run.
cargo test -q --release -p lts-partition --test partition_golden -- --include-ignored

echo "== golden fields (serial + 2-rank local runtime, incl. the benchmark-size cases)"
# Final u/v bits of acoustic and elastic LTS runs are pinned by hash; a
# memory or speed change to gathers, kernels or stepping must not move one.
cargo test -q --release --test field_golden -- --include-ignored

echo "== golden fields on the other kernel paths (LTS_SIMD=avx2, LTS_SIMD=scalar)"
# The hashes are the same on every kernel variant by contract; LTS_SIMD is
# clamped to what the host supports, so each leg pins every path it has.
for simd in avx2 scalar; do
  LTS_SIMD="$simd" cargo test -q --release --test field_golden -- --include-ignored
done

echo "== transport conformance (channel: default, tiny ring, latency, both / unix-socket / faulty)"
cargo test -q --test transport_conformance

echo "== multi-process smoke (wave-lts worker over unix sockets)"
cargo test -q --test multiprocess_integration

echo "== crash-report gate (die-at-level on every transport → same cause, postmortem parses & merges)"
# A killed rank must exit the simulation with code 4 and leave a crash
# report whose recordings `postmortem` can re-parse and causally merge
# (postmortem exits 0 only on both). Every transport must name the same
# cause: the report's `reason` and `detail` equal the channel run's.
cargo build --release -q --bin wave-lts
crash_dir="$(mktemp -d /tmp/wlts_crash.XXXXXX)"
trap 'rm -rf "$crash_dir"' EXIT
for transport in channel unix-socket process; do
  report="$crash_dir/$transport.json"
  status=0
  ./target/release/wave-lts simulate --mesh trench --elements 600 --steps 4 \
    --ranks 3 --transport "$transport" --fault-rank 1 --fault-die-at-level 1 \
    --crash-report "$report" >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 4 ]; then
    echo "crash-report gate: $transport: expected exit 4, got $status" >&2
    exit 1
  fi
  if [ ! -s "$report" ] || [ ! -s "$report.txt" ] || [ ! -s "$report.trace.json" ]; then
    echo "crash-report gate: $transport: missing report artifacts" >&2
    exit 1
  fi
  ./target/release/wave-lts postmortem --file "$report" >/dev/null
  cause="$(grep -E '^  "(reason|detail)": ' "$report")"
  if [ -z "$cause" ]; then
    echo "crash-report gate: $transport: report names no reason" >&2
    exit 1
  fi
  if [ "$transport" = channel ]; then
    channel_cause="$cause"
  elif [ "$cause" != "$channel_cause" ]; then
    printf 'crash-report gate: %s names another cause than channel:\n%s\nvs\n%s\n' \
      "$transport" "$cause" "$channel_cause" >&2
    exit 1
  fi
done

echo "== SIMD feature matrix (lts-sem with and without the simd feature)"
# Feature on is the workspace default (covered by every other step); the
# off leg must still build and pass bitwise-determinism tests through the
# pure scalar path, and stay clippy-clean.
cargo test -q -p lts-sem --no-default-features
cargo clippy -p lts-sem --no-default-features --all-targets -- -D warnings

echo "== cargo bench --no-run (microbenches must stay compilable)"
cargo bench --no-run -q

echo "== perfbench builds (its own package, path deps on crates/*)"
# perfbench pins crates/ API (Operator, DistributedConfig fields, the run
# entry points); --locked fails on lock drift instead of rewriting
# perfbench/Cargo.lock.
cargo build --release --locked --offline --manifest-path perfbench/Cargo.toml

echo "== counter gate (lts-profile run → validate → bench-compare, full matrix)"
# The matrix covers every strategy and an order-4 block on every benchmark
# mesh, so the partitioners and the SIMD stiffness batch at the paper's
# production order are inside the counter gate.
cargo build --release -q -p lts-bench --bin lts-profile
bench_out="$(mktemp /tmp/bench_lts.XXXXXX.json)"
scalar_out="$(mktemp /tmp/bench_lts_scalar.XXXXXX.json)"
flight_off="$(mktemp /tmp/bench_lts_noflight.XXXXXX.json)"
trap 'rm -f "$bench_out" "$scalar_out" "$flight_off"; rm -rf "$crash_dir"' EXIT
./target/release/lts-profile --mode run --out "$bench_out" >/dev/null
./target/release/lts-profile --mode validate --file "$bench_out"
./target/release/lts-profile --mode compare \
  --baseline BENCH_lts.json --current "$bench_out"

echo "== counter gate, forced-scalar kernel (counters must be SIMD-invariant)"
LTS_SIMD=scalar ./target/release/lts-profile --mode run --out "$scalar_out" >/dev/null
./target/release/lts-profile --mode compare \
  --baseline BENCH_lts.json --current "$scalar_out"

echo "== counter gate, flight recorder off (counters must be identical)"
# --flight 0 disables the flight recorder entirely; every deterministic
# counter must match the baseline exactly — the recorder is observability,
# never physics.
./target/release/lts-profile --mode run --flight 0 --out "$flight_off" >/dev/null
./target/release/lts-profile --mode compare \
  --baseline BENCH_lts.json --current "$flight_off"

echo "ok"
