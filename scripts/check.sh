#!/usr/bin/env bash
# Repository lint gate: clippy clean under -D warnings, formatting canonical,
# and the bench-smoke regression gate (scenario parameters and
# deterministic counters vs the committed BENCH_lts.json baseline, exact).
# Run from anywhere; operates on the workspace this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo xtask lint (one pass: call-graph analyses + per-file rules)"
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

echo "== crash-report gate (die-at-level on every transport → postmortem parses & merges)"
# A killed rank must exit the simulation with code 4 and leave a crash
# report whose recordings `postmortem` can re-parse and causally merge
# (postmortem exits 0 only on both).
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
done

echo "== SIMD feature matrix (lts-sem with and without the simd feature)"
# Feature on is the workspace default (covered by every other step); the
# off leg must still build and pass bitwise-determinism tests through the
# pure scalar path.
cargo test -q -p lts-sem --no-default-features

echo "== cargo bench --no-run (microbenches must stay compilable)"
cargo bench --no-run -q

echo "== bench smoke (lts-profile --smoke → validate → bench-compare)"
# The smoke matrix includes an order-4 scenario, so the SIMD stiffness
# batch at the paper's production order is inside the counter gate.
cargo build --release -q -p lts-bench --bin lts-profile
smoke_out="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
scalar_out="$(mktemp /tmp/bench_smoke_scalar.XXXXXX.json)"
flight_off="$(mktemp /tmp/bench_smoke_noflight.XXXXXX.json)"
trap 'rm -f "$smoke_out" "$scalar_out" "$flight_off"; rm -rf "$crash_dir"' EXIT
./target/release/lts-profile --mode run --smoke true --out "$smoke_out" >/dev/null
./target/release/lts-profile --mode validate --file "$smoke_out"
./target/release/lts-profile --mode compare \
  --baseline BENCH_lts.json --current "$smoke_out"

echo "== bench smoke, forced-scalar kernel (counters must be SIMD-invariant)"
LTS_SIMD=scalar ./target/release/lts-profile --mode run --smoke true \
  --out "$scalar_out" >/dev/null
./target/release/lts-profile --mode compare \
  --baseline "$smoke_out" --current "$scalar_out"

echo "== recorder-overhead smoke (flight recorder off: counters must be identical)"
# LTS_FLIGHT=0 disables the flight recorder entirely; every deterministic
# counter must match the recorder-on smoke run exactly — the recorder is
# observability, never physics.
LTS_FLIGHT=0 ./target/release/lts-profile --mode run --smoke true \
  --out "$flight_off" >/dev/null
./target/release/lts-profile --mode compare \
  --baseline "$smoke_out" --current "$flight_off"

echo "ok"
