#!/usr/bin/env bash
# Smoke-runs the sim_throughput and fleet bench groups so performance
# regressions are at least *executed* on every verify pass, not just
# compiled, then gates the workspace on clippy. Fails on any panic,
# lint or non-zero exit. Part of the tier-1 verify flow (ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Includes the active-path groups (busy_cpu_quiescent_slaves{,_naive},
# active_path_naive/*) so the decode-cache and active-slave fast paths
# are executed against their forced-naive references on every pass.
cargo bench -q -p pels-bench --bench sim_throughput -- --sample-size 10
echo "bench_smoke: sim_throughput OK"

# Every test of every workspace crate, not only the root package's —
# including the differential suites (active_path, decode_cache,
# obs_invariance, the pels-soc sprint tests, flow_invariance,
# flow_properties, lifetime_invariance, desc_fuzz).
cargo test --workspace -q
echo "bench_smoke: workspace tests OK"

# perfbench is its own cargo workspace with path dependencies on
# crates/*: build and test it here, so a change to an API it uses fails
# this pass instead of the benchmark run.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
echo "bench_smoke: perfbench builds and its tests pass OK"

# The fleet bench also asserts serial-vs-parallel digest equality.
cargo bench -q -p pels-bench --bench fleet -- --sample-size 10
echo "bench_smoke: fleet OK"

# Observability gate: regenerate the OBS artifacts with the profiler on
# (plus a reduced-horizon lifetime projection), then schema-check them —
# the reference counters (decode cache, scheduler, superblock/fusion
# tiers, fleet workers, energy ledger, battery projection) must be
# present and nonzero, the Chrome trace must be well-formed trace-event
# JSON with power counter tracks, a battery state-of-charge track and
# causal flow arrows (every "s" matched by an "f", ids bound to
# enclosing slices), the power timeline must have contiguous
# non-negative windows, OBS_flows.json must carry non-empty per-mediator
# flow reports with monotone hop times and allowlisted stages, and
# BENCH_lifetime.json must carry the battery parameters, a positive
# PELS-vs-IRQ headline and non-empty sweep rows. Drift in any exporter
# fails here instead of shipping broken artifacts.
cargo run -q --release -p pels-bench --bin reproduce -- sim_throughput lifetime --quick --obs > /dev/null
cargo run -q --release -p pels-bench --bin obs_check
echo "bench_smoke: obs + lifetime artifacts OK"

# The throughput artifact must carry the tracked fused-tier pair — a
# missing key means a busy-linking tier or its speedup serialization
# silently dropped out of the measurement — and the fused tier must not
# run slower than the single-step tier it accelerates. The noise-free
# counterpart (block share of retired instructions, fused pairs, no
# verify aborts) is `busy_linking_runs_on_the_fused_tier` in the
# workspace test run above.
grep -q '"linking_fused_speedup"' BENCH_sim_throughput.json
grep -q '"linking_fused_cycles_per_sec"' BENCH_sim_throughput.json
grep -q '"linking_superblock_single_step_cycles_per_sec"' BENCH_sim_throughput.json
fused=$(sed -n 's/.*"linking_fused_cycles_per_sec": \([0-9.]*\).*/\1/p' BENCH_sim_throughput.json)
single=$(sed -n 's/.*"linking_superblock_single_step_cycles_per_sec": \([0-9.]*\).*/\1/p' BENCH_sim_throughput.json)
awk -v f="$fused" -v s="$single" 'BEGIN { exit !(f >= s) }' || {
    echo "bench_smoke: fused tier ($fused cycles/s) slower than single-step ($single cycles/s)" >&2
    exit 1
}
echo "bench_smoke: fused speedup keys OK"

# Description gate: regenerate the canonical corpus under
# examples/descs/ (round-trip checked on emit), then validate every
# committed file — parse, validate, round-trip identity and a one-cycle
# smoke build (the seeded desc fuzzer runs with the workspace tests). The
# regenerated corpus must match the committed one byte for byte: a
# layout or number-format drift in the encoder fails here instead of
# silently rewriting examples/descs/.
cargo run -q --release -p pels-bench --bin reproduce -- desc > /dev/null
git diff --exit-code -- examples/descs/
cargo run -q --release -p pels-bench --bin desc_check
echo "bench_smoke: description corpus OK"

# Hygiene: every generated artifact class must stay ignored — a missing
# pattern means `git status` noise at best and a committed multi-MB
# artifact at worst.
for f in BENCH_lifetime.json BENCH_sim_throughput.json BENCH_fleet_throughput.json \
         OBS_metrics.json OBS_trace.json OBS_timeline.json OBS_flows.json wave.vcd; do
    git check-ignore -q "$f" || {
        echo "bench_smoke: generated artifact $f is not gitignored" >&2
        exit 1
    }
done
echo "bench_smoke: artifact gitignore audit OK"

cargo clippy --workspace --all-targets -q -- -D warnings
echo "bench_smoke: clippy OK"

# Rustdoc gate: broken intra-doc links or malformed doc examples fail
# the pass — the API docs are part of the reproduction artifact.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
echo "bench_smoke: rustdoc OK"
