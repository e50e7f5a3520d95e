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

# Compile guard: the ExecMode differential switch (ScenarioBuilder::
# exec_mode + Soc::set_naive_scheduling + Cpu::set_decode_cache_enabled)
# must keep compiling — the differential tests and the *_naive bench
# groups are the only proof the fast path is observationally invisible.
cargo test -q --test active_path --no-run
echo "bench_smoke: active_path differential suite compiles OK"

# Every test of every workspace crate, not only the root package's.
cargo test --workspace -q
echo "bench_smoke: workspace tests OK"

# Superblock differential gate: run (not just compile) the suites that
# prove bulk block retirement is observationally identical to
# single-stepped execution — the SoC-level differential + IRQ sweep, the
# CPU-level lockstep/self-modifying-code tests, and the report/fleet
# digest invariance tests.
cargo test -q --test active_path superblock
cargo test -q --test active_path irq_delivery_under_superblocks
cargo test -q -p pels-cpu --test decode_cache superblock
cargo test -q --test obs_invariance superblock
echo "bench_smoke: superblock differential suite OK"

# Fused-tier differential gate: op fusion and the probe-free sprint
# dispatch must stay observationally invisible — the CPU-level fused
# lockstep/self-modifying-code suite, the SoC-level fused pair workload
# + IRQ sweep, and the per-guard sprint bail-out/token suite.
cargo test -q -p pels-cpu --test decode_cache fused
cargo test -q --test active_path fused
cargo test -q -p pels-soc sprint
echo "bench_smoke: fused-tier differential suite OK"

# The fleet bench also asserts serial-vs-parallel digest equality.
cargo bench -q -p pels-bench --bench fleet -- --sample-size 10
echo "bench_smoke: fleet OK"

# Causal flow gate: run (not just compile) the suites that prove flow
# recording is pure observation (bit-identical runs with flows on/off
# across every ExecMode, fleet digest invariant) and that the per-stage
# attribution telescopes exactly to the measured per-event latencies
# (paper probes decompose to 7/2/16 cycles, randomized scenarios sum
# exactly, FlowReport merge is order-invariant).
cargo test -q --test flow_invariance
cargo test -q --test flow_properties
echo "bench_smoke: causal flow differential + property suites OK"

# Energy-ledger gate: run the differential suite that proves the
# lifetime layer is pure observation — ledger on/off runs bit-identical
# across every mediator, blame rows partition the timeline exactly, and
# fleet digests plus the merged ledger are invariant under worker count.
cargo test -q --test lifetime_invariance
echo "bench_smoke: energy ledger invariance suite OK"

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
# smoke build — and run the seeded desc fuzzer (fixed seed, 200+
# generate -> validate -> fast-vs-naive differential iterations). The
# regenerated corpus must match the committed one byte for byte: a
# layout or number-format drift in the encoder fails here instead of
# silently rewriting examples/descs/.
cargo run -q --release -p pels-bench --bin reproduce -- desc > /dev/null
git diff --exit-code -- examples/descs/
cargo run -q --release -p pels-bench --bin desc_check
cargo test -q --test desc_fuzz
echo "bench_smoke: description corpus + fuzzer OK"

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
