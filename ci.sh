#!/usr/bin/env bash
# Static analysis, tier-1 verification, and a sanitizer pass over the suite.
#
#   ./ci.sh          # lint, release-ish build + ctest, then ASan/UBSan pass
#   ./ci.sh --fast   # lint + tier-1 only (skip the sanitizer build)
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> ds_lint: determinism / Status / obs / ctrl / deferred / layering / time-unit rules"
# Fast-fail gate: builds only the lint tool, then walks src/ bench/ examples/
# tests/ with the parallel scanner. Non-zero exit on any finding, including
# stale suppressions; output is stable-sorted file:line so failures diff
# cleanly, and the same findings land in build/ds_lint_findings.json as a
# machine-readable build artifact. See DESIGN.md.
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}" --target ds_lint >/dev/null
./build/tools/ds_lint/ds_lint --root . --json-out build/ds_lint_findings.json

echo "==> clang-tidy: promoted lifetime/perf checks (gating when available)"
# The container's baked toolchain is gcc-only; the promoted check subset
# (use-after-move, dangling-handle, unnecessary-value-param) gates wherever
# clang-tidy exists and is skipped — loudly — where it does not.
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  git ls-files 'src/*.cc' | xargs clang-tidy -p build --quiet \
    --checks='-*,bugprone-use-after-move,bugprone-dangling-handle,performance-unnecessary-value-param' \
    --warnings-as-errors='*'
else
  echo "    clang-tidy not installed; skipping promoted checks (advisory .clang-tidy still applies in IDEs)"
fi

echo "==> tier-1: configure + build + ctest (build/)"
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "==> fault-recovery smoke: fixed-seed chaos run, conservation asserted"
# Exits non-zero if any accepted request terminates in neither (or both) of
# on_complete / on_error.
./build/bench/fig_fault_recovery --smoke --fault-seed=42 >/dev/null

echo "==> ctrl-failover smoke: CM leader crash, conservation + replay asserted"
# Exits non-zero unless the replicated run conserves every request across the
# leader crash and replays bit-identically, the single-replica ablation
# accounts for every request (terminations + undetected losses == submitted),
# and every CM crash in the replicated run failed over.
./build/bench/fig_ctrl_failover --smoke >/dev/null

echo "==> traffic smoke: routing-policy ablation under a flash crowd + slow TE"
# Exits non-zero unless request conservation holds in every variant, p2c+eject
# and wlc+eject beat plain rr on both goodput and p99 TTFT, the slow TE gets
# ejected, and the rr+eject run replays bit-identically.
./build/bench/fig_traffic --smoke >/dev/null

echo "==> sched-policy smoke: fcfs/slo/priority-preempt ablation invariants"
# Exits non-zero unless conservation holds for all three policies, slo keeps
# max_decode_step under its TBT budget while shedding via on_error, and the
# slo run replays bit-identically.
./build/bench/abl_sched_policy --smoke >/dev/null

echo "==> autoscale smoke: reactive/predictive/slo policy comparison invariants"
# Exits non-zero unless graceful drains lose nothing, the predictive run
# replays bit-identically, and predictive beats reactive on p99 TTFT and SLO
# violations at no more TE-seconds.
./build/bench/fig_autoscale --smoke >/dev/null

echo "==> hetero smoke: cost-aware vs hetero-blind placement on a Gen1/Gen2 mix"
# Exits non-zero unless conservation holds in both modes, cost-aware placement
# puts more TEs on Gen1 than the blind first-fit, beats it on tokens-per-dollar,
# and the aware run replays bit-identically.
./build/bench/fig_hetero --smoke >/dev/null

echo "==> examples: each example binary end to end once"
# Exits non-zero if any example does; deepserve_sim replays a 60 s trace.
for example in quickstart chat_service disaggregated_serving context_caching fast_scaling \
    agent_serving; do
  "./build/examples/${example}" >/dev/null
done
./build/examples/deepserve_sim --duration=60 >/dev/null

echo "==> perf_sim smoke: DES core throughput, replay determinism, calendar walk, LRU work, log and prompt-hash bounds, RTC pin conservation, BENCH_perf.json"
# Exits non-zero unless the full-stack 64-TE replay and the 8-TE long_horizon
# replay are each bit-identical across two runs, the cancellation-heavy
# scenario beats the embedded pre-PR event core by >= 3x events/sec, the
# 64-TE replay's calendar inserts walk at most 1 chain link each on average
# (the bucket width follows the dequeue stream), and long_horizon's LRU
# leaves examined per request at 1920 sim-s are at most 1.25x those at 960
# sim-s, its JE control log retains no more records at 1920 than at 960
# sim-s, it hashes at most one prompt key chain per request (the JE's; the
# engines share it) and no RTC block is still transfer-pinned once it has
# drained (deterministic counts; wall time is recorded, not gated). Writes
# the tracked BENCH_perf.json.
./build/bench/perf_sim --smoke --out=BENCH_perf.json >/dev/null

echo "==> simbench smoke: one short chaos_pd run of the benchmark"
# Builds simbench from this checkout (Release, into .bench_build/) and runs
# the workload on the replicated control log for 1 s. Exits non-zero if the
# build or the run fails, so a src/ API change that breaks simbench/simbench.cc
# fails here.
python3 simbench/run.py --workload chaos_pd --seed 1 --seconds 1 --trace 0 >/dev/null

if [[ "${1:-}" == "--fast" ]]; then
  echo "==> --fast: skipping sanitizer pass"
  exit 0
fi

echo "==> sanitizers: ASan/UBSan build + ctest (build-asan/)"
# The suite includes fault_test (chaos property tests), so the crash/recovery
# paths run under both sanitizers here. Clang's extra integer/implicit-
# conversion groups catch benign-looking unsigned wraparound and silent
# narrowing that UBSan proper does not; gcc does not implement them, so they
# switch on only when the build compiler is clang.
SAN_FLAGS="-fsanitize=address,undefined"
if "${CXX:-c++}" --version 2>/dev/null | grep -qi clang; then
  SAN_FLAGS="${SAN_FLAGS},integer,implicit-conversion"
fi
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="${SAN_FLAGS} -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}" >/dev/null
cmake --build build-asan -j "${JOBS}"
(cd build-asan && ctest --output-on-failure -j "${JOBS}")

echo "==> ci.sh: all green"
