#!/usr/bin/env bash
# Tier-1 verification gate, meant to be run before every merge:
#
#   1. Release-ish build + full ctest suite (the tier-1 contract from
#      ROADMAP.md: every test passing, determinism bit-for-bit). The build
#      rejects a discarded Status (-Werror=unused-result), a wire or stats
#      member missing from its BP_WIRE or BP_STATS list (static_asserts),
#      an unrouted message type (-Werror=switch), an uncancellable timer
#      handle (sim::Timer owns every cancellable event), floating point in
#      a library source outside the simulated environment and the
#      exporters (the float_check target, -mgeneral-regs-only) and an
#      iterated hash container (common::HashMap). The ctest suite runs the
#      entropy and float link checks, the float_check probe, the hash name
#      check and alloc_test's bounded-decode case (DESIGN.md §11).
#   2. Metrics snapshot: bench_metrics_dump drives one geo commit + one
#      cross-site send through the full pipeline and archives every
#      registered counter group as build/METRICS_dump.json (validated as
#      JSON when python3 is available).
#   3. Pipeline sweep: the full bench_pipeline run (about a second). It
#      fails unless window 8 beats window 1 on the Table-I WAN matrix, by
#      at least 4x for wide-area PBFT (the DESIGN.md §9 pipelining
#      regression gate), and it sweeps daemon windows over the
#      remote-delivery path with and without 1 % injected loss. It fails
#      if any row stalls before delivering every record, or if a lossy row
#      saw no dropped message (so the DESIGN.md §13 loss path, PBFT
#      catch-up included, is really exercised).
#   Bench passes write their JSON under build/ only. The repo-root
#   BENCH_*.json files are the record of full runs, and a gate never
#   overwrites them (check_bench below only checks the build/ output).
#   4. Static analysis: clang-tidy (.clang-tidy at the repo root; the
#      gate set is bugprone-* + performance-*) over src/ using the
#      compile database — skipped with a notice when clang-tidy is not
#      installed.
#   5. The same suite under ASan+UBSan in a separate Debug build tree
#      (build-asan/). The zero-copy payload paths share one allocation
#      across broadcast fan-out, retransmission buffers, and reorder
#      buffers — exactly the kind of lifetime bug a sanitizer catches and
#      a passing test hides.
#
# Usage: scripts/check.sh [--fast|--chaos-smoke]
#   --fast         passes 1–3; skip clang-tidy and sanitizers.
#   --chaos-smoke  quick chaos gate (<60s): build, then run the chaos
#                  regression + a reduced soak (2 seeds per template via
#                  CHAOS_SOAK_SEEDS) and the fig-8 chaos bench variant,
#                  which fails unless throughput recovers after the
#                  scheduled site outage. Failing campaigns print their
#                  JSON for seed-exact reproduction (see EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

JOBS_SMOKE="$(nproc 2>/dev/null || echo 4)"

# Fails unless the bench pass that was supposed to write build/$1 left a
# non-empty, valid JSON file there.
check_bench() {
  local path="build/$1"
  [[ -s "$path" ]] || { echo "$path missing after its bench pass"; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$path" \
      || { echo "$path is not valid JSON"; exit 1; }
  fi
}

if [[ "${1:-}" == "--chaos-smoke" ]]; then
  echo "=== chaos smoke: build ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS_SMOKE"
  echo "=== chaos smoke: regression + reduced soak ==="
  build/tests/chaos_test
  CHAOS_SOAK_SEEDS=2 build/tests/chaos_soak_test
  echo "=== chaos smoke: fig-8 chaos bench (outage recovery gate) ==="
  build/bench/bench_fig8_failures --chaos --out=build/BENCH_chaos.json
  check_bench BENCH_chaos.json
  echo "=== chaos smoke passed ==="
  exit 0
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "=== pass 1: tier-1 build + tests (warnings are errors) ==="
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DBLOCKPLANE_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

echo "=== pass 2: metrics registry snapshot ==="
build/bench/bench_metrics_dump --out=build/METRICS_dump.json >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open('build/METRICS_dump.json'))" \
    || { echo "METRICS_dump.json is not valid JSON"; exit 1; }
fi
echo "metrics snapshot OK (build/METRICS_dump.json)"

echo "=== pass 3: pipeline sweep (windows 1-16, daemon windows under loss) ==="
build/bench/bench_pipeline --out=build/BENCH_pipeline.json
check_bench BENCH_pipeline.json
echo "pipeline sweep OK (build/BENCH_pipeline.json)"

if [[ "$FAST" == "1" ]]; then
  echo "=== --fast: skipping clang-tidy and sanitizer passes ==="
  exit 0
fi

echo "=== pass 4: clang-tidy (bugprone-*, performance-*) ==="
if command -v clang-tidy >/dev/null 2>&1; then
  # The full check set (with readability/modernize/misc additions) lives
  # in .clang-tidy for IDEs and `run-clang-tidy`; the merge gate enforces
  # the bugprone-* + performance-* core.
  mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
  clang-tidy -p build \
    --quiet \
    --warnings-as-errors='bugprone-*,performance-*' \
    --checks='-*,bugprone-*,performance-*,-bugprone-easily-swappable-parameters,-bugprone-exception-escape' \
    "${TIDY_SOURCES[@]}"
  echo "clang-tidy clean"
else
  echo "clang-tidy not installed; skipping static analysis pass"
fi

echo "=== pass 5: ASan+UBSan build + tests ==="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  >/dev/null
cmake --build build-asan -j "$JOBS"
# The suite includes one sanitized chaos-soak configuration: a reduced
# seed count keeps the fault-campaign sweep affordable under ASan while
# still exercising every schedule template with full instrumentation.
ASAN_OPTIONS=detect_leaks=1 CHAOS_SOAK_SEEDS=4 \
  ctest --test-dir build-asan --output-on-failure

echo "=== all checks passed ==="
