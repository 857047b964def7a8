#!/usr/bin/env bash
#
# Tier-1 verification, three times: a plain build+test pass (plus a
# rerun of the suites labelled `traced` with DSI_TRACE=1, as CI's
# tracing job does), an AddressSanitizer pass (catches the
# lifetime/buffer bugs the chaos suite is designed to provoke), and an
# UndefinedBehaviorSanitizer pass (signed overflow, null memcpy/memcmp;
# any report fails the run). Run from the repo root:
#
#   scripts/check.sh [extra ctest args...]
#
# Optionally set DSI_CHECK_TSAN=1 to add a ThreadSanitizer pass over
# the concurrency-sensitive suites (slower; chaos + parallel + MPMC).
# The last line printed is the .cc/.h line count under src/.

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

run_pass() {
    local build_dir="$1"
    local sanitize="$2"
    shift 2
    echo "==> configure ${build_dir} (DSI_SANITIZE='${sanitize}')"
    cmake -B "${build_dir}" -S . -DDSI_SANITIZE="${sanitize}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> build ${build_dir}"
    cmake --build "${build_dir}" -j "${JOBS}" >/dev/null
    echo "==> test ${build_dir}"
    (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}" "$@")
}

# Pass 1: plain tier-1, then the fault-injection and trace suites
# again with tracing forced on.
run_pass build "" "$@"
echo "==> test build with DSI_TRACE=1 (-L traced)"
(cd build && DSI_TRACE=1 ctest --output-on-failure -j "${JOBS}" -L traced "$@")

# Pass 2: ASan.
run_pass build-asan address "$@"

# Pass 3: UBSan (built with -fno-sanitize-recover, so a report fails).
run_pass build-ubsan undefined "$@"

# Optional pass 4: TSan over the suites labelled `threaded` in
# tests/CMakeLists.txt.
if [[ "${DSI_CHECK_TSAN:-0}" == "1" ]]; then
    run_pass build-tsan thread -L threaded "$@"
fi

# Bench smoke: --quick perf_suite and dedup_bench runs plus schema
# validation of the fresh reports and the checked-in baselines (no
# thresholds here; the decode speedup and dedup storage-savings bars
# are asserted by bench_schema_test), then tail_latency_bench (exits 1
# unless hedged reads lower the p99 batch gap under a straggling
# replica), then the end-to-end benchmark's tiny-corpus run of every
# workload, so a src/ change that breaks it fails here.
echo "==> bench smoke (perf_suite + dedup_bench --quick + validate + tail_latency_bench + e2ebench --smoke)"
cmake --build build --target perf_suite --target dedup_bench \
    --target tail_latency_bench -j "${JOBS}" >/dev/null
bench_out="$(mktemp -d)"
trap 'rm -rf "${bench_out}"' EXIT
./build/bench/perf_suite --quick --out-dir "${bench_out}" >/dev/null
./build/bench/dedup_bench --quick --out-dir "${bench_out}" >/dev/null
./build/bench/perf_suite --validate \
    "${bench_out}/BENCH_decode.json" "${bench_out}/BENCH_dpp.json" \
    "${bench_out}/BENCH_dedup.json" \
    BENCH_decode.json BENCH_dpp.json BENCH_dedup.json
./build/bench/tail_latency_bench
python3 e2ebench/run.py --smoke

echo "==> all passes green"

# The size figure ROADMAP tracks: .cc/.h lines under src/.
echo "==> src/ .cc/.h lines: $(find src \( -name '*.cc' -o -name '*.h' \) \
    -exec cat {} + | wc -l)"
