#!/usr/bin/env bash
# CI driver: builds and runs the test suite in the plain config, then again
# with ThreadSanitizer (BLAZE_SANITIZE=thread) in a separate build tree so
# data races on the concurrent hot paths fail the pipeline, and once more
# with AddressSanitizer (BLAZE_SANITIZE=address) plus UndefinedBehaviorSanitizer
# over the storage/columnar subset so arena lifetime bugs (use-after-release,
# chunk overruns) and undefined behaviour (signed overflow, misaligned loads)
# fail too.
#
# Usage: tools/ci.sh [plain|tsan|asan|all]   (default: all)
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
jobs="$(nproc)"

case "$mode" in
  plain|tsan|asan|all) ;;
  *) echo "usage: tools/ci.sh [plain|tsan|asan|all]" >&2; exit 2 ;;
esac

run_config() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$build_dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$build_dir" -j "$jobs"
  echo "=== [$name] ctest ==="
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

trace_smoke() {
  # End-to-end flight-recorder smoke: run a small fig09 sweep with tracing
  # on, then validate the exported Chrome trace + audit JSONL. A baseline
  # run must show scheduler spans and at least one eviction audit record;
  # the Blaze run must additionally show an ILP solve.
  echo "=== [plain] trace smoke ==="
  local smoke_dir="build/trace-smoke"
  rm -rf "$smoke_dir" && mkdir -p "$smoke_dir"
  BLAZE_TRACE="$smoke_dir/fig09.json" \
    BLAZE_BENCH_SCALE=0.25 \
    BLAZE_BENCH_WORKLOADS=pr \
    BLAZE_BENCH_SYSTEMS=spark-memdisk,blaze \
    ./build/bench/bench_fig09_end_to_end
  ./build/tools/trace_validate "$smoke_dir/fig09.pr.spark-memdisk.json" \
    --require-span job.run --require-span stage.run --require-span task.run \
    --require-audit evict
  ./build/tools/trace_validate "$smoke_dir/fig09.pr.blaze.json" \
    --require-span job.run --require-span task.run --require-span ilp.solve \
    --require-audit ilp_solve
  # The paper workloads keep narrow operators as singletons between barriers,
  # so fig09 traces contain no multi-operator fused chains; fused_smoke runs
  # one deliberately (including a post-eviction recompute through the fused
  # chain) and must still produce task/recompute spans and audit records.
  ./build/tools/fused_smoke "$smoke_dir/fused.json"
  ./build/tools/trace_validate "$smoke_dir/fused.json" \
    --require-span task.run --require-span task.fused_chain \
    --require-span task.vectorized_chain \
    --require-span task.recompute --require-audit admit --require-audit evict
  # Concurrent-job smoke: two driver threads on one engine. The trace must
  # contain two job.run spans with *different* job ids that intersect in
  # time (the event-driven scheduler actually overlapping jobs), and the
  # audit log must stay well-formed JSONL under the interleaving.
  ./build/tools/concurrent_smoke "$smoke_dir/concurrent.json"
  ./build/tools/trace_validate "$smoke_dir/concurrent.json" \
    --require-span job.run --require-span stage.run --require-span task.run \
    --require-overlap job.run job --require-audit admit
}

spill_smoke() {
  # Spill-pressure smoke: shrink executor memory to a sliver of the working
  # set so the fig09 PageRank run evicts continuously, exercising the async
  # spill pipeline (arbiter accounting, write-claim read-through, pinned
  # blocks) end to end. Correctness-only: the run must complete; wall-clock
  # is the perf smoke's job. $1 names the build tree so the TSan config can
  # reuse it.
  local build_dir="${1:-build}"
  echo "=== [$build_dir] spill-pressure smoke ==="
  BLAZE_BENCH_SCALE=0.25 \
    BLAZE_BENCH_MEM_SCALE=0.05 \
    BLAZE_BENCH_WORKLOADS=pr \
    BLAZE_BENCH_SYSTEMS=spark-memdisk,blaze \
    "./$build_dir/bench/bench_fig09_end_to_end" >/dev/null
}

micro_serialize_smoke() {
  # Columnar/arena win guards (the binary enforces both bounds after its
  # benchmark pass): columnar encode of the string-bearing type must beat the
  # row codec >= 1.5x, and arena block teardown must beat per-row heap
  # teardown >= 1.5x. Filter to the floor-relevant benchmarks to keep CI fast.
  echo "=== [plain] micro-serialize columnar/arena guard ==="
  BLAZE_MICRO_SERIALIZE_MIN_COLUMNAR_SPEEDUP=1.5 \
    BLAZE_MICRO_SERIALIZE_MIN_ARENA_SPEEDUP=1.5 \
    ./build/bench/bench_micro_serialize --benchmark_filter='Columnar|Teardown'
}

micro_trace_smoke() {
  # Always-on telemetry overhead guard: TelemetryCounter::Add must stay under
  # 20 ns/op across 4 threads (the binary times a manual loop after the
  # benchmark pass and enforces the bound).
  echo "=== [plain] registry overhead guard ==="
  BLAZE_MICRO_TRACE_MAX_COUNTER_NS=20 \
    ./build/bench/bench_micro_trace --benchmark_filter='Registry'
}

traffic_slo_smoke() {
  # Tail-latency SLO smoke: a traced multi-driver Zipf traffic run against the
  # live telemetry plane. Fails if (a) job p99 regresses >15% over the
  # recorded floor (floor: 45 ms traced p99 at drivers=4 jobs=160 datasets=8
  # on the 1-vCPU CI machine — observed 13-34 ms traced depending on
  # background load, since 12 threads share one core; limit = 45 * 1.15 =
  # 51.75 ms, enforced by the bench via BLAZE_SLO_MAX_P99_MS), (b) /metrics or
  # /stats serve malformed output (the bench validates both with the in-tree
  # JSON parser before teardown), or (c) the exported trace is malformed.
  echo "=== [plain] traffic SLO smoke ==="
  local smoke_dir="build/slo-smoke"
  rm -rf "$smoke_dir" && mkdir -p "$smoke_dir"
  BLAZE_TRACE="$smoke_dir/slo.json" \
    BLAZE_SLO_DRIVERS=4 \
    BLAZE_SLO_JOBS=160 \
    BLAZE_SLO_DATASETS=8 \
    BLAZE_SLO_MAX_P99_MS=51.75 \
    ./build/bench/bench_traffic_slo
  ./build/tools/trace_validate "$smoke_dir/slo.json" --summary \
    --require-span job.run --require-span stage.run --require-span task.run \
    --require-audit admit
  # Open-loop leg: Poisson arrivals at a fixed offered rate, submitted
  # asynchronously so queueing delay lands in the percentiles (no coordinated
  # omission). 100 jobs/s is ~5% of the closed-loop throughput on the CI
  # machine, so the queue stays shallow and p99 holds far under the bound
  # (observed ~2-5 ms; limit leaves 10x for background-load spikes on the
  # shared 1-vCPU box).
  echo "=== [plain] traffic SLO open-loop smoke ==="
  BLAZE_SLO_MODE=open \
    BLAZE_SLO_RATE=100 \
    BLAZE_SLO_JOBS=120 \
    BLAZE_SLO_DATASETS=8 \
    BLAZE_SLO_MAX_P99_MS=50 \
    ./build/bench/bench_traffic_slo
}

tenant_smoke() {
  # Noisy-neighbor isolation smoke: two tenants with equal soft shares on one
  # engine — a churning tenant floods the cache while a quiet tenant re-reads
  # a hot set held inside its share. The binary asserts the quiet tenant's
  # hit-rate floor (95%) and per-job p99 bound (100 ms), that it recomputed
  # nothing, and that the churn really forced evictions. $1 names the build
  # tree so the TSan config can reuse it (the two drivers race by design).
  local build_dir="${1:-build}"
  echo "=== [$build_dir] tenant noisy-neighbor smoke ==="
  "./$build_dir/tools/tenant_smoke"
}

bench_smoke() {
  # Benchmark smoke: every benchmark workload at a tenth of its inputs, one
  # round each. run.sh exits nonzero on a build failure or on any wrong
  # result (checked against an LRU 1 GiB reference run), so this guards the
  # correctness of all four workloads; it asserts nothing about timing.
  echo "=== [plain] benchmark smoke ==="
  bash benchmark/run.sh --smoke
}

perf_smoke() {
  # Wall-clock guard for the fig09 hot path: best-of-3 at scale 0.25 on the
  # PageRank workload must stay within 10% of the recorded seed numbers
  # (spark-memdisk 530 ms, blaze 421 ms, pre-fusion seed on the CI machine).
  # Catches gross regressions on the task/cache hot path while staying far
  # from flaky territory: current post-fusion numbers are ~15% under seed.
  echo "=== [plain] fig09 perf smoke ==="
  local baseline_spark_ms=530 baseline_blaze_ms=421 tolerance_pct=10
  local best_spark=999999 best_blaze=999999
  for _ in 1 2 3; do
    local row
    row="$(BLAZE_BENCH_SCALE=0.25 BLAZE_BENCH_WORKLOADS=pr \
           BLAZE_BENCH_SYSTEMS=spark-memdisk,blaze \
           ./build/bench/bench_fig09_end_to_end 2>/dev/null | grep '^pr')"
    local spark blaze
    spark="$(echo "$row" | awk '{printf "%d", $2}')"
    blaze="$(echo "$row" | awk '{printf "%d", $3}')"
    if (( spark < best_spark )); then best_spark=$spark; fi
    if (( blaze < best_blaze )); then best_blaze=$blaze; fi
  done
  local limit_spark=$(( baseline_spark_ms * (100 + tolerance_pct) / 100 ))
  local limit_blaze=$(( baseline_blaze_ms * (100 + tolerance_pct) / 100 ))
  echo "fig09 pr best-of-3: spark-memdisk ${best_spark}ms (limit ${limit_spark}ms)," \
       "blaze ${best_blaze}ms (limit ${limit_blaze}ms)"
  if (( best_spark > limit_spark || best_blaze > limit_blaze )); then
    echo "perf smoke FAILED: fig09 wall-clock regressed >${tolerance_pct}% vs seed" >&2
    exit 1
  fi
}

if [[ "$mode" == "plain" || "$mode" == "all" ]]; then
  run_config plain build
  trace_smoke
  spill_smoke build
  micro_serialize_smoke
  micro_trace_smoke
  traffic_slo_smoke
  tenant_smoke build
  bench_smoke
  perf_smoke
fi

if [[ "$mode" == "tsan" || "$mode" == "all" ]]; then
  # TSan slows execution ~5-15x; scale the per-test ctest timeout through
  # the environment instead of editing test properties.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    run_config tsan build-tsan -DBLAZE_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  # The same spill-pressure run under TSan: continuous eviction + the spill
  # worker + pinned readers is exactly where a lifetime race would hide.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" spill_smoke build-tsan
  # The noisy-neighbor scenario under TSan: concurrent tenant drivers hammer
  # the admission gate, arbiter ledgers, and victim scans simultaneously.
  # TSan slows execution ~5-15x, so only the race-freedom and isolation
  # invariants are meaningful — relax the latency bound accordingly.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    BLAZE_TENANT_SMOKE_MAX_P99_MS=2000 tenant_smoke build-tsan
fi

if [[ "$mode" == "asan" || "$mode" == "all" ]]; then
  # ASan leg over the storage/serialization/columnar subset: arena payloads
  # are freed without destructors and handed out as raw spans, so
  # use-after-release and chunk overruns are the failure modes to hunt. The
  # spill-pressure smoke then drives arena-backed blocks through eviction,
  # the async spill queue, and disk round trips end to end. cache_policy
  # rides along: disk-hit promotion keeps blocks decoded on the task path
  # (arena-backed columnar pairs) resident after the reading task ends.
  # net_frame too: its decoders parse bytes from blaze_serve's TCP port.
  # blaze_ilp and blaze_coordinator: Blaze's planned disk->memory promotion
  # hands blocks decoded on the spill worker to the memory store.
  # pair_rdd and rdd_ops: the keyed operators' FlatKeyIndex does raw slot
  # arithmetic over its probe table. UBSan rides in the same build (any
  # finding aborts: -fno-sanitize-recover); engine_invariants runs every
  # cache system over one workload, so it sweeps the coordinators' arithmetic.
  echo "=== [asan] configure+build ==="
  cmake -B build-asan -S . -DBLAZE_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=undefined"
  cmake --build build-asan -j "$jobs"
  echo "=== [asan] ctest (storage/columnar subset) ==="
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-asan --output-on-failure -j "$jobs" \
      -R 'columnar_arena|storage|spill_pipeline|memory_arbiter|serialize|dataflow|fusion|vectorized|cache_policy|net_frame|blaze_ilp|blaze_coordinator|pair_rdd|rdd_ops|engine_invariants'
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" spill_smoke build-asan
fi

echo "CI OK ($mode)"
