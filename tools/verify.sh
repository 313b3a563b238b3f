#!/usr/bin/env bash
# Repo verification:
#   1. tier-1: full Release build + the whole ctest suite; the build treats
#      compiler warnings as errors (CMAKE_COMPILE_WARNING_AS_ERROR, CMake
#      >= 3.24), so a new warning fails verification instead of scrolling by;
#   2. the checkpoint/resume suite (ctest -L checkpoint) run on its own, so a
#      resume-determinism or corrupt-file-handling regression is reported by
#      name even when something earlier in the suite also fails;
#   3. the observability suite (ctest -L obs: metrics math, request-trace
#      ring, Prometheus emitter, trace export, sink continuity) plus a
#      telemetry smoke run of the CLI: 2 training epochs with
#      --metrics-file/--trace-file, then check-json on both artifacts;
#   4. the query-serving suite (ctest -L serve: batch index equivalence,
#      engine hot-swap, NDJSON protocol, the serve session's reply order,
#      flushing, stats barrier and reload errors, CLI flags) plus a serve
#      smoke: NDJSON queries, stats, statsz and two reloads (one good, one
#      of a missing file) piped through
#      `sarn serve` (with --prom-file exposition written and grepped, the
#      index block/tail query counters included), output
#      validated with check-json, run once at float32 and once with
#      --quantized, plus a `sarn metrics-export` Prometheus smoke;
#      after the serve suite, a stress stage: the two steady-state
#      allocation pins (EmbeddingIndexTest.QueryBatchBuildsNoTapeNodesAndNo-
#      SteadyStateAllocs, QuantizedIndexTest.SteadyStateQueriesAreAllocation-
#      Free) run 50 times back to back and the request tracer's concurrent
#      publish/snapshot cases (obs_request_trace_test *Concurrent*) 200
#      times, the serve label runs 20 times and the checkpoint, snapshot,
#      encoder (golden-trace and receptive-field pins, the default-dims
#      1-vs-4-thread trace), obs (request-trace ring) and simd
#      (scalar-vs-vector kernel and GEMM bitwise pins, the GAT layer's
#      1-vs-4-thread pin) labels 10 times each under ctest -j$(nproc), so
#      an invariant that holds only under some thread schedules fails here
#      instead of as a rare flake;
#   5. the SIMD suite (ctest -L simd: scalar-vs-vector bitwise identity,
#      int8 kernel exactness, quantized recall@10 gate) in the default build,
#      plus tools/check_gemm_registers.py on the AVX2 GEMM object,
#      then again in a -DSARN_NO_SIMD=ON build (build-nosimd) to prove the
#      scalar fallback configuration stays green on its own;
#   6. the concurrency-sensitive tests (parallel runtime, matmul kernels,
#      GAT grad-path fusion, buffer-pool acquire/release, metrics registry, the
#      mutex-guarded request-trace ring, serve engine hot-swap, the serve
#      session's reader/writer threads, SIMD kernels) plus
#      the checkpoint suite rebuilt under ThreadSanitizer, so a pool
#      regression, a race in resumed training, a race on a telemetry
#      instrument, a torn trace record, or a torn snapshot swap shows up as a
#      reported race instead of a rare flake;
#   7. a leak gate: the storage-pool, SIMD-kernel and quantized-index suites
#      and a short CLI training run rebuilt under AddressSanitizer
#      (LeakSanitizer on by default), so a tensor buffer, tape closure
#      (including the fused GAT and compiled-GEMM backward closures) or
#      quantized snapshot that never returns to the pool fails verification
#      instead of slowly growing memory;
#   8. the mmap snapshot suite (ctest -L snapshot: corruption fuzz typed-error
#      sweep over a serving snapshot and a training checkpoint, round-trip
#      bitwise identity, golden v1 layout pin) plus a CLI smoke (snapshot
#      save -> load -> serve --snapshot), with the corruption fuzz
#      additionally rebuilt under ASan (a mutated serving or checkpoint arena
#      must produce a typed error, never an out-of-bounds read) and the
#      concurrent mmap hot-swap round trip under TSan;
#   9. the pluggable encoder/augmentation plane (ctest -L encoder: variant
#      registry round-trip, golden-trace bitwise pins of the default and
#      eight other compositions at 1 and 4 threads, receptive-field builder
#      and restricted-layer bitwise tests, checkpoint variant-tag compat)
#      plus CLI smokes: 2-epoch training runs of the RFN encoder, the
#      Third-Law augmentation and the all-vertex negatives (the one
#      composition whose target branch runs on all rows while its online
#      branch runs on the batch's receptive field); encoder_plane_test and
#      receptive_field_test also ride the TSan and ASan rebuilds so a race or
#      leak in a variant factory, the RFN relational kernels, the
#      receptive-field builder or the trainer's sampler staging fails
#      verification.
#
# Usage: tools/verify.sh [--tsan-only|--no-tsan|--no-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc)"
mode="${1:-all}"

if [[ "$mode" != "--tsan-only" ]]; then
  cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON > /dev/null
  cmake --build build -j"$jobs"
  (cd build && ctest --output-on-failure -j"$jobs")
  # Fault-injection + bitwise resume-determinism tests, isolated for clarity.
  (cd build && ctest --output-on-failure -L checkpoint)
  # Observability suite: metrics math, trace export, sink continuity.
  (cd build && ctest --output-on-failure -L obs)
  # Telemetry smoke: a short training run must produce valid JSONL metrics
  # and a loadable Chrome trace.
  obs_dir="build/verify_obs"
  rm -rf "$obs_dir" && mkdir -p "$obs_dir"
  build/tools/sarn generate --city CD --scale 0.015 --out "$obs_dir/net.csv"
  build/tools/sarn train --network "$obs_dir/net.csv" --epochs 2 --dim 16 \
    --metrics-file "$obs_dir/metrics.jsonl" --trace-file "$obs_dir/trace.json"
  build/tools/sarn check-json --in "$obs_dir/metrics.jsonl" --lines true
  build/tools/sarn check-json --in "$obs_dir/trace.json"
  # Encoder/augmentation plane suite: registry round-trip, golden-trace pin,
  # checkpoint variant tags.
  (cd build && ctest --output-on-failure -L encoder)
  # Variant smokes: the non-default encoder (RFN), augmentation (Third-Law)
  # and the all-vertex negatives (all-rows target branch) must train end to
  # end through the CLI.
  variant_dir="build/verify_encoder"
  rm -rf "$variant_dir" && mkdir -p "$variant_dir"
  build/tools/sarn train --network "$obs_dir/net.csv" --epochs 2 --dim 16 \
    --encoder rfn --embeddings "$variant_dir/emb_rfn.csv"
  build/tools/sarn train --network "$obs_dir/net.csv" --epochs 2 --dim 16 \
    --augmentation third-law --embeddings "$variant_dir/emb_third_law.csv"
  build/tools/sarn train --network "$obs_dir/net.csv" --epochs 2 --dim 16 \
    --negatives all-vertex --embeddings "$variant_dir/emb_all_vertex.csv"
  # Query-serving suite: batch/sequential bitwise equivalence, cache + epoch
  # hot-swap semantics, protocol fuzz cases, flag registry.
  (cd build && ctest --output-on-failure -L serve)
  # Stress: the pool-miss pins must hold on every schedule, not just most.
  build/tests/embedding_index_test --gtest_repeat=50 --gtest_brief=1 \
    --gtest_filter=EmbeddingIndexTest.QueryBatchBuildsNoTapeNodesAndNoSteadyStateAllocs
  build/tests/quantized_index_test --gtest_repeat=50 --gtest_brief=1 \
    --gtest_filter=QuantizedIndexTest.SteadyStateQueriesAreAllocationFree
  # Every snapshot must list the newest trace records in publish order.
  build/tests/obs_request_trace_test --gtest_repeat=200 --gtest_brief=1 \
    --gtest_filter='*Concurrent*'
  (cd build && ctest --output-on-failure -L serve --repeat until-fail:20 \
    -j"$jobs")
  (cd build && ctest --output-on-failure -L checkpoint --repeat until-fail:10 \
    -j"$jobs")
  (cd build && ctest --output-on-failure -L snapshot --repeat until-fail:10 \
    -j"$jobs")
  (cd build && ctest --output-on-failure -L encoder --repeat until-fail:10 \
    -j"$jobs")
  (cd build && ctest --output-on-failure -L obs --repeat until-fail:10 \
    -j"$jobs")
  (cd build && ctest --output-on-failure -L simd --repeat until-fail:10 \
    -j"$jobs")
  # Serve smoke: NDJSON in, validated NDJSON out, one ok:true per query.
  serve_dir="build/verify_serve"
  rm -rf "$serve_dir" && mkdir -p "$serve_dir"
  build/tools/sarn train --network "$obs_dir/net.csv" --epochs 1 --dim 16 \
    --embeddings "$serve_dir/emb.csv"
  printf '%s\n' \
    '{"op":"query","id":0,"k":3}' \
    '{"vector":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"k":2}' \
    '{"op":"stats"}' \
    '{"op":"statsz"}' \
    "{\"op\":\"reload\",\"embeddings\":\"$serve_dir/emb.csv\"}" \
    "{\"op\":\"reload\",\"embeddings\":\"$serve_dir/missing.csv\"}" \
    > "$serve_dir/queries.ndjson"
  build/tools/sarn serve --embeddings "$serve_dir/emb.csv" --threads 2 \
    --trace-sample 1 --prom-file "$serve_dir/metrics.prom" \
    < "$serve_dir/queries.ndjson" > "$serve_dir/responses.ndjson"
  build/tools/sarn check-json --in "$serve_dir/responses.ndjson" --lines true
  # Four ok replies and two reloads: the good one publishes epoch 2, the
  # missing file is a typed ok:false and changes nothing.
  check_serve_replies() {
    local ok_count
    ok_count="$(grep -c '"ok":true' "$1")"
    if [[ "$ok_count" != 5 ]]; then
      echo "verify: expected 5 ok serve responses in $1, got $ok_count" >&2
      exit 1
    fi
    if ! grep -q '^{"seq":4,"ok":true,"epoch":2}$' "$1" ||
       ! grep -q '^{"seq":5,"ok":false,"error":"\[file_not_found\] ' "$1"; then
      echo "verify: serve reload replies missing or wrong in $1" >&2
      exit 1
    fi
  }
  check_serve_replies "$serve_dir/responses.ndjson"
  # statsz must attribute the traced latency to the five named stages and the
  # stats line must carry the snapshot load telemetry block.
  if ! grep -q '"statsz":{"enabled":true' "$serve_dir/responses.ndjson"; then
    echo "verify: serve statsz response missing or tracing not enabled" >&2
    exit 1
  fi
  for stage in admission queue cache scan reply; do
    if ! grep -q "\"stage\":\"$stage\"" "$serve_dir/responses.ndjson"; then
      echo "verify: serve statsz is missing stage '$stage'" >&2
      exit 1
    fi
  done
  if ! grep -q '"snapshot":{"loads":' "$serve_dir/responses.ndjson"; then
    echo "verify: serve stats is missing the snapshot telemetry block" >&2
    exit 1
  fi
  # The periodic Prometheus exposition file: written at least once (final
  # write on shutdown), parseable enough to carry the serve counters.
  if ! grep -q '^sarn_serve_requests 2$' "$serve_dir/metrics.prom"; then
    echo "verify: --prom-file exposition missing sarn_serve_requests" >&2
    exit 1
  fi
  if ! grep -q '^# TYPE sarn_serve_stage_scan_seconds histogram$' \
      "$serve_dir/metrics.prom"; then
    echo "verify: --prom-file exposition missing stage histograms" >&2
    exit 1
  fi
  # Block/tail query split of the index scans: two queries, so both ran
  # as tail queries, in stats and in the exposition.
  if ! grep -q '"index":{"block_queries":0,"tail_queries":2}' \
      "$serve_dir/responses.ndjson"; then
    echo "verify: serve stats is missing the index block/tail counters" >&2
    exit 1
  fi
  if ! grep -q '^sarn_index_tail_queries 2$' "$serve_dir/metrics.prom"; then
    echo "verify: --prom-file exposition missing sarn_index_tail_queries" >&2
    exit 1
  fi
  # Same smoke at int8: the quantized index must serve the same protocol and
  # report its precision in stats.
  build/tools/sarn serve --embeddings "$serve_dir/emb.csv" --threads 2 \
    --quantized true \
    < "$serve_dir/queries.ndjson" > "$serve_dir/responses_q.ndjson"
  build/tools/sarn check-json --in "$serve_dir/responses_q.ndjson" --lines true
  check_serve_replies "$serve_dir/responses_q.ndjson"
  if ! grep -q '"precision":"int8"' "$serve_dir/responses_q.ndjson"; then
    echo "verify: quantized serve stats did not report precision int8" >&2
    exit 1
  fi
  # Snapshot suite: corruption fuzz, round-trip bitwise identity, golden v1.
  (cd build && ctest --output-on-failure -L snapshot)
  # Snapshot smoke: arena save from the trained CSV, typed load report, then
  # the same NDJSON queries served from the mmap'd snapshot cold start.
  snap_dir="build/verify_snapshot"
  rm -rf "$snap_dir" && mkdir -p "$snap_dir"
  build/tools/sarn snapshot save --embeddings "$serve_dir/emb.csv" \
    --network "$obs_dir/net.csv" --out "$snap_dir/model.sarnsnap"
  build/tools/sarn snapshot load --in "$snap_dir/model.sarnsnap" \
    --query-id 0 --k 3
  # metrics-export: loading the snapshot populates sarn.snapshot.*, so the
  # offline Prometheus dump is non-trivial for a fresh process.
  build/tools/sarn metrics-export --snapshot "$snap_dir/model.sarnsnap" \
    --out "$snap_dir/export.prom"
  if ! grep -q '^sarn_snapshot_loads 1$' "$snap_dir/export.prom"; then
    echo "verify: metrics-export output missing sarn_snapshot_loads" >&2
    exit 1
  fi
  build/tools/sarn serve --snapshot "$snap_dir/model.sarnsnap" --threads 2 \
    < "$serve_dir/queries.ndjson" > "$snap_dir/responses.ndjson"
  build/tools/sarn check-json --in "$snap_dir/responses.ndjson" --lines true
  check_serve_replies "$snap_dir/responses.ndjson"
  # SIMD suite on the default (vectorised) build: bitwise identity between
  # the scalar fallback and the active tier, int8 recall gate.
  (cd build && ctest --output-on-failure -L simd)
  # The AVX2 GEMM k loops keep their accumulators in registers (DESIGN.md
  # §15): no stack traffic or vector store inside them.
  gemm_obj="build/src/tensor/CMakeFiles/sarn_tensor.dir/simd/matmul_avx2.cc.o"
  if [[ -f "$gemm_obj" ]] && command -v objdump > /dev/null; then
    python3 tools/check_gemm_registers.py "$gemm_obj"
  fi
  # And the scalar-fallback configuration: same suite with the vector tiers
  # compiled out entirely.
  cmake -B build-nosimd -S . -DSARN_NO_SIMD=ON > /dev/null
  cmake --build build-nosimd -j"$jobs" \
    --target simd_kernels_test ops_test nn_gat_test quantized_index_test \
    embedding_index_test
  (cd build-nosimd && ctest --output-on-failure -L simd)
fi

if [[ "$mode" != "--no-tsan" && "$mode" != "--no-asan" ]]; then
  cmake -B build-tsan -S . -DSARN_SANITIZE=thread > /dev/null
  cmake --build build-tsan -j"$jobs" \
    --target parallel_test ops_test nn_gat_test serialization_test \
             sarn_model_test obs_metrics_test obs_trace_test \
             obs_request_trace_test serve_engine_test serve_session_test \
             storage_pool_test simd_kernels_test quantized_index_test \
             snapshot_roundtrip_test encoder_plane_test receptive_field_test
  (cd build-tsan && ctest --output-on-failure \
    -R '^(parallel_test|ops_test|nn_gat_test|serialization_test|sarn_model_test|obs_metrics_test|obs_trace_test|obs_request_trace_test|serve_engine_test|serve_session_test|storage_pool_test|simd_kernels_test|quantized_index_test|snapshot_roundtrip_test|encoder_plane_test|receptive_field_test)$')
fi

if [[ "$mode" != "--tsan-only" && "$mode" != "--no-asan" ]]; then
  # Leak gate: ASan+LSan over the storage plane (pool recycling, tape
  # consumption) and a short end-to-end training run through the CLI.
  cmake -B build-asan -S . -DSARN_SANITIZE=address > /dev/null
  cmake --build build-asan -j"$jobs" \
    --target storage_pool_test tensor_test simd_kernels_test \
             quantized_index_test snapshot_corruption_test \
             snapshot_roundtrip_test encoder_plane_test receptive_field_test \
             sarn_cli
  (cd build-asan && ctest --output-on-failure \
    -R '^(storage_pool_test|tensor_test|simd_kernels_test|quantized_index_test|snapshot_corruption_test|snapshot_roundtrip_test|encoder_plane_test|receptive_field_test)$')
  asan_dir="build-asan/verify_leak"
  rm -rf "$asan_dir" && mkdir -p "$asan_dir"
  build-asan/tools/sarn generate --city CD --scale 0.015 --out "$asan_dir/net.csv"
  build-asan/tools/sarn train --network "$asan_dir/net.csv" --epochs 2 --dim 16 \
    --embeddings "$asan_dir/emb.csv"
fi

echo "verify: OK"
