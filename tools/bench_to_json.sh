#!/usr/bin/env bash
# Runs the micro_ops google-benchmark suite and records the results as JSON
# so the perf trajectory is tracked in-repo across PRs.
#
# Usage: tools/bench_to_json.sh [build_dir] [output.json] [extra bench args…]
#
#   tools/bench_to_json.sh                 # build/micro_ops -> BENCH_micro_ops.json
#   tools/bench_to_json.sh build out.json --benchmark_filter='BM_Gemm'
#   tools/bench_to_json.sh build out.json --with-figure7
#
# --with-figure7 additionally runs the figure7 query-time driver (realtime
# PoE assembly vs training-based consolidation) and records its console
# output next to the JSON as BENCH_figure7_query_time.txt.
#
# Serving is measured end to end by perfbench (`python3 perfbench/run.py`,
# see perfbench/README.md), not here.
#
# Requires a build configured with -DPOE_BUILD_BENCH=ON. Compare runs only
# on the same machine; the JSON includes the host context for provenance.
# Conv rows record both lowerings: BM_ConvWrnPrepacked/Int8Calibrated time
# the tests' im2col reference, BM_ConvWrnDirect{,Int8} the library's direct
# lowering, so the committed JSON carries the direct-vs-im2col margin
# alongside the absolute times.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_micro_ops.json}"
shift $(( $# > 2 ? 2 : $# )) || true

WITH_FIGURE7=0
ARGS=()
for arg in "$@"; do
  if [[ "$arg" == "--with-figure7" ]]; then
    WITH_FIGURE7=1
  else
    ARGS+=("$arg")
  fi
done

BIN="$BUILD_DIR/micro_ops"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found — configure with -DPOE_BUILD_BENCH=ON" >&2
  exit 1
fi

# Every output is written to a temp file and renamed only on success:
# under `set -e` a crashed or interrupted bench run exits here, and the
# previously committed JSON survives instead of being clobbered by a
# stale or truncated one. Benchmark names contain '/' template args
# (BM_Gemm/256, BM_ConvWrn/3/16/32/1/3), so every expansion stays quoted
# — an unquoted filter would glob against the working tree.
TMP_OUT="$OUT.tmp.$$"
trap 'rm -f "$TMP_OUT"' EXIT
"$BIN" --benchmark_out="$TMP_OUT" --benchmark_out_format=json \
       --benchmark_format=console "${ARGS[@]+"${ARGS[@]}"}"
mv "$TMP_OUT" "$OUT"
echo "wrote $OUT"

if [[ "$WITH_FIGURE7" == 1 ]]; then
  FIG_BIN="$BUILD_DIR/figure7_query_time"
  FIG_OUT="BENCH_figure7_query_time.txt"
  if [[ ! -x "$FIG_BIN" ]]; then
    echo "error: $FIG_BIN not found — configure with -DPOE_BUILD_BENCH=ON" >&2
    exit 1
  fi
  TMP_OUT="$FIG_OUT.tmp.$$"
  "$FIG_BIN" | tee "$TMP_OUT"
  mv "$TMP_OUT" "$FIG_OUT"
  echo "wrote $FIG_OUT"
fi
