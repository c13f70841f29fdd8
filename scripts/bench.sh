#!/usr/bin/env sh
# Measure the steady-state engine throughput and write a performance record.
#
#   scripts/bench.sh [OUT.json] [extra wsbench flags...]
#
# Writes OUT.json (default bench-latest.json at the repo root, which git
# ignores) with ns/event and allocs/event for the steady-state engine
# configurations plus Table 1-4 wall times at 1 worker vs GOMAXPROCS, then
# runs the Go micro-benchmarks once for a quick smoke reading. The
# committed BENCH_PR*.json records are never overwritten unless named
# explicitly as OUT.json.
#
# To gate against a committed record instead of eyeballing it, pass the
# comparison flags through to wsbench — the script exits non-zero if any
# throughput config regressed past the threshold (25% by default, sized to
# ride out shared-machine jitter while catching real cliffs):
#
#   scripts/bench.sh -compare BENCH_PR8.json
#   scripts/bench.sh out.json -compare BENCH_PR8.json -maxregress 0.10
set -eu
cd "$(dirname "$0")/.."

out=bench-latest.json
case "${1:-}" in
"" | -*) ;;
*)
	out=$1
	shift
	;;
esac

go run ./cmd/wsbench -out "$out" "$@"
echo
go test -run '^$' -bench 'BenchmarkSimulatorThroughput|BenchmarkRunnerReuse|BenchmarkPolicySimpleSteal|BenchmarkStealHalf|BenchmarkCalendarPushPop' -benchmem ./internal/sim/ ./internal/eventq/ .
