#!/bin/sh
# ci.sh — the repository's continuous-integration gate.
#
#   ./ci.sh
#
# Each test runs once, and every artifact goes to one temporary
# directory whose path is printed at exit; no tracked file is written.
# Steps, in order:
#
#   1. gofmt (any file listed by gofmt -l fails the run), go vet and
#      go build, then go vet of the perfbench module: it imports this
#      module's packages, and the root go build does not see it, so an
#      API it uses that goes away fails here rather than first in a
#      benchmark run.
#   2. The full test suite, once plainly (full Monte-Carlo budgets) and
#      once under the race detector with REPRO_MC_SHORT=1, which the
#      statistical tests in internal/stats and internal/mc honour by
#      shrinking their trial budgets (their acceptance thresholds scale
#      with sample size, so the checks stay valid, just cheaper under
#      the detector's tenfold slowdown). Both use -count=1, so a cached
#      result never stands in for a run.
#   3. Five native-fuzz smokes: the blossom matcher (FuzzBlossom:
#      matching invariants, then match.Boundary's Greedy against a
#      sort-based oracle and its Exact against the optimum of the 2n
#      boundary-twin construction), the software
#      decoders (FuzzDecode: every correction clears its syndrome, and a
#      reused scratch returns what a fresh one does), the
#      SFQ mesh against its reference model (FuzzMesh: the mesh at one
#      lane, as sfq.New builds it, and at a fuzzer-chosen lane count, 1
#      to MaxBatchLanes(d)), the wire frame decoder and the two-level
#      decoder.
#   4. The opt-in wall-clock guards (REPRO_OBS_GUARD=1): telemetry within
#      5% and request tracing within 2% of the uninstrumented decode
#      path. Nothing else runs them.
#   5. Two decode hot-path benchmark smokes.
#   6. A live serve + loadgen run in two-level mode. Its -trace-check
#      hard-fails unless the /debug/traces scrape holds a shed decision
#      with controller inputs, one carrying weight/sojourn inputs, an
#      outliers_telescoped counter >= 1 (outliers whose stages summed
#      to within 5% of their wall time, checked as each finalized), and
#      a serve_queue_wait_ns p99 >=20% under the embedded baseline row.
#   7. The in-process serve worker sweep (lane fill vs latency).
#   8. The two-level accuracy-vs-latency frontier.
#   9. The history guard: committed BENCH_*.json files are unchanged.
#  10. cmd/bench last, compared against BENCH_pr21.json. It writes its
#      artifact, then hard-fails if a batch row allocates, a scaling row
#      with workers <= NumCPU drops below 0.8x ideal (on median walls of
#      five repeats per worker count, the counts alternating), the sweep
#      fingerprint differs across any worker/steal schedule, or a kernel
#      cell (one-lane mesh or batch per lane, d in {5, 7, 9, 13}) has a
#      median time ratio to the reference model worse than
#      BENCH_pr21.json's by more than the larger of the two IQRs.
set -eu

cd "$(dirname "$0")"

ART=$(mktemp -d)
BIN=$(mktemp -d)
SERVE_PID=""
finish() {
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	rm -rf "$BIN"
	echo "artifacts in $ART"
}
trap finish EXIT

echo "== gofmt =="
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt -l lists unformatted files:"
	echo "$UNFORMATTED"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== perfbench build and vet =="
(cd perfbench && go vet ./...)

echo "== go test =="
go test -count=1 ./...

echo "== go test -race (short trials) =="
REPRO_MC_SHORT=1 go test -race -count=1 ./...

echo "== fuzz smoke =="
go test -run='^$' -fuzz=FuzzBlossom -fuzztime=5s ./internal/match
go test -run='^$' -fuzz=FuzzDecode -fuzztime=5s ./internal/decoder
go test -run='^$' -fuzz='^FuzzMesh$' -fuzztime=5s ./internal/sfq
go test -run='^$' -fuzz='^FuzzFrame$' -fuzztime=5s ./internal/serve
go test -run='^$' -fuzz='^FuzzTwoLevel$' -fuzztime=5s ./internal/twolevel

echo "== overhead guards =="
REPRO_OBS_GUARD=1 go test -run 'TestObsOverheadGuard|TestTraceOverheadGuard' -count=1 .

echo "== decode hot-path benchmarks =="
go test -run='^$' -bench BenchmarkDecodeHotPath -benchtime 100x -benchmem .
go test -run='^$' -bench BenchmarkSFQMesh -benchtime 100x -benchmem .

echo "== decode service end to end: serve + loadgen =="
# A live serve instance under open-loop Poisson load. -lanes 1 lowers
# capacity so the calibrated R/2, R, 2R sweep straddles saturation in
# about three seconds on any machine. -escalate exercises the full
# two-level service path; -esc-hot 14 keeps the escalation rate
# moderate at the loadgen workload's density.
go build -o "$BIN/serve" ./cmd/serve
go build -o "$BIN/loadgen" ./cmd/loadgen
"$BIN/serve" -d 9,13 -lanes 1 -escalate -esc-hot 14 -addr-file "$BIN/addr" &
SERVE_PID=$!
for _ in $(seq 50); do
	[ -s "$BIN/addr" ] && break
	sleep 0.1
done
TCP_ADDR=$(awk '/^tcp /{print $2}' "$BIN/addr")
HTTP_ADDR=$(awk '/^http /{print $2}' "$BIN/addr")
[ -n "$TCP_ADDR" ] && [ -n "$HTTP_ADDR" ] || { echo "serve did not publish its addresses"; exit 1; }
"$BIN/loadgen" -addr "$TCP_ADDR" -d 13 -duration 1s -out "$ART/loadgen.json" \
	-trace-http "http://$HTTP_ADDR" -trace-check
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "== serve worker sweep: lane fill vs latency =="
"$BIN/loadgen" -sweep -out "$ART/sweep.json" -sweep-clients 64 -duration 1500ms

echo "== two-level frontier: accuracy vs latency =="
go run ./cmd/compare -frontier -distances 7,9,11 -frontier-p 0.03,0.06,0.09 \
	-cycles 2500 -seed 1 -out "$ART/frontier.json"

echo "== history guard: committed BENCH files unchanged =="
git diff --exit-code -- 'BENCH_*.json'

echo "== decode hot-path and kernel benchmark (floors, no-regression comparison) =="
# -allow-dirty: ci.sh runs on development trees; the manifest still
# records git_dirty so the artifact is honest about its provenance.
go run ./cmd/bench -iters 2000 -out "$ART/bench.json" -allow-dirty -compare BENCH_pr21.json

echo "CI OK"
