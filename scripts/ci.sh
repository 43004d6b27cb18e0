#!/usr/bin/env bash
# The CI gate, in three tiers. Run all of them (no argument) or name the
# tiers to run: scripts/ci.sh [build] [test] [cli]
#
#   build  go vet + go build
#   test   the whole suite under the race detector, once. It already holds
#          every golden, differential, determinism, conservation and fuzz
#          seed-corpus check, so no subset of it is re-run by name — except
#          internal/sim at one and four Ps, three times: the engine's baton
#          crosses goroutines with no central driver, so its channel
#          happens-before chain is the thing to keep race-clean at > 1 P.
#   cli    what `go test -race` cannot cover: the built binary driving the
#          smoke manifest on a parallel pool with a sharded engine
#          (self-validating against every committed golden), `repro
#          validate` and `repro analyze` on the committed trace fixtures,
#          the allocation-free gate (the race detector perturbs allocation
#          counts), and one iteration of every benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

tiers=("$@")
[ ${#tiers[@]} -eq 0 ] && tiers=(build test cli)

for tier in "${tiers[@]}"; do
  echo "== ci tier: $tier =="
  case "$tier" in
  build)
    go vet ./...
    go build ./...
    ;;
  test)
    # cmd/repro builds three smoke run folders; under the race detector on a
    # small host that exceeds go test's default 10-minute package timeout.
    go test -race -timeout 30m ./...
    go test -race -cpu 1,4 -count 3 ./internal/sim
    ;;
  cli)
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    go build -o "$out/repro" ./cmd/repro
    "$out/repro" run -scale smoke -parallel 2 -shards 2 -stamp ci -out "$out/runs" -quiet
    "$out/repro" validate "$out/runs/ci"
    "$out/repro" analyze cmd/repro/testdata/trace_uts_micro.json
    "$out/repro" analyze cmd/repro/testdata/trace_serve_micro.json
    "$out/repro" analyze -requests cmd/repro/testdata/trace_serve_micro.json
    go test -run TestShardedSteadyStateAllocFree ./internal/sim
    go test -bench=. -benchtime=1x -run '^$' ./...
    ;;
  *)
    echo "scripts/ci.sh: unknown tier '$tier' (want build, test or cli)" >&2
    exit 2
    ;;
  esac
done
