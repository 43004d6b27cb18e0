#!/usr/bin/env bash
# The CI gate, in three tiers. Run all of them (no argument) or name the
# tiers to run: scripts/ci.sh [build] [test] [cli]
#
#   build  gofmt -l (must print nothing) + go vet + go build
#   test   the whole suite under the race detector, once. It already holds
#          every golden, differential, determinism, conservation and fuzz
#          seed-corpus check, so no subset of it is re-run by name — except
#          internal/sim at one and four Ps, three times: the engine's baton
#          crosses goroutines with no central driver, so its channel
#          happens-before chain is the thing to keep race-clean at > 1 P.
#   cli    what `go test -race` cannot cover: the built binary driving the
#          smoke manifest on a parallel pool with a sharded engine
#          (self-validating against every committed golden) and once more
#          sequentially — the two run folders must be diff -r identical, no
#          file carries a clock — `repro validate` and `repro analyze` on
#          the committed trace fixtures and on a serve cell cut at 20 µs with
#          a stolen stack in flight (the trace must still agree with the
#          counters), the allocation-free gates of the event path, the fabric
#          ops, the steal chain and the worker's idle cycle (*AllocFree in
#          internal/sim, rdma, deque and core; the race detector perturbs
#          allocation counts), one iteration of every per-package
#          micro-benchmark, and ten bad inputs that must each exit non-zero
#          in one line without a goroutine dump: four experiments (a scale no
#          size survives, a deque too small, an LCS size off its block grid,
#          a load no run can complete), sequentially (-parallel 1) and on a
#          pool — the per-job panic barrier holds at every width — five
#          trace files analyze must refuse (negative workers, an event on a
#          rank the trace does not have, a negative event time, a negated
#          exec_time, a Chrome export), in both analyze modes, and a trace
#          sink that cannot be created, which must fail before fig9 at its
#          defaults simulates anything (timeout 5).
set -euo pipefail
cd "$(dirname "$0")/.."

tiers=("$@")
[ ${#tiers[@]} -eq 0 ] && tiers=(build test cli)

for tier in "${tiers[@]}"; do
  echo "== ci tier: $tier =="
  case "$tier" in
  build)
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
      echo "scripts/ci.sh: gofmt -l is not empty:" >&2
      echo "$unformatted" >&2
      exit 1
    fi
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
    "$out/repro" run -scale smoke -parallel 1 -shards 2 -stamp ci1 -out "$out/runs" -quiet >/dev/null
    diff -r "$out/runs/ci" "$out/runs/ci1"
    "$out/repro" validate "$out/runs/ci"
    "$out/repro" analyze cmd/repro/testdata/trace_uts_micro.json
    "$out/repro" analyze cmd/repro/testdata/trace_serve_micro.json
    "$out/repro" analyze -requests cmd/repro/testdata/trace_serve_micro.json
    "$out/repro" serve -systems ours -loads 2 -requests 100 -workers 36 -seed 1 -horizon-us 20 -trace "$out/cut.json" -quiet >/dev/null
    "$out/repro" analyze "$out/cut.json"
    "$out/repro" analyze -requests "$out/cut.json"
    go test -run 'AllocFree' ./internal/sim ./internal/rdma ./internal/deque ./internal/core
    go test -bench=. -benchtime=1x -run '^$' ./...
    # must_fail CMD...: repro CMD must exit non-zero, in one line, without a
    # goroutine dump, within $within seconds (default 60; a command still
    # running then has not failed, it was killed: exit 124).
    must_fail() {
      local msg rc=0
      msg=$(timeout "${within:-60}" "$out/repro" "$@" 2>&1) || rc=$?
      if [ "$rc" -eq 0 ] || [ "$rc" -eq 124 ]; then
        echo "scripts/ci.sh: repro $* exited $rc (0: accepted; 124: still running at the deadline)" >&2
        exit 1
      fi
      case "$msg" in *"goroutine "* | *$'\n'*)
        echo "scripts/ci.sh: repro $* did not fail in one line:" >&2
        echo "$msg" | head -5 >&2
        exit 1
        ;;
      esac
      echo "repro $*: $msg"
    }
    for bad in "fig6 -scale -1" \
      "fig6 -dequecap 1 -workers 4 -n 64" \
      "table3 -n 7" \
      "serve -loads 1e-9 -requests 8 -workers 4"; do
      for parallel in 1 2; do
        # shellcheck disable=SC2086 # $bad is a word list on purpose
        must_fail $bad -parallel $parallel -quiet
      done
    done
    echo '{"workers":-1,"cores_per_node":1,"exec_time":10,"check":{},"events":[]}' >"$out/neg_workers.json"
    sed 's/"rank":1,/"rank":7,/' cmd/repro/testdata/trace_serve_micro.json >"$out/bad_rank.json"
    sed 's/"t":341,/"t":-5,/' cmd/repro/testdata/trace_serve_micro.json >"$out/neg_t.json"
    sed 's/"exec_time":/"exec_time":-/' cmd/repro/testdata/trace_serve_micro.json >"$out/neg_exec.json"
    "$out/repro" fig6 -bench pfor -workers 4 -n 64 -trace "$out/chrome.json" -trace-format chrome -quiet >/dev/null
    for bad in neg_workers bad_rank neg_t neg_exec chrome; do
      must_fail analyze "$out/$bad.json"
      must_fail analyze -requests "$out/$bad.json"
    done
    # A sink that cannot be created fails before the first entry runs: fig9
    # at its defaults takes far longer than 5 s.
    within=5 must_fail fig9 -trace /nonexistent/x.json
    ;;
  *)
    echo "scripts/ci.sh: unknown tier '$tier' (want build, test or cli)" >&2
    exit 2
    ;;
  esac
done
