#!/usr/bin/env bash
# The CI gate, in three tiers. Run all of them (no argument) or name the
# tiers to run: scripts/ci.sh [build] [test] [cli]
#
#   build  gofmt -l (must print nothing) + go vet + go build, then go build
#          and internal/workload's go vet again for GOARCH=arm64: the host
#          builds internal/workload's SHA-1 kernel (amd64 assembly, whose
#          frame go vet's asmdecl checks), so only a cross build compiles
#          the crypto/sha1 side that every other architecture runs
#   test   the whole suite under the race detector, once. It already holds
#          every golden, differential, determinism, conservation and fuzz
#          seed-corpus check, so no subset of it is re-run by name — except
#          internal/sim at one and four Ps, three times: the engine's baton
#          passes between proc coroutines with no central driver, so the
#          happens-before chain of their switches is the thing to keep
#          race-clean at > 1 P. Then the whole suite again, without the
#          race detector, built for GOARCH=386 (which an amd64 host runs
#          natively): 32-bit int through the runtime and the engine's
#          dispatch, continuations included, and the crypto/sha1 UTS hash
#          path end to end — every golden, digest and trace fixture must
#          still match, since which host runs the simulator must not change
#          a byte it writes. Then 10 s of FuzzEventQueue, past its seed
#          corpus: random programs of recurring, one-off and zero delays,
#          AtEach batches and Run(until) windows must dispatch in exactly
#          (time, seq) order, the order internal/sim's delay lanes must keep
#          (a failing input lands in internal/sim/testdata/fuzz/).
#          Then, without the race detector, the one test behind the
#          exhaustive build tag: log(1 − v/2³²) is non-increasing over all
#          2³² v, which makes internal/workload's threshold-row child-count
#          draw exact (20–30 s on two 2.1 GHz Xeon vCPUs). Last, on a host
#          whose /proc/cpuinfo lists avx512f, the sixteen-lane SHA-1 kernel
#          of the UTS count walk (sha1x16 in internal/workload's
#          utshash_amd64.s) must run against crypto/sha1 and pass, not skip:
#          the walk picks the kernel by CPUID and XGETBV, so a detection bug
#          (a wrong XCR0 mask) would quietly hash one node at a time while
#          every test, including TestCountWalkHashPaths on both hash paths,
#          still passed.
#   cli    what `go test -race` cannot cover: the built binary driving the
#          smoke manifest on a parallel pool (self-validating against every
#          committed golden) and once more
#          sequentially — the two run folders must be diff -r identical, no
#          file carries a clock — and the same pair again with -trace json,
#          whose folders must be identical too and whose every
#          trace/<id>.json `repro analyze` must accept, one entry under a
#          zero-magnitude -perturb overlay (a no-op: it must still match its
#          golden, and the run folder's manifest.json must record the
#          overlay), `repro validate` and `repro analyze` on the committed
#          trace fixtures and on a serve grid cut at 20 µs whose first
#          cells are saws baselines (traced into its run folder: the
#          observed cell is the first ours one, with a stolen stack in
#          flight, and its trace must still agree with the counters), the
#          allocation-free gates of the
#          event path, a steady state over eight recurring delays in the
#          event queue's lanes, a proc's spawn/exit cycle on the engine's
#          proc pool, one whose body ends from a continuation (Exit),
#          an AtEach timer batch (as many allocations for 4,096 timers as
#          for 16), the fabric ops, the steal chain, a warm remote stack
#          migration (reserve, get, stats), an owner's push → pop,
#          a remote object freed locally and one freed remotely and swept,
#          a task's spawn → join cycle and the worker's idle
#          cycle, the allocation bound of a trace recorder's log (one
#          per chunk appended, none for a repeated read), a UTS child
#          descriptor's hash, a serial UTS count walk on prebuilt threshold
#          rows with a reused walker and a UTS subtree-memo hit (their
#          fences count every malloc over all runs, so a rare one fails;
#          *AllocFree in internal/sim, rdma,
#          uniaddr, deque, remobj, core, obs and workload; the race
#          detector perturbs allocation counts), and the allocation bound of
#          request attribution (1,024 requests of 600 component intervals,
#          one after another, allocate their output rows plus at most
#          256 KiB, and 600 intervals a request cost at most 8 allocations
#          more than 6: only the open requests' buffers grow;
#          TestRequestAttributionAllocBound in internal/core),
#          one iteration of every
#          per-package micro-benchmark, `go test -update` of the three
#          packages with digest fixtures or goldens (internal/core,
#          internal/bot, cmd/repro) in a copy of the checkout, whose
#          testdata/ directories must come out byte-identical (the fixtures
#          are current and the writer rewrites them canonically), the four
#          examples (globalsum, wavefront and treesearch exit non-zero when
#          their results disagree with a plain serial computation or across
#          policies), and twenty
#          bad inputs that must each exit non-zero
#          in one line without a goroutine dump: four experiments (a scale no
#          size survives, a deque too small, an LCS size off its block grid,
#          a load no run can complete), sequentially (-parallel 1) and on a
#          pool — the per-job panic barrier holds at every width — six
#          trace files analyze must refuse (negative workers, an event on a
#          rank the trace does not have, a negative event time, a negated
#          exec_time, an event kind no run records, a Chrome export), in both
#          analyze modes, a serve trace whose first serve.done appears twice
#          (analyze -requests: the request close rule), a run folder under a regular file, which
#          must fail before fig9 at its
#          defaults simulates anything (timeout 5), a bad -perturb
#          overlay on `repro run`, which must fail before the run folder
#          exists, the retired -shards flag, and the retired `all`
#          subcommand and -tsv, -json, -metrics, -trace-format and
#          -engine-stats flags.
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
    GOARCH=arm64 go build ./...
    GOARCH=arm64 go vet ./internal/workload
    ;;
  test)
    # cmd/repro builds two smoke run folders; under the race detector on a
    # small host that exceeds go test's default 10-minute package timeout.
    go test -race -timeout 30m ./...
    go test -race -cpu 1,4 -count 3 ./internal/sim
    GOARCH=386 go test ./...
    # A new coverage-expanding input is minimized for at most a second:
    # the default minute stalls the 10 s run at a few thousand executions.
    go test -run '^$' -fuzz '^FuzzEventQueue$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
    go test -tags exhaustive -run TestLogOneMinusUMonotone ./internal/workload
    if grep -qw avx512f /proc/cpuinfo; then
      # A failing run must reach the check below, which prints its output.
      lanes=$(go test -count 1 -v -run '^TestSHA1x16MatchesSHA1$' ./internal/workload 2>&1) || true
      if ! grep -q -- '^--- PASS: TestSHA1x16MatchesSHA1' <<<"$lanes"; then
        echo "scripts/ci.sh: the CPU has AVX-512F but the SHA-1 lane kernel test did not pass (a SKIP means detection said no):" >&2
        echo "$lanes" >&2
        exit 1
      fi
      grep -- '^--- PASS' <<<"$lanes"
    fi
    ;;
  cli)
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    go build -o "$out/repro" ./cmd/repro
    "$out/repro" run -scale smoke -parallel 2 -stamp ci -out "$out/runs" -quiet
    "$out/repro" run -scale smoke -parallel 1 -stamp ci1 -out "$out/runs" -quiet >/dev/null
    diff -r "$out/runs/ci" "$out/runs/ci1"
    "$out/repro" run -scale smoke -parallel 2 -trace json -stamp ci_tr -out "$out/runs" -quiet >/dev/null
    "$out/repro" run -scale smoke -parallel 1 -trace json -stamp ci_tr1 -out "$out/runs" -quiet >/dev/null
    diff -r "$out/runs/ci_tr" "$out/runs/ci_tr1"
    for tr in "$out"/runs/ci_tr/trace/*.json; do
      "$out/repro" analyze "$tr" >/dev/null
    done
    "$out/repro" run -scale smoke -only fig6_pfor -perturb seed=1 -stamp ci_perturb -out "$out/runs" -quiet >/dev/null
    grep -q '"perturb": "seed=1"' "$out/runs/ci_perturb/manifest.json"
    "$out/repro" validate "$out/runs/ci"
    "$out/repro" analyze cmd/repro/testdata/trace_uts_micro.json
    "$out/repro" analyze cmd/repro/testdata/trace_serve_micro.json
    "$out/repro" analyze -requests cmd/repro/testdata/trace_serve_micro.json
    "$out/repro" serve -systems saws,ours -loads 2 -requests 100 -workers 36 -seed 1 -horizon-us 20 -trace json -stamp cut -out "$out/runs" -quiet >/dev/null
    "$out/repro" analyze "$out/runs/cut/trace/serve.json"
    "$out/repro" analyze -requests "$out/runs/cut/trace/serve.json"
    go test -run 'AllocFree|AllocBound' ./internal/sim ./internal/rdma ./internal/uniaddr ./internal/deque ./internal/remobj ./internal/core ./internal/obs ./internal/workload
    go test -bench=. -benchtime=1x -run '^$' ./...
    # -update is a no-op at HEAD.
    mkdir "$out/src"
    tar -c --exclude-vcs --exclude=./paper_runs --exclude=./.bench_build . | tar -x -C "$out/src"
    (cd "$out/src" && go test ./internal/core ./internal/bot ./cmd/repro -update >/dev/null)
    for d in internal/core/testdata internal/bot/testdata cmd/repro/testdata; do
      diff -r "$d" "$out/src/$d"
    done
    for ex in quickstart globalsum wavefront treesearch; do
      go run "./examples/$ex" >/dev/null
    done
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
        # Each run gets a folder of its own: a job that fails mid-run leaves
        # its partial folder behind, and a reused one would fail for that.
        bad_runs=$((${bad_runs:-0} + 1))
        # shellcheck disable=SC2086 # $bad is a word list on purpose
        must_fail $bad -parallel $parallel -quiet -out "$out/bad" -stamp "b$bad_runs"
      done
    done
    echo '{"workers":-1,"cores_per_node":1,"exec_time":10,"check":{},"events":[]}' >"$out/neg_workers.json"
    sed 's/"rank":1,/"rank":7,/' cmd/repro/testdata/trace_serve_micro.json >"$out/bad_rank.json"
    sed 's/"t":341,/"t":-5,/' cmd/repro/testdata/trace_serve_micro.json >"$out/neg_t.json"
    sed 's/"exec_time":/"exec_time":-/' cmd/repro/testdata/trace_serve_micro.json >"$out/neg_exec.json"
    sed 's/"kind":"compute"/"kind":"compute.x"/' cmd/repro/testdata/trace_serve_micro.json >"$out/bad_kind.json"
    "$out/repro" fig6 -bench pfor -workers 4 -n 64 -trace chrome -stamp chrome -out "$out/runs" -quiet >/dev/null
    cp "$out/runs/chrome/trace/fig6.json" "$out/chrome.json"
    for bad in neg_workers bad_rank neg_t neg_exec bad_kind chrome; do
      must_fail analyze "$out/$bad.json"
      must_fail analyze -requests "$out/$bad.json"
    done
    sed -E 's/(\{[^{}]*"kind":"serve\.done"[^{}]*\})/\1,\1/' cmd/repro/testdata/trace_serve_micro.json >"$out/dup_done.json"
    must_fail analyze -requests "$out/dup_done.json"
    # A run folder that cannot be made fails before the first entry runs:
    # fig9 at its defaults takes far longer than 5 s.
    within=5 must_fail fig9 -out /dev/null/runs
    must_fail run -scale smoke -perturb jitter=-1 -stamp ci_bad -out "$out/runs"
    if [ -e "$out/runs/ci_bad" ]; then
      echo "scripts/ci.sh: repro run -perturb jitter=-1 left a run folder behind" >&2
      exit 1
    fi
    must_fail fig6 -shards 2
    # The retired subcommand and output flags: a run folder replaces them.
    must_fail all
    for bad in "-tsv x" "-json -" "-metrics x" "-trace-format chrome" "-engine-stats"; do
      # shellcheck disable=SC2086 # $bad is a word list on purpose
      must_fail fig6 $bad
    done
    ;;
  *)
    echo "scripts/ci.sh: unknown tier '$tier' (want build, test or cli)" >&2
    exit 2
    ;;
  esac
done
