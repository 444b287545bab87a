#!/bin/sh
# Static gate for the AutoMap reproduction: gofmt, vet, race-enabled tests, a
# coverage ratchet, mapcheck over every bundled application's default
# mapping on both machine models, and smoke tests for telemetry, worker
# determinism, checkpoint/resume, checkpoint and fleet fuzzing, and the
# mapd and mapfleet binaries (including replica failover and load
# shedding). Any failure fails the gate. Run from the repository root,
# directly or via `make check`.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}

tdir=$(mktemp -d)
trap 'rm -rf "$tdir"' EXIT

echo "== gofmt"
unformatted=$("$($GO env GOROOT)/bin/gofmt" -l .)
if [ -n "$unformatted" ]; then
    echo "unformatted Go files (run gofmt -w on them):"
    echo "$unformatted"
    exit 1
fi

echo "== go vet"
$GO vet ./...

echo "== mapvet (project invariants: determinism, atomicity, goroutine lifecycle)"
$GO test -C tools/mapvet ./...
$GO build -C tools/mapvet -o "$tdir/mapvet" .
"$tdir/mapvet" -C . ./...

echo "== go test -race (short mode)"
$GO test -race -short ./...

echo "== go test -race (serve e2e)"
# The daemon end-to-end tests are the concurrency stress surface
# (coalescing, drain/resume, store races); run them under the race
# detector explicitly so a future -short skip cannot silently drop them
# from the race gate.
$GO test -race -count=1 -run 'TestDaemon|TestDrainResume|TestStoreStress' ./internal/serve/...

echo "== go test -race (fleet e2e)"
# The fleet byte-identity and failover tests exercise the cross-replica
# surface: replication pushes racing adoption, duplicate submits racing
# reclaim, and router failover — exactly the paths where a data race
# would corrupt the exactly-once guarantee.
$GO test -race -count=1 -run 'TestFleetByteIdentity|TestFleetFailover' ./internal/fleet/

echo "== go test (full, no race, with coverage)"
$GO test -coverprofile="$tdir/cover.out" ./...

echo "== coverage ratchet"
# Total statement coverage must not regress below the recorded floor.
# When coverage genuinely improves, raise scripts/coverage_floor.txt.
total=$($GO tool cover -func="$tdir/cover.out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
floor=$(cat scripts/coverage_floor.txt)
awk -v t="$total" -v f="$floor" 'BEGIN {
    if (t + 0 < f + 0) {
        printf "coverage %.1f%% fell below the floor %.1f%% — add tests or lower scripts/coverage_floor.txt with justification\n", t, f
        exit 1
    }
    printf "coverage %.1f%% (floor %.1f%%)\n", t, f
}'

echo "== checkpoint fuzz smoke"
$GO test -fuzz FuzzLoadCheckpoint -fuzztime 5s -run '^$' ./internal/checkpoint

echo "== fleet fuzz smoke"
# Replication bundles cross the network between replicas; a corrupt or
# adversarial payload must decode to an error, never a panic or a
# half-validated install.
$GO test -fuzz FuzzDecodeBundle -fuzztime 5s -run '^$' ./internal/fleet
$GO test -fuzz FuzzRingChurn -fuzztime 5s -run '^$' ./internal/fleet

echo "== mapcheck"
$GO build -o bin/mapcheck ./cmd/mapcheck
for app in circuit htr maestro pennant stencil; do
    for m in shepard lassen; do
        echo "-- mapcheck -app $app -machine $m"
        ./bin/mapcheck -app "$app" -machine "$m"
    done
done

echo "== telemetry smoke"
$GO build -o bin/automap ./cmd/automap
./bin/automap search -app stencil -nodes 1 -seed 7 \
    -events "$tdir/e1.jsonl" -metrics "$tdir/m1.txt" >/dev/null
./bin/automap search -app stencil -nodes 1 -seed 7 \
    -events "$tdir/e2.jsonl" -metrics "$tdir/m2.txt" >/dev/null
cmp "$tdir/e1.jsonl" "$tdir/e2.jsonl" || {
    echo "telemetry event stream not deterministic under a fixed seed" >&2; exit 1; }
cmp "$tdir/m1.txt" "$tdir/m2.txt" || {
    echo "metrics dump not deterministic under a fixed seed" >&2; exit 1; }
$GO run ./scripts/telemetrycheck "$tdir/e1.jsonl" "$tdir/m1.txt"

echo "== worker-count determinism smoke"
# The worker count must not change the trajectory: with -workers 8 the
# event stream, metrics dump, and best mapping are byte-identical to
# -workers 1. The three cases are the incremental smoke's (below); at
# -nodes 2 CCD accepts often, so many Prefetch batches are cut short and
# rebuilt from a new incumbent.
$GO build -o "$tdir/telemetrycheck" ./scripts/telemetrycheck
for case in "stencil:" "circuit:n50w200" "htr:32x256y36z"; do
    app=${case%%:*}; input=${case#*:}
    input_flag=""
    [ -n "$input" ] && input_flag="-input $input"
    for w in 1 8; do
        # shellcheck disable=SC2086
        ./bin/automap search -app "$app" $input_flag -nodes 2 -algo ccd -seed 7 -workers $w \
            -events "$tdir/w$w.jsonl" -metrics "$tdir/w${w}_m.txt" \
            -o "$tdir/w$w.json" >/dev/null
    done
    cmp "$tdir/w1.jsonl" "$tdir/w8.jsonl" || {
        echo "$app: event stream differs between -workers 1 and -workers 8" >&2; exit 1; }
    cmp "$tdir/w1_m.txt" "$tdir/w8_m.txt" || {
        echo "$app: metrics differ between -workers 1 and -workers 8" >&2; exit 1; }
    cmp "$tdir/w1.json" "$tdir/w8.json" || {
        echo "$app: best mapping differs between -workers 1 and -workers 8" >&2; exit 1; }
    # Span-specific invariance gate: even if non-span events ever
    # legitimately diverge by worker count, the span subsequences must stay
    # byte-identical.
    "$tdir/telemetrycheck" "$tdir/w1.jsonl" "$tdir/w1_m.txt" "$tdir/w8.jsonl"
done

echo "== incremental-vs-full differential smoke"
# The incremental re-simulation path (DESIGN §14) is a pure optimization:
# with a fixed seed the report, mapping, and full event stream (including
# the sim.eval.* counters and rotation-span attrs, which are attributed on
# the commit path in both modes) must be byte-identical to a run forced
# onto the full-simulation path with -incremental=false. htr is the case
# where about half of the fresh candidates are patched, so it drives the
# patcher's re-recording of dirty launches hardest.
for case in "stencil:" "circuit:n50w200" "htr:32x256y36z"; do
    app=${case%%:*}; input=${case#*:}
    input_flag=""
    [ -n "$input" ] && input_flag="-input $input"
    # shellcheck disable=SC2086
    ./bin/automap search -app "$app" $input_flag -nodes 2 -algo ccd -seed 7 \
        -events "$tdir/d_inc.jsonl" -metrics "$tdir/d_inc_m.txt" \
        -o "$tdir/d_inc.json" >"$tdir/d_inc.txt"
    # shellcheck disable=SC2086
    ./bin/automap search -app "$app" $input_flag -nodes 2 -algo ccd -seed 7 \
        -incremental=false \
        -events "$tdir/d_full.jsonl" -metrics "$tdir/d_full_m.txt" \
        -o "$tdir/d_full.json" >"$tdir/d_full.txt"
    cmp "$tdir/d_inc.jsonl" "$tdir/d_full.jsonl" || {
        echo "$app: event stream differs between incremental and full simulation" >&2; exit 1; }
    cmp "$tdir/d_inc_m.txt" "$tdir/d_full_m.txt" || {
        echo "$app: metrics differ between incremental and full simulation" >&2; exit 1; }
    cmp "$tdir/d_inc.json" "$tdir/d_full.json" || {
        echo "$app: best mapping differs between incremental and full simulation" >&2; exit 1; }
done

echo "== worker scaling smoke"
# Regression gate for parallel evaluation: a -workers 8 htr search must
# never be meaningfully slower than -workers 1 — at worst 10% over, which
# is pure timer-noise slack, since parallel Prefetch batches should WIN on
# >= 2 cores and the driver clamps the pool to GOMAXPROCS so extra workers
# cannot add oversubscription overhead. Trajectory byte-identity at both
# worker counts is proven by the smokes above; this gate is purely
# wall-clock. Each side is the best of 3 alternating runs, so one stretch
# of host load during a single run does not fail the gate. On one core the
# clamp makes -workers 8 identical to -workers 1, so the comparison would
# measure only noise and is skipped.
cores=$( (nproc || sysctl -n hw.ncpu || echo 1) 2>/dev/null | head -n1 )
if [ "$cores" -ge 2 ]; then
    # No `time` builtin in POSIX sh; nanosecond wall-clock via GNU date.
    wall() {
        s=$(date +%s%N)
        "$@" >/dev/null
        e=$(date +%s%N)
        awk -v s="$s" -v e="$e" 'BEGIN { printf "%.3f", (e - s) / 1e9 }'
    }
    htr() {
        wall ./bin/automap search -app htr -input 32x256y36z -nodes 2 -algo ccd -seed 7 -workers "$1"
    }
    lower() { awk -v a="$1" -v b="$2" 'BEGIN { print (b < a) ? b : a }'; }
    t1=$(htr 1); t8=$(htr 8)
    for _ in 2 3; do
        t1=$(lower "$t1" "$(htr 1)")
        t8=$(lower "$t8" "$(htr 8)")
    done
    awk -v t1="$t1" -v t8="$t8" -v cores="$cores" 'BEGIN {
        if (t8 > t1 * 1.10) {
            printf "REGRESSION: htr -workers 8 (%.2fs) > 1.10x -workers 1 (%.2fs) on %d cores\n", t8, t1, cores
            exit 1
        }
        speedup = (t8 > 0) ? t1 / t8 : 0
        printf "htr scaling (best of 3): w1 %.2fs, w8 %.2fs, speedup %.2fx on %d cores\n", t1, t8, speedup, cores
    }'
else
    echo "SKIP worker-scaling gate: $cores core (the clamp makes -workers 8 identical to -workers 1 here)"
fi

echo "== checkpoint/resume smoke"
# A search cut off by a wall-clock deadline must leave a checkpoint that
# resumes to the same optimum, with the interrupted-plus-resumed event
# stream byte-identical to an uninterrupted run. (If the deadline happens
# to land after convergence the checkpoint covers the whole trajectory and
# the resumed run redoes only the final phase — the comparison still holds.)
./bin/automap search -app circuit -input n50w200 -nodes 2 -algo ccd -seed 7 -workers 2 \
    -events "$tdir/r_full.jsonl" -o "$tdir/r_full.json" >/dev/null
./bin/automap search -app circuit -input n50w200 -nodes 2 -algo ccd -seed 7 -workers 2 \
    -events "$tdir/r_part.jsonl" -checkpoint "$tdir/r.ckpt" -deadline 15ms >/dev/null
./bin/automap search -app circuit -input n50w200 -nodes 2 -algo ccd -seed 7 -workers 2 \
    -events "$tdir/r_part.jsonl" -checkpoint "$tdir/r.ckpt" -resume -o "$tdir/r_part.json" >/dev/null
cmp "$tdir/r_full.jsonl" "$tdir/r_part.jsonl" || {
    echo "resumed event stream differs from the uninterrupted run" >&2; exit 1; }
cmp "$tdir/r_full.json" "$tdir/r_part.json" || {
    echo "resumed search found a different mapping" >&2; exit 1; }

echo "== mapd daemon smoke"
# Black-box exercise of the shipped daemon binary: coalescing, event
# streaming, SIGTERM drain, and serving stored results across a restart.
$GO build -o bin/mapd ./cmd/mapd
$GO run ./scripts/mapdsmoke -mapd bin/mapd -dir "$tdir/mapd" -addr 127.0.0.1:18356

echo "== fleet smoke"
# Black-box exercise of the fleet binaries as real processes: two mapd
# replicas behind a mapfleet router; submit through the router, SIGKILL
# the owner, verify the survivor serves the replicated result
# byte-identically, then overload the router and require honest shedding
# (429 + Retry-After, zero client timeouts).
$GO build -o bin/mapfleet ./cmd/mapfleet
$GO run ./scripts/fleetsmoke -mapd bin/mapd -mapfleet bin/mapfleet \
    -dir "$tdir/fleet" -port-base 18360

echo "ci: all checks passed"
