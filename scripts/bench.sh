#!/usr/bin/env bash
# bench.sh — run the headline Amber benchmarks and record the numbers.
#
# Runs the Table 1 local/remote invocation benchmarks (tracing off AND on),
# the E8 forwarding-chain ablation, the E9 mobility ablation, the read-path
# replication benchmarks (cold first-touch, warm replica hit, and the
# no-replication cold control), the reader-lease coherence benchmarks
# (warm mutable read via a live lease, write + invalidation fence), the
# sharded object-space parallel-invoke benchmark at -cpu 1 and 8, the
# skewed-workload heat-placement ablation, and the wire codec
# microbenchmarks, then writes every reported metric to BENCH_pr9.json
# at the repo root.
#
# This PR's gates cover the compiled-dispatch hot path: local invoke must
# both shed allocations (<= 3/op) and get measurably faster (>= 25% ns/op
# reduction vs the same-machine pre-PR baseline — trampolines replacing
# reflect.Call is a step change, not noise). Warm replica and lease hits run
# the same dispatch plans and inherit the same allocation budget; remote
# invoke must allocate strictly below 38/op now that argument vectors are
# pooled.
#
# Regression gates (compared against a baseline built from the pre-PR tree on
# the SAME machine in the SAME run — recorded absolute numbers drift with
# host load):
#
#   1. Single-threaded local invoke ns/op <= 75% of the baseline build AND
#      <= 3 allocs/op: the compiled dispatch plans must beat per-call
#      reflection by a margin host noise cannot fake, and the per-P frame
#      free list must keep the invoke itself allocation-free (what remains
#      is the result vector and its boxed value).
#   2. Single-threaded remote invoke ns/op within +5% of the baseline build.
#   3. Remote invoke allocates strictly below 38/op (the PR1 pooled-codec
#      budget, tightened now that executeRouted draws argument vectors from
#      the wire scratch pool).
#   4. Warm immutable remote invoke <= 2x the local invoke: a replica hit IS
#      a local invoke plus a mode-bit test, so anything beyond that means the
#      replica fast path fell off the resident fast path.
#   5. Cold immutable remote invoke <= 1.15x the no-replication cold control:
#      piggybacking the snapshot and queueing the install may cost at most
#      15% of the first call it is amortized against.
#   6. BenchmarkLocalInvokeParallel 1 -> 8 goroutines: >= 3x on hosts with
#      >= 8 CPUs; >= 1.0x (no negative scaling) on hosts with >= 2 CPUs. The
#      per-slot run queues and per-P stats stripes exist to kill the shared
#      scheduler mutex and counter ping-pong; single-CPU hosts cannot observe
#      either effect, so the gate is recorded but skipped there.
#   7. BenchmarkSkewedInvokeHeat beats BenchmarkSkewedInvokeStatic: the same
#      zipf-skewed cross-node workload must get cheaper when heat-driven
#      placement ships each object to its dominant caller. This is mostly a
#      remote-vs-local invoke ratio, so it holds on any CPU count.
#   8. Pipelined fan-in (BenchmarkFanInAsync64 vs BenchmarkFanInSerial64,
#      over real loopback TCP): >= 3x on hosts with >= 4 CPUs, where the
#      client's issue loop, the server's handlers and both socket stacks can
#      actually overlap. On smaller hosts the async path's wall-clock floor
#      is the total CPU per op executed serially on one core, so 3x is
#      physically unobservable (same situation as gate 6); there the gate
#      degrades to >= 1.25x — pipelining must still beat blocking by the
#      syscall/wakeup latency it removes.
#   9. Warm mutable read through a live reader lease <= 2x the warm
#      immutable replica hit: a lease hit is the same resident fast path
#      plus an expiry load and an epoch tag, so anything beyond 2x means
#      reads are slipping off the zero-message path (check lease_stale
#      and lease_write_forwards in the lease tests).
#  11. Warm immutable replica hits and warm lease reads allocate <= 3/op:
#      both serve from the resident fast path, so they run the same compiled
#      dispatch plans as gate 1 and inherit its allocation budget.
#  10. Fenced-write p99 <= 25x a single remote invoke. A mutating invoke
#      against a leased object is the write itself plus one parallel
#      revoke round — a couple of RTTs in the mean (observed ~3x); the
#      p99 additionally absorbs revoke-ack scheduling jitter on a shared
#      host, so the tail gate is deliberately generous. Blowing past 25x
#      means the fence is serializing revokes or waiting on expiry
#      instead of acks (check lease_fence_timeouts).
#
# The baseline build is a throwaway git worktree of the last commit that does
# not contain this tree's changes: HEAD while the working tree is dirty
# (pre-commit runs), HEAD~1 once the PR is committed.
#
# Usage: scripts/bench.sh [benchtime]     (default 1s; e.g. "100x" or "3s")
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1s}"
OUT=BENCH_pr10.json
ALLOC_LIMIT=38       # remote invoke: strictly below this
LOCAL_ALLOC_LIMIT=3  # local invoke and warm replica/lease hits: at most this
LOCAL_IMPROVE=0.75   # local invoke must cost <= this fraction of the baseline
NPROC=$(nproc 2>/dev/null || echo 1)

# --- baseline: same-machine build of the pre-PR tree ---
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	BASEREF=HEAD
else
	BASEREF=HEAD~1
fi
BASEDIR=$(mktemp -d /tmp/amber-bench-base.XXXXXX)
cleanup() {
	git worktree remove --force "$BASEDIR" 2>/dev/null || rm -rf "$BASEDIR"
}
trap cleanup EXIT
git worktree add --quiet --detach "$BASEDIR" "$BASEREF"

# Gated comparisons use -count 3 and the per-benchmark MINIMUM: on a shared
# host a single sample swings +-20%, and the min is the run least disturbed
# by neighbors — the number closest to what the code actually costs.
echo "== baseline ($BASEREF, same machine, benchtime=$BENCHTIME, min of 3) =="
BASE_RAW=$(cd "$BASEDIR" && go test -run '^$' \
	-bench '^(BenchmarkTable1LocalInvoke|BenchmarkTable1RemoteInvoke)$' \
	-benchmem -benchtime "$BENCHTIME" -count 3 .)
echo "$BASE_RAW"

echo
echo "== baseline parallel local invoke (pre-PR stats layout) =="
BASE_PAR_RAW=$(cd "$BASEDIR" && go test -run '^$' \
	-bench '^BenchmarkLocalInvokeParallel$' \
	-benchmem -benchtime "$BENCHTIME" -count 3 -cpu 1,8 . || true)
echo "$BASE_PAR_RAW"

echo
echo "== gated benchmarks (benchtime=$BENCHTIME, min of 3) =="
GATE_RAW=$(go test -run '^$' \
	-bench '^(BenchmarkTable1LocalInvoke|BenchmarkTable1RemoteInvoke|BenchmarkImmutableRemoteInvokeCold|BenchmarkImmutableRemoteInvokeWarm|BenchmarkRemoteInvokeColdBaseline)$' \
	-benchmem -benchtime "$BENCHTIME" -count 3 .)
echo "$GATE_RAW"

echo
echo "== ablation benchmarks (benchtime=$BENCHTIME) =="
HEAD_RAW=$(go test -run '^$' \
	-bench '^(BenchmarkTable1RemoteInvokeTraced|BenchmarkE8ForwardingChains|BenchmarkE9Mobility)$' \
	-benchmem -benchtime "$BENCHTIME" -count 1 .)
echo "$HEAD_RAW"

echo
echo "== parallel local invoke, 1 vs 8 goroutines (host has $NPROC CPUs, min of 3) =="
PAR_RAW=$(go test -run '^$' -bench '^BenchmarkLocalInvokeParallel$' \
	-benchmem -benchtime "$BENCHTIME" -count 3 -cpu 1,8 .)
echo "$PAR_RAW"

echo
echo "== heat placement ablation: skewed workload, static vs heat (min of 3) =="
SKEW_RAW=$(go test -run '^$' -bench '^BenchmarkSkewedInvoke(Static|Heat)$' \
	-benchmem -benchtime "$BENCHTIME" -count 3 .)
echo "$SKEW_RAW"

echo
echo "== pipelined fan-in vs serial blocking, loopback TCP (min of 3) =="
FANIN_RAW=$(go test -run '^$' -bench '^BenchmarkFanIn(Serial|Async)64$' \
	-benchmem -benchtime "$BENCHTIME" -count 3 .)
echo "$FANIN_RAW"

echo
echo "== reader-lease coherence: warm mutable read + write fence (min of 3) =="
LEASE_RAW=$(go test -run '^$' -bench '^BenchmarkMutableLease(Warm|WriteFence)$' \
	-benchmem -benchtime "$BENCHTIME" -count 3 .)
echo "$LEASE_RAW"

echo
echo "== wire codec microbenchmarks =="
WIRE_RAW=$(go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" -count 1 ./internal/wire/)
echo "$WIRE_RAW"

# Turn `go test -bench` output lines into JSON objects, one per benchmark:
# "name": {"iters": N, "ns/op": X, "B/op": Y, "allocs/op": Z, ...extra metrics}
# keepcpu=1 is for -cpu 1,N runs: instead of go's bare name (the -cpu 1 line)
# plus a raw "-N" GOMAXPROCS suffix, emit explicit "_cpu1"/"_cpuN" suffixed
# keys, so consumers never have to know that go only suffixes GOMAXPROCS > 1.
tojson() {
	awk -v keepcpu="${1:-0}" '
		/^Benchmark/ {
			name = $1
			if (keepcpu) {
				if (match(name, /-[0-9]+$/)) {
					cpu = substr(name, RSTART + 1)
					name = substr(name, 1, RSTART - 1) "_cpu" cpu
				} else {
					name = name "_cpu1"
				}
			} else {
				sub(/-[0-9]+$/, "", name)
			}
			if (name in seen) next
			seen[name] = 1
			if (n++) printf(",\n")
			printf("    \"%s\": {\"iters\": %s", name, $2)
			for (i = 3; i + 1 <= NF; i += 2) printf(", \"%s\": %s", $(i+1), $i)
			printf("}")
		}
		END { if (n) printf("\n") }
	'
}

# bench_ns <raw> <name-regex>: extract a benchmark's ns/op (min over -count runs).
bench_ns() {
	echo "$1" | awk -v name="$2" '$1 ~ "^"name"$" { if (!m || $3 + 0 < m) m = $3 + 0 } END { if (m) print m }'
}

LOCAL_NS=$(bench_ns "$GATE_RAW" 'BenchmarkTable1LocalInvoke(-[0-9]+)?')
REMOTE_NS=$(bench_ns "$GATE_RAW" 'BenchmarkTable1RemoteInvoke(-[0-9]+)?')
COLD_NS=$(bench_ns "$GATE_RAW" 'BenchmarkImmutableRemoteInvokeCold(-[0-9]+)?')
WARM_NS=$(bench_ns "$GATE_RAW" 'BenchmarkImmutableRemoteInvokeWarm(-[0-9]+)?')
COLDBASE_NS=$(bench_ns "$GATE_RAW" 'BenchmarkRemoteInvokeColdBaseline(-[0-9]+)?')
BASE_LOCAL_NS=$(bench_ns "$BASE_RAW" 'BenchmarkTable1LocalInvoke(-[0-9]+)?')
BASE_REMOTE_NS=$(bench_ns "$BASE_RAW" 'BenchmarkTable1RemoteInvoke(-[0-9]+)?')
# -cpu 1 lines carry no GOMAXPROCS suffix; the -cpu 8 line is always "-8".
P1_NS=$(bench_ns "$PAR_RAW" 'BenchmarkLocalInvokeParallel')
P8_NS=$(bench_ns "$PAR_RAW" 'BenchmarkLocalInvokeParallel-8')
BASE_P1_NS=$(bench_ns "$BASE_PAR_RAW" 'BenchmarkLocalInvokeParallel')
BASE_P8_NS=$(bench_ns "$BASE_PAR_RAW" 'BenchmarkLocalInvokeParallel-8')
SKEW_STATIC_NS=$(bench_ns "$SKEW_RAW" 'BenchmarkSkewedInvokeStatic(-[0-9]+)?')
SKEW_HEAT_NS=$(bench_ns "$SKEW_RAW" 'BenchmarkSkewedInvokeHeat(-[0-9]+)?')
FANIN_SERIAL_NS=$(bench_ns "$FANIN_RAW" 'BenchmarkFanInSerial64(-[0-9]+)?')
FANIN_ASYNC_NS=$(bench_ns "$FANIN_RAW" 'BenchmarkFanInAsync64(-[0-9]+)?')
LEASE_WARM_NS=$(bench_ns "$LEASE_RAW" 'BenchmarkMutableLeaseWarm(-[0-9]+)?')
LEASE_FENCE_NS=$(bench_ns "$LEASE_RAW" 'BenchmarkMutableLeaseWriteFence(-[0-9]+)?')
# write-p99-ns is a ReportMetric extra on the fence benchmark: take the
# minimum across the -count runs, same policy as bench_ns.
LEASE_WP99_NS=$(echo "$LEASE_RAW" | awk '$1 ~ /^BenchmarkMutableLeaseWriteFence(-[0-9]+)?$/ {
	for (i = 3; i + 1 <= NF; i += 2) if ($(i+1) == "write-p99-ns") { v = $i + 0; if (!m || v < m) m = v }
} END { if (m) print m }')
# bench_allocs <raw> <bare-name>: extract a benchmark's allocs/op (max over
# the -count runs — an allocation count is deterministic, so any disagreement
# between runs is itself suspicious and the worst number is the honest one).
bench_allocs() {
	echo "$1" | awk -v name="$2" '$1 ~ "^"name"(-[0-9]+)?$" {
		for (i = 3; i + 1 <= NF; i += 2) if ($(i+1) == "allocs/op") { v = $i + 0; if (v > m) m = v }
	} END { print m + 0 }'
}
# bench_metric <raw> <bare-name> <unit>: a ReportMetric extra from the first
# run of a benchmark (message counts are deterministic; the gate is exact).
bench_metric() {
	echo "$1" | awk -v name="$2" -v unit="$3" '$1 ~ "^"name"(-[0-9]+)?$" {
		for (i = 3; i + 1 <= NF; i += 2) if ($(i+1) == unit) { print $i + 0; exit }
	}'
}
E8_HOPS=3 # perf.ForwardingChains(3): the last row is a 3-hop chain
E8_CHAIN_MSGS=$(bench_metric "$HEAD_RAW" BenchmarkE8ForwardingChains chain-msgs)
E8_CACHED_MSGS=$(bench_metric "$HEAD_RAW" BenchmarkE8ForwardingChains cached-msgs)
REMOTE_ALLOCS=$(bench_allocs "$GATE_RAW" BenchmarkTable1RemoteInvoke)
LOCAL_ALLOCS=$(bench_allocs "$GATE_RAW" BenchmarkTable1LocalInvoke)
WARM_ALLOCS=$(bench_allocs "$GATE_RAW" BenchmarkImmutableRemoteInvokeWarm)
LEASE_WARM_ALLOCS=$(bench_allocs "$LEASE_RAW" BenchmarkMutableLeaseWarm)

pct() { awk -v now="$1" -v base="$2" 'BEGIN { printf("%.1f", (now-base)*100.0/base) }'; }
ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf("%.2f", a/b) }'; }
LOCAL_PCT=$(pct "$LOCAL_NS" "$BASE_LOCAL_NS")
REMOTE_PCT=$(pct "$REMOTE_NS" "$BASE_REMOTE_NS")
SCALE=$(ratio "$P1_NS" "$P8_NS")
BASE_SCALE=$(ratio "${BASE_P1_NS:-1}" "${BASE_P8_NS:-1}")
WARM_X=$(ratio "$WARM_NS" "$LOCAL_NS")
COLD_X=$(ratio "$COLD_NS" "$COLDBASE_NS")
SKEW_X=$(ratio "$SKEW_STATIC_NS" "$SKEW_HEAT_NS")
FANIN_X=$(ratio "$FANIN_SERIAL_NS" "$FANIN_ASYNC_NS")
LEASE_WARM_X=$(ratio "$LEASE_WARM_NS" "$WARM_NS")
LEASE_WP99_X=$(ratio "${LEASE_WP99_NS:-0}" "$REMOTE_NS")
if [ "$NPROC" -ge 4 ]; then
	FANIN_MIN=3.0 FANIN_GATE=full
else
	FANIN_MIN=1.25 FANIN_GATE=degraded
fi
if [ "$NPROC" -ge 8 ]; then
	SCALE_GATE=enforced SCALE_MIN=3.0
elif [ "$NPROC" -ge 2 ]; then
	SCALE_GATE=enforced SCALE_MIN=1.0
else
	SCALE_GATE=skipped SCALE_MIN=1.0
fi

{
	printf '{\n'
	printf '  "pr": "pr10-compiled-method-dispatch-allocation-free-invoke",\n'
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
	printf '  "benchtime": "%s",\n' "$BENCHTIME"
	printf '  "nproc": %s,\n' "$NPROC"
	printf '  "seed_baseline": {\n'
	printf '    "BenchmarkTable1RemoteInvoke": {"ns/op": 143558, "B/op": 58018, "allocs/op": 1191},\n'
	printf '    "BenchmarkE8ForwardingChains": {"ns/op": 11750000, "chain-msgs": 8.0, "cached-msgs": 2.0}\n'
	printf '  },\n'
	printf '  "same_machine_baseline": {\n'
	printf '    "ref": "%s",\n' "$(git rev-parse --short "$BASEREF")"
	printf '    "BenchmarkTable1LocalInvoke": {"ns/op": %s},\n' "$BASE_LOCAL_NS"
	printf '    "BenchmarkTable1RemoteInvoke": {"ns/op": %s},\n' "$BASE_REMOTE_NS"
	printf '    "parallel_cpu1_ns_op": %s,\n' "${BASE_P1_NS:-null}"
	printf '    "parallel_cpu8_ns_op": %s,\n' "${BASE_P8_NS:-null}"
	printf '    "parallel_speedup_1_to_8": %s\n' "${BASE_SCALE:-null}"
	printf '  },\n'
	printf '  "regression_gate": {\n'
	printf '    "local_ns_op": %s,\n' "$LOCAL_NS"
	printf '    "local_vs_baseline_pct": %s,\n' "$LOCAL_PCT"
	printf '    "remote_ns_op": %s,\n' "$REMOTE_NS"
	printf '    "remote_vs_baseline_pct": %s,\n' "$REMOTE_PCT"
	printf '    "remote_allocs_op": %s\n' "${REMOTE_ALLOCS:-0}"
	printf '  },\n'
	printf '  "dispatch": {\n'
	printf '    "local_allocs_op": %s,\n' "${LOCAL_ALLOCS:-0}"
	printf '    "local_allocs_gate_max": %s,\n' "$LOCAL_ALLOC_LIMIT"
	printf '    "local_improvement_gate_max_fraction_of_baseline": %s,\n' "$LOCAL_IMPROVE"
	printf '    "warm_replica_allocs_op": %s,\n' "${WARM_ALLOCS:-0}"
	printf '    "lease_warm_allocs_op": %s,\n' "${LEASE_WARM_ALLOCS:-0}"
	printf '    "remote_allocs_op": %s,\n' "${REMOTE_ALLOCS:-0}"
	printf '    "remote_allocs_gate_below": %s\n' "$ALLOC_LIMIT"
	printf '  },\n'
	printf '  "replication": {\n'
	printf '    "cold_ns_op": %s,\n' "$COLD_NS"
	printf '    "cold_baseline_ns_op": %s,\n' "$COLDBASE_NS"
	printf '    "cold_vs_baseline_x": %s,\n' "$COLD_X"
	printf '    "cold_gate_max_x": 1.15,\n'
	printf '    "warm_ns_op": %s,\n' "$WARM_NS"
	printf '    "local_ns_op": %s,\n' "$LOCAL_NS"
	printf '    "warm_vs_local_x": %s,\n' "$WARM_X"
	printf '    "warm_gate_max_x": 2.0\n'
	printf '  },\n'
	printf '  "coherence_leases": {\n'
	printf '    "lease_warm_ns_op": %s,\n' "$LEASE_WARM_NS"
	printf '    "immutable_warm_ns_op": %s,\n' "$WARM_NS"
	printf '    "lease_warm_vs_immutable_warm_x": %s,\n' "$LEASE_WARM_X"
	printf '    "lease_warm_gate_max_x": 2.0,\n'
	printf '    "write_fence_ns_op": %s,\n' "$LEASE_FENCE_NS"
	printf '    "write_fence_p99_ns": %s,\n' "${LEASE_WP99_NS:-null}"
	printf '    "write_p99_vs_remote_x": %s,\n' "$LEASE_WP99_X"
	printf '    "write_p99_gate_max_x": 25.0\n'
	printf '  },\n'
	printf '  "async_pipelining": {\n'
	printf '    "fanin_serial_ns_op": %s,\n' "$FANIN_SERIAL_NS"
	printf '    "fanin_async_ns_op": %s,\n' "$FANIN_ASYNC_NS"
	printf '    "fanin_speedup_x": %s,\n' "$FANIN_X"
	printf '    "gate": "%s",\n' "$FANIN_GATE"
	printf '    "gate_min_x": %s\n' "$FANIN_MIN"
	printf '  },\n'
	printf '  "heat_placement": {\n'
	printf '    "skewed_static_ns_op": %s,\n' "$SKEW_STATIC_NS"
	printf '    "skewed_heat_ns_op": %s,\n' "$SKEW_HEAT_NS"
	printf '    "heat_speedup_x": %s,\n' "$SKEW_X"
	printf '    "gate": "heat must beat static (>= 1.0x)"\n'
	printf '  },\n'
	printf '  "parallel_scaling": {\n'
	printf '    "cpu1_ns_op": %s,\n' "$P1_NS"
	printf '    "cpu8_ns_op": %s,\n' "$P8_NS"
	printf '    "speedup_1_to_8": %s,\n' "$SCALE"
	printf '    "baseline_speedup_1_to_8": %s,\n' "${BASE_SCALE:-null}"
	printf '    "gate": "%s",\n' "$SCALE_GATE"
	printf '    "gate_min_x": %s\n' "$SCALE_MIN"
	printf '  },\n'
	printf '  "results": {\n'
	{ echo "$GATE_RAW"; echo "$HEAD_RAW"; echo "$SKEW_RAW"; echo "$FANIN_RAW"; echo "$LEASE_RAW"; echo "$WIRE_RAW"; } | tojson
	printf ',\n'
	echo "$PAR_RAW" | tojson 1
	printf '  }\n'
	printf '}\n'
} >"$OUT"

echo
echo "wrote $OUT"
echo "local invoke:  ${LOCAL_NS}ns/op vs baseline ${BASE_LOCAL_NS}ns/op (${LOCAL_PCT}%) at ${LOCAL_ALLOCS} allocs/op"
echo "dispatch allocs: local ${LOCAL_ALLOCS}/op, warm replica ${WARM_ALLOCS}/op, lease warm ${LEASE_WARM_ALLOCS}/op (budget ${LOCAL_ALLOC_LIMIT}/op)"
echo "remote invoke: ${REMOTE_NS}ns/op vs baseline ${BASE_REMOTE_NS}ns/op (${REMOTE_PCT}%) at ${REMOTE_ALLOCS} allocs/op"
echo "replication:   cold ${COLD_NS}ns/op (${COLD_X}x of ${COLDBASE_NS}ns/op control), warm ${WARM_NS}ns/op (${WARM_X}x of local)"
echo "parallel scaling 1->8 goroutines: ${SCALE}x now vs ${BASE_SCALE}x baseline (gate ${SCALE_GATE}, nproc=$NPROC)"
echo "heat placement: skewed workload ${SKEW_HEAT_NS}ns/op with heat vs ${SKEW_STATIC_NS}ns/op static (${SKEW_X}x)"
echo "pipelined fan-in: async ${FANIN_ASYNC_NS}ns/op vs serial ${FANIN_SERIAL_NS}ns/op (${FANIN_X}x, gate ${FANIN_GATE} >= ${FANIN_MIN}x, nproc=$NPROC)"
echo "reader leases:  warm mutable read ${LEASE_WARM_NS}ns/op (${LEASE_WARM_X}x of immutable warm ${WARM_NS}ns/op), fenced write ${LEASE_FENCE_NS}ns/op, p99 ${LEASE_WP99_NS:-?}ns (${LEASE_WP99_X}x of remote)"

FAIL=0
if awk -v now="$LOCAL_NS" -v base="$BASE_LOCAL_NS" -v f="$LOCAL_IMPROVE" 'BEGIN { exit !(now > base * f) }'; then
	echo >&2
	echo "FAIL: single-threaded local invoke is ${LOCAL_NS}ns/op vs ${BASE_LOCAL_NS}ns/op" >&2
	echo "      baseline (${LOCAL_PCT}%) — the compiled dispatch plans must deliver at" >&2
	echo "      least a 25% reduction (<= ${LOCAL_IMPROVE}x of baseline). Check that the" >&2
	echo "      benchmark classes' signatures still bind trampolines (corpus drift)" >&2
	echo "      and that the per-P frame free list is actually hitting." >&2
	FAIL=1
fi
if [ "${LOCAL_ALLOCS:-0}" -gt "$LOCAL_ALLOC_LIMIT" ]; then
	echo >&2
	echo "FAIL: local invoke allocates ${LOCAL_ALLOCS}/op (budget ${LOCAL_ALLOC_LIMIT}/op)." >&2
	echo "      The trampoline path allocates only the result vector and its boxed" >&2
	echo "      value — something fell back to reflect.Call or a pool stopped hitting." >&2
	FAIL=1
fi
if [ "${WARM_ALLOCS:-0}" -gt "$LOCAL_ALLOC_LIMIT" ]; then
	echo >&2
	echo "FAIL: warm immutable replica hit allocates ${WARM_ALLOCS}/op (budget" >&2
	echo "      ${LOCAL_ALLOC_LIMIT}/op — a replica hit runs the same compiled dispatch" >&2
	echo "      plan as a local invoke)." >&2
	FAIL=1
fi
if [ "${LEASE_WARM_ALLOCS:-0}" -gt "$LOCAL_ALLOC_LIMIT" ]; then
	echo >&2
	echo "FAIL: warm lease read allocates ${LEASE_WARM_ALLOCS}/op (budget" >&2
	echo "      ${LOCAL_ALLOC_LIMIT}/op — a lease hit runs the same compiled dispatch" >&2
	echo "      plan as a local invoke)." >&2
	FAIL=1
fi
if awk -v now="$REMOTE_NS" -v base="$BASE_REMOTE_NS" 'BEGIN { exit !(now > base * 1.05) }'; then
	echo >&2
	echo "FAIL: remote invoke regressed ${REMOTE_PCT}% against the same-machine" >&2
	echo "      baseline (${REMOTE_NS}ns/op vs ${BASE_REMOTE_NS}ns/op, limit +5%)." >&2
	FAIL=1
fi
if [ -z "${REMOTE_ALLOCS:-}" ] || [ "$REMOTE_ALLOCS" -ge "$ALLOC_LIMIT" ]; then
	echo >&2
	echo "FAIL: remote invoke allocates ${REMOTE_ALLOCS:-?}/op (must be strictly" >&2
	echo "      below ${ALLOC_LIMIT}/op). The objspace layer must not allocate on the" >&2
	echo "      invoke path, and executeRouted must draw its argument vector from" >&2
	echo "      the wire scratch pool." >&2
	FAIL=1
fi
if awk -v w="$WARM_NS" -v l="$LOCAL_NS" 'BEGIN { exit !(w > l * 2.0) }'; then
	echo >&2
	echo "FAIL: warm immutable remote invoke is ${WARM_X}x the local invoke" >&2
	echo "      (${WARM_NS}ns/op vs ${LOCAL_NS}ns/op, limit 2x). A replica hit is a" >&2
	echo "      resident-descriptor invoke; check that TryPin still accepts replicas." >&2
	FAIL=1
fi
if awk -v c="$COLD_NS" -v b="$COLDBASE_NS" 'BEGIN { exit !(c > b * 1.15) }'; then
	echo >&2
	echo "FAIL: cold immutable remote invoke is ${COLD_X}x the no-replication" >&2
	echo "      control (${COLD_NS}ns/op vs ${COLDBASE_NS}ns/op, limit 1.15x). The" >&2
	echo "      snapshot piggyback/install queue is overcharging the first call —" >&2
	echo "      check replica_snaps_encoded and the installer queue depth." >&2
	FAIL=1
fi
if [ "$SCALE_GATE" = enforced ]; then
	if awk -v s="$SCALE" -v min="$SCALE_MIN" 'BEGIN { exit !(s < min) }'; then
		echo >&2
		echo "FAIL: parallel local invoke speedup 1->8 goroutines is ${SCALE}x" >&2
		echo "      (needs >= ${SCALE_MIN}x on this ${NPROC}-CPU host). Check the" >&2
		echo "      per-P stats stripes and the per-shard contention counters." >&2
		FAIL=1
	fi
else
	echo "note: parallel scaling gate skipped — host has $NPROC CPU (< 2);"
	echo "      neither speedup nor counter ping-pong is observable here."
fi
if awk -v h="$SKEW_HEAT_NS" -v s="$SKEW_STATIC_NS" 'BEGIN { exit !(h >= s) }'; then
	echo >&2
	echo "FAIL: heat-driven placement did not beat static placement on the" >&2
	echo "      skewed workload (${SKEW_HEAT_NS}ns/op with heat vs ${SKEW_STATIC_NS}ns/op" >&2
	echo "      static). Check heat_moves in the benchmark output: if it is 0," >&2
	echo "      the trackers never fired; if high, the objects are ping-ponging." >&2
	FAIL=1
fi
if awk -v x="$FANIN_X" -v min="$FANIN_MIN" 'BEGIN { exit !(x < min) }'; then
	echo >&2
	echo "FAIL: pipelined fan-in speedup is ${FANIN_X}x (needs >= ${FANIN_MIN}x on this" >&2
	echo "      ${NPROC}-CPU host). 64 outstanding AsyncInvokes through one peer" >&2
	echo "      pipeline must beat 64 serial blocking Invokes; check that" >&2
	echo "      SendNoFlush/Kick coalescing still batches the burst and that the" >&2
	echo "      pipe drain is not serializing behind completions." >&2
	FAIL=1
fi
if awk -v lw="$LEASE_WARM_NS" -v iw="$WARM_NS" 'BEGIN { exit !(lw > iw * 2.0) }'; then
	echo >&2
	echo "FAIL: warm mutable read through a live lease is ${LEASE_WARM_X}x the warm" >&2
	echo "      immutable replica hit (${LEASE_WARM_NS}ns/op vs ${WARM_NS}ns/op, limit 2x)." >&2
	echo "      A lease hit is the resident fast path plus an expiry load; if it" >&2
	echo "      costs more, reads are falling off the zero-message path — check" >&2
	echo "      lease_stale and lease_write_forwards." >&2
	FAIL=1
fi
if [ -z "${LEASE_WP99_NS:-}" ]; then
	echo >&2
	echo "FAIL: BenchmarkMutableLeaseWriteFence reported no write-p99-ns metric." >&2
	FAIL=1
elif awk -v p="$LEASE_WP99_NS" -v r="$REMOTE_NS" 'BEGIN { exit !(p > r * 25.0) }'; then
	echo >&2
	echo "FAIL: fenced-write p99 is ${LEASE_WP99_X}x a single remote invoke" >&2
	echo "      (${LEASE_WP99_NS}ns vs ${REMOTE_NS}ns/op, limit 25x). The invalidation" >&2
	echo "      round should cost a couple of RTTs — check that revokes still go" >&2
	echo "      out in parallel and that the fence waits on acks, not lease" >&2
	echo "      expiry (lease_fence_timeouts)." >&2
	FAIL=1
fi
if [ "${E8_CHAIN_MSGS:-}" != "$((2 * E8_HOPS + 2))" ] || [ "${E8_CACHED_MSGS:-}" != 2 ]; then
	echo >&2
	echo "FAIL: E8 forwarding chain (k=${E8_HOPS}) cost chain-msgs=${E8_CHAIN_MSGS:-?}," >&2
	echo "      cached-msgs=${E8_CACHED_MSGS:-?}; the paper's cost is exactly" >&2
	echo "      $((2 * E8_HOPS + 2)) and 2 (EXPERIMENTS E8). Extra messages on a healthy" >&2
	echo "      chain are usually health probes — check rpc_probes_sent." >&2
	FAIL=1
fi
[ "$FAIL" -eq 0 ] || exit 1
echo "regression gates passed (E8 chain-msgs = $((2 * E8_HOPS + 2)) and cached-msgs = 2 exactly, local <= ${LOCAL_IMPROVE}x baseline at <= ${LOCAL_ALLOC_LIMIT} allocs/op, remote +5% below ${ALLOC_LIMIT} allocs/op, warm replica/lease <= ${LOCAL_ALLOC_LIMIT} allocs/op, warm <= 2x local, cold <= 1.15x control, heat > static, fan-in >= ${FANIN_MIN}x, lease warm <= 2x immutable warm, fenced-write p99 <= 25x remote)"
