#!/bin/sh
# Tier-1 gate: formatting, vet, build, the race-sensitive test packages
# (obs, AKB, eval, the serving tiers, the drills) and short fuzz runs of
# the drill-report loader and the error envelope.
# Tier-2 gates, each documented at its section below:
#   determinism  same-seed experiments diff clean under `obs diff -strict`
#   chaos        the rate-0 fault chain is byte-identical; 30% completes
#   serve        the serve drill, then audits of the telemetry it left
#   profiling    runtime timeline, CPU profile, serve report diffs
#   batching     serve drill configurations and the warm B/op pair
#   allocation   batched forward >= 2x serial, vs BENCH_allocs.json
#   cluster      the route drill (a backend SIGKILLed), vs BENCH_cluster.json
#   jobs         the job drill (kill/resume), vs BENCH_jobs.json, and
#                negative controls proving obs diff catches invariant flips
# The drills (internal/drill; README "Drills") write self-describing
# BENCH_*.json reports and exit non-zero on any broken invariant, so no
# gate greps a verdict out of a BENCH doc.
# Run from anywhere inside the repo; exits non-zero on first failure.
set -eu
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$fmt" >&2
	exit 1
fi

go vet ./...
go build ./...
go test -race ./internal/obs/... ./internal/akb/... ./internal/eval/... \
	./internal/faults/... ./internal/resilience/... ./internal/serve/... \
	./internal/cluster/... ./internal/jobs/... ./internal/drill/...
go test -run '^$' -fuzz '^FuzzReadDrillReport$' -fuzztime 5s ./internal/obs/analyze >/dev/null
go test -run '^$' -fuzz '^FuzzErrorEnvelope$' -fuzztime 5s ./internal/serve >/dev/null
echo "check.sh: tier-1 gates passed"

# --- tier-2: telemetry determinism gate ------------------------------------
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/knowtrans" ./cmd/knowtrans
"$tmp/knowtrans" experiment table6 -scale 0.05 -seed 7 -workers 1 \
	-bench "$tmp/a.json" -trace "$tmp/a.jsonl" >"$tmp/a.out"
"$tmp/knowtrans" experiment table6 -scale 0.05 -seed 7 -workers 1 \
	-bench "$tmp/b.json" >/dev/null
"$tmp/knowtrans" experiment table6 -scale 0.05 -seed 7 -workers 4 \
	-bench "$tmp/p.json" -trace "$tmp/p.jsonl" >"$tmp/p.out"

# Identical seeds must produce identical metrics (wall time is exempt):
# serial vs serial, and serial vs four workers.
for other in b p; do
	"$tmp/knowtrans" obs diff "$tmp/a.json" "$tmp/$other.json" -strict >/dev/null || {
		echo "check.sh: determinism gate failed — obs diff a vs $other found changes:" >&2
		"$tmp/knowtrans" obs diff "$tmp/a.json" "$tmp/$other.json" -strict >&2 || true
		exit 1
	}
done

# The rendered tables must be byte-identical too. Only the wall-time
# trailer "(table6 in ...)" and the "wrote BENCH..." line vary per run.
sed -e '/^(/d' -e '/^wrote /d' "$tmp/a.out" >"$tmp/a.flat"
sed -e '/^(/d' -e '/^wrote /d' "$tmp/p.out" >"$tmp/p.flat"
cmp -s "$tmp/a.flat" "$tmp/p.flat" || {
	echo "check.sh: parallel run rendered different tables than serial:" >&2
	diff "$tmp/a.flat" "$tmp/p.flat" >&2 || true
	exit 1
}

# The analyzer's per-stage self times must account for the root span's
# duration (the ISSUE's 5% acceptance bound). A serial trace has one
# timeline, so coverage is bounded both ways; a parallel trace holds
# overlapping worker spans whose self times sum past the root's wall time,
# so only the lower bound applies there.
coverage=$("$tmp/knowtrans" obs trace "$tmp/a.jsonl" | sed -n 's/^self-time coverage: \([0-9.]*\)%.*/\1/p')
if [ -z "$coverage" ]; then
	echo "check.sh: obs trace printed no coverage line for serial run" >&2
	exit 1
fi
ok=$(awk -v c="$coverage" 'BEGIN { print (c >= 95.0 && c <= 105.0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
	echo "check.sh: serial self-time coverage $coverage% outside [95,105]" >&2
	exit 1
fi
pcov=$("$tmp/knowtrans" obs trace "$tmp/p.jsonl" | sed -n 's/^self-time coverage: \([0-9.]*\)%.*/\1/p')
if [ -z "$pcov" ]; then
	echo "check.sh: obs trace printed no coverage line for parallel run" >&2
	exit 1
fi
ok=$(awk -v c="$pcov" 'BEGIN { print (c >= 95.0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
	echo "check.sh: parallel self-time coverage $pcov% below 95" >&2
	exit 1
fi
echo "check.sh: tier-2 determinism gate passed (coverage serial $coverage%, 4 workers $pcov%)"

# --- tier-2: chaos gate ------------------------------------------------------
# Rate 0 arms the whole injector → resilient-client chain with zero
# injections: the rendered tables must stay byte-identical to the unwrapped
# serial run above.
"$tmp/knowtrans" experiment table6 -scale 0.05 -seed 7 -workers 4 \
	-faults rate=0,seed=9 -bench "$tmp/f0.json" >"$tmp/f0.out"
sed -e '/^(/d' -e '/^wrote /d' "$tmp/f0.out" >"$tmp/f0.flat"
cmp -s "$tmp/a.flat" "$tmp/f0.flat" || {
	echo "check.sh: rate-0 fault chain changed the rendered tables:" >&2
	diff "$tmp/a.flat" "$tmp/f0.flat" >&2 || true
	exit 1
}

# A 30% seeded fault rate must complete every cell (exit 0 — graceful
# degradation, never a panic) and the injection/resilience metrics must
# actually appear in the metrics snapshot.
"$tmp/knowtrans" experiment table6 -scale 0.05 -seed 7 -workers 4 \
	-faults rate=0.3,seed=9 -metrics "$tmp/chaos.json" >/dev/null || {
	echo "check.sh: chaos run (30% faults) failed" >&2
	exit 1
}
grep -q '"faults.injected"' "$tmp/chaos.json" || {
	echo "check.sh: chaos run recorded no faults.injected metric" >&2
	exit 1
}
echo "check.sh: tier-2 chaos gate passed"

# --- tier-2: serve gate ------------------------------------------------------
# The serve drill exits non-zero on any broken invariant: an answer
# mismatch vs the direct path, any non-2xx at fault rate 0, a missed
# traceparent echo, fewer than the 256 requests asked for, or an adapter
# whose cold starts did not coalesce to exactly one Transfer.
"$tmp/knowtrans" serve -selftest -scale 0.05 -seed 7 \
	-selftest-requests 256 -selftest-concurrency 64 -selftest-adapters 4 \
	-bench "$tmp/serve.json" -trace "$tmp/serve.jsonl" \
	-sample 10ms -timeline "$tmp/serve.runtime.jsonl" \
	-cpuprofile "$tmp/serve.cpu.pprof" \
	-access-log "$tmp/access.log" >"$tmp/serve.out" || {
	echo "check.sh: serve selftest failed:" >&2
	cat "$tmp/serve.out" >&2
	exit 1
}

# Access log: the selftest passed, so all 256 predicts were 2xx — each must
# have produced exactly one log line, and every line must carry a trace ID.
lines=$(grep -c '"msg":"request"' "$tmp/access.log" || true)
if [ "$lines" != 256 ]; then
	echo "check.sh: access log has $lines request lines, want 256" >&2
	exit 1
fi
traced=$(grep '"msg":"request"' "$tmp/access.log" | grep -c '"trace":"[0-9a-f]' || true)
if [ "$traced" != 256 ]; then
	echo "check.sh: only $traced/256 access-log lines carry a trace ID" >&2
	exit 1
fi

# Span stream: batching ran, and every serve.batch span links the request
# spans it served (the handle that makes shared work attributable).
batches=$(grep -c '"name":"serve.batch"' "$tmp/serve.jsonl" || true)
if [ "$batches" = 0 ]; then
	echo "check.sh: selftest trace recorded no serve.batch spans" >&2
	exit 1
fi
linked=$(grep '"name":"serve.batch"' "$tmp/serve.jsonl" | grep -c '"links":\[' || true)
if [ "$linked" != "$batches" ]; then
	echo "check.sh: only $linked/$batches serve.batch spans carry request links" >&2
	exit 1
fi

# End-to-end reconstruction: pull the slowest request's trace ID the
# selftest printed and require `obs trace -trace-id` to reassemble its path
# — the request span plus the linked batch that actually served it.
sample=$(sed -n 's/^selftest: slowest request trace \([0-9a-f]*\).*/\1/p' "$tmp/serve.out")
if [ -z "$sample" ]; then
	echo "check.sh: selftest printed no sample trace ID" >&2
	exit 1
fi
"$tmp/knowtrans" obs trace "$tmp/serve.jsonl" -trace-id "$sample" >"$tmp/path.out" || {
	echo "check.sh: obs trace -trace-id $sample failed" >&2
	exit 1
}
for want in serve.request serve.batch; do
	grep -q "$want" "$tmp/path.out" || {
		echo "check.sh: obs trace -trace-id reconstruction lacks $want:" >&2
		cat "$tmp/path.out" >&2
		exit 1
	}
done

# A missing trace file is an operator mistake: exit 2 with usage, never a
# panic and never a success.
rc=0
"$tmp/knowtrans" obs trace "$tmp/no-such-trace.jsonl" >/dev/null 2>&1 || rc=$?
if [ "$rc" != 2 ]; then
	echo "check.sh: obs trace on a missing file exited $rc, want 2" >&2
	exit 1
fi
echo "check.sh: tier-2 serve gate passed"

# --- tier-2: profiling gate --------------------------------------------------
# The selftest above ran under the runtime sampler with a whole-run CPU
# profile; audit what it left behind.
[ -s "$tmp/serve.runtime.jsonl" ] || {
	echo "check.sh: sampler wrote no runtime timeline" >&2
	exit 1
}

# The timeline must summarize cleanly: no goroutine leak, no unbounded
# heap growth in a healthy selftest.
"$tmp/knowtrans" obs prof "$tmp/serve.runtime.jsonl" -gate >"$tmp/prof.out" || {
	echo "check.sh: obs prof -gate flagged the healthy selftest:" >&2
	cat "$tmp/prof.out" >&2
	exit 1
}
grep -q 'runtime timeline:' "$tmp/prof.out" || {
	echo "check.sh: obs prof printed no summary:" >&2
	cat "$tmp/prof.out" >&2
	exit 1
}

# Sentinel, negative control: a timeline diffed against itself has zero
# budget regressions.
"$tmp/knowtrans" obs prof "$tmp/serve.runtime.jsonl" \
	-diff "$tmp/serve.runtime.jsonl" >/dev/null || {
	echo "check.sh: obs prof self-diff reported regressions" >&2
	exit 1
}

# Sentinel, positive control: doctor the timeline (goroutine and heap
# readings inflated by a leading digit, ~10-90x) and require the diff
# against the real baseline to exit 1.
sed -e 's/"goroutines":\([0-9]\)/"goroutines":9\1/' \
	-e 's/"heap_live_bytes":\([0-9]\)/"heap_live_bytes":9\1/' \
	"$tmp/serve.runtime.jsonl" >"$tmp/doctored.runtime.jsonl"
rc=0
"$tmp/knowtrans" obs prof "$tmp/doctored.runtime.jsonl" \
	-diff "$tmp/serve.runtime.jsonl" >/dev/null 2>&1 || rc=$?
if [ "$rc" != 1 ]; then
	echo "check.sh: obs prof -diff on doctored timeline exited $rc, want 1" >&2
	exit 1
fi

# The whole-run CPU profile must be valid pprof (label-propagation down to
# the adapter is pinned by unit tests; a live profile's sample mix is
# load-dependent and not asserted here).
[ -s "$tmp/serve.cpu.pprof" ] || {
	echo "check.sh: selftest wrote no CPU profile" >&2
	exit 1
}
go tool pprof -raw "$tmp/serve.cpu.pprof" >/dev/null 2>&1 || {
	echo "check.sh: serve.cpu.pprof is not a valid profile" >&2
	exit 1
}

# obs diff loads the serve report through its declared schema: clean
# against itself, exit 1 when bytes/op and allocs/op are doctored ~10x.
"$tmp/knowtrans" obs diff "$tmp/serve.json" "$tmp/serve.json" >/dev/null || {
	echo "check.sh: obs diff on identical serve reports reported regressions" >&2
	exit 1
}
sed -e 's/"name":"bytes_per_op","value":\([0-9]\)/"name":"bytes_per_op","value":9\1/' \
	-e 's/"name":"allocs_per_op","value":\([0-9]\)/"name":"allocs_per_op","value":9\1/' \
	"$tmp/serve.json" >"$tmp/serve.doctored.json"
rc=0
"$tmp/knowtrans" obs diff "$tmp/serve.json" "$tmp/serve.doctored.json" \
	-rel-tol 0.5 >/dev/null 2>&1 || rc=$?
if [ "$rc" != 1 ]; then
	echo "check.sh: obs diff on doctored serve report exited $rc, want 1" >&2
	exit 1
fi

# A missing timeline is an operator mistake: exit 2 with usage.
rc=0
"$tmp/knowtrans" obs prof "$tmp/no-such-timeline.jsonl" >/dev/null 2>&1 || rc=$?
if [ "$rc" != 2 ]; then
	echo "check.sh: obs prof on a missing file exited $rc, want 2" >&2
	exit 1
fi
echo "check.sh: tier-2 profiling gate passed"

# --- tier-2: batching gate ---------------------------------------------------
# The batched forward must answer byte-identically to the direct path in
# every configuration the batcher can reach. The selftest makes answer
# mismatches fatal at any fault rate, so each PASS below is an equivalence
# proof for its configuration; the main serve gate above already covered
# the default batched configuration, and its invariants pin that every
# drained batch rode the batched forward.

# Degenerate batches: -max-batch 1 drains single-request batches through
# the same batched entry point.
"$tmp/knowtrans" serve -selftest -scale 0.05 -seed 7 \
	-selftest-requests 128 -selftest-concurrency 32 -selftest-adapters 2 \
	-max-batch 1 -bench "$tmp/serve.mb1.json" >"$tmp/serve.mb1.out" || {
	echo "check.sh: serve selftest with -max-batch 1 failed:" >&2
	cat "$tmp/serve.mb1.out" >&2
	exit 1
}

# Chaos: a 30% seeded fault rate must degrade availability, never
# correctness — the served answers still match the equally-faulted direct
# path and cold starts still coalesce.
"$tmp/knowtrans" serve -selftest -scale 0.05 -seed 7 \
	-selftest-requests 128 -selftest-concurrency 32 -selftest-adapters 2 \
	-faults rate=0.3,seed=9 -bench "$tmp/serve.chaos.json" >"$tmp/serve.chaos.out" || {
	echo "check.sh: serve selftest under 30% faults failed:" >&2
	cat "$tmp/serve.chaos.out" >&2
	exit 1
}

# Warm pair: pre-warming the adapters takes cold-start Transfers out of
# the measured bracket, so the per-request allocation numbers compare the
# serving paths themselves. The batched path must allocate strictly fewer
# bytes per request than the serial oracle (TestWarmPairAllocates reads
# both reports through the declared schema).
"$tmp/knowtrans" serve -selftest -scale 0.05 -seed 7 -selftest-warm \
	-serial-predict -bench "$tmp/serve.warm-serial.json" >"$tmp/serve.ws.out" || {
	echo "check.sh: warm serial selftest failed:" >&2
	cat "$tmp/serve.ws.out" >&2
	exit 1
}
"$tmp/knowtrans" serve -selftest -scale 0.05 -seed 7 -selftest-warm \
	-bench "$tmp/serve.warm.json" >"$tmp/serve.wb.out" || {
	echo "check.sh: warm batched selftest failed:" >&2
	cat "$tmp/serve.wb.out" >&2
	exit 1
}
KNOWTRANS_WARM_PAIR="$tmp/serve.warm-serial.json $tmp/serve.warm.json" \
	go test -count=1 -run '^TestWarmPairAllocates$' -v ./internal/drill >"$tmp/warmpair.out" 2>&1 &&
	grep -q -- '--- PASS: TestWarmPairAllocates' "$tmp/warmpair.out" || {
	echo "check.sh: warm pair gate failed:" >&2
	cat "$tmp/warmpair.out" >&2
	exit 1
}
echo "check.sh: tier-2 batching gate passed"

# --- tier-2: allocation gate -------------------------------------------------
# The ServePredict benchmark pair answers the same 8-instance micro-batch
# through the batched forward and the serial loop. The awk step writes the
# pair as a drill report: time/bytes/allocs per op as lower-is-better perf
# metrics, the speedup as a higher-is-better one, and "batched >= 2x
# serial" as an invariant. Diffing against the committed BENCH_allocs.json
# fails on that invariant at any tolerance and on perf numbers past the
# rel-tol (which absorbs machine-to-machine time variance; the 2x ratio is
# machine-independent).
go test -run '^$' -bench 'ServePredict' -benchmem . >"$tmp/bench.out" || {
	echo "check.sh: ServePredict benchmarks failed:" >&2
	cat "$tmp/bench.out" >&2
	exit 1
}
awk -v gover="$(go env GOVERSION)" -v rev="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)" '
	/^cpu: /                                 { cpu = substr($0, 6) }
	$1 ~ /^BenchmarkServePredict(-|$)/       { bt=$3; bb=$5; ba=$7; procs = ($1 ~ /-[0-9]+$/) ? substr($1, match($1, /-[0-9]+$/) + 1) : 1 }
	$1 ~ /^BenchmarkServePredictSerial(-|$)/ { st=$3; sb=$5; sa=$7 }
	function perf(name, v, unit, better) {
		printf "    {\"name\":\"%s\",\"value\":%s,\"unit\":\"%s\",\"better\":\"%s\",\"kind\":\"perf\"},\n", name, v, unit, better
	}
	END {
		if (bt == "" || st == "") { print "missing benchmark lines" > "/dev/stderr"; exit 1 }
		printf "{\n  \"schema_version\": 1,\n  \"drill\": \"allocs\",\n"
		printf "  \"env\": {\"go_version\": \"%s\", \"gomaxprocs\": %d, \"cpu\": \"%s\", \"revision\": \"%s\"},\n", gover, procs, cpu, rev
		printf "  \"metrics\": [\n"
		perf("batched_time_ns", bt, "ns/op", "lower"); perf("batched_bytes_per_op", bb, "B/op", "lower")
		perf("batched_allocs_per_op", ba, "allocs/op", "lower"); perf("serial_time_ns", st, "ns/op", "lower")
		perf("serial_bytes_per_op", sb, "B/op", "lower"); perf("serial_allocs_per_op", sa, "allocs/op", "lower")
		perf("batch_speedup_x", sprintf("%.3f", st / bt), "x", "higher")
		printf "    {\"name\":\"batch_speedup_ge_2x\",\"value\":%d,\"want\":1,\"unit\":\"bool\",\"kind\":\"invariant\"}\n  ]\n}\n", (st / bt >= 2.0)
	}
' "$tmp/bench.out" >"$tmp/allocs.json" || {
	echo "check.sh: could not parse benchmark output:" >&2
	cat "$tmp/bench.out" >&2
	exit 1
}
"$tmp/knowtrans" obs diff BENCH_allocs.json "$tmp/allocs.json" -rel-tol 0.5 >/dev/null || {
	echo "check.sh: allocation gate regressed vs committed BENCH_allocs.json:" >&2
	"$tmp/knowtrans" obs diff BENCH_allocs.json "$tmp/allocs.json" -rel-tol 0.5 >&2 || true
	cat "$tmp/bench.out" >&2
	exit 1
}
echo "check.sh: tier-2 allocation gate passed"

# --- tier-2: cluster gate ----------------------------------------------------
# The route drill spawns a 3-backend fleet as subprocesses, drives two
# 256-request 64-concurrent seeded load phases through two router replicas
# (one hedging, one failover-only), SIGKILLs one backend a quarter of the
# way into the second phase, and exits non-zero unless all 512 requests
# succeeded with answers byte-identical to the direct path, hedges and
# failovers fired, both routers ejected the corpse, its keys were
# re-served by replicas, and the survivors drained clean on SIGTERM. The
# report is diffed against the committed baseline: invariants exactly,
# latency/throughput within a generous tolerance (a degraded-phase profile
# depends on kill timing).
"$tmp/knowtrans" route -selftest -scale 0.05 -seed 7 \
	-faults rate=0.3,seed=9 -bench "$tmp/cluster.json" >"$tmp/cluster.out" || {
	echo "check.sh: route selftest failed:" >&2
	cat "$tmp/cluster.out" >&2
	exit 1
}
"$tmp/knowtrans" obs diff BENCH_cluster.json "$tmp/cluster.json" -rel-tol 1.0 >/dev/null || {
	echo "check.sh: cluster gate regressed vs committed BENCH_cluster.json:" >&2
	"$tmp/knowtrans" obs diff BENCH_cluster.json "$tmp/cluster.json" -rel-tol 1.0 >&2 || true
	exit 1
}
echo "check.sh: tier-2 cluster gate passed"

# --- tier-2: jobs gate -------------------------------------------------------
# The job drill spawns a 2-backend fleet, runs a 64-row 8-shard job
# uninterrupted, runs the same rows as a subprocess that SIGKILLs itself
# after 2 fsynced shard commits, tears the checkpoint tail the way a second
# mid-append kill would, resumes, and exits non-zero unless every
# invariant holds: the crashed run died with some but not all shards
# durable, the resume adopted exactly those shards, the output is
# byte-identical to the uninterrupted run with zero lost rows (retries
# absorb the 30% fault rate) and zero duplicated Transfers anywhere in the
# fleet, the plan rendered deterministically, the error probe got the
# canonical envelope, and the fleet drained clean. check.sh re-plans the
# kept spec twice to pin dry-run determinism from the CLI surface.
"$tmp/knowtrans" job -selftest -scale 0.05 -seed 7 \
	-faults rate=0.3,seed=9 -bench "$tmp/jobs.json" \
	-workdir "$tmp/jobswork" >"$tmp/jobs.out" || {
	echo "check.sh: job selftest failed:" >&2
	cat "$tmp/jobs.out" >&2
	exit 1
}

# Dry-run determinism from the CLI: the same spec must render the same
# plan bytes on every invocation (no timestamps, no map ordering).
"$tmp/knowtrans" job plan -spec "$tmp/jobswork/specA.json" >"$tmp/plan1.out"
"$tmp/knowtrans" job plan -spec "$tmp/jobswork/specA.json" >"$tmp/plan2.out"
cmp -s "$tmp/plan1.out" "$tmp/plan2.out" || {
	echo "check.sh: job plan rendered different bytes across invocations:" >&2
	diff "$tmp/plan1.out" "$tmp/plan2.out" >&2 || true
	exit 1
}

# Envelope enforcement, statically: the serving packages must route every
# HTTP error through the envelope writer, never raw http.Error.
if grep -rn 'http\.Error(' internal/serve internal/cluster internal/jobs; then
	echo "check.sh: raw http.Error in a serving package — use serve.WriteError" >&2
	exit 1
fi

"$tmp/knowtrans" obs diff BENCH_jobs.json "$tmp/jobs.json" -rel-tol 1.0 >/dev/null || {
	echo "check.sh: jobs gate regressed vs committed BENCH_jobs.json:" >&2
	"$tmp/knowtrans" obs diff BENCH_jobs.json "$tmp/jobs.json" -rel-tol 1.0 >&2 || true
	exit 1
}

# Negative controls: an invariant flipped 1->0, or a count halved, must
# fail `obs diff` even at -rel-tol 1.0 (each sed must hit, or the copy
# equals the baseline and the diff passes, failing this gate).
sed 's/"name":"byte_identical","value":1,/"name":"byte_identical","value":0,/' \
	BENCH_jobs.json >"$tmp/jobs.flipped.json"
sed 's/"name":"rows","value":64,/"name":"rows","value":32,/' \
	BENCH_jobs.json >"$tmp/jobs.halved.json"
sed 's/"name":"requests","value":512,/"name":"requests","value":256,/' \
	BENCH_cluster.json >"$tmp/cluster.halved.json"
for pair in BENCH_jobs.json:jobs.flipped BENCH_jobs.json:jobs.halved BENCH_cluster.json:cluster.halved; do
	rc=0
	"$tmp/knowtrans" obs diff "${pair%%:*}" "$tmp/${pair#*:}.json" -rel-tol 1.0 >/dev/null 2>&1 || rc=$?
	if [ "$rc" != 1 ]; then
		echo "check.sh: obs diff ${pair%%:*} vs ${pair#*:} exited $rc, want 1" >&2
		exit 1
	fi
done
echo "check.sh: tier-2 jobs gate passed (kill/resume byte-identical, 0 duplicated transfers)"
echo "check.sh: all gates passed"
