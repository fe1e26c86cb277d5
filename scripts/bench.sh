#!/bin/sh
# Runs the benchmark suites and records their results for the perf
# trajectory (see ROADMAP.md "Hot path & complexity"):
#
#   scripts/bench.sh          # both standing suites (make bench)
#   scripts/bench.sh micro    # hot-path micro-benchmarks -> BENCH_hotpath.json
#   scripts/bench.sh fleet    # fleet-scale scenarios     -> BENCH_fleet.json
#   scripts/bench.sh scale    # long-trace replay         -> BENCH_scale.json
#
# The micro suite covers BenchmarkAdmitHotPath, BenchmarkFutureRequiredMemory,
# BenchmarkWindowSampler, the fleet-scale BenchmarkFleetRoute series, the
# cluster-front admission deadline heap, the MaxPrefillTokens trim, the
# prefix-cache longest-match lookup (BenchmarkPrefixMatch, 0 allocs steady
# state), the SLO-aware chunk sizer (BenchmarkChunkSchedule, 0 allocs —
# it runs inside every chunked iteration), the warm 48-request decode step
# (BenchmarkDecodeStep, 0 allocs) and the KV pool's allocate/free churn
# (BenchmarkAllocateFree, 0 allocs). The fleet suite runs the standard
# cmd/fleetsim scenario set (the scenario table in cmd/fleetsim/scenarios.go)
# and exits non-zero unless every scenario reproduces its documented claim.
set -eu
cd "$(dirname "$0")/.."

mode="${1:-all}"

run_micro() {
	out=BENCH_hotpath.json
	tmp=$(mktemp)
	trap 'rm -f "$tmp"' EXIT

	go test -run '^$' -bench 'BenchmarkAdmitHotPath|BenchmarkFutureRequiredMemory' \
		-benchmem ./internal/core/ | tee "$tmp"
	go test -run '^$' -bench 'BenchmarkWindowSampler' \
		-benchmem ./internal/dist/ | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkFleetRoute|BenchmarkClusterAdmit' \
		-benchmem ./internal/cluster/ | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkPrefillTrim|BenchmarkChunkSchedule|BenchmarkDecodeStep' \
		-benchmem ./internal/engine/ | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkPrefixMatch|BenchmarkAllocateFree' \
		-benchmem ./internal/kv/ | tee -a "$tmp"

	# Benchmark names carry a -GOMAXPROCS suffix when GOMAXPROCS != 1:
	# strip it so names compare across hosts, and record it (with the CPU
	# count) next to the numbers, which compare only across hosts of the
	# same shape.
	ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
	awk -v ncpu="$ncpu" '
	BEGIN { procs = 1; n = 0 }
	/^Benchmark/ {
		name = $1; ns = ""; allocs = "null"
		if (match(name, /-[0-9]+$/)) {
			procs = substr(name, RSTART + 1)
			name = substr(name, 1, RSTART - 1)
		}
		for (i = 2; i <= NF; i++) {
			if ($i == "ns/op") ns = $(i - 1)
			if ($i == "allocs/op") allocs = $(i - 1)
		}
		if (ns == "") next
		rows[n++] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs)
	}
	END {
		printf("{\n  \"num_cpu\": %s,\n  \"gomaxprocs\": %s,\n  \"benchmarks\": [\n", ncpu, procs)
		for (i = 0; i < n; i++) printf("%s%s\n", rows[i], (i < n - 1) ? "," : "")
		print "  ]\n}"
	}
	' "$tmp" > "$out"

	echo "wrote $out"
}

run_fleet() {
	# The standard scenario set on the bursty ramp and its siblings:
	# reactive vs predictive autoscaling, the disaggregated cluster, the 2×
	# overload trio, the heterogeneous fleet, the crash-storm trio, the
	# multi-turn prefix-share sweep and the long-context chunking sweep.
	# Every row comes from the scenario table, and fleetsim exits non-zero
	# when a scenario's claim (e.g. "recover beats norecover on SLA-met
	# completions and served p99 TTFT") does not hold.
	go run ./cmd/fleetsim -json BENCH_fleet.json

	# Trace parity: the observability layer must be a strict observer. Run
	# the fault-storm trio once recorder-disabled and once with every
	# export armed — the reports (and stdout) must be byte-identical, or a
	# trace-enabled run is no longer measuring the system it claims to.
	obsdir=$(mktemp -d)
	go run ./cmd/fleetsim -scenario faults -json "$obsdir/off.json" |
		grep -v '^wrote ' > "$obsdir/off.out"
	go run ./cmd/fleetsim -scenario faults -json "$obsdir/on.json" \
		-trace "$obsdir/trace.json" -spans "$obsdir/spans.csv" \
		-timeseries "$obsdir/ts.csv" -requests "$obsdir/reqs.csv" |
		grep -v '^wrote ' > "$obsdir/on.out"
	if ! cmp -s "$obsdir/off.json" "$obsdir/on.json" ||
		! cmp -s "$obsdir/off.out" "$obsdir/on.out"; then
		echo "observability parity broken: trace-enabled run diverged from the recorder-disabled run" >&2
		rm -rf "$obsdir"
		exit 1
	fi
	echo "observability parity: traced fault-storm run bit-identical to untraced"
	rm -rf "$obsdir"
}

run_scale() {
	# Long-trace replay throughput (make bench-scale): a streamed diurnal
	# day trace replayed SCALE_REPEAT times on identical regenerated
	# streams. The binary hard-fails unless every repeat's report is
	# byte-identical, so a BENCH_scale.json that exists at all certifies
	# the replay is deterministic at this scale. Tune with e.g.
	# `SCALE_REQUESTS=10000000 scripts/bench.sh scale` for the full 10M day.
	go run ./cmd/fleetsim -scenario scale \
		-scale-requests "${SCALE_REQUESTS:-1000000}" \
		-scale-repeat "${SCALE_REPEAT:-2}" \
		-json BENCH_scale.json

	# Fail loudly if the sweep did not refresh the record: a stale
	# BENCH_scale.json would silently misreport the replay trajectory.
	grep -q '"reports_match": true' BENCH_scale.json || {
		echo "BENCH_scale.json is stale: no report-equality certificate recorded" >&2
		exit 1
	}
}

case "$mode" in
all)
	run_micro
	run_fleet
	;;
micro)
	run_micro
	;;
fleet)
	run_fleet
	;;
scale)
	run_scale
	;;
*)
	echo "usage: $0 [all|micro|fleet|scale]" >&2
	exit 2
	;;
esac
