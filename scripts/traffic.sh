#!/usr/bin/env bash
# Traffic sweep: which code does any run of the CLI surface execute?
#
# Builds coverage-instrumented binaries (-cover -coverpkg=blaze/...) into
# a work directory outside the checkout, drives every surface below with
# GOCOVERDIR set, and prints the functions and the basic blocks that no
# run reached. Code that only tests reach is a candidate for deletion
# (EXPERIMENTS.md "Traffic").
#
#   sweep 1: the four benchmark workloads for 3 s each; blazerun for
#            every system x 6 workloads x {default, -frac 0.15
#            -executors 3, -faults all -fault-stage}; blazebench -fig
#            all; blazed -stream crash and resume for both streams; a
#            3-tenant arbitrated blazed serving six jobs over HTTP on
#            127.0.0.1.
#   sweep 2: blazerun -events and -faults all -resilience for 8 systems
#            x 6 workloads; blazebench -faults all on every workload;
#            blazebench -fig all -json; blazelineage with and without
#            -dot; blazeevents on every event log; the five examples.
#
# Usage: scripts/traffic.sh [workdir]    (default: a new mktemp -d)
#
# Takes about 8 minutes on a 2-core host, so CI does not run it. Leaves
# func.txt (per function) and blocks.txt (per block; -cover's set mode
# records 0 or 1) in the work directory.
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(realpath -m "${1:-$(mktemp -d)}")"
case "$work/" in "$repo"/*)
	echo "traffic.sh: the work directory must lie outside the checkout" >&2
	exit 2
	;;
esac
B="$work/bin" D="$work/cov" C="$work/ckpt" L="$work/logs"
rm -rf "$D" "$C" "$L"
mkdir -p "$B/examples" "$D" "$C" "$L"

cd "$repo"
cover=(-cover -coverpkg=blaze/...)
go build "${cover[@]}" -o "$B/" ./cmd/...
go build "${cover[@]}" -o "$B/bench" ./bench
go build "${cover[@]}" -o "$B/examples/" ./examples/...
export GOCOVERDIR="$D"
cd "$work" # the benchmark keeps its scratch files under ./.bench_build

workloads="pr cc lr kmeans gbt svdpp"
systems="$("$B/blazerun" -h 2>&1 | sed -n 's/.*one of: \(.*\) (default.*/\1/p' | tr -d ,)"
resilience="retries=3,fetch-retries=2,backoff=2ms,spec=2,blacklist=3,cooldown=2"

echo "sweep 1" >&2
for w in pr-dataplane pr-wide-control km-spill-realbytes stream-durable; do
	"$B/bench" --workload "$w" --seed 1 --seconds 3 --trace 0 >/dev/null
done
for s in $systems; do
	for w in $workloads; do
		"$B/blazerun" -system "$s" -workload "$w" >/dev/null
		"$B/blazerun" -system "$s" -workload "$w" -frac 0.15 -executors 3 >/dev/null
		"$B/blazerun" -system "$s" -workload "$w" -faults all -fault-stage >/dev/null
	done
done
"$B/blazebench" -fig all >/dev/null
for s in stream-pr stream-kmeans; do
	status=0
	"$B/blazed" -stream "$s" -checkpoint "$C/$s" -crash-window 4 >/dev/null || status=$?
	if [ "$status" -ne 3 ]; then
		echo "traffic.sh: $s crash run exited $status, want 3" >&2
		exit 1
	fi
	"$B/blazed" -stream "$s" -checkpoint "$C/$s" -resume | grep ' 0 window mismatch(es)' >/dev/null
done

addr=127.0.0.1:18931
"$B/blazed" -addr "$addr" -tenants "analytics:2:2097152,ml:1:1048576,recsys" -arbitrate &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true' EXIT
for _ in $(seq 100); do
	curl -fs "http://$addr/healthz" >/dev/null && break
	sleep 0.1
done
tenants=(analytics ml recsys analytics ml recsys)
ids=()
i=0
for w in pr kmeans cc lr gbt svdpp; do
	body="{\"tenant\":\"${tenants[$i]}\",\"system\":\"blaze\",\"workload\":\"$w\",\"scale\":0.5}"
	id="$(curl -fs -X POST -d "$body" "http://$addr/api/v1/jobs" | sed -n 's/.*"id": *\([0-9]*\).*/\1/p')"
	if [ -z "$id" ]; then
		echo "traffic.sh: submitting $w failed" >&2
		exit 1
	fi
	ids+=("$id")
	i=$((i + 1))
done
for id in "${ids[@]}"; do
	state=
	for _ in $(seq 3000); do # ten minutes
		state="$(curl -fs "http://$addr/api/v1/jobs/$id" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')" || state=
		[ -n "$state" ] && [ "$state" != running ] && break
		sleep 0.2
	done
	if [ "$state" != done ]; then
		echo "traffic.sh: job $id ended $state" >&2
		exit 1
	fi
done
kill -TERM "$daemon"
wait "$daemon" || true
trap - EXIT

echo "sweep 2" >&2
for s in spark-mem spark-memdisk spark-alluxio lrc mrd autocache costaware blaze; do
	for w in $workloads; do
		"$B/blazerun" -system "$s" -workload "$w" -events "$L/$s-$w.jsonl" >/dev/null
		"$B/blazerun" -system "$s" -workload "$w" -faults all -resilience "$resilience" >/dev/null
		"$B/blazeevents" "$L/$s-$w.jsonl" >/dev/null
	done
done
for w in $workloads; do
	"$B/blazebench" -faults all -workload "$w" >/dev/null
	"$B/blazelineage" -workload "$w" >/dev/null
	"$B/blazelineage" -workload "$w" -dot >/dev/null
done
"$B/blazebench" -fig all -json >/dev/null
for ex in "$B"/examples/*; do
	"$ex" >/dev/null
done

go tool covdata func -i="$D" >"$work/func.txt"
go tool covdata textfmt -i="$D" -o "$work/blocks.txt"
echo "== functions with zero hits"
awk '$NF == "0.0%"' "$work/func.txt"
echo "== blocks with zero hits (file:start,end statements)"
awk 'NR > 1 { hit[$1] += $3; n[$1] = $2 } END { for (b in hit) if (!hit[b]) print b, n[b] }' "$work/blocks.txt" | sort -V
echo "traffic.sh: counters and listings in $work" >&2
