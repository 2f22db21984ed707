#!/usr/bin/env bash
# Traffic sweep: which code does any run of the CLI surface execute?
#
# Builds coverage-instrumented binaries (-cover -coverpkg=blaze/...) into
# a work directory outside the checkout, drives every surface below with
# GOCOVERDIR set, and prints the functions and the basic blocks that no
# run reached. Code that only tests reach is a candidate for deletion
# (EXPERIMENTS.md "Traffic").
#
#   sweep 1: the four benchmark workloads for 3 s each, untraced and
#            traced; blazerun for every system x 6 workloads x {default,
#            -frac 0.15 -executors 3, -faults all -fault-stage};
#            blazebench -fig all; blazed -stream crash and resume for
#            both streams, and for stream-pr at -memory 32768, where
#            disk-resident blocks cross the checkpoint; a 4-tenant
#            arbitrated blazed serving seven jobs over HTTP on 127.0.0.1,
#            one tenant's quota small enough to refuse admissions, then
#            GET /api/v1/stats; a blazed bounded to one active session,
#            whose second, queued job is cancelled by DELETE.
#   sweep 2: blazerun -events and -faults all -resilience for 8 systems
#            x 6 workloads; blazerun -faults transient, -faults
#            permanent -fault-max 2, and -resilience with speculation
#            but no faults; blazebench -faults all on every workload;
#            blazebench -fig all -json; blazelineage with and without
#            -dot; blazeevents on every event log; the five examples.
#
# Usage: scripts/traffic.sh [workdir]    (default: a new mktemp -d)
#
# Takes about 10 minutes on a 2-core host, so CI does not run it. Leaves
# func.txt (per function) and blocks.txt (per block; -cover's set mode
# records 0 or 1) in the work directory. A function with no statements
# reads 0.0% whether or not it ran, so the listing puts empty-bodied
# functions apart, and the closing count of zero-hit functions outside
# bench/ leaves them out.
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
	for trace in 0 1; do
		"$B/bench" --workload "$w" --seed 1 --seconds 3 --trace "$trace" >/dev/null
	done
done
for s in $systems; do
	for w in $workloads; do
		"$B/blazerun" -system "$s" -workload "$w" >/dev/null
		"$B/blazerun" -system "$s" -workload "$w" -frac 0.15 -executors 3 >/dev/null
		"$B/blazerun" -system "$s" -workload "$w" -faults all -fault-stage >/dev/null
	done
done
"$B/blazebench" -fig all >/dev/null
# The last run spills stream-pr's carried blocks to disk before the
# crash, so the checkpoint captures and restores disk-resident blocks.
for run in "stream-pr" "stream-kmeans" "stream-pr -memory 32768"; do
	dir="$C/${run// /}"
	status=0
	"$B/blazed" -stream $run -checkpoint "$dir" -crash-window 4 >/dev/null || status=$?
	if [ "$status" -ne 3 ]; then
		echo "traffic.sh: $run crash run exited $status, want 3" >&2
		exit 1
	fi
	"$B/blazed" -stream $run -checkpoint "$dir" -resume | grep ' 0 window mismatch(es)' >/dev/null
done

# submit ADDR TENANT WORKLOAD prints the new job's id.
submit() {
	local id
	id="$(curl -fs -X POST -d "{\"tenant\":\"$2\",\"system\":\"blaze\",\"workload\":\"$3\",\"scale\":0.5}" \
		"http://$1/api/v1/jobs" | sed -n 's/.*"id": *\([0-9]*\).*/\1/p')"
	if [ -z "$id" ]; then
		echo "traffic.sh: submitting $3 for $2 failed" >&2
		exit 1
	fi
	echo "$id"
}
# await ADDR ID WANT waits until the job leaves "running" in state WANT.
await() {
	local state=
	for _ in $(seq 3000); do # ten minutes
		state="$(curl -fs "http://$1/api/v1/jobs/$2" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')" || state=
		[ -n "$state" ] && [ "$state" != running ] && break
		sleep 0.2
	done
	if [ "$state" != "$3" ]; then
		echo "traffic.sh: job $2 ended $state, want $3" >&2
		exit 1
	fi
}

# serve ADDR FLAGS... starts a daemon and waits until it answers.
serve() {
	local addr="$1"
	shift
	"$B/blazed" -addr "$addr" "$@" &
	daemon=$!
	trap 'kill "$daemon" 2>/dev/null || true' EXIT
	for _ in $(seq 100); do
		curl -fs "http://$addr/healthz" >/dev/null && break
		sleep 0.1
	done
}
# stop stops the daemon serve started.
stop() {
	kill -TERM "$daemon"
	wait "$daemon" || true
	trap - EXIT
}

# The tenant "tiny" may cache 4 KiB: its PageRank job is refused
# admissions and still completes.
addr=127.0.0.1:18931
serve "$addr" -tenants "analytics:2:2097152,ml:1:1048576,recsys,tiny:1:4096" -arbitrate
tenants=(analytics ml recsys analytics ml recsys tiny)
ids=()
i=0
for w in pr kmeans cc lr gbt svdpp pr; do
	ids+=("$(submit "$addr" "${tenants[$i]}" "$w")")
	i=$((i + 1))
done
for id in "${ids[@]}"; do
	await "$addr" "$id" done
done
if ! curl -fs "http://$addr/api/v1/jobs/${ids[6]}" | grep -q '"quota_rejections": [1-9]'; then
	echo "traffic.sh: the tiny tenant's job was refused no admission" >&2
	exit 1
fi
curl -fs "http://$addr/api/v1/stats" | grep -q '"Tenants"' || {
	echo "traffic.sh: GET /api/v1/stats failed" >&2
	exit 1
}
stop

# One active session at a time: the second job waits in the queue until
# DELETE cancels it.
addr=127.0.0.1:18932
serve "$addr" -max-active 1
first="$(submit "$addr" default pr)"
queued="$(submit "$addr" default kmeans)"
curl -fs -X DELETE "http://$addr/api/v1/jobs/$queued"
await "$addr" "$first" done
await "$addr" "$queued" cancelled
stop

echo "sweep 2" >&2
for s in spark-mem spark-memdisk spark-alluxio lrc mrd autocache costaware blaze; do
	for w in $workloads; do
		"$B/blazerun" -system "$s" -workload "$w" -events "$L/$s-$w.jsonl" >/dev/null
		"$B/blazerun" -system "$s" -workload "$w" -faults all -resilience "$resilience" >/dev/null
		"$B/blazeevents" "$L/$s-$w.jsonl" >/dev/null
	done
done
"$B/blazerun" -system blaze -workload pr -faults transient -resilience "$resilience" >/dev/null
"$B/blazerun" -system spark-memdisk -workload lr -faults permanent -fault-max 2 >/dev/null
"$B/blazerun" -system blaze -workload pr -resilience "$resilience" >/dev/null
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
# A zero-hit function is empty-bodied when its declaration line ends in
# "{}", or in "{" with "}" on the next line.
: >"$work/zero.txt"
: >"$work/empty.txt"
awk '$NF == "0.0%"' "$work/func.txt" | while read -r loc name pct; do
	file="${loc%%:*}" line="${loc#*:}" line="${line%%:*}"
	src="$repo/${file#blaze/}"
	decl="$(sed -n "${line}p" "$src")" next="$(sed -n "$((line + 1))p" "$src")"
	out="$work/zero.txt"
	case "$decl" in
	*"{}") out="$work/empty.txt" ;;
	*"{") [ -z "${next//[[:space:]\}]/}" ] && [ -n "$next" ] && out="$work/empty.txt" ;;
	esac
	echo "$loc $name $pct" >>"$out"
done
echo "== functions with zero hits"
cat "$work/zero.txt"
echo "== empty-bodied functions (no statements, so 0.0% whether run or not)"
cat "$work/empty.txt"
echo "== blocks with zero hits (file:start,end statements)"
awk 'NR > 1 { hit[$1] += $3; n[$1] = $2 } END { for (b in hit) if (!hit[b]) print b, n[b] }' "$work/blocks.txt" | sort -V
echo "traffic.sh: $(grep -vc '^blaze/bench/' "$work/zero.txt") zero-hit functions outside bench/, $(wc -l <"$work/empty.txt") empty-bodied ones apart" >&2
echo "traffic.sh: counters and listings in $work" >&2
