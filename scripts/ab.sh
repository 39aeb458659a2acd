#!/usr/bin/env bash
# A/B timing of a base revision against the working tree.
#
#   scripts/ab.sh <rev> [workload] [pairs] [seconds] [run.sh flags...]
#
# Checks <rev> out with `git worktree` under .bench_build/ab/, then runs
# benchmark/run.sh from the two trees in alternation, <pairs> times
# (default 10), <seconds> each (default 5). Within a pair the side that
# runs first alternates too, so neither tree always meets a warm or a
# cold machine. Each side appends its untraced result to its own -json
# file. The script prints each pair's head/base ratio of the workload's
# headline metric (METRIC overrides it), then `run.sh -compare`'s
# verdict on the two files. Flags after the fourth argument, such as
# `-seed 7`, go to both sides' run.sh. The worktree is removed on exit;
# the result files stay in .bench_build/ab/<stamp>-<workload>/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
usage="usage: scripts/ab.sh <rev> [workload] [pairs] [seconds] [run.sh flags...]"
rev=${1:?$usage}
workload=${2:-loop_sessions_32k}
pairs=${3:-10}
seconds=${4:-5}
shift $(($# < 4 ? $# : 4))
case "$workload" in
loop_sessions_32k) metric=${METRIC:-sessions_per_s} ;;
*) metric=${METRIC:-blocks_per_s} ;;
esac

head_tree=$PWD
sha=$(git rev-parse --verify "$rev^{commit}")
ab="$head_tree/.bench_build/ab"
base_tree="$ab/base-${sha:0:12}"
out="$ab/$(date +%Y%m%dT%H%M%S)-$workload"
mkdir -p "$out"
git worktree remove --force "$base_tree" 2>/dev/null || true
git worktree add --quiet --detach "$base_tree" "$sha"
trap 'git -C "$head_tree" worktree remove --force "$base_tree"' EXIT

# value FILE: the metric's value on FILE's last line.
value() {
	tail -n 1 "$1" | grep -o "\"$metric\":{\"value\":[-0-9.eE+]*" | sed 's/.*://'
}

# side NAME TREE: one run of the workload from TREE.
side() {
	bash "$2/benchmark/run.sh" -workload "$workload" -seconds "$seconds" "${@:3}" \
		-json "$out/$1.jsonl" >"$out/$1.log" 2>&1 ||
		{ echo "ab.sh: $1 run failed, see $out/$1.log" >&2; exit 1; }
}

echo "ab.sh: $workload, $pairs pairs of ${seconds}s, base ${sha:0:12} vs working tree; $metric head/base"
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		side base "$base_tree" "$@"
		side head "$head_tree" "$@"
	else
		side head "$head_tree" "$@"
		side base "$base_tree" "$@"
	fi
	b=$(value "$out/base.jsonl")
	h=$(value "$out/head.jsonl")
	awk -v i="$i" -v b="$b" -v h="$h" \
		'BEGIN { printf "pair %2d  base %12.6g  head %12.6g  ratio %.3f\n", i, b, h, (b > 0 ? h / b : 0) }'
done
bash benchmark/run.sh -compare "$out/base.jsonl" "$out/head.jsonl"
