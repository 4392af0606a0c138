#!/usr/bin/env bash
# Alternating A/B pairs of the repository benchmark: the committed tree of
# <rev> (A, the base) against this checkout (B).
#
#   bash scripts/ab.sh <rev> [pairs] [workload] [seed]
#   bash scripts/ab.sh HEAD~1 10 sim-memsys 2
#
# <rev>'s files are unpacked with `git archive` into .bench_build/ab/<sha>/
# and built there by that tree's own benchmark/run.sh, which keeps the go
# tool's cache and files under its checkout (GOPROXY=off, local toolchain).
# Pair i runs A first when i is odd and B first when it is even, each run
# with the same seed and the benchmark's default length. Every record is kept
# in .bench_build/ab/out/{a,b}-<i>.json, its environment.git_commit set to
# the code it measured: <rev>'s full sha for A, and for B the checkout's
# HEAD, with -dirty appended when `git status --porcelain` lists anything
# (the benchmark itself stamps the enclosing checkout's HEAD on both). The
# script then prints the two commits, `gpubench -compare` over all pairs,
# and for each workload and end-to-end metric (BENCHMARK.json) in how many
# pairs B's median beat A's. pairs (a positive integer) defaults to 3,
# workload to all and seed (an integer) to 1; any other pairs or seed exits
# 2 with the usage line before anything runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
usage() { echo "usage: $0 <rev> [pairs] [workload] [seed]; pairs a positive integer, seed an integer" >&2; exit 2; }
[ $# -ge 1 ] && [ $# -le 4 ] || usage
pairs=${2:-3}
workload=${3:-all}
seed=${4:-1}
[[ $pairs =~ ^[1-9][0-9]*$ && $seed =~ ^-?[0-9]+$ ]] || usage
rev=$(git rev-parse --verify "$1^{commit}")
commit_b=$(git rev-parse HEAD)
[ -z "$(git status --porcelain)" ] || commit_b+=-dirty

ab="$PWD/.bench_build/ab"
base="$ab/${rev:0:12}"
out="$ab/out"
if [ ! -f "$base/BENCHMARK.json" ]; then
	rm -rf "$base"
	mkdir -p "$base"
	git archive "$rev" | tar -x -C "$base"
fi
rm -rf "$out"
mkdir -p "$out"

bench() { # bench <a|b> <pair>
	local tree=$PWD commit=$commit_b rec=$out/$1-$2.json
	[ "$1" = a ] && tree=$base commit=$rev
	echo "pair $2: $1" >&2
	bash "$tree/benchmark/run.sh" -workload "$workload" -seed "$seed" -out "$rec" >/dev/null
	jq --arg c "$commit" '.runs[].environment.git_commit = $c' "$rec" >"$rec.tmp"
	mv "$rec.tmp" "$rec"
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then bench a "$i"; bench b "$i"; else bench b "$i"; bench a "$i"; fi
done

# One record set per side, as gpubench -compare reads them.
for s in a b; do
	jq -s '{runs: [.[].runs[]]}' "$out/$s"-*.json >"$out/$s.json"
done
echo "A: $rev"
echo "B: $commit_b"
status=0
"$PWD/.bench_build/gpubench" -compare "$out/a.json" "$out/b.json" || status=$?

echo
echo "wins of B over A, pair by pair (median against median):"
for ((i = 1; i <= pairs; i++)); do
	jq -c --slurpfile b "$out/b-$i.json" '
		.runs[] as $a
		| ($b[0].runs[] | select(.workload == $a.workload)) as $b
		| {workload: $a.workload, a: ($a.end_to_end | map_values(.median)), b: ($b.end_to_end | map_values(.median))}
	' "$out/a-$i.json"
done | jq -rs --slurpfile spec BENCHMARK.json '
	group_by(.workload)[] as $w
	| $spec[0].end_to_end[] as $m
	| [$w[] | if $m.better == "lower" then .b[$m.name] < .a[$m.name] else .b[$m.name] > .a[$m.name] end | select(.)] | length
	| "\($w[0].workload + " " * 12 | .[:12]) \($m.name + " " * 18 | .[:18]) \(.)/\($w | length)"
'
exit "$status"
