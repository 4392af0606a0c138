#!/usr/bin/env bash
# Non-test Go lines of the tracked files, per package directory and in
# total: the count ROADMAP.md's design figures use. benchmark/ (a module of
# its own), examples/ and internal/lint/testdata (analyzer fixtures) are
# left out.
#
#   bash scripts/loc.sh          # the checkout's tracked files, as on disk
#   bash scripts/loc.sh HEAD~1   # the files committed at a revision
#
# Output is one "<lines> <dir>" row per directory, sorted by directory,
# then a "<lines> total" row. A bad revision exits 2 with the usage line.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
usage() { echo "usage: $0 [rev]" >&2; exit 2; }
[ $# -le 1 ] || usage
counted() { grep '\.go$' | grep -v '_test\.go$' | grep -Ev '^(benchmark|examples|internal/lint/testdata)/' || true; }
if [ $# -eq 1 ]; then
	rev=$(git rev-parse --verify --quiet "$1^{commit}") || usage
	files=$(git ls-tree -r --name-only "$rev" | counted)
	lines() { git show "$rev:$1" | wc -l; }
else
	files=$(git ls-files | counted)
	lines() { wc -l <"$1"; }
fi
for f in $files; do
	echo "$(lines "$f") $(dirname "$f")"
done | awk '{n[$2] += $1} END {for (d in n) printf "%6d %s\n", n[d], d}' |
	sort -k2,2 | awk '{print; t += $1} END {printf "%6d total\n", t}'
