#!/usr/bin/env bash
# Counts code lines: the non-blank lines of the tracked non-test Go files
# that are not a // comment alone, leaving out benchmark/ (the host-time
# instrument) and internal/digest/ (imported by tests only). Prints the
# total, then one line per package directory.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files '*.go' ':!:*_test.go' ':!:benchmark/' ':!:internal/digest/' |
	while read -r f; do
		printf '%s\t%s\n' "$(dirname "$f")" "$(grep -cvE '^\s*(//.*)?$' "$f" || true)"
	done |
	awk -F'\t' '
		{ n[$1] += $2; total += $2 }
		END {
			printf "total\t%d\n", total
			for (d in n) printf "%s\t%d\n", d, n[d] | "sort"
		}'
