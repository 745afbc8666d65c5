#!/bin/sh
# Fails when a `go test -run` pattern in the Makefile or the CI workflow
# selects no test: go test passes silently on a pattern that matches nothing,
# so a renamed or deleted test would drop out of its gate unnoticed. Every
# top-level alternative of a pattern (the part before the first '/', split
# at '|') must list at least one test, fuzz test, benchmark or example in
# one of the packages the command names (go test -list). Patterns of the
# form '^$' select nothing on purpose and are skipped.
#
# Usage: sh scripts/check-run-patterns.sh   (from anywhere in the repo)
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

# One "pattern<TAB>packages" line per -run flag. A CI matrix command such as
# -run '${{ matrix.tests-codec }}' ./internal/codec names the packages of
# every "tests-codec: '...'" pattern in the matrix.
patterns=$(awk '
function emit(p, pk) { gsub(/^'\''|'\''$/, "", p); gsub(/\$\$/, "$", p); print p "\t" pk }
/^[ \t]*#/ { next }
/^ *tests-[a-z]+: / {
	v = $1; sub(/:$/, "", v); p = $2; m++; mvar[m] = v; mpat[m] = p; next
}
/ test / && /-run/ {
	n = split($0, w, /[ \t]+/)
	for (i = 1; i <= n; i++) {
		if (w[i] != "-run" && w[i] !~ /^-run=/) continue
		if (w[i] == "-run") p = w[++i]; else p = substr(w[i], 6)
		v = ""
		if (p ~ /^'\''\$\{\{/) { v = w[i + 1]; sub(/^matrix\./, "", v); i += 2 }
		pk = ""
		for (j = i + 1; j <= n; j++) if (w[j] ~ /^\.\//) pk = pk " " w[j]
		if (v != "") mpkg[v] = pk; else emit(p, pk)
	}
}
END { for (k = 1; k <= m; k++) emit(mpat[k], mpkg[mvar[k]]) }
' Makefile .github/workflows/ci.yml)

echo "$patterns" | while IFS="$(printf '\t')" read -r pattern pkgs; do
	[ "$pattern" = '^$' ] && continue
	top=${pattern%%/*}
	echo "$top" | tr '|' '\n' | while read -r alt; do
		# shellcheck disable=SC2086 # pkgs is a list of package paths
		if ! $GO test -list "$alt" $pkgs 2>/dev/null | grep -Eq '^(Test|Fuzz|Benchmark|Example)'; then
			echo "check-run-patterns: -run '$pattern': '$alt' names no test in$pkgs" >&2
			exit 1
		fi
	done
done
