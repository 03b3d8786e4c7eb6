#!/bin/sh
# runtests.sh runs `go test` with the given arguments, after checking that
# every top-level alternative of its -run pattern names at least one test in
# the packages. go test itself only prints "testing: warning: no tests to
# run" and exits 0 when a pattern matches nothing, and a pattern of the form
# 'A|B' still matches when A alone is gone: either way a moved or renamed
# test drops out of the gate unnoticed. Subtest elements (after a top-level
# '/') are not checked.
#
# Usage: sh scripts/runtests.sh [go test flags] -run PATTERN PACKAGE...
set -euf

GO="${GO:-go}"

pattern=""
prev=""
for arg in "$@"; do
	case "$arg" in
	-run=*) pattern="${arg#-run=}" ;;
	esac
	if [ "$prev" = "-run" ]; then
		pattern="$arg"
	fi
	prev="$arg"
done
if [ -z "$pattern" ]; then
	echo "runtests.sh: no -run pattern given" >&2
	exit 2
fi

# Split the pattern's first element at the '|'s outside brackets.
alternatives="$(printf '%s\n' "$pattern" | awk '{
	depth = 0; cur = ""
	for (i = 1; i <= length($0); i++) {
		c = substr($0, i, 1)
		if (c == "(" || c == "[") depth++
		else if (c == ")" || c == "]") depth--
		if (depth == 0 && c == "/") break
		if (depth == 0 && c == "|") { print cur; cur = ""; continue }
		cur = cur c
	}
	print cur
}')"

for alt in $alternatives; do
	# -list takes the test binary's flags and packages as the run does, so
	# it compiles the same binary; its output is one matching name a line.
	if ! "$GO" test "$@" -list "$alt" | grep -Eq '^(Test|Example|Fuzz)'; then
		echo "runtests.sh: -run alternative '$alt' of '$pattern' matches no test" >&2
		exit 1
	fi
done

exec "$GO" test "$@"
