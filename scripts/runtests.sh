#!/bin/sh
# runtests.sh runs `go test` with the given arguments, after checking that
# every top-level alternative of its -run pattern names at least one test in
# the packages. go test itself only prints "testing: warning: no tests to
# run" and exits 0 when a pattern matches nothing, and a pattern of the form
# 'A|B' still matches when A alone is gone: either way a moved or renamed
# test drops out of the gate unnoticed. A subtest element (after a top-level
# '/') is checked after the run instead: the tests run with -v into a temp
# file, which is printed, and every alternative of the element must name a
# subtest that a '=== RUN   Top/sub' line shows ran. go test's own exit
# status is kept when it fails.
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

# alternatives N prints the alternatives of the pattern's Nth element: the
# elements split at the '/'s and the alternatives at the '|'s outside
# brackets, one pair of parentheses around the whole element dropped.
alternatives() {
	printf '%s\n' "$pattern" | awk -v want="$1" '{
		depth = 0; elem = 1; e = ""
		for (i = 1; i <= length($0); i++) {
			c = substr($0, i, 1)
			if (c == "(" || c == "[") depth++
			else if (c == ")" || c == "]") depth--
			if (depth == 0 && c == "/") { elem++; continue }
			if (elem == want) e = e c
		}
		if (e ~ /^\(.*\)$/) {
			depth = 0
			for (i = 1; i < length(e); i++) {
				c = substr(e, i, 1)
				if (c == "(" || c == "[") depth++
				else if (c == ")" || c == "]") depth--
				if (depth == 0) break
			}
			if (i == length(e)) e = substr(e, 2, length(e) - 2)
		}
		if (e == "") exit
		depth = 0; cur = ""
		for (i = 1; i <= length(e); i++) {
			c = substr(e, i, 1)
			if (c == "(" || c == "[") depth++
			else if (c == ")" || c == "]") depth--
			if (depth == 0 && c == "|") { print cur; cur = ""; continue }
			cur = cur c
		}
		print cur
	}'
}

for alt in $(alternatives 1); do
	# -list takes the test binary's flags and packages as the run does, so
	# it compiles the same binary; its output is one matching name a line.
	if ! "$GO" test "$@" -list "$alt" | grep -Eq '^(Test|Example|Fuzz)'; then
		echo "runtests.sh: -run alternative '$alt' of '$pattern' matches no test" >&2
		exit 1
	fi
done

subs="$(alternatives 2)"
if [ -z "$subs" ]; then
	exec "$GO" test "$@"
fi

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
status=0
"$GO" test -v "$@" >"$out" 2>&1 || status=$?
cat "$out"
if [ "$status" -ne 0 ]; then
	exit "$status"
fi
for alt in $subs; do
	# The name's second element must match the alternative, as go test
	# matches it: unanchored.
	if ! awk -v alt="$alt" '$1 == "===" && $2 == "RUN" {
		n = split($3, el, "/")
		if (n >= 2 && el[2] ~ alt) { found = 1; exit }
	} END { exit !found }' "$out"; then
		echo "runtests.sh: -run subtest alternative '$alt' of '$pattern' matches no subtest that ran" >&2
		exit 1
	fi
done
