#!/bin/sh
# linedelta.sh BASE — lines added, removed and net for non-test Go code
# between BASE and the working tree, from `git diff --numstat BASE`.
# Test code (_test.go files and anything under a testdata/ directory)
# is excluded, so the figure is the change's net non-test delta.
#
#   scripts/linedelta.sh main
#   make linedelta BASE=HEAD~1
set -eu
if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
git diff --numstat "$1" -- '*.go' ':(exclude)*_test.go' ':(exclude)testdata/*' ':(exclude)*/testdata/*' |
	awk '
		$1 == "-" { next }  # binary
		{ add += $1; del += $2 }
		END { printf "added %d, removed %d, net %+d (non-test Go)\n", add, del, add - del }
	'
