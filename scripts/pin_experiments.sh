#!/usr/bin/env bash
# Pin the paper's numbers by machine: regenerate every experiment table
# at the scale experiments_output.txt was recorded at and byte-diff the
# two. Two things are left out of the comparison on both sides: the
# `[<name> took <t>s]` lines (wall clock) and the figpeer table, whose
# concurrent cold boots race on least-loaded peer selection and so differ
# run to run (ROADMAP's robustness item pins it; until then it cannot be
# compared). Any other difference exits non-zero with the diff on stdout.
# ~3.5 min on a 2-core box, which is why `make check` does not run it.
set -euo pipefail

cd "$(dirname "$0")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Tables are separated by a blank line and open with their "== title ==".
pinned() {
	awk '
		/^== Peer exchange:/ { skip = 1 }
		/^$/                 { if (skip) { skip = 0; next } }
		skip                 { next }
		/^   \[[a-z0-9-]+ took [0-9.]+s\]$/ { next }
		{ print }
	' "$1"
}

go run ./cmd/experiments -run all -count 0.35 -size 0.4 >"$out/run.txt"
pinned experiments_output.txt >"$out/want.txt"
pinned "$out/run.txt" >"$out/got.txt"
if ! diff -u "$out/want.txt" "$out/got.txt"; then
	echo "pin-experiments: cmd/experiments output differs from experiments_output.txt (outside took lines and figpeer)" >&2
	exit 1
fi
echo "pin-experiments: $(grep -c '^== ' "$out/got.txt") tables byte-identical to experiments_output.txt"
