#!/usr/bin/env bash
# results_check.sh — regenerates every experiment's report and SVG with
# cmd/experiments and fails unless results/ still holds exactly them:
#
#   - each report body (every line below the "=== name ===" header,
#     which carries the wall times of the experiments that measure
#     time) must match results/<name>.txt byte for byte;
#   - each SVG must match results/figures/<file>.svg byte for byte;
#   - results/ must hold no file that no experiment writes, and miss
#     none that one does.
#
# Every experiment runs to completion once (25-45 s on a 2-core host).
# After a change that moves a number on purpose, regenerate with
#   go run ./cmd/experiments -run all -out results -svg results/figures
# and commit the new files with it.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/experiments -run all -parallel 2 -out "$tmp/results" -svg "$tmp/results/figures" >/dev/null

fail=0
if ! diff <(cd results && find . -type f | sort) <(cd "$tmp/results" && find . -type f | sort) >"$tmp/files.diff"; then
    echo "results-check: results/ (<) and the files the experiments write (>) differ:" >&2
    cat "$tmp/files.diff" >&2
    fail=1
fi
for f in "$tmp"/results/*.txt; do
    name=${f##*/}
    [ -f "results/$name" ] || continue
    if ! diff <(tail -n +2 "results/$name") <(tail -n +2 "$f") >"$tmp/body.diff"; then
        echo "results-check: results/$name body differs from the harness's report:" >&2
        cat "$tmp/body.diff" >&2
        fail=1
    fi
done
for f in "$tmp"/results/figures/*.svg; do
    name=${f##*/}
    [ -f "results/figures/$name" ] || continue
    if ! cmp -s "results/figures/$name" "$f"; then
        echo "results-check: results/figures/$name differs from the harness's figure" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "results-check: FAIL (regenerate with: go run ./cmd/experiments -run all -out results -svg results/figures)" >&2
    exit 1
fi
echo "results-check: $(ls "$tmp"/results/*.txt | wc -l) reports and $(ls "$tmp"/results/figures/*.svg | wc -l) figures match results/"
