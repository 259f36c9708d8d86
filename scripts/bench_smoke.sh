#!/usr/bin/env bash
# bench_smoke.sh — CI benchmark smoke: every benchmark in the repo
# compiles and runs for one iteration, and the perf contracts that are
# cheap to check at 1x are asserted:
#
#   - BenchmarkGASearch reports 0 allocs/op: a reused Engine (the
#     repeat searcher's shape) must stay GC-quiet (DESIGN.md §13). A
#     regression here is a correctness-of-intent bug long before it is
#     a latency bug.
#   - BenchmarkGARunContext/gpt3 reports under 1.5 MB/op: a production
#     search builds its Engine per call, and at one byte per gene the
#     slabs are ~0.7 MB (4.8 MB/op when a gene was an int).
#   - BenchmarkByName/gpt3 reports 0 allocs/op: resolving a registry
#     name hands out the one shared model (42,330 allocs/op when every
#     request rebuilt the trace).
#   - BenchmarkFingerprint/gpt3 reports at most 8 allocs/op: the digest
#     is written into one reused buffer, not marshalled per operator
#     (36,982 allocs/op when it was), and the lines it remembers within
#     a call live in its frame.
#   - BenchmarkReadWorkload/gpt3 reports at most 256 allocs/op: an
#     inline trace is decoded in one pass that allocates each distinct
#     name and shape once (92,148 allocs/op when encoding/json's
#     reflection walk decoded every operator).
#   - BenchmarkStages/gpt3 reports under 8 MB/op: stage merging keeps
#     its stages in place (795 MB/op when every merge copied the slice).
#   - BenchmarkRunPower/vit reports at most 2 allocs/op, the Profile and
#     its Records: each operator's timing and power terms live in the
#     table the Profiler keeps across its calls (a table allocated per
#     call would read 3; terms escaping per operator, >= 721).
#   - BenchmarkFSAdd/gpt3 reports under 6 MB/op: the fs job store
#     encodes a record into one buffer and copies the inline trace as it
#     arrived (12.8 MB/op when json.MarshalIndent re-scanned and
#     re-indented it).
#
# No wall-clock floor is asserted anywhere: one iteration on a shared
# runner cannot hold one. Serving speed is measured end to end by
# bench/ (go run -C bench npudvfs/bench; see bench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(go test -run '^$' -bench . -benchtime 1x -benchmem ./... 2>&1) || {
    echo "$out"
    exit 1
}
echo "$out"

# field NAME UNIT prints the value reported in UNIT by benchmark NAME
# (sub-benchmark names included), or fails if NAME did not run.
field() {
    local line
    line=$(echo "$out" | grep -E "^$1(-[0-9]+)?[[:space:]]" | head -1)
    if [ -z "$line" ]; then
        echo "bench-smoke: $1 missing from benchmark output" >&2
        exit 1
    fi
    echo "$line" | awk -v unit="$2" '{for (i = 1; i < NF; i++) if ($(i + 1) == unit) print $i}'
}

allocs=$(field BenchmarkGASearch allocs/op)
if [ "$allocs" != "0" ]; then
    echo "bench-smoke: BenchmarkGASearch reports $allocs allocs/op, want 0 (Engine reuse contract)" >&2
    exit 1
fi
echo "bench-smoke: BenchmarkGASearch allocation-free"

bytes=$(field BenchmarkGARunContext/gpt3 B/op)
if [ "$bytes" -ge 1500000 ]; then
    echo "bench-smoke: BenchmarkGARunContext/gpt3 reports $bytes B/op, want < 1.5 MB (one byte per gene)" >&2
    exit 1
fi
echo "bench-smoke: BenchmarkGARunContext/gpt3 at $bytes B/op"

allocs=$(field BenchmarkByName/gpt3 allocs/op)
if [ "$allocs" != "0" ]; then
    echo "bench-smoke: BenchmarkByName/gpt3 reports $allocs allocs/op, want 0 (one shared model per registry name)" >&2
    exit 1
fi
echo "bench-smoke: BenchmarkByName/gpt3 allocation-free"

allocs=$(field BenchmarkFingerprint/gpt3 allocs/op)
if [ "$allocs" -gt 8 ]; then
    echo "bench-smoke: BenchmarkFingerprint/gpt3 reports $allocs allocs/op, want <= 8 (one reused buffer)" >&2
    exit 1
fi
echo "bench-smoke: BenchmarkFingerprint/gpt3 at $allocs allocs/op"

allocs=$(field BenchmarkReadWorkload/gpt3 allocs/op)
if [ "$allocs" -gt 256 ]; then
    echo "bench-smoke: BenchmarkReadWorkload/gpt3 reports $allocs allocs/op, want <= 256 (one-pass trace decoding)" >&2
    exit 1
fi
echo "bench-smoke: BenchmarkReadWorkload/gpt3 at $allocs allocs/op"

bytes=$(field BenchmarkStages/gpt3 B/op)
if [ "$bytes" -ge 8000000 ]; then
    echo "bench-smoke: BenchmarkStages/gpt3 reports $bytes B/op, want < 8 MB (in-place stage merging)" >&2
    exit 1
fi
echo "bench-smoke: BenchmarkStages/gpt3 at $bytes B/op"

allocs=$(field BenchmarkRunPower/vit allocs/op)
if [ "$allocs" -gt 2 ]; then
    echo "bench-smoke: BenchmarkRunPower/vit reports $allocs allocs/op, want <= 2 (the Profile and its Records)" >&2
    exit 1
fi
echo "bench-smoke: BenchmarkRunPower/vit at $allocs allocs/op"

bytes=$(field BenchmarkFSAdd/gpt3 B/op)
if [ "$bytes" -ge 6000000 ]; then
    echo "bench-smoke: BenchmarkFSAdd/gpt3 reports $bytes B/op, want < 6 MB (one buffer per record, trace copied verbatim)" >&2
    exit 1
fi
echo "bench-smoke: BenchmarkFSAdd/gpt3 at $bytes B/op"
