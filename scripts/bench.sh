#!/usr/bin/env bash
# bench.sh — run the hot-path benchmarks and emit results/BENCH_10.json.
#
# Runs the perf-engineering benchmarks (Score, ScoreBatch,
# GAGeneration, GASearch, GASearchScaling, ExecutorRun — see
# bench_test.go and DESIGN.md §10/§13) with -benchmem and converts
# `go test` output into a JSON document of {ns_per_op, allocs_per_op,
# bytes_per_op, extra metrics}. When the frozen seed baseline
# results/BENCH_5_SEED.json is present, a speedup_vs_seed ratio
# (seed ns/op ÷ current ns/op) is computed per benchmark.
#
# The ga_scaling section records the island engine's evals/sec at 1,
# 2, 4 and 8 workers (8 islands), plus the 1→4-worker speedup and its
# parallel efficiency. On a host with GOMAXPROCS ≥ 4 the script
# asserts the speedup reaches 1.6× (the ISSUE 10 scaling floor); on
# smaller hosts the workers serialize and the assertion is skipped.
#
# Usage: scripts/bench.sh [-benchtime 2s]
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-2s}"
out=results/BENCH_10.json
seed=results/BENCH_5_SEED.json

procs=$(nproc)

raw=$(go test -run '^$' \
    -bench 'BenchmarkScore$|BenchmarkScoreBatch$|BenchmarkGAGeneration$|BenchmarkGASearch$|BenchmarkGASearchScaling$|BenchmarkExecutorRun$' \
    -benchmem -benchtime "$benchtime" .)
echo "$raw"

echo "$raw" | awk -v seedfile="$seed" -v procs="$procs" '
BEGIN {
    nseed = 0
    if ((getline line < seedfile) >= 0) {
        buf = line
        while ((getline line < seedfile) > 0) buf = buf "\n" line
        close(seedfile)
        # Minimal extraction: "name": {... "ns_per_op": N ...}
        while (match(buf, /"Benchmark[A-Za-z]+": *\{[^}]*\}/)) {
            entry = substr(buf, RSTART, RLENGTH)
            buf = substr(buf, RSTART + RLENGTH)
            if (match(entry, /"Benchmark[A-Za-z]+"/)) {
                name = substr(entry, RSTART + 1, RLENGTH - 2)
            }
            if (match(entry, /"ns_per_op": *[0-9.eE+-]+/)) {
                v = substr(entry, RSTART, RLENGTH)
                sub(/^"ns_per_op": */, "", v)
                seedns[name] = v + 0
                nseed++
            }
        }
    }
}
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix on multi-core hosts
    n = 0
    delete f
    f["iterations"] = $2 + 0
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        val = $i + 0
        if (unit == "ns/op") f["ns_per_op"] = val
        else if (unit == "B/op") f["bytes_per_op"] = val
        else if (unit == "allocs/op") f["allocs_per_op"] = val
        else { gsub(/[^A-Za-z0-9_]/, "_", unit); f[unit] = val }
    }
    names[++nb] = name
    for (k in f) vals[name, k] = f[k]
    keys[name] = ""
    for (k in f) keys[name] = keys[name] k "\n"
}
END {
    printf "{\n"
    printf "  \"bench_id\": \"BENCH_10\",\n"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchtime\": \"'"$benchtime"'\",\n"
    printf "  \"benchmarks\": {\n"
    for (b = 1; b <= nb; b++) {
        name = names[b]
        printf "    \"%s\": {", name
        first = 1
        split(keys[name], ks, "\n")
        for (ki in ks) {
            k = ks[ki]
            if (k == "") continue
            if (!first) printf ", "
            printf "\"%s\": %g", k, vals[name, k]
            first = 0
        }
        if (name in seedns && vals[name, "ns_per_op"] > 0) {
            printf ", \"speedup_vs_seed\": %.3f", seedns[name] / vals[name, "ns_per_op"]
        }
        printf "}%s\n", (b < nb ? "," : "")
    }
    printf "  },\n"
    w1 = vals["BenchmarkGASearchScaling/workers=1", "evals_s"] + 0
    w2 = vals["BenchmarkGASearchScaling/workers=2", "evals_s"] + 0
    w4 = vals["BenchmarkGASearchScaling/workers=4", "evals_s"] + 0
    w8 = vals["BenchmarkGASearchScaling/workers=8", "evals_s"] + 0
    printf "  \"ga_scaling\": {\"gomaxprocs\": %d", procs
    printf ", \"workers_1_evals_per_sec\": %g", w1
    printf ", \"workers_2_evals_per_sec\": %g", w2
    printf ", \"workers_4_evals_per_sec\": %g", w4
    printf ", \"workers_8_evals_per_sec\": %g", w8
    if (w1 > 0) {
        printf ", \"speedup_1_to_4\": %.3f", w4 / w1
        printf ", \"parallel_efficiency_4\": %.3f", w4 / (4 * w1)
    }
    printf "}\n"
    printf "}\n"
}' > "$out"

echo "wrote $out"
cat "$out"

# Scaling floor (ISSUE 10): with ≥4 cores the 8-island search must
# reach 1.6× evals/sec going from 1 to 4 workers. Single-core hosts
# serialize the workers, so the curve is flat there by construction.
if [ "$procs" -ge 4 ]; then
    awk '
    /"speedup_1_to_4"/ {
        if (match($0, /"speedup_1_to_4": *[0-9.]+/)) {
            v = substr($0, RSTART, RLENGTH)
            sub(/^"speedup_1_to_4": */, "", v)
            if (v + 0 < 1.6) {
                printf "bench: 1->4 worker scaling %.3fx below the 1.6x floor\n", v + 0
                exit 1
            }
            printf "bench: 1->4 worker scaling %.3fx (floor 1.6x)\n", v + 0
        }
    }' "$out"
fi
