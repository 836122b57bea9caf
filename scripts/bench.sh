#!/bin/sh
# Run the benchmark suite with -benchmem and record a machine-readable
# summary, so the perf trajectory of successive PRs is comparable.
#
# Usage: scripts/bench.sh [output.json] [extra go test args...]
#
# The default output name is BENCH_<git-sha>.json (BENCH_worktree.json
# when the tree is dirty). The raw `go test -bench` text is kept next to
# it as a .txt with the same stem, and the run's allocation profile as a
# .mem.pprof — `go tool pprof -sample_index=alloc_objects` on it answers
# "where do the allocs/op come from" without a rerun.
set -eu

cd "$(dirname "$0")/.."

out="${1:-}"
if [ $# -gt 0 ]; then shift; fi
if [ -z "$out" ]; then
    sha="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
    if ! git diff --quiet 2>/dev/null; then
        sha="worktree"
    fi
    out="BENCH_${sha}.json"
fi
txt="${out%.json}.txt"
prof="${out%.json}.mem.pprof"

# -memprofile keeps the test binary; build it outside the repository.
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

echo "running benchmarks -> ${txt}" >&2
go test -run='^$' -bench=. -benchmem -benchtime="${BENCHTIME:-1x}" \
    -o "$dir/repro.test" -memprofile "$prof" "$@" . | tee "$txt" >&2

# Convert `BenchmarkName  N  T ns/op  [M metric]...  B B/op  A allocs/op`
# lines into a JSON array, one key per custom metric (`faultcycles/s`,
# `%stepped`, `evals/step`, ...). awk keeps this dependency-free.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { print "[" }
/^Benchmark/ {
    name = $1; iters = $2
    ns = ""; bytes = ""; allocs = ""; extra = ""
    for (i = 3; i < NF; i += 2) {
        unit = $(i+1)
        if (unit == "ns/op")          ns = $i
        else if (unit == "B/op")      bytes = $i
        else if (unit == "allocs/op") allocs = $i
        else                          extra = extra "\"" unit "\": " $i ", "
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, ", name, iters, ns
    printf "%s", extra
    if (bytes != "")  printf "\"bytes_per_op\": %s, ", bytes
    if (allocs != "") printf "\"allocs_per_op\": %s, ", allocs
    printf "\"date\": \"%s\"}", date
}
END { print "\n]" }
' "$txt" > "$out"

echo "wrote ${out} ($(grep -c '"name"' "$out") benchmarks) and ${prof}" >&2
