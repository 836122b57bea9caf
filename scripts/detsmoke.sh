#!/bin/sh
# Determinism smoke: run the seq top-off flow repeatedly and byte-compare
# the reports. This is the CLI-level guard for the class of bug behind
# the PR-8 flake — per-process randomization (Go map iteration order)
# leaking into gate numbering and from there into search order. Every
# run is a fresh process, so a fresh map seed; one-shot parity checks
# and same-process replays cannot see what this loop sees.
#
# After both worker settings, run 1 at -workers 0 (compiled engines, the
# top-off's baseline ATPG beside its pre-test on a multi-core host) must
# match run 1 at -workers 1 (serial reference engines, every section
# inline) byte for byte.
#
# Usage: scripts/detsmoke.sh [runs] [circuit]
#
# Exits nonzero on the first run whose report differs from run 1's, or
# when the two worker settings' reports differ.
set -eu

cd "$(dirname "$0")/.."

runs="${1:-8}"
circuit="${2:-b01}"

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
bin="$dir/mutsample"
go build -o "$bin" ./cmd/mutsample

for workers in 0 1; do
    ref="$dir/ref_w${workers}.txt"
    i=1
    while [ "$i" -le "$runs" ]; do
        out="$dir/run.txt"
        "$bin" seqtopoff -repeats 1 -equiv 128 -horizon 256 -workers "$workers" "$circuit" > "$out"
        if [ "$i" -eq 1 ]; then
            mv "$out" "$ref"
        elif ! cmp -s "$ref" "$out"; then
            echo "detsmoke: $circuit workers=$workers run $i differs from run 1:" >&2
            diff "$ref" "$out" >&2 || true
            exit 1
        fi
        i=$((i + 1))
    done
    echo "detsmoke: $circuit workers=$workers bit-stable over $runs runs" >&2
done

if ! cmp -s "$dir/ref_w0.txt" "$dir/ref_w1.txt"; then
    echo "detsmoke: $circuit workers=0 and workers=1 reports differ:" >&2
    diff "$dir/ref_w0.txt" "$dir/ref_w1.txt" >&2 || true
    exit 1
fi
echo "detsmoke: $circuit workers=0 and workers=1 reports match" >&2
