#!/bin/sh
# Determinism smoke: run the seq top-off and Table 2 flows repeatedly and
# byte-compare the reports. This is the CLI-level guard for one class of
# bug: per-process randomization (Go map iteration order) leaking into
# gate numbering and from there into search order, as synthesis once
# did. Every run is a fresh process, so a fresh map seed; one-shot
# parity checks and same-process replays cannot see what this loop
# sees. The Table 2 flow adds the mutant scoring pool and the flow's
# concurrent sections (operator profiles, scoring beside test
# generation).
#
# After both worker settings, each flow's run 1 at -workers 0 (compiled
# engines, the flow's concurrent sections on a multi-core host) must
# match its run 1 at -workers 1 (serial reference engines, every section
# inline) byte for byte. The default circuit, b01, prints the same
# tables at every worker setting; c432 does not (ROADMAP item 1), so it
# fails that comparison.
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

for flow in seqtopoff table2; do
    for workers in 0 1; do
        ref="$dir/${flow}_w${workers}.txt"
        i=1
        while [ "$i" -le "$runs" ]; do
            out="$dir/run.txt"
            "$bin" "$flow" -repeats 1 -equiv 128 -horizon 256 -workers "$workers" "$circuit" > "$out"
            if [ "$i" -eq 1 ]; then
                mv "$out" "$ref"
            elif ! cmp -s "$ref" "$out"; then
                echo "detsmoke: $flow $circuit workers=$workers run $i differs from run 1:" >&2
                diff "$ref" "$out" >&2 || true
                exit 1
            fi
            i=$((i + 1))
        done
        echo "detsmoke: $flow $circuit workers=$workers bit-stable over $runs runs" >&2
    done

    if ! cmp -s "$dir/${flow}_w0.txt" "$dir/${flow}_w1.txt"; then
        echo "detsmoke: $flow $circuit workers=0 and workers=1 reports differ:" >&2
        diff "$dir/${flow}_w0.txt" "$dir/${flow}_w1.txt" >&2 || true
        exit 1
    fi
    echo "detsmoke: $flow $circuit workers=0 and workers=1 reports match" >&2
done
