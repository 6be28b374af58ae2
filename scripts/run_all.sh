#!/usr/bin/env bash
# Build, test, and regenerate every table/figure of the reproduction.
# Outputs land in test_output.txt and bench_output.txt at the repo
# root (the files EXPERIMENTS.md cites).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

{
    for b in build/bench/bench_*; do
        [ -x "$b" ] && [ -f "$b" ] || continue
        echo "########## $(basename "$b") ##########"
        "$b"
        echo
    done
} 2>&1 | tee bench_output.txt

echo "done: test_output.txt, bench_output.txt"
