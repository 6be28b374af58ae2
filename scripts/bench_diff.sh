#!/usr/bin/env bash
# Output identity against another checkout: build both trees, run
# every simulating bench_* at AURORA_JOBS=1 and 4 plus
# `aurora_sim --bench all --csv`, and diff each stdout. Wall-clock
# noise is dropped first: every `sweep summary` footer (and the blank
# line before it) and the pid in fault-storm's temp paths. Each run's
# exit status is part of its output.
#
#   scripts/bench_diff.sh PARENT_DIR
#   AURORA_BENCH_INSTS=200000 scripts/bench_diff.sh PARENT_DIR
#
# PARENT_DIR is a plain source tree, e.g. made with
# `git archive <commit> | tar -x -C PARENT_DIR`. Both trees build
# into their own build-diff/. Exits non-zero on any difference.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 PARENT_DIR" >&2
    exit 2
fi
HERE="$(cd "$(dirname "$0")/.." && pwd)"
PARENT="$(cd "$1" && pwd)"
INSTS="${AURORA_BENCH_INSTS:-20000}"
# Benches that print fixed tables without simulating, and the
# google-benchmark timings.
SKIP=(fig1_clock_trend table1_models table2_rbe perf_microbench)

OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT

benches=()
for src in "${HERE}"/bench/bench_*.cc; do
    name="$(basename "${src}" .cc)"
    [[ " ${SKIP[*]} " == *" ${name#bench_} "* ]] || benches+=("${name}")
done

build() {
    cmake -B "$1/build-diff" -S "$1" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        > "${OUT}/cmake.log"
    cmake --build "$1/build-diff" -j "$(nproc)" \
        --target aurora_sim "${benches[@]}" > "${OUT}/build.log"
}

# Drop each `sweep summary` line plus a blank line right before it,
# and mask pids in aurora_*.<pid> temp paths.
normalize() {
    awk '
        /sweep summary/ { if (held && prev != "") print prev; held = 0; next }
        { if (held) print prev; prev = $0; held = 1 }
        END { if (held) print prev }
    ' | sed -E 's/(aurora_[a-z_]+)\.[0-9]+/\1.PID/g'
}

# run TREE NAME CMD...: normalized stdout of CMD into OUT/TREE/NAME.
run() {
    local tree="$1" name="$2"
    shift 2
    local status=0
    mkdir -p "${OUT}/${tree}"
    "$@" > "${OUT}/${tree}/${name}.raw" 2> /dev/null || status=$?
    {
        normalize < "${OUT}/${tree}/${name}.raw"
        echo "exit status ${status}"
    } > "${OUT}/${tree}/${name}"
}

for tree in parent here; do
    dir="${HERE}"
    [[ "${tree}" == parent ]] && dir="${PARENT}"
    echo "bench_diff: building ${dir}"
    build "${dir}"
    for jobs in 1 4; do
        export AURORA_JOBS="${jobs}" AURORA_BENCH_INSTS="${INSTS}"
        for name in "${benches[@]}"; do
            run "${tree}" "${name}.j${jobs}" \
                "${dir}/build-diff/bench/${name}"
        done
        run "${tree}" "aurora_sim.j${jobs}" \
            "${dir}/build-diff/tools/aurora_sim" --bench all --csv \
            --insts "${INSTS}"
    done
done

differ=0
for file in "${OUT}"/parent/*; do
    name="$(basename "${file}")"
    [[ "${name}" == *.raw ]] && continue
    if ! diff -u "${file}" "${OUT}/here/${name}" > "${OUT}/${name}.diff"
    then
        echo "bench_diff: ${name} differs:"
        head -n 40 "${OUT}/${name}.diff"
        differ=1
    fi
done
count="$(find "${OUT}/parent" -type f ! -name '*.raw' | wc -l)"
if [[ "${differ}" -ne 0 ]]; then
    echo "bench_diff: outputs differ at ${INSTS} insts"
    exit 1
fi
echo "bench_diff: ${count} outputs identical at ${INSTS} insts"
