#!/usr/bin/env bash
# The repository benchmark; bench/perf/README.md explains what it
# measures and how to read it.
#
#   bench/perf/run.sh [--seed S] [--workloads a,b] [--seconds T]
#                     [--traced] [--smoke]
#   bench/perf/run.sh --check-repeat [--seed S] [--workloads a,b]
#   bench/perf/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Builds build-perf/ from this checkout's sources (the root
# CMakeLists.txt with bench/perf/hook.cmake injected, so aurora_perf
# gets exactly the repository's flags), runs the workloads, checks
# their outputs, prints every metric with its unit, and writes a
# results file under build-perf/results/. When one workload runs, the
# last line of stdout is a JSON object with the keys correct,
# attempted, failed and metrics (end-to-end metrics, or the per-layer
# ones with --trace 1). Exits non-zero when any output is wrong.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "${root}"

usage() {
    sed -n '5,8p' "${root}/bench/perf/run.sh" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

seed=1
seconds=20
workloads=""
trace=0
smoke=0
check_repeat=0
while [ $# -gt 0 ]; do
    case "$1" in
      --seed) seed="${2:?}"; shift 2 ;;
      --seconds) seconds="${2:?}"; shift 2 ;;
      --workload|--workloads) workloads="${2:?}"; shift 2 ;;
      --trace) trace="${2:?}"; shift 2 ;;
      --traced) trace=1; shift ;;
      --smoke) smoke=1; shift ;;
      --check-repeat) check_repeat=1; shift ;;
      *) usage ;;
    esac
done

# Nothing in the caller's environment may change what is measured.
for name in $(compgen -e); do
    case "${name}" in AURORA_*) unset "${name}" ;; esac
done

build=build-perf
if [ ! -f "${build}/CMakeCache.txt" ]; then
    cmake -S . -B "${build}" \
        -DCMAKE_PROJECT_aurora3_INCLUDE="${root}/bench/perf/hook.cmake" >&2
fi
cmake --build "${build}" --target aurora_perf -j "$(nproc)" >&2

rev=unknown
if top="$(git -C "${root}" rev-parse --show-toplevel 2>/dev/null)" &&
    [ "${top}" = "${root}" ]; then
    rev="$(git -C "${root}" rev-parse HEAD)"
    if ! git -C "${root}" diff --quiet HEAD -- 2>/dev/null; then
        rev="${rev}-dirty"
    fi
fi

perf=("${build}/aurora_perf" run --seed "${seed}" --seconds "${seconds}"
      --trace "${trace}" --git-rev "${rev}")
if [ -n "${workloads}" ]; then
    perf+=(--workloads "${workloads}")
fi
if [ "${smoke}" = 1 ]; then
    perf+=(--smoke)
fi
stamp="$(date -u +%Y%m%dT%H%M%SZ)-$$"
mkdir -p "${build}/results"

if [ "${check_repeat}" = 1 ]; then
    first="${build}/results/${stamp}-a.json"
    second="${build}/results/${stamp}-b.json"
    "${perf[@]}" --results "${first}"
    "${perf[@]}" --results "${second}"
    exec "${build}/aurora_perf" check-repeat --bounds BENCHMARK.json \
        "${first}" "${second}"
fi
exec "${perf[@]}" --results "${build}/results/${stamp}.json"
