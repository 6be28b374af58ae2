#!/usr/bin/env bash
# Determinism lint: the simulation core must be a pure function of its
# inputs, or golden stats, sweep replay, and journal resume all break.
#
# Bans, in every src/ directory that produces or carries results
# (the DIRS list below):
#   - wall-clock reads: std::chrono::system_clock, time(
#   - libc randomness:  rand(, std::random_device
#   - environment reads: getenv (env access belongs in util/env, so
#     every knob is named, typed, defaulted and logged in one place)
#   - thread_local, here and in util/rng: a per-thread memo (say, of
#     a per-profile constant) would make one job's trace depend on
#     which jobs ran before it on the same pool worker
#
# std::chrono::steady_clock is deliberately ALLOWED: it measures how
# long a computation took (watchdog deadlines, sweep timing) without
# feeding back into what the computation produces.
#
# Exits non-zero listing every offending line.
set -euo pipefail
cd "$(dirname "$0")/.."

# src/telemetry is covered too: samplers and exporters take
# timestamps as event payloads, they never read clocks themselves
# (sweep spans are stamped by obs::SpanLog's steady clock).
# src/harness is covered because journal replay and derived job seeds
# must be pure functions of the grid: the sweep engine times jobs,
# deadlines, backoff, and spans with steady_clock only.
# src/serve is covered because resumed grids must replay
# bit-identically: the daemon may time things with steady_clock, but
# nothing in the service layer may consult wall clocks, randomness, or
# raw environment state when producing results.
# src/shard is covered for the same reason with a bigger blast
# radius: the distributed merge is only provably bit-identical to the
# serial run if no shard or coordinator decision depends on wall
# clocks, randomness, or raw env reads (leases use steady_clock;
# sabotage plans arrive via util/env).
# src/analyze and src/cost are covered because the analytic model and
# the RBE pricer feed golden-checked predictions (tests/golden/
# model_bounds.txt) and grid pruning decisions: a clock, random, or
# raw-env read there would silently re-rank every explored grid.
# src/obs is covered because the tracing/metrics plane must be
# provably inert: span ids are pure functions of the trace id, and
# flight/span timestamps come from steady clocks only — a wall-clock
# or random read there could leak back into golden-checked output.
DIRS=(src/core src/ipu src/fpu src/mem src/trace src/telemetry
      src/harness src/serve src/shard src/analyze src/cost src/obs)
STATUS=0

# pattern -> human explanation, then any paths checked beyond DIRS.
# Word boundaries keep e.g. "timestamp(" or "strand(" from matching.
check() {
    local pattern="$1" why="$2"
    shift 2
    # shellcheck disable=SC2046
    if hits=$(grep -RInE "${pattern}" "${DIRS[@]}" "$@" \
                  --include='*.cc' --include='*.hh' || true); then
        if [ -n "${hits}" ]; then
            echo "determinism lint: ${why}:"
            echo "${hits}" | sed 's/^/  /'
            STATUS=1
        fi
    fi
}

check 'std::chrono::system_clock' \
      'wall-clock time in the simulation core'
check '(^|[^a-zA-Z0-9_])time\(' \
      'libc time() in the simulation core'
check '(^|[^a-zA-Z0-9_])rand\(' \
      'libc rand() in the simulation core'
check 'std::random_device' \
      'nondeterministic seed source in the simulation core'
check '(^|[^a-zA-Z0-9_:])getenv' \
      'raw environment read outside util/env'
check '(^|[^a-zA-Z0-9_])thread_local([^a-zA-Z0-9_]|$)' \
      'per-thread state in the simulation core' src/util/rng.hh src/util/rng.cc

if [ "${STATUS}" -ne 0 ]; then
    echo "determinism lint: FAILED"
    exit 1
fi
echo "determinism lint: OK (${DIRS[*]})"
