#!/usr/bin/env bash
# Lines of C++ source (.cc and .hh) under src/ and tools/: one line
# per directory, then ROADMAP's two groups (simulator and
# infrastructure), then the src/ + tools/ total. Reports only; it
# gates nothing.
#
#   scripts/loc.sh             # this checkout
#   scripts/loc.sh OTHER_DIR   # another checkout, e.g. a parent copy
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

SIMULATOR=(core ipu fpu mem isa trace cost)
INFRASTRUCTURE=(serve shard obs harness telemetry)

# Total .cc/.hh lines under the given directories.
lines() {
    find "$@" -type f \( -name '*.cc' -o -name '*.hh' \) \
        -exec cat {} + | wc -l
}

for dir in src/*/ tools/; do
    dir="${dir%/}"
    printf '%-16s %7d\n' "${dir}" "$(lines "${dir}")"
done
printf '%-16s %7d   (%s)\n' simulator \
    "$(lines "${SIMULATOR[@]/#/src/}")" "${SIMULATOR[*]}"
printf '%-16s %7d   (%s)\n' infrastructure \
    "$(lines "${INFRASTRUCTURE[@]/#/src/}")" "${INFRASTRUCTURE[*]}"
printf '%-16s %7d\n' "src/ + tools/" "$(lines src tools)"
