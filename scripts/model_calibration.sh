#!/usr/bin/env bash
# Calibrate the analytic bound-and-bottleneck model (src/analyze/model)
# against the cycle-accurate simulator on the paper's two study grids:
#
#   fig4:  {small, baseline, large} x issue {1,2} x memory latency
#          {17,35} over the integer suite — the resource-allocation
#          planes Figure 4 sweeps
#   fig9:  FPU issue-policy and queue-depth variants on the baseline
#          over the FP suite — the Figure 9 decoupling study
#
# For every (config, benchmark) job the predicted bound from
# `aurora_lint analyze-config --csv` is joined with the measured IPC
# from `aurora_sim --stats-csv` and two properties are enforced:
#
#   1. soundness   — bound >= measured IPC on EVERY job (a single
#                    violation fails the run: the model stopped being
#                    an upper bound)
#   2. usefulness  — mean relative gap (bound - ipc) / bound stays
#                    under AURORA_MODEL_GAP_LIMIT (default 0.75): a
#                    bound 4x above reality ranks nothing
#
# Knobs: AURORA_MODEL_INSTS (default 200000) scales run length;
# AURORA_MODEL_OUT=<file> additionally writes the gap distribution as
# JSON. Simulator speed is measured separately, by bench/perf/run.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

SIM="${AURORA_SIM:-build/tools/aurora_sim}"
LINT="${AURORA_LINT:-build/tools/aurora_lint}"
INSTS="${AURORA_MODEL_INSTS:-200000}"
GAP_LIMIT="${AURORA_MODEL_GAP_LIMIT:-0.75}"

if [ ! -x "${SIM}" ] || [ ! -x "${LINT}" ]; then
    echo "model calibration: build aurora_sim and aurora_lint first" \
         "(cmake --preset release && cmake --build --preset release)" >&2
    exit 2
fi

dir="$(mktemp -d)"
trap 'rm -rf "${dir}"' EXIT

# One line per job: "<gap>" appended to gaps.txt; exits non-zero on a
# soundness violation or a benchmark the model CSV does not cover.
run_point() {
    local suite="$1"
    shift
    local spec=("$@")
    "${SIM}" --bench "${suite}" --insts "${INSTS}" "${spec[@]}" \
        --stats-csv "${dir}/sim.csv" > /dev/null
    "${LINT}" analyze-config "${spec[@]}" --profile "${suite}" --csv \
        > "${dir}/model.csv"
    awk -F, -v spec="${spec[*]}" '
        FNR == 1 { next }
        NR == FNR { bound[$1] = $2; next }
        {
            ipc = $3 / $4
            b = bound[$2]
            if (b == "") {
                printf "model calibration: no bound for %s (%s)\n", \
                       $2, spec > "/dev/stderr"
                bad = 1
                next
            }
            if (ipc > b + 1e-9) {
                printf "model calibration: VIOLATION %s (%s): " \
                       "bound %.6f < measured %.6f\n", \
                       $2, spec, b, ipc > "/dev/stderr"
                bad = 1
                next
            }
            printf "%.6f\n", (b - ipc) / b
        }
        END { exit bad }
    ' "${dir}/model.csv" "${dir}/sim.csv" >> "${dir}/gaps.txt"
}

echo "model calibration: fig4 grid (int suite, ${INSTS} insts/job)"
for model in small baseline large; do
    for issue in 1 2; do
        for latency in 17 35; do
            run_point int "model=${model}" "issue=${issue}" \
                "fetch=${issue}" "latency=${latency}"
        done
    done
done

echo "model calibration: fig9 grid (fp suite, ${INSTS} insts/job)"
FIG9_SPECS=(
    "fp_policy=single"
    "fp_policy=dual"
    "fp_policy=single fp_instq=2"
    "fp_policy=single fp_instq=10"
    "fp_policy=dual fp_instq=10"
    "fp_policy=single fp_loadq=1"
    "fp_policy=single fp_rob=4"
    "fp_policy=single fp_rob=12"
)
for spec in "${FIG9_SPECS[@]}"; do
    # shellcheck disable=SC2086
    run_point fp model=baseline ${spec}
done

jobs="$(wc -l < "${dir}/gaps.txt")"
sort -g "${dir}/gaps.txt" > "${dir}/sorted.txt"
read -r gap_mean gap_p95 gap_max <<EOF
$(awk '
    { sum += $1; v[NR] = $1 }
    END {
        p = v[int(NR * 0.95)]; if (int(NR * 0.95) < 1) p = v[1]
        printf "%.6f %.6f %.6f\n", sum / NR, p, v[NR]
    }
' "${dir}/sorted.txt")
EOF

echo "model calibration: ${jobs} jobs, 0 violations," \
     "gap mean=${gap_mean} p95=${gap_p95} max=${gap_max}"

if awk -v m="${gap_mean}" -v lim="${GAP_LIMIT}" \
        'BEGIN { exit !(m > lim) }'; then
    echo "model calibration: mean gap ${gap_mean} exceeds" \
         "${GAP_LIMIT} — the bound is too loose to rank designs" >&2
    exit 1
fi

if [ -n "${AURORA_MODEL_OUT:-}" ]; then
    cat > "${AURORA_MODEL_OUT}" <<EOF
{
  "schema": "aurora.model_calibration.v1",
  "jobs": ${jobs},
  "violations": 0,
  "insts_per_job": ${INSTS},
  "gap_mean": ${gap_mean},
  "gap_p95": ${gap_p95},
  "gap_max": ${gap_max}
}
EOF
    echo "model calibration: wrote ${AURORA_MODEL_OUT}"
fi
echo "model calibration: OK (bound dominated measured IPC on all ${jobs} jobs)"
