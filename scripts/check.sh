#!/usr/bin/env bash
# Configure, build, and test one CMake preset:
#
#   scripts/check.sh            # release (RelWithDebInfo), full suite
#   scripts/check.sh asan       # AddressSanitizer + UBSan, full suite
#   scripts/check.sh ubsan      # standalone UBSan, full suite
#   scripts/check.sh tsan       # ThreadSanitizer; runs the sweep
#                               # harness / logging / simulator tests
#                               # with AURORA_JOBS=8 to surface races
#   scripts/check.sh resume     # crash/resume drill: SIGKILL a
#                               # journaled sweep mid-grid, resume it,
#                               # and diff against an uninterrupted run
#   scripts/check.sh lint       # static analysis: the determinism
#                               # lint (always) and clang-tidy over
#                               # compile_commands.json (when
#                               # clang-tidy is installed)
#   scripts/check.sh serve      # service load drill: hundreds of
#                               # small grids from parallel
#                               # aurora_submit clients, SIGKILL the
#                               # daemon mid-load, restart it, and
#                               # demand every resumed grid stream
#                               # bit-identical stats versus a serial
#                               # aurora_sim run; also checks quota and
#                               # preflight rejections and SIGTERM
#                               # drain exit status
#   scripts/check.sh shard      # distributed chaos drill: a 4-shard
#                               # fleet of exec'd aurora_shardd workers
#                               # (aurora_swarm --spawn exec), SIGKILL
#                               # two workers mid-grid plus one zombie
#                               # shard attempting a post-fence append,
#                               # then demand exactly-once completion
#                               # (AURORA_AUDIT=1) and a merged CSV
#                               # byte-identical to serial aurora_sim
#   scripts/check.sh model      # analytic-model calibration: run the
#                               # fig4/fig9 study grids through both
#                               # the simulator and `aurora_lint
#                               # analyze-config`, and require the
#                               # predicted bound to dominate measured
#                               # IPC on every job with a useful mean
#                               # gap (scripts/model_calibration.sh)
#   scripts/check.sh obs        # observability drill: exercise every
#                               # exporter (--stats-json, --stats-csv,
#                               # --trace-events, --sweep-trace, the
#                               # fault-storm timeline artifact) and
#                               # validate each with aurora_obs_check
#   scripts/check.sh all        # all four presets, all four drills,
#                               # and the lint stage
#
# Every full-suite preset includes the fault-storm smoke test
# (bench_ext_fault_storm via ctest), which proves every injected
# fault class is detected and a poisoned sweep still completes.
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

run_preset() {
    local preset="$1"
    echo "==== check: ${preset} ===="
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "$(nproc)"
    ctest --preset "${preset}" -j "$(nproc)"
}

# Crash/resume drill against the real CLI binary: start a journaled
# suite sweep, SIGKILL it once the journal has content, resume it, and
# demand byte-identical CSV output versus an uninterrupted run. Races
# are tolerated by construction — if the sweep finishes before the
# kill lands, the resume degenerates to a pure replay and the diff
# still must pass.
run_resume_drill() {
    echo "==== check: resume ===="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" --target aurora_sim
    local sim=build/tools/aurora_sim
    local dir
    dir="$(mktemp -d)"
    trap 'rm -rf "${dir}"' RETURN
    local insts="${AURORA_CHECK_RESUME_INSTS:-200000}"

    "${sim}" --bench all --insts "${insts}" --csv \
        > "${dir}/golden.csv"

    "${sim}" --bench all --insts "${insts}" --csv \
        --journal "${dir}/sweep.ajrn" > "${dir}/victim.csv" 2>&1 &
    local pid=$!
    # Wait for the journal header to land, then kill mid-grid.
    while [ ! -s "${dir}/sweep.ajrn" ] && kill -0 "${pid}" 2>/dev/null
    do
        sleep 0.02
    done
    sleep 0.1
    if kill -9 "${pid}" 2>/dev/null; then
        echo "resume drill: sweep killed mid-grid"
    else
        echo "resume drill: sweep finished before the kill (replay)"
    fi
    wait "${pid}" 2>/dev/null || true

    "${sim}" --bench all --insts "${insts}" --csv \
        --journal "${dir}/sweep.ajrn" --resume > "${dir}/resumed.csv"
    diff -u "${dir}/golden.csv" "${dir}/resumed.csv"
    echo "resume drill: resumed output is byte-identical"
}

# Observability drill against the real binaries: produce every export
# format the telemetry subsystem offers and validate each one with
# aurora_obs_check (well-formed JSON, schema discriminator, monotonic
# trace timestamps, rectangular CSV). The fault-storm bench runs with
# the preflight off so its wedged grid points reach the runtime
# detectors and the storm's trace artifact gains retry/timeout/resume
# spans. Sweep traces are causal: both must close their parentage.
run_obs() {
    echo "==== check: obs ===="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" \
        --target aurora_sim aurora_obs_check bench_ext_fault_storm
    local sim=build/tools/aurora_sim
    local check=build/tools/aurora_obs_check
    local dir
    dir="$(mktemp -d)"
    trap 'rm -rf "${dir}"' RETURN
    local insts="${AURORA_CHECK_OBS_INSTS:-50000}"

    # Single run: structured stats, CSV, and the per-cycle pipeline
    # trace, each validated.
    "${sim}" --bench espresso --insts "${insts}" \
        --stats-json "${dir}/run.json" --stats-csv "${dir}/run.csv" \
        --trace-events "${dir}/pipeline.json" \
        --trace-event-cycles 2000 > /dev/null
    "${check}" stats "${dir}/run.json"
    "${check}" csv "${dir}/run.csv"
    "${check}" trace "${dir}/pipeline.json"

    # Suite sweep with per-job metric registries.
    "${sim}" --bench int --insts "${insts}" --csv \
        --stats-json "${dir}/suite.json" > /dev/null
    "${check}" stats "${dir}/suite.json"

    # Journaled sweep with its causal trace, one track per worker.
    "${sim}" --bench int --insts "${insts}" --csv \
        --journal "${dir}/sweep.ajrn" \
        --sweep-trace "${dir}/sweep.json" > /dev/null
    "${check}" trace "${dir}/sweep.json" | grep -q 'parentage closed'

    # Fault-storm trace artifact with retry/timeout/resume spans.
    AURORA_BENCH_INSTS=20000 AURORA_PREFLIGHT=0 \
        AURORA_TIMELINE_OUT="${dir}/fault_storm.json" \
        build/bench/bench_ext_fault_storm > /dev/null
    "${check}" trace "${dir}/fault_storm.json" |
        grep -q 'parentage closed'

    # Fleet chaos drill: a two-shard swarm grid with one shard
    # SIGKILLed mid-grid, causal tracing and the flight recorder on.
    # The dead worker leaves a write-through flight file that must
    # validate, the coordinator's fence record must name the epoch
    # that actually welcomed that worker, the merged trace must close
    # its parentage, and the CSV must stay byte-identical to serial —
    # observability on, chaos on, results unchanged.
    cmake --build --preset release -j "$(nproc)" \
        --target aurora_swarm
    local swarm=build/tools/aurora_swarm
    local obsdir="${dir}/swarm_jd/obs"
    "${swarm}" --socket "${dir}/swarm.sock" \
        --journal-dir "${dir}/swarm_jd" --shards 2 --bench int \
        --insts "${insts}" --fault 0:kill-shard:1 --stats \
        --trace-out "${dir}/fleet.json" --csv \
        > "${dir}/fleet.csv" 2> "${dir}/fleet.log"
    "${sim}" --bench int --insts "${insts}" --csv \
        > "${dir}/fleet_serial.csv"
    cmp "${dir}/fleet.csv" "${dir}/fleet_serial.csv"
    grep -q 'migrated=[1-9]' "${dir}/fleet.log"
    "${check}" trace "${dir}/fleet.json" | grep -q 'parentage closed'
    "${check}" flight "${obsdir}/swarm.flight"
    local flight epoch
    for flight in "${obsdir}"/shard-e*.flight; do
        "${check}" flight "${flight}"
    done
    # The fence record's epoch must match a worker that actually
    # welcomed under that epoch — the postmortem join the flight
    # recorder exists for.
    epoch="$(grep '"event": "lease.fence"' "${obsdir}/swarm.flight" \
        | head -n 1 | grep -o '"detail": "epoch=[0-9]*' \
        | grep -o '[0-9]*$')"
    [ -n "${epoch}" ]
    grep -q "\"event\": \"welcome\".*epoch=${epoch} " \
        "${obsdir}/shard-e${epoch}.flight"
    "${check}" postmortem "${obsdir}" 6 | grep -q 'fence @'
    echo "obs drill: every exporter validated, fleet chaos traced"
}

# Service load drill against the real daemon and client binaries.
#
# Phase 1 — load + crash: N parallel aurora_submit clients (distinct
# tenants) each fire a burst of unique single-job grids at one daemon
# with --no-wait, collecting fingerprints. The daemon is SIGKILLed
# while work is still in flight, then restarted on the same spool.
# Phase 2 — resume + bit-identity: every fingerprint is re-attached;
# each grid must finish and its stats CSV must be byte-identical to a
# serial aurora_sim run of the same benchmark/instruction budget. The
# restarted daemon must then drain on SIGTERM and exit 0.
# Phase 3 — admission: a quota-1 daemon must refuse a second grid with
# AUR201 and a preflight-rejected machine spec with AUR010, and still
# drain cleanly.
#
# Races are tolerated by construction: if the daemon finishes the
# whole load before the kill lands, the attach phase degenerates to a
# pure journal replay and the byte-compare still must pass.
run_serve_drill() {
    echo "==== check: serve ===="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" \
        --target aurora_serve aurora_submit aurora_sim
    local serve=build/tools/aurora_serve
    local submit=build/tools/aurora_submit
    local sim=build/tools/aurora_sim
    local dir
    dir="$(mktemp -d)"
    trap 'rm -rf "${dir}"' RETURN
    local sock="${dir}/serve.sock"
    local spool="${dir}/spool"
    local clients="${AURORA_CHECK_SERVE_CLIENTS:-8}"
    local grids="${AURORA_CHECK_SERVE_GRIDS:-25}"
    local insts="${AURORA_CHECK_SERVE_INSTS:-20000}"

    # Readiness probe: the socket file alone is not enough (a stale
    # file from a SIGKILLed daemon lingers until the next bind), so
    # demand an actual status round-trip.
    wait_for_daemon() {
        local i=0
        while [ "${i}" -lt 200 ]; do
            if "${submit}" --socket "$1" --tenant probe --status \
                    > /dev/null 2>&1; then
                return 0
            fi
            sleep 0.05
            i=$((i + 1))
        done
        echo "serve drill: daemon on $1 never became ready" >&2
        return 1
    }

    # ---- phase 1: parallel submission storm, then SIGKILL ----------
    "${serve}" --socket "${sock}" --spool "${spool}" \
        --workers "$(nproc)" --quota-grids 64 --quiet &
    local daemon=$!
    wait_for_daemon "${sock}"

    local c
    local pids=()
    for c in $(seq 1 "${clients}"); do
        (
            set -e
            for g in $(seq 1 "${grids}"); do
                # Unique instruction budget per (client, grid) keeps
                # every fingerprint distinct across all tenants.
                n=$((insts + c * 101 + g))
                "${submit}" --socket "${sock}" --tenant "tenant${c}" \
                    --bench espresso --insts "${n}" --no-wait \
                    --timeout-ms 120000 --quiet |
                    awk -v n="${n}" '/^accepted/ { print $2, n }'
            done > "${dir}/fps.${c}"
        ) &
        pids+=("$!")
    done
    local pid
    for pid in "${pids[@]}"; do
        wait "${pid}"
    done
    for c in $(seq 1 "${clients}"); do
        if [ "$(wc -l < "${dir}/fps.${c}")" -ne "${grids}" ]; then
            echo "serve drill: client ${c} lost submissions" >&2
            exit 1
        fi
    done

    if kill -9 "${daemon}" 2>/dev/null; then
        echo "serve drill: daemon SIGKILLed mid-load"
    fi
    wait "${daemon}" 2>/dev/null || true

    # ---- phase 2: restart, re-attach everything, byte-compare ------
    "${serve}" --socket "${sock}" --spool "${spool}" \
        --workers "$(nproc)" --quota-grids 64 --quiet &
    daemon=$!
    wait_for_daemon "${sock}"

    local total=0
    local fp n
    for c in $(seq 1 "${clients}"); do
        while read -r fp n; do
            "${submit}" --socket "${sock}" --tenant "tenant${c}" \
                --attach "${fp}" --timeout-ms 120000 --quiet \
                --stats-csv "${dir}/grid.csv" > /dev/null
            "${sim}" --bench espresso --insts "${n}" \
                --stats-csv "${dir}/serial.csv" > /dev/null
            cmp "${dir}/grid.csv" "${dir}/serial.csv"
            total=$((total + 1))
        done < "${dir}/fps.${c}"
    done
    echo "serve drill: ${total} grids resumed bit-identical to serial"

    kill -TERM "${daemon}"
    wait "${daemon}"
    echo "serve drill: SIGTERM drain exited 0"

    # ---- phase 3: admission control ---------------------------------
    local sock2="${dir}/admit.sock"
    "${serve}" --socket "${sock2}" --spool "${dir}/spool2" \
        --workers 1 --quota-grids 1 --quiet &
    daemon=$!
    wait_for_daemon "${sock2}"

    "${submit}" --socket "${sock2}" --tenant alice --bench espresso \
        --insts 400000 --no-wait --quiet > /dev/null
    if "${submit}" --socket "${sock2}" --tenant alice \
            --bench espresso --insts 400001 --no-wait --quiet \
            2> "${dir}/reject.err" > /dev/null; then
        echo "serve drill: over-quota grid was not refused" >&2
        exit 1
    fi
    grep -q AUR201 "${dir}/reject.err"
    if "${submit}" --socket "${sock2}" --tenant bob \
            --bench espresso --insts 10000 --no-wait --quiet \
            fp_buses=0 2> "${dir}/preflight.err" > /dev/null; then
        echo "serve drill: preflight-rejected grid was accepted" >&2
        exit 1
    fi
    grep -q AUR010 "${dir}/preflight.err"
    echo "serve drill: AUR201 quota and AUR010 preflight refusals OK"

    kill -TERM "${daemon}"
    wait "${daemon}"
    echo "serve drill: admission daemon drained, exited 0"
}

# Distributed chaos drill against the real binaries: an exec-mode
# coordinator (aurora_swarm --spawn exec) forks four aurora_shardd
# workers; slot 3 runs the zombie-append sabotage (silent past its
# lease, then one post-fence Result the coordinator must refuse with
# AUR304). Once all four are exec'd, this script SIGKILLs two of the
# healthy ones mid-grid, found as the coordinator's children whose
# environment carries no AURORA_SHARD_FAULT. Every job must complete
# exactly once under AURORA_AUDIT=1 and the merged CSV must be
# byte-identical to a serial aurora_sim run of the same grid.
run_shard_drill() {
    echo "==== check: shard ===="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" \
        --target aurora_swarm aurora_shardd aurora_sim
    local swarm=build/tools/aurora_swarm
    local shardd=build/tools/aurora_shardd
    local sim=build/tools/aurora_sim
    local dir
    dir="$(mktemp -d)"
    trap 'rm -rf "${dir}"' RETURN
    local sock="${dir}/swarm.sock"
    local jdir="${dir}/journals"
    local insts="${AURORA_CHECK_SHARD_INSTS:-600000}"

    AURORA_AUDIT=1 "${sim}" --bench all --insts "${insts}" --csv \
        > "${dir}/serial.csv"

    AURORA_AUDIT=1 "${swarm}" --socket "${sock}" \
        --journal-dir "${jdir}" --shards 4 --spawn exec \
        --shardd "${shardd}" --fault 3:zombie-append:1 \
        --bench all --insts "${insts}" --csv --lease-ms 800 \
        --stats > "${dir}/merged.csv" 2> "${dir}/swarm.log" &
    local coord=$!

    # A child counts once it has exec'd: before that it is still a
    # copy of aurora_swarm, and its environment does not yet show
    # the fault plan.
    local workers=()
    while [ "${#workers[@]}" -lt 4 ] && kill -0 "${coord}" 2>/dev/null; do
        sleep 0.02
        mapfile -t workers < <(pgrep -P "${coord}" -x aurora_shardd)
    done
    sleep 0.4
    local pid
    local victims=()
    local environ
    for pid in "${workers[@]}"; do
        [ "${#victims[@]}" -lt 2 ] || break
        environ="$(tr '\0' '\n' < "/proc/${pid}/environ")" || continue
        if ! grep -q '^AURORA_SHARD_FAULT=' <<< "${environ}"; then
            victims+=("${pid}")
        fi
    done
    if [ "${#victims[@]}" -lt 2 ]; then
        echo "shard drill: found ${#victims[@]} healthy shard(s) to" \
             "kill, need 2" >&2
        kill "${coord}" 2>/dev/null || true
        exit 1
    fi
    kill -9 "${victims[@]}" 2>/dev/null || true
    echo "shard drill: SIGKILLed two of four shards mid-grid"

    local status=0
    wait "${coord}" || status=$?
    if [ "${status}" -ne 0 ]; then
        echo "shard drill: coordinator failed (${status})" >&2
        cat "${dir}/swarm.log" >&2
        exit 1
    fi

    cmp "${dir}/serial.csv" "${dir}/merged.csv"
    echo "shard drill: merged CSV byte-identical to serial (audit on)"
    grep -q "AUR302" "${dir}/swarm.log"
    grep -q "AUR304" "${dir}/swarm.log"
    grep "swarm stats:" "${dir}/swarm.log"
    echo "shard drill: kills fenced (AUR302) and the zombie append" \
         "was refused behind the fence (AUR304)"
}

# Analytic-model calibration drill: predicted bounds must dominate
# measured IPC across the paper's study grids (soundness) while
# staying close enough to rank designs (usefulness). The real
# assertions live in scripts/model_calibration.sh.
run_model_drill() {
    echo "==== check: model ===="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" \
        --target aurora_sim aurora_lint
    scripts/model_calibration.sh
}

# Static analysis. The determinism lint is pure grep and always runs.
# clang-tidy consumes the compile_commands.json the release preset
# exports (CMAKE_EXPORT_COMPILE_COMMANDS in the top-level
# CMakeLists.txt) and is gated on availability: the reference
# container ships only gcc, so its absence is a skip, not a failure.
run_lint() {
    echo "==== check: lint ===="
    scripts/lint_determinism.sh
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "lint: clang-tidy not installed; skipping tidy stage"
        return 0
    fi
    cmake --preset release
    local db=build/compile_commands.json
    if [ ! -f "${db}" ]; then
        echo "lint: ${db} missing" >&2
        return 1
    fi
    # Project sources only: generated/third-party TUs in the database
    # (GTest, google-benchmark) are not ours to lint.
    git ls-files 'src/*.cc' 'tools/*.cc' |
        xargs clang-tidy -p build --quiet
    echo "lint: clang-tidy OK"
}

case "${1:-release}" in
  all)
    run_preset release
    run_preset asan
    run_preset ubsan
    run_preset tsan
    run_resume_drill
    run_serve_drill
    run_shard_drill
    run_obs
    run_model_drill
    run_lint
    ;;
  release|asan|ubsan|tsan)
    run_preset "$1"
    ;;
  resume)
    run_resume_drill
    ;;
  model)
    run_model_drill
    ;;
  serve)
    run_serve_drill
    ;;
  shard)
    run_shard_drill
    ;;
  obs)
    run_obs
    ;;
  lint)
    run_lint
    ;;
  *)
    echo "usage: $0 [release|asan|ubsan|tsan|resume|serve|shard|obs|model|lint|all]" >&2
    exit 2
    ;;
esac
echo "check: OK"
