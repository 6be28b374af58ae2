# The benchmark binary, declared at the end of the root directory
# (see hook.cmake) so it builds with exactly the flags users get.
add_executable(aurora_perf
    ${AURORA_PERF_DIR}/src/main.cc
    ${AURORA_PERF_DIR}/src/compare.cc
    ${AURORA_PERF_DIR}/src/parent.cc
    ${AURORA_PERF_DIR}/src/probe.cc
    ${AURORA_PERF_DIR}/src/stats.cc
    ${AURORA_PERF_DIR}/src/workloads.cc)
target_link_libraries(aurora_perf PRIVATE
    aurora_serve_lib aurora_shard aurora_harness aurora_obs
    aurora_telemetry aurora_core aurora_trace aurora_util)
target_include_directories(aurora_perf PRIVATE
    ${CMAKE_SOURCE_DIR}/src ${AURORA_PERF_DIR}/src)
# The host-speed probe must not move with the repository's flags: its
# own options come last on its command line and win.
set(AURORA_PERF_PROBE_FLAGS -O2 -fno-lto)
if(CMAKE_SYSTEM_PROCESSOR MATCHES "x86_64|AMD64")
    list(APPEND AURORA_PERF_PROBE_FLAGS -march=x86-64 -mtune=generic)
endif()
set_source_files_properties(${AURORA_PERF_DIR}/src/probe.cc PROPERTIES
    COMPILE_OPTIONS "${AURORA_PERF_PROBE_FLAGS}")
# serve_burst spawns the daemon users run, built from the same tree.
add_dependencies(aurora_perf aurora_serve)
# Host/build context stamped into every results file.
string(TOUPPER "${CMAKE_BUILD_TYPE}" AURORA_PERF_CONFIG)
target_compile_definitions(aurora_perf PRIVATE
    AURORA_PERF_SERVE_BIN="$<TARGET_FILE:aurora_serve>"
    AURORA_PERF_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    AURORA_PERF_CXX_FLAGS="${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${AURORA_PERF_CONFIG}}"
    AURORA_PERF_COMPILE_OPTIONS="$<JOIN:$<TARGET_PROPERTY:aurora_perf,COMPILE_OPTIONS>, >"
    AURORA_PERF_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}")
