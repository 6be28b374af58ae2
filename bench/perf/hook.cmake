# Injected into the repository's own root CMakeLists.txt by run.sh:
#
#   cmake -S . -B build-perf \
#         -DCMAKE_PROJECT_aurora3_INCLUDE=bench/perf/hook.cmake
#
# CMake includes this file right after project(aurora3). The perf
# target has to be declared after every aurora_* library, and in the
# root directory so it inherits the root's compile options and build
# type, so the declaration is deferred to the end of the root
# directory. (A deferred add_subdirectory is refused; a deferred
# include works.) A plain `cmake -S . -B build` never reads this file.
set(AURORA_PERF_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
    CALL include "${AURORA_PERF_DIR}/targets.cmake")
