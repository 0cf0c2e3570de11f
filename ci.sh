#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite (including
# the bench_smoke label). Run on every PR; exits non-zero on any failure.
#
# Environment:
#   SANITIZE=asan|ubsan|tsan  build with Address-/UB-/ThreadSanitizer
#                             (separate build directory per sanitizer)
#   BUILD_TYPE=<type>    CMake build type (default Release)
#   TEST_REGEX=<regex>   run only ctest targets matching the regex
#                        (default: the whole suite). The TSan CI job uses
#                        this to focus on the threaded batching tests, the
#                        PlanCache concurrency tests (plan_test), the
#                        sharded lineage-circuit tests (lineage_test), and
#                        the daemon tests (serve_test, daemon_smoke).
set -euo pipefail

cd "$(dirname "$0")"

SANITIZE="${SANITIZE:-}"
BUILD_TYPE="${BUILD_TYPE:-Release}"
TEST_REGEX="${TEST_REGEX:-}"
BUILD_DIR="build"
CMAKE_ARGS=(-DCMAKE_BUILD_TYPE="${BUILD_TYPE}")

case "${SANITIZE}" in
  "") ;;
  asan|ubsan|tsan)
    BUILD_DIR="build-${SANITIZE}"
    CMAKE_ARGS+=(-DSHAPCQ_SANITIZE="${SANITIZE}")
    ;;
  *)
    echo "ci.sh: SANITIZE must be empty, 'asan', 'ubsan', or 'tsan' (got '${SANITIZE}')" >&2
    exit 2
    ;;
esac

if ! cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"; then
  echo "ci.sh: CMake configure failed (build dir: ${BUILD_DIR}," \
       "args: ${CMAKE_ARGS[*]}). Fix the configuration before building." >&2
  exit 1
fi

cmake --build "${BUILD_DIR}" -j "$(nproc)"
cd "${BUILD_DIR}"
CTEST_ARGS=(--output-on-failure -j "$(nproc)")
if [[ -n "${TEST_REGEX}" ]]; then
  CTEST_ARGS+=(-R "${TEST_REGEX}")
fi
ctest "${CTEST_ARGS[@]}"
