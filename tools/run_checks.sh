#!/bin/sh
# Run the differential suites that guard the exploration core in all
# three configurations:
#   1. the default build       — `ctest -L parallel` (path sets at
#                                1/2/4 workers, the Searcher as each
#                                worker's pick policy, its pinned
#                                1-worker order),
#                                `ctest -L solver` (SAT and solver
#                                kernel tests, incremental-vs-fresh
#                                solver contexts), `ctest -L lifecycle`
#                                (spill/merge-vs-all-resident state
#                                lifecycle), `ctest -L absint` (abstract
#                                domain and transfer-function soundness
#                                under the simplifier's known bits) and
#                                `ctest -L replay` (record/replay witness
#                                oracle: solver-free replay differentials);
#                                the WorkQueue idle-wait tests run under
#                                the parallel label
#   2. an AddressSanitizer build — `ctest -L sanitize` under build-asan/
#                                (solver + engine resilience paths and the
#                                lifecycle suite's exactly-once resource
#                                release: solver contexts and spill files,
#                                the WorkQueue idle-wait tests, the
#                                expression evaluator and variable-set
#                                memo tests, the vanilla executor's
#                                tests in test_dbt and the micro-op
#                                table test in test_engine: UBSan
#                                catches a shift or division guard gone
#                                from dbt/semantics.hh, ASan an
#                                out-of-bounds vanilla access) plus
#                                `ctest -L replay` there
#   3. a ThreadSanitizer build — `ctest -L tsan` under build-tsan/
#                                (parallel, incremental, lifecycle,
#                                replay and WorkQueue suites and the
#                                expression builder's concurrent-intern
#                                tests all carry the tsan label; the
#                                parallel suite's counting Searcher
#                                catches any call that escapes the
#                                engine's Searcher mutex), plus
#                                `ctest -L lifecycle` and `ctest -L
#                                replay` there: every witness-recording
#                                run has a second thread (the witness
#                                extractor) even at one worker
#   4. a Release build          — the library targets built at
#                                -DCMAKE_BUILD_TYPE=Release (-O3) with
#                                -Werror under build-release/: GCC's
#                                -O3 inlining reaches diagnostics
#                                (-Wstringop-overflow, -Wrestrict) that
#                                the default RelWithDebInfo build never
#                                prints, so this gate keeps the shipped
#                                optimization level warning-free too
# Also gates clang-tidy (zero warnings over src/expr and src/solver,
# skipped when clang-tidy is not installed) and diffs a fresh
# bench_fork_storm report against the committed baseline: missing
# metric keys (a counter that stopped being emitted) fail hard;
# magnitude deltas of the one run are printed for information.
# All must pass with zero divergences before a change to the
# exploration core, the solver pipeline or the state lifecycle lands.
#
# Usage: tools/run_checks.sh [build-dir] [tsan-build-dir] [asan-build-dir]
#                            [release-build-dir]
#   build-dir:      existing default-config build (default: build);
#                   configured+built here if missing.
#   tsan-build-dir: the -DS2E_SANITIZE=thread build (default:
#                   build-tsan); configured+built here if missing.
#   asan-build-dir: the -DS2E_SANITIZE=address build (default:
#                   build-asan); configured+built here if missing.
#   release-build-dir: the Release -Werror build (default:
#                   build-release); configured+built here if missing.
set -u

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
tsan_dir=${2:-"$repo_root/build-tsan"}
asan_dir=${3:-"$repo_root/build-asan"}
release_dir=${4:-"$repo_root/build-release"}
jobs=$(nproc 2>/dev/null || echo 2)

library_targets="s2e_support s2e_expr s2e_solver s2e_isa s2e_vm s2e_dbt \
s2e_analysis s2e_perf s2e_core s2e_obs s2e_plugins s2e_guest s2e_tools"

check_targets="test_parallel test_incremental test_lifecycle test_absint \
test_replay test_workqueue test_expr test_sat test_solver"

status=0

echo "== run_checks: default configuration ($build_dir) =="
if [ ! -f "$build_dir/CMakeCache.txt" ]; then
    cmake -B "$build_dir" -S "$repo_root" || exit 1
fi
cmake --build "$build_dir" -j "$jobs" \
    --target $check_targets || exit 1
(cd "$build_dir" && ctest -L parallel --output-on-failure) || status=1
(cd "$build_dir" && ctest -L solver --output-on-failure) || status=1
(cd "$build_dir" && ctest -L lifecycle --output-on-failure) || status=1
(cd "$build_dir" && ctest -L absint --output-on-failure) || status=1
(cd "$build_dir" && ctest -L replay --output-on-failure) || status=1

echo "== run_checks: clang-tidy gate (src/expr, src/solver) =="
# Zero-warning gate over the expression and solver layers; skips
# cleanly when clang-tidy is absent.
"$repo_root/tools/run_tidy.sh" "$build_dir" src/expr src/solver \
    -- --warnings-as-errors='*' || status=1

echo "== run_checks: AddressSanitizer configuration ($asan_dir) =="
if [ ! -f "$asan_dir/CMakeCache.txt" ]; then
    cmake -B "$asan_dir" -S "$repo_root" -DS2E_SANITIZE=address || exit 1
fi
cmake --build "$asan_dir" -j "$jobs" \
    --target test_expr test_sat test_solver test_dbt test_engine \
    test_lifecycle test_replay test_workqueue || exit 1
(cd "$asan_dir" && ctest -L sanitize --output-on-failure) || status=1
(cd "$asan_dir" && ctest -L lifecycle --output-on-failure) || status=1
(cd "$asan_dir" && ctest -L replay --output-on-failure) || status=1

echo "== run_checks: ThreadSanitizer configuration ($tsan_dir) =="
if [ ! -f "$tsan_dir/CMakeCache.txt" ]; then
    cmake -B "$tsan_dir" -S "$repo_root" -DS2E_SANITIZE=thread || exit 1
fi
cmake --build "$tsan_dir" -j "$jobs" \
    --target $check_targets || exit 1
(cd "$tsan_dir" && ctest -L tsan --output-on-failure) || status=1
(cd "$tsan_dir" && ctest -L lifecycle --output-on-failure) || status=1
(cd "$tsan_dir" && ctest -L replay --output-on-failure) || status=1

echo "== run_checks: Release warning gate ($release_dir) =="
if [ ! -f "$release_dir/CMakeCache.txt" ]; then
    cmake -B "$release_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-Werror || exit 1
fi
cmake --build "$release_dir" -j "$jobs" --target $library_targets ||
    status=1

# Bench diff: regenerate each benched report and compare it against
# its committed baseline. Metric *presence* is a hard gate — a counter
# gone from the fresh report (bench_diff exit 2) means someone broke
# the metric wiring. Magnitude deltas are printed for information only:
# one run against one baseline cannot tell a regression from noise.
if command -v python3 >/dev/null 2>&1; then
    for bench in bench_fork_storm bench_fig6_coverage_time; do
        baseline="$repo_root/BENCH_${bench#bench_}.json"
        [ -f "$baseline" ] || continue
        echo "== run_checks: $bench diff vs committed baseline =="
        if cmake --build "$build_dir" -j "$jobs" \
                 --target "$bench" >/dev/null 2>&1; then
            bench_tmp=$(mktemp -d)
            if (cd "$bench_tmp" &&
                    "$build_dir/bench/$bench" >/dev/null 2>&1); then
                python3 "$repo_root/tools/bench_diff.py" \
                    "$baseline" \
                    "$bench_tmp/$(basename "$baseline")"
                diff_rc=$?
                if [ "$diff_rc" -ge 2 ]; then
                    echo "run_checks: $bench metric keys missing vs" \
                         "baseline — HARD FAILURE" >&2
                    status=1
                elif [ "$diff_rc" -ne 0 ]; then
                    echo "run_checks: $bench diff failed (exit" \
                         "$diff_rc) — HARD FAILURE" >&2
                    status=1
                fi
            else
                echo "run_checks: $bench run failed; diff skipped"
            fi
            rm -rf "$bench_tmp"
        else
            echo "run_checks: $bench build failed; diff skipped"
        fi
    done
fi

if [ "$status" -eq 0 ]; then
    echo "run_checks: all differential checks passed"
else
    echo "run_checks: FAILURES above" >&2
fi
exit $status
