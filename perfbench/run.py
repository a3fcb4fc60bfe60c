#!/usr/bin/env python3
"""The repo benchmark.

    python3 perfbench/run.py --workload sym_alu|ddt_pcnet \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workload and metric names, units and
the default --seconds come from BENCHMARK.json there. The first run configures and builds
perfbench/ (the library from src/ plus the perfbench program) under
.bench_build/. Each exploration then runs in its own process, repeated
until --seconds have passed; every exploration's outputs are checked,
and the metrics are medians over the repeats. The last line of
standard output is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")


# Fewest repeats a run makes, whatever --seconds says.
MIN_REPEATS = {"sym_alu": 5, "ddt_pcnet": 5}
# One exploration may not take longer than this.
EXPLORE_TIMEOUT_S = 150

# sym_alu: 9 prologue instructions, 11 per loop iteration for 150000
# iterations, the forking test (2), then the two tails (3 and 5).
SYM_ALU_INSTRUCTIONS = 1650019
DDT_MAX_STATES = 256
# The DDT+ searcher seed of every timed exploration. --seed drives one
# more, checked exploration; 7 is the held-out seed for checking claims.
REFERENCE_SEARCHER_SEED = 42
DDT_EXPECTED_CLASSES = {
    42: {"data-race", "double-free", "kernel-panic", "leak", "null-deref"},
    7: {"data-race", "double-free", "kernel-panic", "leak", "null-deref"},
}
# Any searcher seed: classes found must be among DDT_CLASSES (the pcnet
# driver's six; overflow needs more states on seeds 42 and 7) and
# include DDT_CORE_CLASSES.
DDT_CLASSES = {"data-race", "double-free", "kernel-panic", "leak",
               "null-deref", "overflow"}
DDT_CORE_CLASSES = {"data-race", "double-free", "kernel-panic"}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_manifest():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configure once, then bring the build up to date (a no-op when
    nothing changed). Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing: run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    env = dict(os.environ, TMPDIR=tmp_dir())
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)


def tmp_dir():
    path = os.path.join(OUT, "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def explore(workload, seed, searcher_seed, work_dir, trace_path=None):
    """One exploration in its own process: the program's JSON record plus
    the process's peak resident set."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--searcher-seed", str(searcher_seed), "--out-dir", work_dir]
    if trace_path:
        cmd += ["--trace", trace_path]
    env = dict(os.environ, TMPDIR=tmp_dir())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    watchdog = threading.Timer(EXPLORE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        return None
    rec = json.loads(out.decode().strip().splitlines()[-1])
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return rec


def check(rec, expected_classes):
    """Problems with one exploration's outputs (empty when correct)."""
    run = rec["run"]
    problems = []

    def want(ok, what):
        if not ok:
            problems.append(what)

    want(stats.failed_path_frac(run) == 0, "paths lost to layer failures")
    want(run["killed_states"] == run["states_created"],
         "not every created path terminated")
    if rec["workload"] == "sym_alu":
        want(run["completed"] == 2 and run["states_created"] == 2,
             "sym_alu path count")
        want(run["instructions"] == SYM_ALU_INSTRUCTIONS,
             "sym_alu instruction count")
    else:
        want(run["states_created"] == DDT_MAX_STATES, "ddt path count")
        want(run["witnesses_emitted"] == run["states_created"],
             "a terminated ddt path has no witness")
        found = {kind for kind, _ in rec["bugs"]}
        if expected_classes is not None:
            want(found == expected_classes,
                 "bug classes %s" % sorted(found))
        else:
            want(DDT_CORE_CLASSES <= found <= DDT_CLASSES,
                 "bug classes %s" % sorted(found))
        want(stats.time_to_last_bug(rec["bugs"], rec["kills"],
                                     found) is not None,
             "a bug class has no terminated path")
    layers = rec.get("layers", {})
    want(layers.get("ladder.failures", 0) == 0, "ladder round trip failed")
    return problems


def consistent(recs):
    """Problems across repeats of one seed: every workload is serial, so
    the same paths and the same counts every time."""
    problems = []
    digests = {r["run"]["halted_digest"] for r in recs}
    if len(digests) > 1:
        problems.append("halted path set differs between repeats")
    for key in ("instructions", "states_created", "forks"):
        if len({r["run"][key] for r in recs}) > 1:
            problems.append("%s differs between repeats" % key)
    if len({tuple(sorted({k for k, _ in r["bugs"]})) for r in recs}) > 1:
        problems.append("bug classes differ between repeats")
    return problems


def end_to_end(rec, expected_classes):
    run = rec["run"]
    explore_s = rec["explore_s"]
    if rec["workload"] == "ddt_pcnet":
        ttlb = stats.time_to_last_bug(rec["bugs"], rec["kills"],
                                      expected_classes)
    else:
        # No bug classes: the fixed outcome is that every path ended.
        ttlb = rec["last_kill_s"]
    return {
        "explore_s": explore_s,
        "paths_per_s": run["states_created"] / explore_s,
        "instr_per_s": run["instructions"] / explore_s,
        "time_to_last_bug_s": ttlb,
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def per_layer(rec):
    run, c, layers = rec["run"], rec["counters"], rec["layers"]
    explore_s = rec["explore_s"]
    phases = [c["phase_translate_s"], c["phase_concrete_s"],
              c["phase_symbolic_s"], c["phase_solver_s"], c["phase_fork_s"]]
    unattributed = stats.unattributed_s(explore_s, phases)
    out = {
        "core.unattributed_s": unattributed,
        "core.unattributed_frac": unattributed / explore_s,
        "core.max_active_states": c["max_active_states"],
        "core.phase_concrete_s": c["phase_concrete_s"],
        "core.phase_symbolic_s": c["phase_symbolic_s"],
        "core.phase_fork_s": c["phase_fork_s"],
        "core.states_created": run["states_created"],
        "core.forks": run["forks"],
        "core.failed_path_frac": stats.failed_path_frac(run),
        "dbt.phase_translate_s": c["phase_translate_s"],
        "dbt.translations": c["translations"],
        "dbt.uops_executed": c["uops_executed"],
        "expr.nodes": c["expr_nodes"],
        "absint.static_prunes": c["static_prunes"],
        "solver.phase_s": c["phase_solver_s"],
        "solver.queries": c["solver_queries"],
        "solver.sat_queries": c["sat_queries"],
        "solver.ctx_reuses": c["ctx_reuses"],
        "lifecycle.accounted_peak_bytes": c["memory_high_watermark"],
        "replay.witnesses_emitted": run["witnesses_emitted"],
        "replay.extract_failures": run["witness_extract_failures"],
    }
    out.update((name, value) for name, value in layers.items()
               if name != "ladder.failures")
    return out


def summarize(name, unit, values):
    """Human-readable line: median, quartiles, sample count and the
    highest percentile with ten samples beyond it."""
    q1, q3 = stats.quartiles(values)
    line = "%-36s %14.6g %-8s q1 %.6g q3 %.6g n=%d" % (
        name, stats.median(values), unit, q1, q3, len(values))
    p = stats.reportable_percentile(len(values))
    if p is not None and p > 50:
        line += " p%g %.6g" % (p, stats.percentile(values, p))
    print(line)


def main():
    manifest = load_manifest()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in manifest["workloads"]])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float,
                    default=manifest["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work_dir = os.path.join(OUT, "run-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    try:
        result = measure(args, manifest, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, manifest, work_dir):
    workload, seed = args.workload, args.seed
    is_ddt = workload == "ddt_pcnet"
    expected = (DDT_EXPECTED_CLASSES[REFERENCE_SEARCHER_SEED] if is_ddt
                else None)
    trace_path = os.path.join(OUT, "trace-%s-seed%d.json" % (workload, seed))

    timed, traced, problems = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        # With --trace 1, untraced and traced explorations alternate so
        # both see the same machine conditions.
        with_trace = bool(args.trace) and len(traced) < len(timed)
        rec = explore(workload, seed, REFERENCE_SEARCHER_SEED, work_dir,
                      trace_path if with_trace else None)
        attempted += 1
        bad = ["exploration failed"] if rec is None else check(rec, expected)
        if bad:
            failed += 1
            problems += bad
        elif with_trace:
            traced.append(rec)
        else:
            timed.append(rec)
        done = len(timed) + len(traced)
        enough = (len(timed) >= MIN_REPEATS[workload] if not args.trace
                  else min(len(timed), len(traced)) >= 2)
        if (enough and time.monotonic() - start >= args.seconds) or \
                attempted >= 4 * max(done, MIN_REPEATS[workload]):
            break
    problems += consistent(timed + traced)

    if is_ddt and seed != REFERENCE_SEARCHER_SEED:
        # The seed's own exploration: the timed ones use the reference
        # searcher seed, this one checks DDT+ under the run's seed
        # against its recorded classes (seed 7) or the class range.
        rec = explore(workload, seed, seed, work_dir)
        attempted += 1
        bad = ["exploration failed"] if rec is None else check(
            rec, DDT_EXPECTED_CLASSES.get(seed))
        if bad:
            failed += 1
            problems += ["searcher seed %d: %s" % (seed, p) for p in bad]

    for p in sorted(set(problems)):
        print("perfbench: check failed: " + p, file=sys.stderr)
    metrics = {}
    if timed and (traced or not args.trace):
        metrics = (layer_metrics(manifest["per_layer"], timed, traced)
                   if args.trace
                   else e2e_metrics(manifest["end_to_end"], timed, expected))
    return {"correct": not problems and bool(metrics),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def e2e_metrics(table, timed, expected):
    series = {"setup_s": [s for r in timed for s in r["setup_s"]]}
    for rec in timed:
        for name, value in end_to_end(rec, expected).items():
            series.setdefault(name, []).append(value)
    return summarize_all(table, series)


def layer_metrics(table, timed, traced):
    series = {}
    for rec in traced:
        for name, value in per_layer(rec).items():
            series.setdefault(name, []).append(value)
    series["trace.overhead_frac"] = [stats.overhead_frac(
        [r["explore_s"] for r in traced], [r["explore_s"] for r in timed])]
    return summarize_all(table, series)


def summarize_all(table, series):
    """Median of each manifest metric, plus a human-readable line."""
    metrics = {}
    for m in table:
        name, unit = m["name"], m["unit"]
        summarize(name, unit, series[name])
        metrics[name] = {"value": stats.median(series[name]), "unit": unit}
    return metrics


if __name__ == "__main__":
    main()
