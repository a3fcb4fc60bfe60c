"""Arithmetic of the repo benchmark: order statistics over repeated
explorations and the derived metrics built from one exploration's raw
measurements. Pure functions, tested by test_stats.py."""

import statistics

# Percentiles the summary may report, highest last.
PERCENTILES = (50, 90, 95, 99, 99.9)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4)
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def reportable_percentile(n, beyond=10):
    """The highest of PERCENTILES that has at least `beyond` of `n`
    samples above it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if round(n * (100 - p) / 100, 6) >= beyond:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def time_to_last_bug(bugs, kills, expected=None):
    """Seconds until every expected bug class has a terminated path.

    `bugs` is a list of (class, state id) reports and `kills` maps a
    state id (int or its decimal string) to the time that state was
    killed. A class is witnessed when the first state that carries it
    terminates; the result is the latest of those times over the
    `expected` classes (all reported classes when None). None when an
    expected class has no terminated state."""
    stamps = {int(k): t for k, t in kills.items()}
    first = {}
    for kind, state_id in bugs:
        t = stamps.get(int(state_id))
        if t is not None and (kind not in first or t < first[kind]):
            first[kind] = t
    classes = first.keys() if expected is None else expected
    if not classes or any(c not in first for c in classes):
        return None
    return max(first[c] for c in classes)


def failed_path_frac(run):
    """Paths lost to a layer failure, as a share of paths created."""
    lost = (run["solver_failures"] + run["spill_failures"] +
            run["aborted"] + run["witness_extract_failures"])
    return lost / run["states_created"]


def unattributed_s(explore_s, phase_seconds):
    """Wall-clock of a serial exploration outside the profiler's phases,
    clamped at 0 (the phases are timed separately and can sum to a
    little more than the whole)."""
    return max(0.0, explore_s - sum(phase_seconds))


def overhead_frac(traced, untraced):
    """Relative cost of tracing, from the two sets' medians."""
    return median(traced) / median(untraced) - 1.0
