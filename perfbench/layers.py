"""Per-layer metrics computed from the spans of one traced iteration.

A span's self time is its duration minus the part of it that its child spans
cover; children that ran in parallel pool workers are merged first, so no
instant is subtracted twice.
"""

from __future__ import annotations

from collections import defaultdict

# Metrics that count work.  Two traced iterations at one seed must agree on
# every one of them exactly.
COUNTS = [
    "certify.pair_rate_grid.calls",
    "certify.pair_rate_grid.points",
    "certify.pair_rate_grid.bytes_computed",
    "entropy.pair_rate.calls",
    "entropy.bisect_root.calls",
    "certify.certify_degree.calls",
    "certify.certify.calls",
    "certify.exceptional_count",
    "graphs.sample_simple.calls",
    "graphs.sample_simple.tries",
    "graphs.greedy_independent_set.calls",
    "decomp.decompose.calls",
    "decomp.attempts",
    "decomp.attempts_failed.orientation",
    "decomp.attempts_failed.adjust_size",
    "cli.main.calls",
]

FLOAT64_BYTES = 8


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans, exceptional_count):
    """Every per-layer metric of one traced iteration (0 where a layer did no
    work).  `exceptional_count` comes from the sweep output, not from spans."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_time(name):
        return sum(s.duration - _covered(children[s.sid], s.start, s.end)
                   for s in by_name[name])

    def value_sum(name):
        return sum(s.value or 0 for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    points = value_sum("certify.pair_rate_grid")
    grid_s = total("certify.pair_rate_grid")
    m["certify.pair_rate_grid.calls"] = calls("certify.pair_rate_grid")
    m["certify.pair_rate_grid.points"] = points
    m["certify.pair_rate_grid.s"] = grid_s
    m["certify.pair_rate_grid.points_per_s"] = ratio(points, grid_s)
    # Computed from the array shapes: one float64 output per grid point.
    m["certify.pair_rate_grid.bytes_computed"] = points * FLOAT64_BYTES
    m["certify.check_condition.self_s"] = self_time("certify.check_condition")
    m["certify.beta_max.self_s"] = self_time("certify.beta_max")
    m["entropy.pair_rate.calls"] = calls("entropy.pair_rate")
    m["entropy.pair_rate.s"] = total("entropy.pair_rate")
    m["certify.derive_dhat.self_s"] = self_time("certify.derive_dhat")
    m["entropy.bisect_root.calls"] = calls("entropy.bisect_root")
    m["entropy.bisect_root.s"] = total("entropy.bisect_root")

    degree_ms = [s.duration * 1e3 for s in by_name["certify.certify_degree"]]
    m["certify.certify_degree.calls"] = len(degree_ms)
    m["certify.certify_degree.p50_ms"] = _percentile(degree_ms, 50)
    m["certify.certify_degree.p99_ms"] = _percentile(degree_ms, 99)
    m["certify.certify.calls"] = calls("certify.certify")
    m["certify.certified_per_attempt"] = ratio(
        value_sum("certify.certify"), calls("certify.certify"))
    m["certify.exceptional_count"] = exceptional_count or 0

    # Busy time per process that certified degrees: the pool workers with
    # --threads > 1, else the CLI process itself.
    busy = defaultdict(float)
    for s in by_name["certify.certify_degree"]:
        busy[s.pid] += s.duration
    sweep_s = total("certify.sweep")
    m["certify.sweep.worker_busy_s.max"] = max(busy.values(), default=0.0)
    m["certify.sweep.worker_busy_s.min"] = min(busy.values(), default=0.0)
    m["certify.sweep.idle_frac"] = (
        1.0 - ratio(sum(busy.values()), len(busy) * sweep_s) if busy else 0.0)

    tries = value_sum("graphs.sample_simple")
    sample_s = total("graphs.sample_simple")
    m["graphs.sample_simple.calls"] = calls("graphs.sample_simple")
    m["graphs.sample_simple.tries"] = tries
    m["graphs.sample_simple.s"] = sample_s
    m["graphs.sample_simple.us_per_try"] = ratio(sample_s * 1e6, tries)
    m["graphs.greedy_independent_set.calls"] = calls("graphs.greedy_independent_set")
    m["graphs.greedy_independent_set.s"] = total("graphs.greedy_independent_set")
    m["graphs.check_thin.s"] = total("graphs.check_thin")
    m["graphs.induced_subgraph.s"] = total("graphs.induced_subgraph")

    m["decomp.thin_down.self_s"] = self_time("decomp.thin_down")
    for name in ("relief_trim", "in_regular_orientation",
                 "stars_from_orientation", "verify_decomposition"):
        m[f"decomp.{name}.s"] = total(f"decomp.{name}")
    decompose_ids = {s.sid for s in by_name["decomp.decompose"]}
    attempts = sum(1 for s in by_name["graphs.greedy_independent_set"]
                   if s.parent in decompose_ids)
    m["decomp.decompose.calls"] = len(decompose_ids)
    m["decomp.attempts"] = attempts
    m["decomp.attempts_failed.orientation"] = value_sum("decomp.in_regular_orientation")
    m["decomp.attempts_failed.adjust_size"] = sum(
        1 for s in by_name["decomp.relief_trim"] if s.err == "SetTooSmall")
    m["decomp.success_per_attempt"] = ratio(
        sum(1 for s in by_name["decomp.decompose"] if s.err is None), attempts)

    for name in ("graphs.read_graph", "graphs.write_graph",
                 "decomp.read_decomposition", "decomp.write_decomposition"):
        m[f"{name}.s"] = total(name)
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_time("cli.main")
    return m
