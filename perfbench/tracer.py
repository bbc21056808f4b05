"""Span recorder that wraps stardecomp's public functions from outside the
program.

Each name is replaced in the module that looks it up at call time, so calls
between stardecomp's own functions pass through the wrapper.  A span records
its name, start and end (`time.perf_counter`), its parent span, the process
and the iteration's run id, plus an optional value (sampler tries, grid
points, ...) and the name of the exception it raised, if any.

Spans stay in memory.  The main process writes them out when the iteration
ends.  Pool workers forked inside a span exit through `os._exit`, which runs
no exit hooks, so a worker writes its spans out each time its outermost span
ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _grid_points(args, result):
    # check_condition calls pair_rate_grid(d, alpha, betas, taus).
    return len(args[2]) * len(args[3])


def _certified(args, result):
    return 1 if result.certified else 0


def _tries(args, result):
    return result[1]


def _infeasible(args, result):
    return 0 if type(result).__name__ == "Orientation" else 1


# (module, attribute, span name, value of the call).  `stardecomp/__init__.py`
# re-exports the function `certify`, so the module is reached through
# sys.modules rather than attribute access on the package.
WRAPPED = [
    ("stardecomp.cli", "main", "cli.main", None),
    ("stardecomp.cli", "sweep", "certify.sweep", None),
    ("stardecomp.cli", "sample_simple", "graphs.sample_simple", _tries),
    ("stardecomp.cli", "decompose", "decomp.decompose", None),
    ("stardecomp.cli", "read_graph", "graphs.read_graph", None),
    ("stardecomp.cli", "write_graph", "graphs.write_graph", None),
    ("stardecomp.cli", "read_decomposition", "decomp.read_decomposition", None),
    ("stardecomp.cli", "write_decomposition", "decomp.write_decomposition", None),
    ("stardecomp.cli", "verify_decomposition", "decomp.verify_decomposition", None),
    ("stardecomp.certify", "certify_degree", "certify.certify_degree", None),
    ("stardecomp.certify", "certify", "certify.certify", _certified),
    ("stardecomp.certify", "derive_dhat", "certify.derive_dhat", None),
    ("stardecomp.certify", "beta_max", "certify.beta_max", None),
    ("stardecomp.certify", "check_condition", "certify.check_condition", None),
    ("stardecomp.certify", "pair_rate_grid", "certify.pair_rate_grid", _grid_points),
    ("stardecomp.certify", "pair_rate", "entropy.pair_rate", None),
    ("stardecomp.entropy", "bisect_root", "entropy.bisect_root", None),
    ("stardecomp.decomp", "greedy_independent_set", "graphs.greedy_independent_set", None),
    ("stardecomp.decomp", "check_thin", "graphs.check_thin", None),
    ("stardecomp.decomp", "induced_subgraph", "graphs.induced_subgraph", None),
    ("stardecomp.decomp", "thin_down", "decomp.thin_down", None),
    ("stardecomp.decomp", "relief_trim", "decomp.relief_trim", None),
    ("stardecomp.decomp", "in_regular_orientation", "decomp.in_regular_orientation", _infeasible),
    ("stardecomp.decomp", "stars_from_orientation", "decomp.stars_from_orientation", None),
    ("stardecomp.decomp", "verify_decomposition", "decomp.verify_decomposition", None),
]


class Tracer:
    """Records spans for one iteration; `path_prefix` + `-<pid>.spans` is the
    file each process writes."""

    def __init__(self, run_id, path_prefix):
        self.run_id = run_id
        self.path_prefix = path_prefix
        self.spans = []
        self.stack = []
        # Span ids carry the pid so that ids from forked workers never clash.
        self.next_id = os.getpid() << 32
        # Depth of the inherited stack in a forked worker; 0 in the main process.
        self.fork_depth = 0

    def install(self):
        for module, attr, name, value_of in WRAPPED:
            mod = sys.modules[module]
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, value_of))
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # The worker inherits the parent's open spans as its stack, so its
        # outermost spans name the span that forked it as their parent.
        self.spans = []
        self.next_id = os.getpid() << 32
        self.fork_depth = len(self.stack)

    def _wrap(self, fn, name, value_of):
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.next_id += 1
            sid = self.next_id
            parent = self.stack[-1] if self.stack else 0
            self.stack.append(sid)
            value = err = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(args, result)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, name, start, end, value, err))
                if self.fork_depth and len(self.stack) == self.fork_depth:
                    self.flush()

        return wrapper

    def flush(self):
        """Append this process's recorded spans to its file and forget them."""
        pid = os.getpid()
        with open(f"{self.path_prefix}-{pid}.spans", "a") as fh:
            for sid, parent, name, start, end, value, err in self.spans:
                fh.write(f"{self.run_id}\t{pid}\t{sid}\t{parent}\t{name}\t"
                         f"{start!r}\t{end!r}\t{value}\t{err}\n")
        self.spans = []


class Span:
    __slots__ = ("run_id", "pid", "sid", "parent", "name", "start", "end",
                 "value", "err")

    def __init__(self, line):
        run_id, pid, sid, parent, name, start, end, value, err = \
            line.rstrip("\n").split("\t")
        self.run_id = run_id
        self.pid = int(pid)
        self.sid = int(sid)
        self.parent = int(parent)
        self.name = name
        self.start = float(start)
        self.end = float(end)
        self.value = None if value == "None" else int(value)
        self.err = None if err == "None" else err

    @property
    def duration(self):
        return self.end - self.start


def read_spans(paths):
    spans = []
    for path in paths:
        with open(path) as fh:
            spans.extend(Span(line) for line in fh)
    return spans
