"""Spans at slpencil's module boundaries, installed from the benchmark's side.

Each traced name is replaced, in the module that calls it, by a wrapper that
records a span (name, start, end, thread, parent, count) in memory.  The
parent is the innermost open span of the same thread; a task submitted to a
thread pool (the second formal-power family runs on one) starts under the
span that submitted it.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import slpencil.cli as cli
import slpencil.problems as problems
import slpencil.rootfinding as rootfinding
import slpencil.spps as spps
import slpencil.zakharov as zakharov


def _points(args, result):
    return int(np.size(args[1]))


def _nodes(args, result):
    return int(np.shape(args[1])[0])


def _roots(args, result):
    return len(result)


# (owner, attribute, span name, count function); the owner is the module that
# makes the call, so each call is seen once, at the boundary it crosses
TARGETS = [
    (cli, "run_solve", "cli.run_solve", None),
    (cli, "load_config", "cli.config", None),
    (cli, "_relative_residual", "cli.residual_filter", None),
    (cli, "_merge_records", "cli.merge", None),
    (cli, "_write_outputs", "cli.output", None),
    (cli, "parse_expr", "expressions.parse", None),
    (cli, "evaluate_on_grid", "expressions.sample", None),
    (cli, "materialize_potential", "zakharov.potential", None),
    (cli, "zs_to_pencil", "zakharov.to_pencil", None),
    (cli, "zs_particular_solution", "zakharov.v0", None),
    (cli, "build_particular_solution", "spps.particular", None),
    (cli, "build_formal_powers", "spps.formal_powers", None),
    (cli, "chain_particular_solution", "spps.chain_u0", None),
    (cli, "shift_pencil", "problems.shift_pencil", None),
    (cli, "two_point_series", "problems.characteristic", None),
    (cli, "poly_roots", "rootfinding.poly_roots", _roots),
    (cli, "newton_polish", "rootfinding.newton_polish", None),
    (cli, "localize", "rootfinding.localize", None),
    (cli, "certify", "rootfinding.certify", None),
    (spps, "build_formal_powers", "spps.formal_powers", None),
    (spps, "_cumulative_values", "grids.cumulative", _nodes),
    (spps, "cumulative_integral", "grids.cumulative_integral", None),
    (zakharov, "cumulative_integral", "grids.cumulative_integral", None),
    (rootfinding, "winding_number", "rootfinding.winding", None),
    (rootfinding, "residue_refine", "rootfinding.residue_refine", None),
    (rootfinding, "newton_polish", "rootfinding.newton_polish", None),
    (problems.CharacteristicSeries, "__call__", "problems.series_eval", _points),
    (problems.CharacteristicSeries, "deriv", "problems.series_eval", _points),
]

LAYERS = ("expressions", "grids", "spps", "problems", "zakharov", "rootfinding", "cli")


class Tracer:
    """Installs the wrappers for the duration of a with block."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stacks: dict[int, list[int]] = defaultdict(lambda: [-1])
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, name, count in TARGETS:
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, count))
        self._patch(ThreadPoolExecutor, "submit",
                    self._wrap_submit(ThreadPoolExecutor.submit))
        return self

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap_submit(self, submit):
        stacks = self._stacks

        @functools.wraps(submit)
        def wrapper(pool, fn, *args, **kwargs):
            parent = stacks[threading.get_ident()][-1]

            def task(*a, **k):
                stack = stacks[threading.get_ident()]
                stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()

            return submit(pool, task, *args, **kwargs)

        return wrapper

    def _wrap(self, fn, name, count):
        spans, stacks, lock = self.spans, self._stacks, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stacks[threading.get_ident()]
            parent = stack[-1]
            with lock:
                idx = len(spans)
                spans.append(None)
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                n = count(args, result) if count and result is not None else 1
                spans[idx] = (name, start, end, threading.get_ident(), parent, n)

        return wrapper

    def reset(self):
        self.spans.clear()

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, (name, start, end, tid, parent, n) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "thread": tid,
                                     "parent": parent, "count": n}) + "\n")


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_self_times(spans) -> dict[str, float]:
    """Wall time of each layer, attributing every instant to the deepest open
    span (across threads).  The layers add up to the root spans' wall time."""
    depth = []
    events = []
    for i, (name, start, end, tid, parent, n) in enumerate(spans):
        depth.append(depth[parent] + 1 if parent >= 0 else 0)
        layer = name.split(".")[0]
        events.append((start, 1, depth[i], layer))
        events.append((end, -1, depth[i], layer))
    events.sort(key=lambda e: (e[0], e[1]))
    open_at: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    out = dict.fromkeys(LAYERS, 0.0)
    prev = None
    for t, kind, d, layer in events:
        if prev is not None and t > prev:
            live = [k for k, v in open_at.items() if any(v.values())]
            if live:
                deepest = open_at[max(live)]
                owner = max(lay for lay, c in deepest.items() if c)
                out[owner] = out.get(owner, 0.0) + (t - prev)
        open_at[d][layer] += kind
        prev = t
    return out


def round_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced solve round."""
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append((i, s))

    def calls(name):
        return float(len(by[name]))

    def busy(name):
        return sum(s[2] - s[1] for _, s in by[name])

    def total(name):
        return float(sum(s[5] for _, s in by[name]))

    m = {}
    m["grids.cumulative.calls"] = calls("grids.cumulative")
    m["grids.cumulative.busy_s"] = busy("grids.cumulative")
    nodes = total("grids.cumulative")
    m["grids.cumulative.ns_per_node"] = 1e9 * busy("grids.cumulative") / nodes if nodes else 0.0

    children = defaultdict(list)
    for _, s in by["grids.cumulative"]:
        children[s[4]].append((s[1], s[2]))
    fp_wall = fp_self = grid_union = grid_busy = 0.0
    for i, s in by["spps.formal_powers"]:
        kids = children.get(i, [])
        u = _union(kids)
        fp_wall += s[2] - s[1]
        fp_self += s[2] - s[1] - u
        grid_union += u
        grid_busy += sum(hi - lo for lo, hi in kids)
    m["spps.formal_powers.calls"] = calls("spps.formal_powers")
    m["spps.formal_powers.wall_s"] = fp_wall
    m["spps.formal_powers.self_s"] = fp_self
    m["spps.formal_powers.overlap"] = grid_busy / grid_union if grid_union else 0.0
    m["spps.chain_u0.calls"] = calls("spps.chain_u0")
    m["spps.chain_u0.busy_s"] = busy("spps.chain_u0")
    m["problems.shift_pencil.busy_s"] = busy("problems.shift_pencil")
    m["problems.series_eval.points"] = total("problems.series_eval")
    m["problems.series_eval.busy_s"] = busy("problems.series_eval")
    m["rootfinding.localize.busy_s"] = busy("rootfinding.localize")
    m["rootfinding.winding.contours"] = calls("rootfinding.winding")
    m["rootfinding.winding.busy_s"] = busy("rootfinding.winding")
    m["rootfinding.residue_refine.busy_s"] = busy("rootfinding.residue_refine")
    m["rootfinding.newton_polish.calls"] = calls("rootfinding.newton_polish")
    m["rootfinding.newton_polish.busy_s"] = busy("rootfinding.newton_polish")
    m["rootfinding.poly_roots.calls"] = calls("rootfinding.poly_roots")
    m["rootfinding.poly_roots.roots"] = total("rootfinding.poly_roots")
    m["rootfinding.poly_roots.busy_s"] = busy("rootfinding.poly_roots")
    m["cli.merge.busy_s"] = busy("cli.merge")
    m["cli.config.busy_s"] = busy("cli.config")
    m["expressions.sample.busy_s"] = busy("expressions.sample")
    m["zakharov.potential.busy_s"] = busy("zakharov.potential")
    for layer, secs in layer_self_times(spans).items():
        m[f"{layer}.self_s"] = secs
    return m


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
