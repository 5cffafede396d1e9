"""Spans, call aggregates and host sampling for the benchmark.

Spans (name, start, end, parent) are recorded around the benchmark's calls
into the engine's public functions and kept in memory; ``Tracer.dump``
writes them out when the run ends.  Hot per-mention matcher steps are
recorded as aggregates (calls, total and self seconds per name) instead of
one span per call.  A span's self time is its duration minus the part of it
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        # name -> [calls, total_s, self_s, true_results]
        self.agg: dict[str, list] = {}
        self._agg_stack: list[list] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the union of its children."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: dict[str, float] = {}
        for s in self.spans:
            covered, last = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, last), min(b, s["end"])
                if b > a:
                    covered += b - a
                    last = b
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out

    def aggregate(self, name: str, fn):
        """*fn* wrapped to add its calls into the aggregate *name*; a call's
        self time excludes time spent in other aggregated calls it makes."""
        stack = self._agg_stack
        slot = self.agg.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - frame[0]
            if result is True:
                slot[3] += 1
            return result

        return wrapped

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "aggregates": {
                k: dict(zip(("calls", "total_s", "self_s", "true"), v))
                for k, v in self.agg.items()}, **extra}, f)


@contextmanager
def patched(obj, attr: str, replacement):
    """Temporarily replace ``obj.attr``."""
    orig = getattr(obj, attr)
    setattr(obj, attr, replacement)
    try:
        yield orig
    finally:
        setattr(obj, attr, orig)


def _cpu_jiffies() -> tuple[int, int, int]:
    """(busy, steal, total) jiffies from /proc/stat's cpu line."""
    with open("/proc/stat") as f:
        user, nice, sys_, idle, iow, irq, sirq, steal = (int(x) for x in f.readline().split()[1:9])
    busy = user + nice + sys_ + irq + sirq
    return busy, steal, busy + idle + iow + steal


def _tree_rss_bytes(root: int) -> int:
    """Summed RSS of *root* and all its descendant processes."""
    parent, rss = {}, {}
    page = os.sysconf("SC_PAGE_SIZE")
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parent[int(pid)] = int(fields[1])
        rss[int(pid)] = int(fields[21]) * page
    total, frontier = 0, {root}
    while frontier:
        total += sum(rss.get(p, 0) for p in frontier)
        frontier = {p for p, pp in parent.items() if pp in frontier}
    return total


class HostSampler:
    """Peak summed RSS of this process tree, sampled on a thread, plus the
    box-wide CPU busy and steal fractions over the sampled window."""

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.peak_rss = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.is_set():
            self.peak_rss = max(self.peak_rss, _tree_rss_bytes(os.getpid()))
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._j0 = _cpu_jiffies()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_rss = max(self.peak_rss, _tree_rss_bytes(os.getpid()))
        j1 = _cpu_jiffies()
        total = max(1, j1[2] - self._j0[2])
        self.busy_frac = (j1[0] - self._j0[0]) / total
        self.steal_frac = (j1[1] - self._j0[1]) / total
