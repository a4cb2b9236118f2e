"""In-memory spans around the public functions of the ``delone`` modules.

The tracer replaces each public function at every module attribute that
holds it (``hierarchy.count_occurrences`` and ``ue.count_occurrences``
are the same function object, reached through two names), so calls are
recorded whichever name the caller resolves.  ``cli.main`` is the only
wrapped name of ``cli``: its self time is argument parsing plus output
formatting.  Two hot helpers are counted without spans, because a deep
sliding count calls them about 600k times: ``materialize_region`` (every
recursive call) and ``HierarchySpec.side``.

Spans stay in memory until :meth:`Tracer.write`.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict

import delone
from delone import choquet, cli, hierarchy, maps, nonrect, patch, rectlab, sampling, suites, ue

MODULES = [choquet, cli, hierarchy, maps, nonrect, patch, rectlab, sampling, suites, ue]
METHOD_SPANS = [(hierarchy.HierarchySpec, "count_matrix", "hierarchy.count_matrix")]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = -1
        self.spans: list[list] = []  # [id, parent, job, name, start, end, tags]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._region_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        region = hierarchy.materialize_region
        wrappers: dict[int, object] = {}
        for mod in MODULES:
            for attr, fn in vars(mod).items():
                if not _public_function(fn) or (mod is cli and attr != "main") or fn is region:
                    continue
                if id(fn) not in wrappers:
                    home = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[id(fn)] = self._wrap(f"{home}.{fn.__name__}", fn)
        for mod in [delone, *MODULES]:
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrappers and _public_function(fn):
                    self._set(mod, attr, wrappers[id(fn)])
        for cls, attr, name in METHOD_SPANS:
            self._set(cls, attr, self._wrap(name, getattr(cls, attr)))
        self._set(hierarchy, "materialize_region", self._count_region(region))
        self._set(hierarchy.HierarchySpec, "side", self._count_side(hierarchy.HierarchySpec.side))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def _set(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tag = TAGGERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [len(self.spans), self._stack[-1] if self._stack else None, self.job, name,
                   time.perf_counter(), None, None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()
            if tag is not None:
                rec[6] = tag(args, kwargs, res)
            return res

        return span

    def _count_side(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def side(spec, level):
            if self.enabled:
                counts["hierarchy.HierarchySpec.side.calls"] += 1
            return fn(spec, level)

        return side

    def _count_region(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def region(spec, level, pid, x0, y0, w, h):
            if not self.enabled:
                return fn(spec, level, pid, x0, y0, w, h)
            counts["hierarchy.materialize_region.calls"] += 1
            if self._region_depth:
                return fn(spec, level, pid, x0, y0, w, h)
            # outermost call: the cells of one seam band (or corner) piece
            counts["hierarchy.materialize_region.cells"] += w * h
            self._region_depth = 1
            try:
                return fn(spec, level, pid, x0, y0, w, h)
            finally:
                self._region_depth = 0

        return region

    # -- output ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, job, name, t0, t1, tags in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                     "start": t0, "end": t1, "tags": tags}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _public_function(obj) -> bool:
    return (isinstance(obj, types.FunctionType) and not obj.__name__.startswith("_")
            and obj.__module__.startswith("delone."))


# -- span tags -----------------------------------------------------------

def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _tag_count(args, kwargs, res):
    spec, level = args[0], _arg(args, kwargs, 2, "level")
    return {"kind": spec.kind, "level": level, "side": spec.base[0].width * _branching(spec, level)}


def _branching(spec, level) -> int:
    out = 1
    for lv in spec.levels[: level - 1]:
        out *= lv.branching
    return out


def _tag_materialize(args, kwargs, res):
    return {"cells": res.width * res.height}


def _tag_scan(args, kwargs, res):
    grid, needle = args[0], args[1]
    H, W = grid.shape
    w, h = needle.width, needle.height
    x_lo = _arg(args, kwargs, 2, "x_lo", 0)
    x_hi = _arg(args, kwargs, 3, "x_hi")
    y_lo = _arg(args, kwargs, 4, "y_lo", 0)
    y_hi = _arg(args, kwargs, 5, "y_hi")
    x_hi = W - w if x_hi is None else min(x_hi, W - w)
    y_hi = H - h if y_hi is None else min(y_hi, H - h)
    placements = max(0, x_hi - x_lo + 1) * max(0, y_hi - y_lo + 1)
    return {"cells": H * W, "placements": placements, "hits": int(res)}


TAGGERS = {
    "hierarchy.count_occurrences": _tag_count,
    "hierarchy.materialize": _tag_materialize,
    "hierarchy.scan_count": _tag_scan,
}
