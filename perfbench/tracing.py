"""Per-layer spans recorded from outside the program.

The tracer replaces public epsnet functions with timing wrappers at every
module attribute that holds them.  epsnet imports with ``from .x import
y``, so a function such as ``point_in_hull`` is bound in
``epsnet.geometry``, ``epsnet.gadgets`` and ``epsnet.verification`` alike,
and each binding is replaced by the same wrapper.  Wrappers are installed
only in a forked operation child, never in the parent, so untraced
operations run the unmodified program.

Spans (name, start, end, parent span) are kept in memory and handed back
when the operation ends.  A layer's self time is its span's duration minus
the time of wrapped calls nested inside it.  Hot predicates such as
``orient2d`` and ``point_in_convex_polygon`` are left unwrapped: they run
millions of times per operation and a wrapper would dominate their cost.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path) pairs; metric names are "<module>.<function>"
LAYERS = (
    ("cli", "main"),
    ("io_formats", "read_pointset"),
    ("io_formats", "dumps_json"),
    ("io_formats", "write_text_atomic"),
    ("io_formats", "pointset_digest"),
    ("svg", "render_svg"),
    ("constructions", "construct_box_triple_2d"),
    ("constructions", "construct_box_pair_highd"),
    ("constructions", "construct_convex_pair"),
    ("geometry", "PointSet.check_general_position"),
    ("geometry", "clip_polygon_halfplane"),
    ("geometry", "hull2d"),
    ("geometry", "point_in_hull"),
    ("geometry", "polytopes_intersect"),
    ("verification", "verify_weighted_net_boxes"),
    ("verification", "verify_weighted_net_convex"),
    ("verification", "pierceable_by_two"),
    ("ranges", "count_in_box"),
    ("ranges", "max_subset_avoiding"),
    ("linprog", "feasible_point"),
    ("linprog", "solve"),
    ("gadgets", "certify"),
    ("gadgets", "check_claim"),
)


NAMES = tuple(f"{m}.{a.rsplit('.', 1)[-1]}" for m, a in LAYERS)


class Tracer:
    """Span recorder for one operation; install() patches the program."""

    def __init__(self):
        self.spans = []  # [name index, parent span id, start, end]
        self.stack = []  # open span ids
        self.nested = []  # wrapped time inside each open span
        self.calls = [0] * len(NAMES)
        self.total = [0.0] * len(NAMES)
        self.self_time = [0.0] * len(NAMES)

    def _wrap(self, fn, index):
        spans, stack, nested = self.spans, self.stack, self.nested
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [index, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = nested.pop()
                span[2], span[3] = start, end
                duration = end - start
                self.calls[index] += 1
                self.total[index] += duration
                self.self_time[index] += duration - inner
                if nested:
                    nested[-1] += duration

        return wrapper

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "epsnet" or name.startswith("epsnet.")
        }
        for index, (module, attr) in enumerate(LAYERS):
            owner = modules["epsnet." + module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, index)
            if path:  # a method: one binding, on its class
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def totals(self) -> dict:
        return {
            name: [self.calls[i], self.total[i], self.self_time[i]]
            for i, name in enumerate(NAMES)
        }
