"""In-memory spans around the calls into each ibrownian layer.

A span is (name, start, end, parent index).  The benchmark opens spans
around its own calls into a layer; in a traced round ``install`` also
wraps the module-level names through which one layer calls another, and
takes the wrappers away again afterwards, so untraced rounds run the
library untouched.  Span names start with their layer: ``core``,
``models``, ``kernels``, ``sampling``, ``sde``, ``stats``, or ``bench``
for the benchmark's own code between calls.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

import numpy as np


class NullTracer:
    """Records nothing; the untraced rounds use it."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.points: Counter = Counter()
        self._stack = [-1]

    def _open(self, name: str):
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1]))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, *, count_points: bool = False):
        def wrapper(*args, **kwargs):
            if count_points:
                self.points[name] += int(np.size(args[0] if args else kwargs["x"]))
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def self_times(self, lo: int = 0, hi: int | None = None) -> tuple[dict, dict, Counter]:
        """Self time, total time and call count per span name over spans[lo:hi].

        Self time is a span's duration minus the durations of its direct
        children, so the self times of one root's subtree sum to the
        root's duration.
        """
        spans = self.spans[lo:hi]
        dur = np.array([end - start for _, start, end, _ in spans])
        parent = np.array([p - lo if p >= lo else -1 for *_, p in spans], dtype=int)
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=len(spans))
        own: dict = {}
        total: dict = {}
        calls: Counter = Counter()
        for (name, *_), s, d in zip(spans, self_t, dur):
            own[name] = own.get(name, 0.0) + float(s)
            total[name] = total.get(name, 0.0) + float(d)
            calls[name] += 1
        return own, total, calls

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s, e, p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "names": names, "spans": rows}, fh)


def install(tracer: Tracer):
    """Wrap the cross-layer call sites; returns a function that undoes it."""
    import ibrownian.kernels
    import ibrownian.sde
    import ibrownian.stats
    from ibrownian.core import RngStream

    targets = [
        (ibrownian.sde, "drift_finite_all", "models.drift_finite_all", False),
        (ibrownian.sde, "drift_limit_truncated_all", "models.drift_limit_truncated_all", False),
        (ibrownian.sde, "diffusion_sigma", "models.diffusion_sigma", False),
        (ibrownian.stats, "truncated_drift_at", "models.truncated_drift_at", False),
        # sample_airy_field imports airy_fn from this module at call time
        (ibrownian.kernels, "airy_fn", "kernels.airy_fn", True),
        (RngStream, "generator", "core.rng_generator", False),
    ]
    saved = []
    for owner, attr, name, count in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count_points=count))

    def restore() -> None:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return restore
