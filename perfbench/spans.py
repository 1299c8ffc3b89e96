"""Spans recorded from outside the package, and their self times.

The tracer replaces each layer function with a timing wrapper in every
linkscope module namespace that binds it, so calls made inside the package
(placement.mmp calling its own import of triconnected_components, say) are
timed as well, and spans nest.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# The layer boundaries the per-layer metrics are taken at, as
# "<module>.<function>" in the module that defines the function.
LAYER_FUNCTIONS = (
    "graph.parse_graph",
    "connectivity.cut_vertices",
    "connectivity.is_k_vertex_connected",
    "connectivity.is_k_edge_connected",
    "decomposition.biconnected_components",
    "decomposition.triconnected_components",
    "identifiability.enumerate_monitor_paths",
    "identifiability.build_matrix",
    "identifiability.identifiable_links",
    "identifiability.simulate",
    "identifiability.recover",
    "tomography.condition_1",
    "tomography.condition_2",
    "tomography.prop2_characterization",
    "tomography.extend",
    "witness.find_lemma3_witness",
    "witness.find_lemma4_witness",
    "witness.is_case_b_link",
    "witness.all_cycles",
    "witness.is_nonseparating_cycle",
    "placement.mmp",
    "placement.verify_placement",
    "cli.main",
)

# A span keeps a small summary of its function's result, never the result
# itself, so that large matrices are freed as usual.
SUMMARIES = {
    "decomposition.triconnected_components": len,
    "identifiability.enumerate_monitor_paths": len,
    "identifiability.identifiable_links": lambda report: report.rank,
}

# Span fields, stored as lists for speed.
NAME, PARENT, INSTANCE, START, END, ERROR, RESULT = range(7)


class Tracer:
    """Collects spans; each span is [name, parent, instance, start, end,
    error type name or None, result summary]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.instance, time.perf_counter(), None, None, None])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def end(self, sid: int, error: BaseException | None = None, result=None) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[ERROR] = type(error).__name__ if error is not None else None
        span[RESULT] = result
        self._stack.pop()

    def end_instance(self, root: int) -> None:
        """Close an instance's root span, and any span a deadline left open
        under it."""
        now = time.perf_counter()
        while self._stack and self._stack[-1] != root:
            self._stack.pop()
        for span in self.spans[root:]:
            if span[END] is None:
                span[END] = now
        self._stack.pop()

    def _wrap(self, name: str, fn):
        summary = SUMMARIES.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # a PathExplosionError carries the cap it hit
                self.end(sid, exc, getattr(exc, "cap", None))
                raise
            self.end(sid, result=summary(result) if summary else None)
            return result

        return timed

    def install(self, package: str = "linkscope") -> None:
        """Wrap every LAYER_FUNCTIONS entry wherever a module of the package
        binds it."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for qualname in LAYER_FUNCTIONS:
            home, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"{package}.{home}"], fn_name)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
