"""Spans around the public names through which the CLI and the library
reach each groupkit layer.

The benchmark installs wrappers on module and class attributes, so the
program itself is unchanged; a call made under another name (a module's own
helper, say) is not a boundary and counts toward its caller.  A layer's self
time is its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
from time import perf_counter

# layer -> the attributes, as "module:attr" or "module:Class.attr", that
# lead into it.  Each name is the one its caller looks up at call time.
LAYERS = {
    "cli": ["groupkit.cli:main"],
    "groups.build": [
        "groupkit:build_group",
        "groupkit.groups:build_group",
        "groupkit.cli:build_group",
    ],
    "words.parse": ["groupkit.cli:parse_subset", "groupkit.cli:parse_element"],
    "report.render": ["groupkit.report:RunReport.to_json"],
    "products.mid": [
        "groupkit.products:mid_director_subgroups",
        "groupkit.products:mid_director",
        "groupkit.products:classify_mid",
        "groupkit.algorithms:mid_director_subgroups",
    ],
    "products.check": [
        "groupkit.products:set_product",
        "groupkit.products:is_direct_triple",
        "groupkit.products:is_right_transversal",
        "groupkit.products:is_middle_transversal",
    ],
    "algorithms.search": [
        "groupkit.cli:rta",
        "groupkit.cli:mta",
        "groupkit.cli:msfa",
        "groupkit.cli:extend_to_middle_transversal",
    ],
    "algorithms.validate": ["groupkit.algorithms:AlgoTrace.validate"],
    "algorithms.enumerate": [
        "groupkit.cli:enumerate_all_right_transversals",
        "groupkit.cli:enumerate_all_middle_transversals",
        "groupkit.cli:enumerate_all_middle_subfactors",
    ],
    "oracle.enumerate": [
        "groupkit.oracle:all_right_transversals",
        "groupkit.oracle:all_middle_transversals",
        "groupkit.oracle:all_maximal_direct_triples",
    ],
}


def _resolve(target: str):
    import importlib

    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records (layer, start, end, parent) spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append((layer, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(slot)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (layer, start, end, spans[slot][3])

        return traced

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take_self_times(self) -> dict[str, float]:
        """Self time per layer over the spans recorded since the last call,
        which are then dropped."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (layer, start, end, _) in enumerate(spans):
            out[layer] += end - start - child[i]
        spans.clear()
        return out
