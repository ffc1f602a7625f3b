"""Structured run reports with a stable JSON form.

Element sets serialize as their canonical names in ascending index order, so
two runs with the same picks produce byte-identical JSON (timing aside).
"""

from __future__ import annotations

import json
import math
import os
from json.encoder import encode_basestring_ascii as _quote

from .algorithms import AlgoTrace
from .groups import Group


def trace_payload(trace: AlgoTrace, full: bool) -> dict:
    """The trace's JSON form; the chain's sets are listed only when full."""
    g = trace.group
    return {
        "algorithm": trace.algorithm,
        "policy": trace.policy,
        "chosen": [g.names[i] for i in trace.chosen],
        "n_steps": trace.n_steps,
        "chain_sizes": trace.chain_sizes,
        "chain_sets": [c.names() for c in trace.chain_sets] if full else None,
        "output": trace.output.names(),
        "extension_start": trace.extension_start,
    }


class RunReport:
    __slots__ = ("command", "group", "inputs", "result", "warnings", "timing_ms", "exit_code")

    def __init__(
        self,
        command: str,
        group: Group,
        inputs: dict,
        result: dict,
        warnings: list[str] | None = None,
        timing_ms: float = 0.0,
        exit_code: int = 0,
    ) -> None:
        self.command, self.group, self.inputs, self.result = command, group, inputs, result
        self.warnings, self.timing_ms, self.exit_code = warnings or [], timing_ms, exit_code

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "group": {
                "description": self.group.description,
                "kind": self.group.kind,
                "order": self.group.order,
            },
            "inputs": self.inputs,
            "result": self.result,
            "warnings": list(self.warnings),
            "timing_ms": self.timing_ms,
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        """to_dict() as json.dumps(..., indent=2) writes it, byte for byte."""
        return _dumps(self.to_dict(), "\n")


def _dumps(obj, newline: str) -> str:
    """obj as json.dumps(obj, indent=2) writes it, where newline is the
    line break and indent of the line obj starts on.  json.dumps takes its
    pure-Python encoder when it indents.  Here what a report holds is
    written directly: dicts with str keys, lists (one join over a C-level
    map for a list of only strs or only exact ints), strs, exact ints,
    bools, None and finite floats.  Anything else is json.dumps's own text
    with its line breaks indented, which is safe because JSON text holds no
    raw newline."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if t is float and math.isfinite(obj):
        return float.__repr__(obj)
    inner = newline + "  "
    if t is list:
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types == {str}:
            items = map(_quote, obj)
        elif types == {int}:
            items = map(int.__repr__, obj)
        else:
            items = (_dumps(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if t is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        items = (_quote(k) + ": " + _dumps(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(obj, indent=2).replace("\n", newline)


def load_schema() -> dict:
    """The RunReport JSON schema shipped with the package, read from beside
    this file, where the wheel's package data puts it too."""
    path = os.path.join(os.path.dirname(__file__), "schema", "runreport.schema.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)
