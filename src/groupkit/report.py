"""Structured run reports with a stable JSON form.

Element sets serialize as their canonical names in ascending index order, so
two runs with the same picks produce byte-identical JSON (timing aside).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

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


@dataclass
class RunReport:
    command: str
    group: Group
    inputs: dict
    result: dict
    warnings: list[str] = field(default_factory=list)
    timing_ms: float = 0.0
    exit_code: int = 0

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
        return json.dumps(self.to_dict(), indent=2)


def load_schema() -> dict:
    """The RunReport JSON schema shipped with the package."""
    text = resources.files("groupkit").joinpath("schema/runreport.schema.json").read_text()
    return json.loads(text)
