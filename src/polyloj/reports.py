"""Deterministic JSON report envelopes for the command-line tools.

Every command emits a single JSON document: tool identity and version, the
command name, a schema tag, the settings the run was given, sha256 hashes of
the inputs, and the result.  Reports carry no timestamps or environment
data, so identical configurations give byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

TOOL_NAME = "polyloj"
VERSION = "0.1.0"


@dataclass(frozen=True)
class RunConfig:
    """The settings a run was given, serialized into its report: the seed
    and whichever of the others the command set (None is left out)."""

    seed: int = 0
    budget: Optional[int] = None
    trials: Optional[int] = None
    attempts: Optional[int] = None
    mode: Optional[str] = None
    samples: Optional[int] = None
    halfwidth: Optional[float] = None
    tolerances: Optional[tuple[tuple[str, float], ...]] = None

    def to_json(self) -> dict:
        data = {k: v for k, v in vars(self).items() if v is not None}
        if self.tolerances is not None:
            data["tolerances"] = dict(self.tolerances)
        return data


def input_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sanitize(value):
    """Replace non-finite floats so the emitted JSON stays standard."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "Infinity"
        if value == float("-inf"):
            return "-Infinity"
        return value
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def build_report(
    command: str,
    config: RunConfig,
    inputs: Sequence[tuple[str, str]],
    result: dict,
) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": VERSION},
        "command": command,
        "schema": f"{TOOL_NAME}/{command}/v1",
        "config": config.to_json(),
        "inputs": [
            {"name": name, "sha256": input_hash(text)} for name, text in inputs
        ],
        "result": result,
    }


def dumps(report: dict) -> str:
    return json.dumps(_sanitize(report), indent=2, sort_keys=True) + "\n"
