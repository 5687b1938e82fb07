"""Run configuration shared by the CLI commands.

Every emitted artifact embeds the full configuration so runs are
reproducible byte for byte: identical config and inputs give identical
files (no timestamps, fixed float formatting, stable key order).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields


@dataclass(frozen=True)
class RunConfig:
    format: str = "csv"
    precision: int = 17
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def load_config_file(path: str) -> dict:
    """Parse a flat `key = value` configuration file (comments with #)."""
    out: dict = {}
    valid = {f.name for f in fields(RunConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in valid:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            val = val.strip("\"'")
            out[key] = val if key == "format" else int(val)
    return out


def default_output_dir() -> str:
    return os.environ.get("DELTANLS_OUT", ".")
