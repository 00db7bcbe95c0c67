"""Run manifests: what ran, on which inputs, producing which outputs."""

from __future__ import annotations

import json
import os
import stat
import time
from dataclasses import dataclass, field

from .util import atomic_write_text, canonical_json, sha256_file, sha256_text


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int | None = None
    version: str = ""
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    wall_time_s: float = 0.0
    _t0: float = field(default_factory=time.monotonic, repr=False)

    def add_input(self, path: str) -> None:
        # hashing drains a pipe, which would then reach the stage empty
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ValueError(
                f"{path}: not a regular file: the run manifest hashes each input before the stage reads it"
            )
        self.inputs[path] = sha256_file(path)

    def add_output(self, path: str) -> None:
        self.outputs[path] = sha256_file(path)

    def finish(self) -> None:
        self.wall_time_s = time.monotonic() - self._t0

    @property
    def config_hash(self) -> str:
        return sha256_text(canonical_json(self.config))

    def to_json(self) -> str:
        obj = {
            "command": self.command,
            "config": self.config,
            "config_hash": self.config_hash,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "seed": self.seed,
            "version": self.version,
            "wall_time_s": round(self.wall_time_s, 6),
        }
        return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"

    def write(self, path: str) -> None:
        self.finish()
        atomic_write_text(path, self.to_json())
