"""Runtime configuration: size limits and calibrated constants.

Loadable from a plain key=value file ('#' comments allowed), overridable
by CLI flags; unknown keys are rejected.  Every key is a finite positive
int or float.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .errors import InputError
from .gradoracle import DEFAULT_LIMIT, DEFAULT_LIMIT_R0
from .patterns import DEFAULT_PATTERN_LIMIT
from .separator import DEFAULT_C1, DEFAULT_MINOR_ATTEMPTS
from .textio import _data_lines
from .treedepth import DEFAULT_EXACT_LIMIT

ENV_VAR = "GRADKIT_CONFIG"


@dataclass
class Config:
    oracle_limit_r0: int = DEFAULT_LIMIT_R0
    oracle_limit: int = DEFAULT_LIMIT
    exact_treedepth_limit: int = DEFAULT_EXACT_LIMIT
    pattern_limit: int = DEFAULT_PATTERN_LIMIT
    separator_c1: float = DEFAULT_C1
    minor_attempts: int = DEFAULT_MINOR_ATTEMPTS
    default_k: int = 4

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise InputError(f"config key {f.name} must be finite, got {value}")
            if value <= 0:
                raise InputError(f"config key {f.name} must be positive, got {value}")


def load_config(path: str) -> Config:
    cfg = Config()
    known = {f.name: f.type for f in fields(Config)}
    for lineno, line in _data_lines(path):
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep:
            raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in known:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        convert = int if known[key] == "int" else float
        try:
            setattr(cfg, key, convert(value))
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    cfg.validate()
    return cfg


def resolve_config(flag_path: str | None) -> Config:
    """Config from --config flag, else $GRADKIT_CONFIG, else defaults."""
    path = flag_path or os.environ.get(ENV_VAR)
    if path:
        return load_config(path)
    return Config()
