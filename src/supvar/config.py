"""Run configuration: bounds, seed, output mode."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

DEFAULT_SEED = 0xD15EA5E
SEED_ENV_VAR = "SUPVAR_SEED"


@dataclass(frozen=True)
class RunConfig:
    seed: int = DEFAULT_SEED
    samples_per_subset: int = 3
    p_max: int = 6
    dimension_budget: int = 20000
    output: str = "json"

    def __post_init__(self):
        for name in _INT_KEYS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {value!r}")
        for name, least in (("samples_per_subset", 1), ("p_max", 0), ("dimension_budget", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if self.output not in ("json", "table"):
            raise ValueError("output must be 'json' or 'table'")


_INT_KEYS = ("seed", "samples_per_subset", "p_max", "dimension_budget")


def load_config(path: str | None = None, env: dict | None = None, **overrides) -> RunConfig:
    """Defaults, then config file, then SUPVAR_SEED, then explicit overrides."""
    env = os.environ if env is None else env
    cfg = RunConfig()
    if path:
        values = {}
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if not eq:
                    raise ValueError(f"{path}:{number}: {line!r} is not 'key = value'")
                if key in _INT_KEYS:
                    try:
                        values[key] = int(value, 0)
                    except ValueError:
                        raise ValueError(f"{path}:{number}: {key} must be an int, "
                                         f"not {value!r}") from None
                elif key == "output":
                    values[key] = value
                else:
                    raise ValueError(f"{path}:{number}: unknown key {key!r}")
        cfg = replace(cfg, **values)
    if SEED_ENV_VAR in env:
        try:
            cfg = replace(cfg, seed=int(env[SEED_ENV_VAR], 0))
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an int, not {env[SEED_ENV_VAR]!r}") from None
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
