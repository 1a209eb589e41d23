"""Run configuration: bounds and output mode."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RunConfig:
    p_max: int = 6
    dimension_budget: int = 20000
    output: str = "json"

    def __post_init__(self):
        for name in _INT_KEYS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {value!r}")
        for name, least in (("p_max", 0), ("dimension_budget", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if self.output not in ("json", "table"):
            raise ValueError("output must be 'json' or 'table'")


_INT_KEYS = ("p_max", "dimension_budget")


def load_config(path: str | None = None, **overrides) -> RunConfig:
    """Defaults, then config file, then explicit overrides."""
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
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
