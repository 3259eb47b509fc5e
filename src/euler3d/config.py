"""Run configuration: one JSON document, flag overrides on top-level keys."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError
from .structures import STRUCTURES


@dataclass
class Tolerances:
    identity: float = 1e-12
    rank: float = 2.0**-46
    divergence: float = 1e-10


@dataclass
class RunConfig:
    N: int = 1
    aniso: tuple[float, float, float] = (1.0, 1.0, 1.0)
    n_vector: tuple[float, float, float] = (1.0, 0.0, 0.0)
    structure: str = "projected"
    dt: float = 1e-3
    steps: int = 1000
    seed: int = 0
    amplitude: float = 1.0
    cases: int = 1000
    workers: int = 1
    observe_every: int = 10
    snapshot_every: int = 0
    initial: dict = field(default_factory=lambda: {"kind": "random"})
    shear: dict = field(
        default_factory=lambda: {"p": [1, 0, 0], "G": [0.0, 0.0, 1.0], "coefficients": {"1": [1.0, 0.0]}}
    )
    tolerances: Tolerances = field(default_factory=Tolerances)
    output_dir: str = "out"

    def validate(self) -> "RunConfig":
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if len(self.aniso) != 3 or any(not v > 0 for v in self.aniso):
            raise ConfigError(f"aniso must be three positive reals, got {self.aniso}")
        if len(self.n_vector) != 3 or sum(v != 0 for v in self.n_vector) != 1:
            raise ConfigError(f"n_vector must be a nonzero triple on a coordinate axis, got {self.n_vector}")
        if self.structure not in STRUCTURES:
            raise ConfigError(f"structure must be one of {STRUCTURES}, got {self.structure!r}")
        if self.dt == 0.0:
            raise ConfigError("dt must be nonzero")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not self.amplitude > 0:
            raise ConfigError(f"amplitude must be positive, got {self.amplitude}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.cases < 1:
            raise ConfigError(f"cases must be >= 1, got {self.cases}")
        if self.observe_every < 1:
            raise ConfigError("observe_every must be >= 1")
        if self.initial.get("kind") not in ("random", "snapshot", "shear"):
            raise ConfigError(f"initial.kind must be random|snapshot|shear, got {self.initial}")
        return self

    def shear_coefficients(self) -> dict[int, complex]:
        out: dict[int, complex] = {}
        for key, val in self.shear.get("coefficients", {"1": [1.0, 0.0]}).items():
            if isinstance(val, (int, float)):
                out[int(key)] = complex(val)
            else:
                re, im = val
                out[int(key)] = complex(re, im)
        return out


def _coerce(raw: dict) -> RunConfig:
    known = {f for f in RunConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = dict(raw)
    if "tolerances" in kwargs:
        tols = kwargs["tolerances"]
        if not isinstance(tols, dict) or set(tols) - {"identity", "rank", "divergence"}:
            raise ConfigError(f"bad tolerances block: {tols}")
        kwargs["tolerances"] = Tolerances(**tols)
    for key in ("aniso", "n_vector"):
        if key in kwargs:
            kwargs[key] = tuple(float(v) for v in kwargs[key])
    try:
        return RunConfig(**kwargs).validate()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Config from a JSON file plus ``key=value`` overrides (values are JSON)."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config JSON in {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text  # bare strings allowed
        raw[key.strip()] = value
    return _coerce(raw)
