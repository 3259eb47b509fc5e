"""Run configuration: one JSON document, flag overrides on top-level keys."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError
from .state import _finite_real
from .structures import STRUCTURES


#: the integer settings and their least values
COUNTS = {"N": 1, "steps": 1, "seed": 0, "cases": 1, "observe_every": 1, "snapshot_every": 0}


def _finite_reals(values, length: int | None = None) -> bool:
    """True for a list of ``_finite_real`` values, of ``length`` if given."""
    if not isinstance(values, (list, tuple)) or (length is not None and len(values) != length):
        return False
    return all(map(_finite_real, values))


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
    observe_every: int = 10
    snapshot_every: int = 0
    initial: dict = field(default_factory=lambda: {"kind": "random"})
    shear: dict = field(
        default_factory=lambda: {"p": [1, 0, 0], "G": [0.0, 0.0, 1.0], "coefficients": {"1": [1.0, 0.0]}}
    )
    tolerances: Tolerances = field(default_factory=Tolerances)
    output_dir: str = "out"

    def validate(self) -> "RunConfig":
        for name, least in COUNTS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if not _finite_reals(self.aniso, 3) or any(not v > 0 for v in self.aniso):
            raise ConfigError(f"aniso must be three positive finite reals, got {self.aniso}")
        if not _finite_reals(self.n_vector, 3) or sum(v != 0 for v in self.n_vector) != 1:
            raise ConfigError(f"n_vector must be a finite nonzero triple on a coordinate axis, got {self.n_vector}")
        self.aniso, self.n_vector = tuple(map(float, self.aniso)), tuple(map(float, self.n_vector))
        if self.structure not in STRUCTURES:
            raise ConfigError(f"structure must be one of {STRUCTURES}, got {self.structure!r}")
        if not _finite_reals([self.dt]) or self.dt == 0.0:
            raise ConfigError(f"dt must be a finite nonzero real, got {self.dt!r}")
        positive = {"amplitude": self.amplitude, **{f"tolerances.{k}": v for k, v in vars(self.tolerances).items()}}
        for name, value in positive.items():
            if not _finite_reals([value]) or not value > 0:
                raise ConfigError(f"{name} must be a positive finite real, got {value!r}")
        if not isinstance(self.initial, dict) or self.initial.get("kind") not in ("random", "snapshot", "shear"):
            raise ConfigError(f"initial must be an object with kind random|snapshot|shear, got {self.initial!r}")
        if self.initial["kind"] == "snapshot" and not isinstance(self.initial.get("path"), str):
            raise ConfigError("initial.kind=snapshot needs initial.path")
        if not isinstance(self.shear, dict) or not {"p", "G"} <= set(self.shear):
            raise ConfigError(f"shear must be an object with keys p and G, got {self.shear!r}")
        p, G = self.shear["p"], self.shear["G"]
        if not _finite_reals(p, 3) or any(not isinstance(c, int) for c in p) or not _finite_reals(G, 3):
            raise ConfigError(f"shear.p must be three integers and shear.G three finite reals, got {p!r}, {G!r}")
        coefficients = self.shear.get("coefficients", {})
        if not isinstance(coefficients, dict) or not all(
            _finite_real(c) or _finite_reals(c, 2) for c in coefficients.values()
        ):
            raise ConfigError(
                f"shear.coefficients must map each harmonic to a finite real or [re, im], got {coefficients!r}"
            )
        self.shear_coefficients()  # harmonic keys that are not integers raise ValueError
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
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
