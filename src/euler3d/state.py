"""Vorticity fields in Fourier coordinates.

A state stores one complex 3-vector per canonical half-lattice mode; the
value at the opposite mode is defined as the complex conjugate.  Reality is
therefore structural: no operation can break it.  Reduced states store the
two dynamical components seen in each mode's rotation frame, with the
matching signature-twisted reality rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotDivergenceFreeError, OutOfLatticeError
from .frames import FrameSet, SIGNATURE_2D
from .lattice import ModeSet

#: divergence tolerance for subspace checks, relative to the peak amplitude
DIVERGENCE_RTOL = 1e-10


class VorticityState:
    """Complex vorticity coefficients over a ModeSet, half-lattice storage."""

    def __init__(self, modes: ModeSet, values: np.ndarray | None = None):
        self.modes = modes
        if values is None:
            values = np.zeros((modes.half_size, 3), dtype=complex)
        else:
            values = np.array(values, dtype=complex)
            if values.shape != (modes.half_size, 3):
                raise ValueError(
                    f"expected ({modes.half_size}, 3) half-lattice values, got {values.shape}"
                )
        values.setflags(write=False)
        self.values = values

    # -- access -------------------------------------------------------------

    def value_at(self, a) -> np.ndarray:
        pos = self.modes.position_of(a)
        v = self.values[self.modes.half_slot[pos]]
        return v if self.modes.is_canonical[pos] else np.conj(v)

    def with_mode(self, a, value) -> "VorticityState":
        """New state with the mode at ``a`` replaced (conjugate pair updated)."""
        value = np.asarray(value, dtype=complex).reshape(3)
        pos = self.modes.position_of(a)
        new = self.values.copy()
        slot = self.modes.half_slot[pos]
        new[slot] = value if self.modes.is_canonical[pos] else np.conj(value)
        return VorticityState(self.modes, new)

    def full_values(self) -> np.ndarray:
        """(M, 3) values over all modes in lattice order, conjugates filled."""
        full = self.values[self.modes.half_slot]
        return np.where(self.modes.is_canonical[:, None], full, np.conj(full))

    @property
    def amp_max(self) -> float:
        if self.values.size == 0:
            return 0.0
        return float(np.max(np.abs(self.values)))

    # -- constraints ----------------------------------------------------------

    def divergence_residual(self) -> float:
        """max over modes of |j . omega_j|."""
        if self.values.size == 0:
            return 0.0
        wv = self.modes.wavevectors[self.modes.half_positions]
        return float(np.max(np.abs(np.einsum("hd,hd->h", wv, self.values))))

    def is_divergence_free(self, rtol: float = DIVERGENCE_RTOL) -> bool:
        return self.divergence_residual() <= rtol * max(self.amp_max, 1e-300)


def random_divfree_state(modes: ModeSet, seed: int, amplitude: float) -> VorticityState:
    """Random state on the divergence-free subspace, deterministic in seed.

    Components are sampled uniformly in the centered square of side
    ``2*amplitude`` and then projected mode by mode.
    """
    if not amplitude > 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    rng = np.random.default_rng(seed)
    H = modes.half_size
    raw = rng.uniform(-amplitude, amplitude, size=(2, H, 3))
    vals = raw[0] + 1j * raw[1]
    wv = modes.wavevectors[modes.half_positions]
    n2 = np.einsum("hd,hd->h", wv, wv)
    vals = vals - wv * (np.einsum("hd,hd->h", wv, vals) / n2)[:, None]
    return VorticityState(modes, vals)


class ReducedState:
    """Dynamical 2-component coordinates in the per-mode rotation frames."""

    def __init__(self, modes: ModeSet, values: np.ndarray | None = None):
        self.modes = modes
        if values is None:
            values = np.zeros((modes.half_size, 2), dtype=complex)
        else:
            values = np.array(values, dtype=complex)
            if values.shape != (modes.half_size, 2):
                raise ValueError(
                    f"expected ({modes.half_size}, 2) half-lattice values, got {values.shape}"
                )
        values.setflags(write=False)
        self.values = values

    def value_at(self, a) -> np.ndarray:
        pos = self.modes.position_of(a)
        v = self.values[self.modes.half_slot[pos]]
        return v if self.modes.is_canonical[pos] else SIGNATURE_2D @ np.conj(v)

    def full_values(self) -> np.ndarray:
        """(M, 2) values over all modes; opposite modes carry the twisted conjugate."""
        full = self.values[self.modes.half_slot]
        twisted = np.conj(full) * np.array([-1.0, 1.0])
        return np.where(self.modes.is_canonical[:, None], full, twisted)

    @property
    def amp_max(self) -> float:
        if self.values.size == 0:
            return 0.0
        return float(np.max(np.abs(self.values)))


def to_reduced(state: VorticityState, frames: FrameSet, rtol: float = DIVERGENCE_RTOL) -> ReducedState:
    """Rotate each mode into its frame and drop the divergence component.

    Raises NotDivergenceFreeError when the dropped component would have been
    dynamically relevant (divergence residual above tolerance).
    """
    modes = state.modes
    scale = max(state.amp_max, 1e-300)
    if state.divergence_residual() > rtol * scale:
        raise NotDivergenceFreeError(
            f"divergence residual {state.divergence_residual():.3e} exceeds "
            f"{rtol:.1e} x amplitude {scale:.3e}"
        )
    half = modes.half_positions
    checked = np.einsum("hab,hb->ha", frames.R[half], state.values)
    # first checked component is the divergence over |j|; already bounded above
    return ReducedState(modes, checked[:, 1:])


def from_reduced(reduced: ReducedState, frames: FrameSet) -> VorticityState:
    """Rebuild the full coordinates; exactly divergence-free by construction."""
    modes = reduced.modes
    half = modes.half_positions
    checked = np.zeros((modes.half_size, 3), dtype=complex)
    checked[:, 1:] = reduced.values
    vals = np.einsum("hab,ha->hb", frames.R[half], checked)
    return VorticityState(modes, vals)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of the conservation time series."""

    t: float
    energy: float
    helicity: float
    div_max: float
    amp_max: float

    def __post_init__(self) -> None:
        for name in ("t", "energy", "helicity", "div_max", "amp_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite diagnostic {name}={getattr(self, name)}")


# -- snapshots ----------------------------------------------------------------


def _lattice_header(modes: ModeSet) -> dict:
    return {"N": modes.N, "aniso": modes.aniso.diagonal().tolist()}


def snapshot_dict(state: VorticityState, t: float = 0.0) -> dict:
    entries = []
    for slot, pos in enumerate(state.modes.half_positions):
        v = state.values[slot]
        entries.append(
            {
                "a": [int(c) for c in state.modes.indices[pos]],
                "re": [float(x) for x in v.real],
                "im": [float(x) for x in v.imag],
            }
        )
    return {"t": float(t), **_lattice_header(state.modes), "modes": entries}


def snapshot_json(state: VorticityState, t: float = 0.0) -> str:
    return json.dumps(snapshot_dict(state, t))


def state_from_snapshot(modes: ModeSet, payload: dict | str) -> tuple[VorticityState, float]:
    """(state, t) from a snapshot; OutOfLatticeError unless its N and aniso are the lattice's."""
    if isinstance(payload, str):
        payload = json.loads(payload)
    for key, want in _lattice_header(modes).items():
        if payload.get(key) != want:  # a missing field reads None
            raise OutOfLatticeError(f"snapshot {key}={payload.get(key)} does not match the lattice {key}={want}")
    values = np.zeros((modes.half_size, 3), dtype=complex)
    for entry in payload["modes"]:
        pos = modes.position_of(entry["a"])
        if not modes.is_canonical[pos]:
            raise OutOfLatticeError(f"snapshot mode {entry['a']} is not canonical")
        values[modes.half_slot[pos]] = np.array(entry["re"]) + 1j * np.array(entry["im"])
    return VorticityState(modes, values), float(payload["t"])
