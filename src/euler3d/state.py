"""Vorticity fields in Fourier coordinates.

A state stores one complex row per canonical half-lattice mode; the value
at the opposite mode is defined from it.  Reality is therefore structural:
no operation can break it.  Vorticity states store 3-vectors, whose value at
-j is the complex conjugate.  Reduced states store the two dynamical
components seen in each mode's rotation frame, with the matching
signature-twisted conjugate.  Both are one half-lattice class.

Rows are found by the layout of ``lattice`` alone: of M = 2H modes, the
one at position ``pos`` is stored at row ``pos - H`` when ``pos >= H``, and
otherwise is the opposite of row ``H - 1 - pos``.  The full values are
therefore the opposite of the reversed rows followed by the rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotDivergenceFreeError, OutOfLatticeError
from .frames import FrameSet, SIGNATURE_2D, check_frames, leray_project
from .lattice import ModeSet

#: divergence tolerance for subspace checks, relative to the peak amplitude
DIVERGENCE_RTOL = 1e-10


class HalfLatticeState:
    """Complex coefficients over a ModeSet, half-lattice storage.

    ``values`` holds one row of ``components`` entries per canonical mode.
    The row at the opposite mode is the conjugate times ``twist``; subclasses
    set the twist and the component count, and nothing else.  A twist of
    None is the plain conjugate: a complex product with ones is not exact
    (it can flip the sign of a zero and turn an infinity into a NaN).
    """

    components: int
    twist: np.ndarray | None

    def __init__(self, modes: ModeSet, values: np.ndarray | None = None):
        self.modes = modes
        shape = (modes.half_size, self.components)
        if values is None:
            values = np.zeros(shape, dtype=complex)
        else:
            values = np.array(values, dtype=complex)
            if values.shape != shape:
                raise ValueError(f"expected {shape} half-lattice values, got {values.shape}")
        values.setflags(write=False)
        self.values = values

    def _opposite(self, v: np.ndarray) -> np.ndarray:
        """Value at -j from the value at j, and back: the twist is its own inverse."""
        return np.conj(v) if self.twist is None else np.conj(v) * self.twist

    def value_at(self, a) -> np.ndarray:
        pos, H = self.modes.position_of(a), self.modes.half_size
        return self.values[pos - H] if pos >= H else self._opposite(self.values[H - 1 - pos])

    def with_mode(self, a, value):
        """New state with the mode at ``a`` replaced (opposite mode updated)."""
        value = np.asarray(value, dtype=complex).reshape(self.components)
        pos, H = self.modes.position_of(a), self.modes.half_size
        new = self.values.copy()
        if pos >= H:
            new[pos - H] = value
        else:
            new[H - 1 - pos] = self._opposite(value)
        return type(self)(self.modes, new)

    def full_values(self) -> np.ndarray:
        """(M, components) values over all modes in lattice order, opposite modes filled."""
        return np.concatenate([self._opposite(self.values[::-1]), self.values])

    @cached_property
    def amp_max(self) -> float:
        if self.values.size == 0:
            return 0.0
        return float(np.max(np.abs(self.values)))


class VorticityState(HalfLatticeState):
    """Vorticity coefficients; the value at -j is the conjugate of that at j."""

    components = 3
    twist = None

    def divergence_residual(self) -> float:
        """max over modes of |j . omega_j|."""
        if self.values.size == 0:
            return 0.0
        wv = self.modes.wavevectors[self.modes.half_size :]
        return float(np.max(np.abs(np.einsum("hd,hd->h", wv, self.values))))


class ReducedState(HalfLatticeState):
    """Dynamical 2-component coordinates in the per-mode rotation frames.

    Frames at opposite modes differ by SIGNATURE, so the value at -j is
    diag(SIGNATURE_2D) times the conjugate of that at j.
    """

    components = 2
    twist = SIGNATURE_2D.diagonal()


def random_divfree_state(modes: ModeSet, seed: int, amplitude: float) -> VorticityState:
    """Random state on the divergence-free subspace, deterministic in seed.

    Components are sampled uniformly in the centered square of side
    ``2*amplitude`` and then projected mode by mode.
    """
    if not amplitude > 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-amplitude, amplitude, size=(2, modes.half_size, 3))
    vals = raw[0] + 1j * raw[1]
    return VorticityState(modes, leray_project(modes.wavevectors[modes.half_size :], vals))


def to_reduced(state: VorticityState, frames: FrameSet, rtol: float = DIVERGENCE_RTOL) -> ReducedState:
    """Rotate each mode into its frame and drop the divergence component.

    Raises NotDivergenceFreeError when the dropped component would have been
    dynamically relevant (divergence residual above tolerance).
    """
    modes = state.modes
    check_frames(frames, modes)
    scale = max(state.amp_max, 1e-300)
    if state.divergence_residual() > rtol * scale:
        raise NotDivergenceFreeError(
            f"divergence residual {state.divergence_residual():.3e} exceeds "
            f"{rtol:.1e} x amplitude {scale:.3e}"
        )
    # the dropped first component is the divergence over |j|; already bounded above
    return ReducedState(modes, np.einsum("hab,hb->ha", frames.transverse, state.values))


def from_reduced(reduced: ReducedState, frames: FrameSet) -> VorticityState:
    """Rebuild the full coordinates; exactly divergence-free by construction."""
    modes = reduced.modes
    check_frames(frames, modes)
    return VorticityState(modes, np.einsum("hab,ha->hb", frames.transverse, reduced.values))


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


_SNAPSHOT_CHUNK = 1024  # modes encoded per json.dumps call


def _snapshot_parts(state: VorticityState, t: float):
    """The text of ``json.dumps`` of the snapshot object, {"t", "N", "aniso",
    "modes": [{"a", "re", "im"}, ...]}, in pieces: the "modes" list is encoded
    _SNAPSHOT_CHUNK entries at a time, so only one chunk of modes is ever held
    as Python objects (the whole list takes about 900 bytes a mode)."""
    modes = state.modes
    head = json.dumps({"t": float(t), **_lattice_header(modes), "modes": []})
    yield head[: -len("[]}")] + "["
    indices = modes.indices[modes.half_size :]
    for lo in range(0, modes.half_size, _SNAPSHOT_CHUNK):
        rows = slice(lo, lo + _SNAPSHOT_CHUNK)
        v = state.values[rows]
        entries = [
            {"a": a, "re": re, "im": im}
            for a, re, im in zip(indices[rows].tolist(), v.real.tolist(), v.imag.tolist())
        ]
        yield (", " if lo else "") + json.dumps(entries)[1:-1]
    yield "]}"


def snapshot_json(state: VorticityState, t: float = 0.0) -> str:
    return "".join(_snapshot_parts(state, t))


def write_snapshot(fh, state: VorticityState, t: float = 0.0) -> None:
    """Write ``snapshot_json(state, t)`` to the text file ``fh`` piece by piece."""
    fh.writelines(_snapshot_parts(state, t))


def _finite_real(value) -> bool:
    """True for a finite int or float (not a bool) that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _three(v, kinds) -> bool:
    """True iff ``v`` is a list of three ``kinds`` values; a JSON boolean is not a number."""
    return isinstance(v, list) and len(v) == 3 and all(isinstance(c, kinds) and not isinstance(c, bool) for c in v)


def state_from_snapshot(modes: ModeSet, payload: dict | str) -> tuple[VorticityState, float]:
    """(state, t) from a snapshot; OutOfLatticeError unless its N and aniso are the lattice's.

    A body that is not a snapshot (no finite numeric ``t``, no ``modes`` list, an entry without
    ``a``, ``re`` and ``im``, an ``a`` that is not three integers or repeats an earlier one, or
    ``re``/``im`` not three finite numbers each) raises ValueError.
    """
    if isinstance(payload, str):
        payload = json.loads(payload)
    if not isinstance(payload, dict):
        raise ValueError("snapshot is not a JSON object")
    for key, want in _lattice_header(modes).items():
        if payload.get(key) != want:  # a missing field reads None
            raise OutOfLatticeError(f"snapshot {key}={payload.get(key)} does not match the lattice {key}={want}")
    t, entries = payload.get("t"), payload.get("modes")
    if not _finite_real(t) or not isinstance(entries, list):
        raise ValueError("snapshot needs a finite number 't' and a list 'modes'")
    values, seen = np.zeros((modes.half_size, 3), dtype=complex), set()
    for entry in entries:
        if not isinstance(entry, dict) or not {"a", "re", "im"} <= entry.keys():
            raise ValueError(f"snapshot mode entry {entry!r} needs 'a', 're' and 'im'")
        a = entry["a"]
        if not _three(a, int):
            raise ValueError(f"snapshot mode index {a!r} is not three integers")
        re, im = entry["re"], entry["im"]
        if not (_three(re, (int, float)) and _three(im, (int, float)) and all(map(_finite_real, re + im))):
            raise ValueError(f"snapshot mode {a}: 're' and 'im' must hold three finite numbers each")
        row = modes.position_of(a) - modes.half_size
        if row < 0:
            raise OutOfLatticeError(f"snapshot mode {a} is not canonical")
        if row in seen:
            raise ValueError(f"snapshot mode {a} is given twice")
        seen.add(row)
        values[row] = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    return VorticityState(modes, values), float(t)
