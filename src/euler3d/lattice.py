"""Truncated, anisotropy-scaled integer wavenumber lattice.

Modes are nonzero integer triples ``a`` with ``|a_i| <= N``; the physical
wavevector of a mode is the componentwise scaling by the domain's unit
wavenumbers.  The zero mode is always excluded (the mean velocity and mean
vorticity vanish in the working frame of reference).

Indexing contract.  Modes are stored in lexicographic order of their integer
index.  Negation reverses that order and the zero mode is excluded, so in a
set of M modes ``-a`` sits at position ``M-1-pos(a)``, and the canonical
half-lattice (first nonzero component positive) is the upper half of the
positions.  ``pair_positions``, ``pair_table`` and ``positions`` mark a sum
that is not a mode with -1, and every gather of "the value at j + k" places
a zero where a -1 reads: the global tensor of ``structures`` appends a zero
row to the values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidModeError, OutOfLatticeError


@dataclass(frozen=True)
class AnisotropyMatrix:
    """Diagonal matrix of unit wavenumbers (1/length) of the periodic box."""

    nu_x: float = 1.0
    nu_y: float = 1.0
    nu_z: float = 1.0

    def __post_init__(self) -> None:
        if not (self.nu_x > 0 and self.nu_y > 0 and self.nu_z > 0):
            raise ValueError(f"unit wavenumbers must be positive, got {self}")

    def diagonal(self) -> np.ndarray:
        return np.array([self.nu_x, self.nu_y, self.nu_z], dtype=float)

    @classmethod
    def isotropic(cls) -> "AnisotropyMatrix":
        return cls(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class TruncationSpec:
    """Symmetric box truncation: integer mode indices with |a_i| <= N."""

    N: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"box half-width must be >= 1, got {self.N}")


def wavevector(a: Sequence[int], aniso: AnisotropyMatrix) -> np.ndarray:
    """Physical wavevector of integer mode ``a``: componentwise scaling."""
    arr = np.asarray(a, dtype=float)
    if not arr.any():
        raise InvalidModeError("the zero mode has no wavevector")
    return aniso.diagonal() * arr


def in_lattice(a: Sequence[int], trunc: TruncationSpec) -> bool:
    """True iff ``a`` is nonzero and inside the truncation box."""
    ax, ay, az = int(a[0]), int(a[1]), int(a[2])
    if ax == 0 and ay == 0 and az == 0:
        return False
    return max(abs(ax), abs(ay), abs(az)) <= trunc.N


class ModeSet:
    """Ordered set of lattice modes with conjugate-pair bookkeeping.

    Immutable after construction.  Mode order is lexicographic on the integer
    index, which fixes serialization and the assembly order of global tensors.
    The canonical half-lattice holds exactly one representative of each
    {a, -a} pair (the one whose first nonzero component is positive).
    """

    def __init__(self, indices: np.ndarray, aniso: AnisotropyMatrix, N: int):
        indices = np.asarray(indices, dtype=np.int64)
        order = np.lexsort((indices[:, 2], indices[:, 1], indices[:, 0]))
        self.indices = indices[order]
        self.indices.setflags(write=False)
        self.aniso = aniso
        self.N = int(N)
        self.wavevectors = self.indices * aniso.diagonal()[None, :]
        self.wavevectors.setflags(write=False)
        self.norms = np.linalg.norm(self.wavevectors, axis=1)
        self.norms.setflags(write=False)

        M = len(self.indices)
        if not np.array_equal(self.indices[::-1], -self.indices):
            raise ValueError("mode set not closed under negation")
        if M % 2:  # closed under negation, so the middle mode is zero
            raise InvalidModeError("the zero mode cannot be a lattice member")
        H = M // 2
        pos = np.arange(M, dtype=np.int64)
        self.neg_index = M - 1 - pos
        self.is_canonical = pos >= H
        self.half_positions = pos[H:]
        # slot in the half-lattice for each full position (via the +-pair)
        self.half_slot = np.where(self.is_canonical, pos - H, H - 1 - pos)
        # largest index magnitude B; the dense position grid covers every
        # pair sum, [-2B, 2B]^3, and -1 marks a point that is not a mode
        self.max_index = int(np.max(np.abs(self.indices)))
        self._reach = 2 * self.max_index
        width = 2 * self._reach + 1
        self._grid = np.full((width, width, width), -1, dtype=np.int64)
        self._grid[tuple((self.indices + self._reach).T)] = pos
        # flat offset of each mode from the grid's centre: offsets add, so
        # the sum a_j + a_k sits at offset(j) + offset(k) + centre
        self._strides = np.array([width * width, width, 1])
        self._offsets = self.indices @ self._strides
        self._centre = self._reach * (width * width + width + 1)
        for arr in (
            self.neg_index, self.is_canonical, self.half_positions, self.half_slot, self._grid, self._strides, self._offsets
        ):
            arr.setflags(write=False)
        self._pair_table: np.ndarray | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_indices(
        cls, indices: Iterable[Sequence[int]], aniso: AnisotropyMatrix, N: int | None = None
    ) -> "ModeSet":
        arr = np.asarray(list(indices), dtype=np.int64).reshape(-1, 3)
        if len(arr) == 0:
            raise ValueError("a ModeSet needs at least one mode")
        if len(set(map(tuple, arr.tolist()))) != len(arr):
            raise ValueError("duplicate modes in ModeSet construction")
        if N is None:
            N = int(np.max(np.abs(arr)))
        return cls(arr, aniso, N)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def half_size(self) -> int:
        return len(self.half_positions)

    def positions(self, a) -> np.ndarray:
        """Position of each integer triple of a (..., 3) array, -1 where it is not a mode.

        One bounds test against the grid, then one take at the flat offset
        ``a . strides + centre``; a point off the grid reads -1 without an
        offset, so no int64 product can wrap.
        """
        a = np.asarray(a)
        r = self._reach
        inside = ((a >= -r) & (a <= r)).all(axis=-1)
        a = np.where(inside[..., None], a, 0).astype(np.int64)
        return np.where(inside, self._grid.take(a @ self._strides + self._centre), -1)

    def __contains__(self, a) -> bool:
        return bool(self.positions(a) >= 0)

    def position_of(self, a) -> int:
        pos = int(self.positions(a))
        if pos < 0:
            raise OutOfLatticeError(f"mode {tuple(int(c) for c in a)} is not in the lattice")
        return pos

    def pair_positions(self, rows=slice(None)) -> np.ndarray:
        """(rows, M) positions of the sums a_j + a_k, j in ``rows`` and k any mode, -1 where not a mode.

        Equals ``positions(indices[rows, None] + indices[None])``: every pair
        sum lies inside the grid, so one add of flat offsets and one take
        find it, with no bounds test.
        """
        return self._grid.take(self._offsets[rows, None] + (self._offsets + self._centre))

    def pair_table(self) -> np.ndarray:
        """(M, M) table: position of mode a_i + a_j, or -1 if not a member.

        Cached; this is the triad-convolution index of the reduced tables.
        """
        if self._pair_table is None:
            table = self.pair_positions()
            table.setflags(write=False)
            self._pair_table = table
        return self._pair_table

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "N": self.N,
            "aniso": [self.aniso.nu_x, self.aniso.nu_y, self.aniso.nu_z],
            "modes": self.indices.tolist(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ModeSet":
        payload = json.loads(text)
        aniso = AnisotropyMatrix(*payload["aniso"])
        return cls.from_indices(payload["modes"], aniso, N=payload["N"])


def build_lattice(trunc: TruncationSpec, aniso: AnisotropyMatrix | None = None) -> ModeSet:
    """All nonzero integer triples in the symmetric box, lexicographic order."""
    if aniso is None:
        aniso = AnisotropyMatrix.isotropic()
    N = trunc.N
    rng = range(-N, N + 1)
    indices = [(ax, ay, az) for ax in rng for ay in rng for az in rng if (ax, ay, az) != (0, 0, 0)]
    return ModeSet(np.array(indices, dtype=np.int64), aniso, N)
