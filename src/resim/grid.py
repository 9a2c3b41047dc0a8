"""Structured Cartesian grid, cell indexing and geometric transmissibility."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# Floors applied at ingestion so zero-porosity / zero-permeability cells stay
# active without producing singular accumulation or flux terms.
PORO_FLOOR = 1e-6
PERM_FLOOR_MD = 1e-8


class FieldFormatError(ValueError):
    """Raised when a property file has the wrong value count or a bad token."""


@dataclass
class Grid:
    """Uniform structured grid with i-fastest (natural) cell ordering.

    Depth is measured positive downward from the surface; ``cell_depth``
    holds cell-center depths, increasing with k.
    """

    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    depth_top: float = 0.0
    cell_depth: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError(f"cell counts must be >= 1, got {(self.nx, self.ny, self.nz)}")
        if min(self.dx, self.dy, self.dz) <= 0:
            raise ValueError(f"cell sizes must be > 0, got {(self.dx, self.dy, self.dz)}")
        k = np.arange(self.ncell) // (self.nx * self.ny)
        self.cell_depth = self.depth_top + (k + 0.5) * self.dz

    @property
    def ncell(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy * self.dz

    def face_area(self, axis: int) -> float:
        if axis == 0:
            return self.dy * self.dz
        if axis == 1:
            return self.dx * self.dz
        if axis == 2:
            return self.dx * self.dy
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")

    def spacing(self, axis: int) -> float:
        return (self.dx, self.dy, self.dz)[axis]

    def stride(self, axis: int) -> int:
        return (1, self.nx, self.nx * self.ny)[axis]

    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)


def cell_index(i: int, j: int, k: int, grid: Grid) -> int:
    """Linear cell id for (i, j, k); i varies fastest."""
    if not (0 <= i < grid.nx and 0 <= j < grid.ny and 0 <= k < grid.nz):
        raise IndexError(f"cell ({i},{j},{k}) outside grid {grid.shape()}")
    return i + grid.nx * (j + grid.ny * k)


@dataclass
class RockFields:
    """Per-cell absolute permeability (md) and porosity (fraction)."""

    kx: np.ndarray
    ky: np.ndarray
    kz: np.ndarray
    poro: np.ndarray

    def __post_init__(self):
        n = len(self.poro)
        for name in ("kx", "ky", "kz"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length {len(getattr(self, name))} != poro length {n}")
        if np.any(self.poro > 1.0):
            raise ValueError("porosity above 1 found")

    @classmethod
    def uniform(cls, grid: Grid, k: float = 100.0, poro: float = 0.2,
                kz: float | None = None) -> "RockFields":
        n = grid.ncell
        kzv = k if kz is None else kz
        return cls(np.full(n, float(k)), np.full(n, float(k)),
                   np.full(n, float(kzv)), np.full(n, float(poro)))

    def clamped(self) -> "RockFields":
        """Clamp nonpositive permeability / porosity to the active-cell floors."""
        return RockFields(
            np.maximum(self.kx, PERM_FLOOR_MD),
            np.maximum(self.ky, PERM_FLOOR_MD),
            np.maximum(self.kz, PERM_FLOOR_MD),
            np.clip(self.poro, PORO_FLOOR, 1.0),
        )

    def perm(self, axis: int) -> np.ndarray:
        return (self.kx, self.ky, self.kz)[axis]


def directional_half_trans(grid: Grid, rock: RockFields, axis: int) -> np.ndarray:
    """Per-cell K*A/dd contribution (md*ft) in the given axis."""
    return rock.perm(axis) * (grid.face_area(axis) / grid.spacing(axis))


def face_transmissibilities(grid: Grid, rock: RockFields, axis: int) -> np.ndarray:
    """Vectorized face factors indexed by the lower cell of each face.

    Entry i is the factor of the face between cell i and cell i+stride(axis);
    entries whose cells have no such neighbor are zero.
    """
    t = directional_half_trans(grid, rock, axis)
    s = grid.stride(axis)
    out = np.zeros(grid.ncell)
    ia = np.nonzero(neighbor_mask(grid.shape(), axis, upper=True))[0]
    ta, tb = t[ia], t[ia + s]
    out[ia] = 2.0 * ta * tb / (ta + tb)
    return out


def neighbor_mask(shape, axis: int, upper: bool) -> np.ndarray:
    """Boolean mask over the cells of an (nx, ny, nz) grid, i fastest: the
    cell has a neighbor at +1 (``upper``) or at -1 in the given axis."""
    nx, ny, nz = shape
    n = shape[axis]
    pos = (np.arange(nx * ny * nz) // (1, nx, nx * ny)[axis]) % n
    return pos < n - 1 if upper else pos > 0


def _parse_tokens(source, what: str) -> np.ndarray:
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, bytes):
        data = data.decode("ascii")
    # one pass over the text without a token list; the token loop below reads
    # what fromstring refuses or makes non-finite, and names the bad token.
    # numpy releases that only warn and stop at unmatched text count as refusals.
    if not data.isspace():          # fromstring reads blank text as [-1.0]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                values = np.fromstring(data, sep=" ")
        except (ValueError, DeprecationWarning):
            pass
        else:
            if np.isfinite(values).all():
                return values
    values = []
    for pos, tok in enumerate(data.split()):
        try:
            value = float(tok)
        except ValueError:
            raise FieldFormatError(
                f"{what}: non-numeric token {tok!r} at position {pos}") from None
        if not math.isfinite(value):
            raise FieldFormatError(f"{what}: non-finite token {tok!r} at position {pos}")
        values.append(value)
    return np.array(values, dtype=float)


def load_spe10_fields(perm_source, poro_source, grid: Grid) -> RockFields:
    """Read SPE10-layout ASCII fields: kx, ky, kz blocks then porosity.

    Each block holds ncell whitespace-separated values in i-fastest order.
    Nonpositive entries are clamped to the active-cell floors.
    """
    n = grid.ncell
    perm = _parse_tokens(perm_source, "permeability")
    if len(perm) != 3 * n:
        raise FieldFormatError(
            f"permeability: expected {3 * n} values (3 x {n} cells), got {len(perm)}")
    poro = _parse_tokens(poro_source, "porosity")
    if len(poro) != n:
        raise FieldFormatError(f"porosity: expected {n} values, got {len(poro)}")
    fields = RockFields(perm[:n], perm[n:2 * n], perm[2 * n:], poro)
    return fields.clamped()
