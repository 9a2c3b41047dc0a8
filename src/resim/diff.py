"""Forward-mode value/derivative bundles for property evaluation.

Cell quantities carry partial derivatives with respect to the cell's own
unknowns (p_o, s_w and, for black oil, the third switched unknown).  A
bundle with ``d is None`` is a value-only evaluation (used for
residual-only assembly).  Face fluxes, which depend on two cells, are
differentiated by hand in ``resim.model._stream_flux``.
"""

from __future__ import annotations

import numpy as np


class CellVal:
    """Array of per-cell values with derivatives w.r.t. that cell's unknowns.

    v: (n,), d: (nder, n) or None; d[k] holds every cell's derivative with
    respect to unknown k, one contiguous row, so bundles combine row by row.
    """

    __slots__ = ("v", "d")
    __array_ufunc__ = None  # defer ndarray <op> CellVal to our reflected ops

    def __init__(self, v, d=None):
        self.v = np.asarray(v, dtype=float)
        self.d = d

    @classmethod
    def const(cls, v, nder=None):
        v = np.asarray(v, dtype=float)
        d = None if nder is None else np.zeros((nder, v.shape[0]))
        return cls(v, d)

    @classmethod
    def var(cls, v, slot, nder):
        """Independent unknown occupying derivative slot ``slot``."""
        v = np.asarray(v, dtype=float)
        d = np.zeros((nder, v.shape[0]))
        d[slot] = 1.0
        return cls(v, d)

    @classmethod
    def lift(cls, v, dv_dx, x: "CellVal"):
        """Univariate chain rule: f(x) with pointwise derivative dv_dx."""
        d = None if x.d is None else np.asarray(dv_dx) * x.d
        return cls(v, d)

    def __add__(self, other):
        if isinstance(other, CellVal):
            return CellVal(self.v + other.v, _addd(self.d, other.d))
        return CellVal(self.v + other, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CellVal):
            return CellVal(self.v - other.v, _subd(self.d, other.d))
        return CellVal(self.v - other, self.d)

    def __rsub__(self, other):
        return CellVal(other - self.v, None if self.d is None else -self.d)

    def __mul__(self, other):
        if isinstance(other, CellVal):
            d = _addd(_scale(self.d, other.v), _scale(other.d, self.v))
            return CellVal(self.v * other.v, d)
        return CellVal(self.v * other, _scale(self.d, np.asarray(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, CellVal):
            inv = 1.0 / other.v
            d = _subd(_scale(self.d, inv), _scale(other.d, self.v * inv * inv))
            return CellVal(self.v * inv, d)
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        inv = 1.0 / self.v
        val = np.asarray(other) * inv
        return CellVal(val, _scale(self.d, -val * inv))


def _addd(a, b):
    if a is None:
        return None if b is None else b.copy()
    if b is None:
        return a.copy()
    return a + b


def _subd(a, b):
    if a is None:
        return None if b is None else -b
    if b is None:
        return a.copy()
    return a - b


def _scale(d, s):
    if d is None:
        return None
    return d * s

