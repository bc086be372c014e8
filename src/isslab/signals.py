"""Piecewise-constant vector-valued time signals.

A :class:`Signal` is the computable stand-in for a locally integrable input
function: a strictly increasing grid of breakpoints and one constant vector
value per cell.  All norms downstream (L^p, Luxemburg) are therefore exact
sums of rectangle terms.

The seeded generator uses numpy's Philox bit generator, a 64-bit
counter-based RNG, so experiment inputs are bit-reproducible across runs
and platforms for a fixed seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError

__all__ = ["Interval", "Signal", "restrict", "random_signal", "write_csv"]

# e**x overflows double precision just above this exponent
_EXP_OVERFLOW = 700.0
# a norm below this has a subnormal sum of squares, which loses digits
_TINY_NORM = math.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class Interval:
    """A time interval [t0, t1] with t1 > t0."""

    t0: float
    t1: float

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise DomainError("interval endpoints must be finite")
        if self.t0 < 0:
            raise DomainError(f"t0 must be >= 0, got {self.t0}")
        if self.t1 <= self.t0:
            raise DomainError(f"need t1 > t0, got [{self.t0}, {self.t1}]")

    @property
    def length(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Signal:
    """Piecewise-constant function of time with values in R^d.

    grid    -- strictly increasing breakpoints, length n+1
    values  -- cell values, shape (n, d)
    """

    grid: np.ndarray
    values: np.ndarray
    d: int = field(init=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if grid.ndim != 1 or grid.size < 2:
            raise DataError("grid must be a 1-d array with at least 2 breakpoints")
        if np.any(np.diff(grid) <= 0):
            raise DataError("grid breakpoints must be strictly increasing")
        if values.shape[0] != grid.size - 1:
            raise DataError(
                f"need one value row per cell: {values.shape[0]} rows "
                f"for {grid.size - 1} cells"
            )
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
            raise DataError("signal contains non-finite samples")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "d", values.shape[1])

    # -- basic queries -------------------------------------------------

    @property
    def domain(self) -> Interval:
        return Interval(self.grid[0], self.grid[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.grid)

    def cell_norms(self) -> np.ndarray:
        """Euclidean norm of each cell's value vector, by _row_norms."""
        return _row_norms(self.values)

    def value_at(self, t) -> np.ndarray:
        """Value of the cell containing t, right-continuous (the last cell owns
        the final breakpoint); an array of times gives one row per time."""
        ts = np.asarray(t, dtype=float)
        outside = (ts < self.grid[0]) | (ts > self.grid[-1])
        if np.any(outside):
            raise DomainError(f"t={ts[outside][0]} outside signal domain")
        i = np.searchsorted(self.grid, ts, side="right") - 1
        return self.values[np.minimum(i, len(self.values) - 1)]

    def integral(self, t) -> np.ndarray:
        """Exact int_{t0}^{t} u(s) ds, the clipped-width sum over cells
        sum_i (min(g_{i+1}, t) - min(g_i, t)) v_i; an array of times gives
        one row per time, one column per component."""
        ts = np.asarray(t, dtype=float)
        outside = (ts < self.grid[0]) | (ts > self.grid[-1] + 1e-12)
        if np.any(outside):
            raise DomainError(f"t={ts[outside][0]} outside signal domain")
        flat = ts.reshape(-1, 1)
        widths = np.minimum(self.grid[1:], flat) - np.minimum(self.grid[:-1], flat)
        # one row sum per time: its bits do not depend on the other times
        rows = np.column_stack([np.sum(widths * v, axis=1) for v in self.values.T])
        return rows.reshape(ts.shape + (self.d,))

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(value, iv: Interval, d: int | None = None) -> "Signal":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        if d is not None and v.size == 1:
            v = _allocate(np.full, d, v[0])
        return Signal(np.array([iv.t0, iv.t1]), v.reshape(1, -1))

    @staticmethod
    def zero(iv: Interval, d: int = 1) -> "Signal":
        return Signal.constant(0.0, iv, d)


def restrict(u: Signal, iv: Interval) -> Signal:
    """Clip a signal to a subinterval of its domain."""
    dom = u.domain
    if iv.t0 < dom.t0 - 1e-12 or iv.t1 > dom.t1 + 1e-12:
        raise DomainError(f"interval [{iv.t0}, {iv.t1}] outside signal domain")
    t0 = max(iv.t0, dom.t0)
    t1 = min(iv.t1, dom.t1)
    lo = int(np.searchsorted(u.grid, t0, side="right")) - 1
    hi = int(np.searchsorted(u.grid, t1, side="left"))
    grid = u.grid[lo:hi + 1].copy()
    grid[0] = t0
    grid[-1] = t1
    return Signal(grid, u.values[lo:hi])


def random_signal(seed: int, d: int, iv: Interval, cells: int, amplitude: float) -> Signal:
    """Seeded piecewise-constant signal, uniform in [-amplitude, amplitude]^d."""
    if cells < 1:
        raise DomainError("cells must be >= 1")
    if amplitude < 0:
        raise DomainError("amplitude must be >= 0")
    if not math.isfinite(2 * amplitude):
        raise DomainError(f"amplitude {amplitude} is too large: 2 * amplitude must be finite")
    rng = np.random.Generator(np.random.Philox(seed))
    grid = _allocate(np.linspace, iv.t0, iv.t1, cells + 1)
    values = _allocate(rng.uniform, -amplitude, amplitude, (cells, d))
    return Signal(grid, values)


def _stack(u) -> Signal:
    """A Signal, or a stack of signals of one grid and d, as one Signal."""
    us = [u] if isinstance(u, Signal) else list(u)
    if not us or any(v.d != us[0].d or not np.array_equal(v.grid, us[0].grid) for v in us):
        raise DataError("a stack of signals must be nonempty and share one grid and d")
    return Signal(us[0].grid, np.concatenate([v.values for v in us], axis=1))


def _row_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array, rescaled by the row's
    largest |value| where the squares overflow or their sum is subnormal
    (below _TINY_NORM**2)."""
    with np.errstate(over="ignore"):
        r = np.linalg.norm(values, axis=1)
        odd = np.isinf(r) | ((r < _TINY_NORM) & np.any(values != 0, axis=1))
        scale = np.max(np.abs(values[odd]), axis=1)
        keep = scale < np.inf  # a row holding inf keeps the norm inf
        odd, scale = np.flatnonzero(odd)[keep], scale[keep]
        r[odd] = scale * np.linalg.norm(values[odd] / scale[:, None], axis=1)
    return r


def _allocate(make, *args) -> np.ndarray:
    """make(*args), an array whose size numpy refuses raising DomainError."""
    try:
        return make(*args)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise DomainError(f"array size does not fit in memory: {exc}") from exc


def write_csv(path, header: list[str], rows) -> None:
    """Write a CSV artifact: floats with 17 significant digits, so that
    they read back exactly, and every other cell with str.  A 2-d float
    ndarray of rows is formatted in one pass, to the same bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype == float and rows.ndim == 2:
            n, c = rows.shape
            fh.write(("%.17g," * (c - 1) + "%.17g\r\n") * n % tuple(rows.ravel().tolist()))
            return
        writer.writerows(
            [f"{x:.17g}" if isinstance(x, float) else str(x) for x in row] for row in rows
        )
