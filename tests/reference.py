"""Independent reference implementations that tests compare the library
against: the exact L^p norm of a piecewise-constant signal, and a writer and
a reader for the CSV artifacts of write_csv."""

import csv
import math

import numpy as np

from isslab.errors import DomainError
from isslab.signals import Interval, Signal, restrict


def lp_norm(u: Signal, p: float, iv: Interval | None = None) -> float:
    """Exact L^p norm (p in [1, inf]) of a piecewise-constant signal."""
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if iv is not None:
        u = restrict(u, iv)
    r = u.cell_norms()
    m = float(np.max(r))
    if math.isinf(p) or m == 0.0:
        return m
    # scaled by the largest cell norm, so that r**p cannot underflow or overflow
    return m * float(np.sum(u.widths * (r / m) ** p) ** (1.0 / p))


def dense(bands: np.ndarray) -> np.ndarray:
    """The square tridiagonal matrix of (3, n) bands in dia_array layout:
    column i holds M[i-1, i], M[i, i], M[i+1, i]."""
    return np.diag(bands[0, 1:], 1) + np.diag(bands[1]) + np.diag(bands[2, :-1], -1)


def read_csv(path) -> np.ndarray:
    """The rows of a numeric CSV artifact below its header, as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(x) for x in row] for row in rows[1:]])


def write_csv_rows(path, header: list[str], rows) -> None:
    """The CSV artifact of write_csv, every row through csv.writer: floats
    with 17 significant digits, every other cell with str."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{x:.17g}" if isinstance(x, float) else str(x) for x in row]
                         for row in rows)
