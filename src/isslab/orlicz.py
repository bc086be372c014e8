"""Young functions, Luxemburg norms and related Orlicz-space machinery.

A Young function is a convex gauge Phi with Phi(0) = 0, Phi(s)/s -> 0 at 0
and -> infinity at infinity.  The identity kind is the explicit L^1
convention and is exempt from the growth conditions.  The Luxemburg norm of
a piecewise-constant signal is computed exactly: the defining integral is a
finite sum of rectangle terms, convex in 1/k.  Every kind but identity
takes one algorithm: Newton on the modular in 1/k from k = max r, its
first step in log space, and ulp steps onto the smallest feasible float,
with bisection to it as the fallback.  No tolerance is involved.  One
batched kernel serves the single norm, the per-mode norms behind
diagonal's C_B1 and the prefix norms of a stack of signals (an audit
block).

Complementary functions are closed form for the s^p/p family and otherwise
a table of the Legendre transform on log-spaced knots, linearly
interpolated.  One bisection on the order of floats finds both the
transform's maximizers and the kernel's fallback norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, NumericError, UnsupportedError
from .signals import Interval, Signal, _row_norms, _stack, restrict

__all__ = [
    "YoungFunction",
    "legendre_transform",
    "complementary",
    "luxemburg_norm",
    "prefix_luxemburg_norms",
    "small_interval_norm",
]

_KINDS = ("power", "power_over_p", "loglog", "identity", "tabulated")

# knot count for tabulated Legendre transforms
_LEGENDRE_KNOTS = 512
# values above this are treated as out of tabulation range
_VALUE_CAP = 1e250
# ulp steps that bring a Newton norm onto the smallest feasible float
_NUDGE_CAP = 64
# Newton sweeps on a modular before its rows fall back to bisection
_NEWTON_CAP = 64


@dataclass(frozen=True)
class YoungFunction:
    """A convex gauge with an evaluator and (for tabulated kinds) knots.

    kind is one of 'power' (s^p), 'power_over_p' (s^p/p), 'loglog'
    (s*ln(ln(s+e))), 'identity' (s, the L^1 convention) or 'tabulated'
    (piecewise-linear through sorted (s, Phi(s)) knots, pinned at (0,0)).
    """

    kind: str
    p: float | None = None
    knots: np.ndarray | None = field(default=None, compare=False)
    # tabulated kinds compare and hash by their knot values
    _knot_values: tuple | None = field(default=None, init=False, repr=False)
    # tabulated kinds: piece j = searchsorted(_x0[1:], s, "right") of the knots
    # pinned at the origin starts at _x0[j] with value _f0[j] and slope _g0[j]
    # (index 0 unused); the last piece extrapolates above the last knot
    _x0: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _f0: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _g0: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown Young function kind {self.kind!r}")
        if self.kind in ("power", "power_over_p"):
            if self.p is None or not self.p > 1:
                raise DomainError(f"{self.kind} needs exponent p > 1, got {self.p}")
        if self.kind == "tabulated":
            knots = np.asarray(self.knots, dtype=float)
            if knots.ndim != 2 or knots.shape[1] != 2 or knots.shape[0] < 2:
                raise DataError("tabulated kind needs an (n, 2) knot array, n >= 2")
            if np.any(np.diff(knots[:, 0]) <= 0):
                raise DataError("tabulated knots must have strictly increasing s")
            if np.any(knots < 0) or not np.all(np.isfinite(knots)):
                raise DataError("tabulated knots must be finite and nonnegative")
            # not checked for convexity: Legendre tables have round-off dips
            if np.any(np.diff(knots[:, 1]) < 0):
                raise DataError("tabulated knot values must be nondecreasing")
            object.__setattr__(self, "knots", knots)
            object.__setattr__(self, "_knot_values", tuple(knots.ravel().tolist()))
            ks, kv = knots[:, 0], knots[:, 1]
            xp, fp = np.append(0.0, ks), np.append(0.0, kv)
            g = np.append(np.diff(fp) / np.diff(xp), (kv[-1] - kv[-2]) / (ks[-1] - ks[-2]))
            for name, v in (("_x0", xp), ("_f0", fp), ("_g0", g)):
                object.__setattr__(self, name, np.append(v[:1], v))

    # -- constructors --------------------------------------------------

    @staticmethod
    def power(p: float) -> "YoungFunction":
        return YoungFunction("power", p=p)

    @staticmethod
    def power_over_p(p: float) -> "YoungFunction":
        return YoungFunction("power_over_p", p=p)

    @staticmethod
    def loglog() -> "YoungFunction":
        return YoungFunction("loglog")

    @staticmethod
    def identity() -> "YoungFunction":
        return YoungFunction("identity")

    @staticmethod
    def tabulated(knots) -> "YoungFunction":
        return YoungFunction("tabulated", knots=knots)

    # -- evaluation ----------------------------------------------------

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < 0):
            raise DomainError("Young functions are defined for s >= 0 only")
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._value_slope(s_arr)[0]
        return out if out.ndim else float(out)

    def _value_slope(self, s: np.ndarray):
        """Phi and a subgradient on a float array s >= 0, without checks; the
        caller owns the floating-point error state.  The identity kind has slope
        1; a tabulated Phi takes the piece that holds s from one right-continuous
        searchsorted, so a knot reads back its value and takes the right slope."""
        if self.kind == "identity":
            return s.copy(), np.ones_like(s)
        if self.kind == "tabulated":
            j = np.searchsorted(self._x0[1:], s, "right")
            g = self._g0[j]
            return self._f0[j] + g * (s - self._x0[j]), g
        if self.kind == "loglog":
            ln1 = np.log1p(s / math.e)  # ln(s+e) = 1 + ln1 keeps the digits near 0
            lnln = np.log1p(ln1)
            return s * lnln, lnln + s / ((s + math.e) * (1.0 + ln1))
        v = s ** (self.p - 1.0)
        if self.kind == "power":
            return s**self.p, self.p * v
        return s**self.p / self.p, v


# ---------------------------------------------------------------------------
# complementary functions
# ---------------------------------------------------------------------------


def legendre_transform(phi: YoungFunction, s):
    """Phi~(s) = sup_{t>=0} (s*t - Phi(t)), at the maximizer's floats.

    s is a scalar (returns a float) or an array (returns an array of the
    same shape).  For convex Phi the maximizer is where _value_slope's
    subgradient (at a knot the right slope) reaches s; _float_bisect finds,
    on t in [0, 1e290], the two adjacent floats around it, and the value is
    the larger objective of the two: inf where it overflows or s exceeds the
    slope at t = inf (identity's 1, a table's last).  Loglog under-reports
    above s = 6.5, its maximizer past 1e290 (its table ends at s = 4).  A Phi
    that is not convex (a table with non-convex knots) gets a local maximum.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise DomainError("Legendre transform argument must be >= 0")
    sv = s_arr.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.stack(_float_bisect(lambda t, sel: phi._value_slope(t)[1] >= sv[sel],
                                   np.zeros(sv.size), np.full(sv.size, 1e290)))
        g = np.where(sv > phi._value_slope(np.array(np.inf))[1], np.inf,
                     sv * t - phi._value_slope(t)[0])
    out = np.maximum(np.where(np.isnan(g), np.inf, g).max(axis=0), 0.0).reshape(s_arr.shape)
    return out if out.ndim else float(out)


def _float_bisect(test, lo, hi):
    """Adjacent floats a < b, one pair per element of the arrays lo <= hi of
    floats >= 0, around the point where a monotone test turns from false to
    true; the test is taken false at lo and true at hi, not evaluated there.
    Such floats are ordered as their bit patterns read as int64, so
    bisection on those integers ends in at most 63 sweeps.  test(t, sel)
    judges floats t for the elements sel."""
    a, b = lo.view(np.int64).copy(), hi.view(np.int64).copy()
    sel = np.flatnonzero(b - a > 1)
    while sel.size:
        mid = a[sel] + (b[sel] - a[sel]) // 2
        ok = test(mid.view(float), sel)
        b[sel[ok]], a[sel[~ok]] = mid[ok], mid[~ok]
        sel = sel[b[sel] - a[sel] > 1]
    return a.view(float), b.view(float)


def complementary(phi: YoungFunction) -> YoungFunction:
    """Complementary Young function: closed form for s^p/p, tabulated
    Legendre transform otherwise.  Undefined for the identity kind."""
    if phi.kind == "identity":
        raise UnsupportedError("no complementary Young function for Phi(t)=t")
    if phi.kind == "power_over_p":
        q = phi.p / (phi.p - 1.0)
        return YoungFunction.power_over_p(q)

    # tabulate up to s_max = 2^j, the first j with Phi~(2^(j+1)) out of
    # range, or 2^20
    big = legendre_transform(phi, 2.0 ** np.arange(1, 21)) >= _VALUE_CAP
    s_max = 2.0 ** np.argmax(np.append(big, True))
    s_knots = np.logspace(-6, math.log10(s_max), _LEGENDRE_KNOTS)
    vals = legendre_transform(phi, s_knots)
    keep = vals < _VALUE_CAP
    return YoungFunction.tabulated(np.column_stack([s_knots[keep], vals[keep]]))


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------


def _luxemburg_rows(phi: YoungFunction, r: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Luxemburg norms, one per row of cell widths W, of the cell norms r
    broadcast to W's shape; a zero width leaves the cell out of its row.

    One algorithm for every kind but identity: each row runs _newton from
    k = its largest r and walks the Newton norm by ulps onto the smallest
    feasible float.  A row Newton or the walk cannot finish bisects until its
    ends are adjacent floats and returns the feasible one.  No row
    under-reports: a norm past the double range raises NumericError, and
    a norm below 1e-300 is 0.
    """
    live = W > 0
    if phi.kind == "identity":
        return np.add.reduce(W * r, axis=1, where=live)
    out = np.zeros(W.shape[0])
    k = np.max(r * live, axis=1)
    rows = np.flatnonzero(k > 0)
    if rows.size == 0:
        return out
    R = np.broadcast_to(r, W.shape)[rows]
    W, live, k = W[rows], live[rows], k[rows]

    def feasible(w, r, mask, scale):
        vals = phi._value_slope(r / scale[:, None])[0]
        terms = w * np.where(np.isfinite(vals), vals, np.inf)
        return np.add.reduce(terms, axis=1, where=mask) <= 1.0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm, bisect = _newton(phi, R, W, live, k)
        # walk each Newton norm up by ulps to the feasible side, then down
        # while the float below it is feasible too.  A row still walking at
        # the cap (Newton stalled in rounding, or stepped past the root on
        # knots that are not convex) bisects from the walk's end.
        lo, hi = np.zeros(rows.size), np.full(rows.size, np.inf)
        sel = np.flatnonzero(~bisect)
        down = np.ones(sel.size, dtype=bool)
        for _ in range(_NUDGE_CAP):
            both = np.concatenate((sel, sel[down]))
            ok = feasible(W[both], R[both], live[both], np.concatenate(
                (norm[sel], np.nextafter(norm[sel][down], 0.0))))
            up = ~ok[:sel.size]
            down[down] = ok[sel.size:]
            down &= ~up
            norm[sel[up]] = np.nextafter(norm[sel[up]], np.inf)
            norm[sel[down]] = np.nextafter(norm[sel[down]], 0.0)
            sel, down = sel[up | down], down[up | down]
            if sel.size == 0:
                break
        else:  # an upward row's last infeasible float is the one below it
            lo[sel[~down]] = np.nextafter(norm[sel[~down]], 0.0)
            hi[sel[down]] = norm[sel[down]]
            bisect[sel] = True
        hi = np.where(bisect, hi, norm)
        # the rows left bisect onto their smallest feasible float, from 0 or
        # the walk's infeasible end to the walk's feasible end or inf.  inf is
        # not evaluated, so a row is left there only if DBL_MAX is infeasible.
        sel = np.flatnonzero(bisect)
        hi[sel] = _float_bisect(lambda k, i: feasible(W[sel[i]], R[sel[i]], live[sel[i]], k),
                                lo[sel], hi[sel])[1]
    if np.any(np.isinf(hi)):
        raise NumericError("luxemburg_norm: the norm exceeds the double range")
    out[rows] = np.where(hi < 1e-300, 0.0, hi)
    return out


def _newton(phi, r, W, live, k):
    """Newton on the convex modular M(lam) = sum w Phi(r lam), lam = 1/k,
    from lam = 1/k with _value_slope's slopes (at a knot the right one).
    The first step is in log space, lam exp(-ln M / e) with the elasticity
    e = lam M'/M, and is exact for s^p.  Newton's own first step may rise and
    lands on the infeasible side of a convex M; from there the steps fall,
    as slopes are subgradients, and for a piecewise-linear Phi the step from
    the root's piece lands on it.  Returns k = 1/lam, and the rows left to
    bisect (a step to no finite lam > 0); sweeps skip finished rows."""
    lam, bisect, sel = 1.0 / k, np.zeros(k.size, dtype=bool), np.arange(k.size)
    for step in range(_NEWTON_CAP):
        if sel.size == 0:
            break
        w, rs, mask, at = W[sel], r[sel], live[sel], lam[sel]
        val, g = phi._value_slope(rs * at[:, None])
        m = np.add.reduce(w * val, axis=1, where=mask)
        dm = np.add.reduce(w * rs * g, axis=1, where=mask)
        # M = 0 (every term underflows) or inf (an overflow) takes no finite step
        nxt = at * np.exp(-np.log(m) * m / (at * dm)) if step == 0 else at - (m - 1.0) / dm
        ok = np.isfinite(nxt) & (nxt > 0)
        bisect[sel[~ok]] = True
        # the log step and Newton's first step may rise, later steps only fall
        go = ok & ((nxt < at) | (nxt > at) & (step < 2))
        lam[sel[go]] = nxt[go]
        sel = sel[go]
    else:  # Newton may visit every piece of a table
        bisect[sel] = True
    return 1.0 / lam, bisect


def luxemburg_norm(phi: YoungFunction, u: Signal, iv: Interval | None = None) -> float:
    """inf{k > 0 : int_iv Phi(|u(s)|/k) ds <= 1}, exact quadrature.

    The identity kind returns the L^1 norm; every other kind the smallest
    float k whose modular is <= 1, with no tolerance to choose.  A.e.-zero u
    has norm 0.
    """
    if iv is not None:
        u = restrict(u, iv)
    return float(prefix_luxemburg_norms(phi, u, u.grid[-1]))


def prefix_luxemburg_norms(phi: YoungFunction, u, ends) -> np.ndarray:
    """Luxemburg norms of u on every prefix [t0, t] of its domain [t0, t1],
    one per t in ends, from one kernel call; a stack of signals on one grid
    (a sequence) gives one row of norms per signal.

    Each value equals luxemburg_norm(phi, v, Interval(t0, t)) bit for bit;
    t = t0 gives 0.  The result has the shape of ends, after a stack's axis.
    """
    w, n = _stack(u), 1 if isinstance(u, Signal) else len(u)
    t = np.asarray(ends, dtype=float)
    if not np.all((t >= w.grid[0]) & (t <= w.grid[-1] + 1e-12)):
        raise DomainError("prefix ends must lie in the signal domain")
    W = np.maximum(np.minimum(w.grid[1:], t.reshape(-1, 1)) - w.grid[:-1], 0.0)
    # one kernel row per signal and end, with that signal's cell norms
    r = _row_norms(w.values.reshape(W.shape[1] * n, -1)).reshape(-1, n).T
    norms = _luxemburg_rows(phi, np.repeat(r, t.size, axis=0), np.tile(W, (n, 1)))
    return norms.reshape((() if isinstance(u, Signal) else (n,)) + t.shape)


def small_interval_norm(phi: YoungFunction, u: Signal, t: float, delta: float) -> float:
    """Luxemburg norm of u on [t, t+delta]: the tests' reference for the L^2
    window rule of mild_solver, and a site that bench/tracer.py traces."""
    if delta <= 0:
        raise DomainError("delta must be > 0")
    return luxemburg_norm(phi, u, Interval(t, t + delta))
