"""Young functions, Luxemburg norms and related Orlicz-space machinery.

A Young function is a convex gauge Phi with Phi(0) = 0, Phi(s)/s -> 0 at 0
and -> infinity at infinity.  The identity kind is the explicit L^1
convention and is exempt from the growth conditions.  The Luxemburg norm of
a piecewise-constant signal is computed exactly: the defining integral is a
finite sum of rectangle terms, convex in 1/k.  Every kind but identity
takes one algorithm: a bracket, Newton on the modular in 1/k, and ulp steps
onto the smallest feasible float, with bisection to it as the fallback.
No tolerance is involved.  One batched kernel serves the single norm, the
per-mode norms behind diagonal's C_B1 and the prefix norms of a stack of
signals (an audit block).  holder_pair is a test reference in tests/reference.py.

Complementary functions are closed form for the s^p/p family and a
tabulated Legendre transform otherwise (log grid, linear interpolation).
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
# knots per (knots x grid) temporary in the batched Legendre grid search
_LEGENDRE_CHUNK = 32
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
    # tabulated kinds: piece j = searchsorted(_x0[1:], s) of the knots pinned
    # at the origin starts at _x0[j] with value _f0[j] and slope _g0[j]; piece
    # 0 repeats piece 1 and the last one extrapolates above the last knot
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
        with np.errstate(over="ignore"):
            out = self._eval(s_arr)
        return out if out.ndim else float(out)

    def _eval(self, s: np.ndarray) -> np.ndarray:
        """Phi on a float array s >= 0, without checks; the caller owns the
        floating-point error state."""
        if self.kind == "power":
            return s**self.p
        if self.kind == "power_over_p":
            return s**self.p / self.p
        if self.kind == "identity":
            return s.copy()
        if self.kind == "loglog":
            return s * np.log(np.log(s + math.e))
        # pin at the origin; extrapolate above with the last slope
        xp, fp = self._x0[1:], self._f0[1:]
        out = np.interp(s, xp, fp)
        top = s > xp[-1]
        if np.any(top):
            out = np.where(top, fp[-1] + self._g0[-1] * (s - xp[-1]), out)
        return out

    def _value_slope(self, s: np.ndarray):
        """Phi and its left slope, a subgradient, on a float array s >= 0 for
        a kind other than identity, without checks; the caller owns the
        floating-point error state.  A tabulated Phi takes one searchsorted."""
        if self.kind == "tabulated":
            j = np.searchsorted(self._x0[1:], s)
            g = self._g0[j]
            return self._f0[j] + g * (s - self._x0[j]), g
        if self.kind == "loglog":
            ln = np.log(s + math.e)
            lnln = np.log(ln)
            return s * lnln, lnln + s / ((s + math.e) * ln)
        v = s ** (self.p - 1.0)
        if self.kind == "power":
            return v * s, self.p * v
        return v * s / self.p, v


# ---------------------------------------------------------------------------
# complementary functions
# ---------------------------------------------------------------------------


def legendre_transform(phi: YoungFunction, s):
    """Phi~(s) = sup_{t>=0} (s*t - Phi(t)), by coarse grid + golden section.

    s is a scalar (returns a float) or an array (returns an array of the
    same shape).  The objective is concave in t for convex Phi, so the grid
    argmax brackets each maximizer and golden-section refinement converges;
    every element runs its own refinement until its bracket is 1e-14 of its
    upper end wide.  The grid spans t in [1e-12, 1e290]; an element whose
    argmax is the first grid point searches again on [1e-300, 1e-11].
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise DomainError("Legendre transform argument must be >= 0")
    out = np.zeros(s_arr.size)
    live = np.flatnonzero(s_arr.ravel() != 0.0)
    sv = s_arr.ravel()[live]
    with np.errstate(over="ignore", invalid="ignore"):
        vals, i = _legendre_search(phi, sv, np.logspace(-12, 290, 3000))
        low = np.flatnonzero(i == 0)
        if low.size:
            vals[low] = _legendre_search(phi, sv[low], np.logspace(-300, -11, 3000))[0]
    out[live] = vals
    out = out.reshape(s_arr.shape)
    return out if out.ndim else float(out)


def _legendre_search(phi: YoungFunction, sv: np.ndarray, t: np.ndarray):
    """max over t >= 0 of sv*t - Phi(t), one per element of sv, and the grid
    argmax index: golden section on the grid cells around the argmax until
    b - a <= 1e-14 b.  The caller owns the floating-point state."""
    i = np.empty(sv.size, dtype=np.intp)
    best = np.empty(sv.size)
    pt = phi._eval(t)
    for c0 in range(0, sv.size, _LEGENDRE_CHUNK):
        g = sv[c0:c0 + _LEGENDRE_CHUNK, None] * t - pt
        g = np.where(np.isfinite(g), g, -np.inf)
        ic = np.argmax(g, axis=1)
        i[c0:c0 + ic.size] = ic
        best[c0:c0 + ic.size] = np.maximum(g[np.arange(ic.size), ic], 0.0)
    a = t[np.maximum(i - 1, 0)]
    b = t[np.minimum(i + 1, t.size - 1)]
    invphi = (math.sqrt(5) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = sv * c - phi._eval(c)
    fd = sv * d - phi._eval(d)
    run = np.arange(sv.size)
    for _ in range(200):
        if run.size == 0:
            break
        left = fc[run] > fd[run]
        j, k = run[left], run[~left]
        b[j], d[j], fd[j] = d[j], c[j], fc[j]
        c[j] = b[j] - invphi * (b[j] - a[j])
        fc[j] = sv[j] * c[j] - phi._eval(c[j])
        a[k], c[k], fc[k] = c[k], d[k], fd[k]
        d[k] = a[k] + invphi * (b[k] - a[k])
        fd[k] = sv[k] * d[k] - phi._eval(d[k])
        run = run[b[run] - a[run] > 1e-14 * b[run]]
    # fmax skips a NaN objective, as the scalar max() did
    return np.fmax(np.fmax(np.fmax(best, fc), fd), 0.0), i


def complementary(phi: YoungFunction) -> YoungFunction:
    """Complementary Young function: closed form for s^p/p, tabulated
    Legendre transform otherwise.  Undefined for the identity kind."""
    if phi.kind == "identity":
        raise UnsupportedError("no complementary Young function for Phi(t)=t")
    if phi.kind == "power_over_p":
        q = phi.p / (phi.p - 1.0)
        return YoungFunction.power_over_p(q)

    # find where the transform leaves representable range, then tabulate
    s_max = 1.0
    while s_max < 1e6:
        if legendre_transform(phi, 2.0 * s_max) >= _VALUE_CAP:
            break
        s_max *= 2.0
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

    One algorithm for every kind but identity: each row halves or doubles k
    from its largest r until the modular crosses 1, runs _newton, and walks
    the Newton norm by ulps onto the smallest feasible float.  A row Newton
    or the walk cannot finish bisects until its ends are adjacent floats and
    returns the feasible one.  No row under-reports; a norm below 1e-300 is 0.
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
        vals = phi._eval(r / scale[:, None])
        terms = w * np.where(np.isfinite(vals), vals, np.inf)
        return np.add.reduce(terms, axis=1, where=mask) <= 1.0

    zero = np.zeros(rows.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # bracket the unique crossing of the modular through 1; a row that
        # is infeasible at k doubles upward, a feasible one halves downward
        up = ~feasible(W, R, live, k)
        lo = np.where(up, k, k / 2.0)
        hi = np.where(up, k * 2.0, k)
        sel = np.arange(rows.size)
        for step in range(2400):
            if sel.size == 0:
                break
            u = up[sel]
            if step == 1200 and np.any(u):
                raise NumericError("luxemburg_norm: upper bracket not found")
            # the bracket is found once feasibility flips from its start
            probe = np.where(u, hi[sel], lo[sel])
            sel = sel[feasible(W[sel], R[sel], live[sel], probe) != u]
            u = up[sel]
            lo[sel], hi[sel] = (np.where(u, hi[sel], lo[sel] / 2.0),
                                np.where(u, hi[sel] * 2.0, lo[sel]))
            if np.any(hi[sel][u] > 1e290):
                raise NumericError("luxemburg_norm: upper bracket not found")
            zero[sel[~u & (lo[sel] < 1e-300)]] = True
            sel = sel[~zero[sel]]
        else:
            if sel.size:
                raise NumericError("luxemburg_norm: lower bracket not found")
        norm, bisect = _newton(phi, R, W, live, lo, hi, zero)
        # walk each Newton norm up by ulps to the feasible side, then down
        # while the float below it is feasible too.  A row still walking at
        # the cap (Newton stalled in rounding, or stepped past the root on
        # knots that are not convex) bisects between the walk and its bracket.
        sel = np.flatnonzero(~bisect & ~zero)
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

        # bisect on compact copies until lo and hi are adjacent floats: the
        # midpoint of two floats that are not adjacent lies strictly between
        sel = np.flatnonzero(bisect & ~zero & (np.nextafter(lo, np.inf) < hi))
        lo_s, hi_s, w, rs, mask = lo[sel], hi[sel], W[sel], R[sel], live[sel]
        while sel.size:
            mid = 0.5 * (lo_s + hi_s)
            ok = feasible(w, rs, mask, mid)
            hi_s = np.where(ok, mid, hi_s)
            lo_s = np.where(ok, lo_s, mid)
            going = np.nextafter(lo_s, np.inf) < hi_s
            if not going.all():
                hi[sel] = hi_s
                sel, lo_s, hi_s = sel[going], lo_s[going], hi_s[going]
                w, rs, mask = w[going], rs[going], mask[going]
    out[rows] = np.where(zero | (hi < 1e-300), 0.0, hi)
    return out


def _newton(phi, r, W, live, lo, hi, zero):
    """Newton on the convex modular M(lam) = sum w Phi(r lam), lam = 1/k,
    from lam = 1/lo with _value_slope's left slopes: they are subgradients,
    so lam falls, and for a piecewise-linear Phi the step from the root's
    piece lands on it.  Returns k = 1/lam, and the rows left to bisect (a
    step not finite or past the feasible end 1/hi); sweeps skip finished rows."""
    lam, bisect, sel = 1.0 / lo, np.zeros(lo.size, dtype=bool), np.flatnonzero(~zero)
    for _ in range(_NEWTON_CAP):
        if sel.size == 0:
            break
        w, rs, mask, at = W[sel], r[sel], live[sel], lam[sel]
        val, g = phi._value_slope(rs * at[:, None])
        m = np.add.reduce(w * val, axis=1, where=mask) - 1.0
        nxt = at - m / np.add.reduce(w * rs * g, axis=1, where=mask)
        ok = nxt >= 1.0 / hi[sel]  # false if not finite or past the feasible end
        bisect[sel[~ok]] = True
        go = ok & (nxt < at)
        lam[sel[go]] = nxt[go]
        sel = sel[go]
    else:  # Newton may visit every piece, or crawl for s^p at a large p
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
