"""Conservative 1-D Fokker-Planck solver with no-flux boundaries.

Discretizes

    d rho / dt = d/dx ( nu d rho/dx + rho dW/dx ) + u * d/dx ( rho d alpha/dx )

on [0, 1] with J+1 uniform nodes.  Both operators are assembled in flux
form with arithmetic-mean drift interpolation and half-cell boundary rows,

    F_{i+1/2} = nu (rho_{i+1} - rho_i)/h + (rho_i + rho_{i+1})/2 * (P_{i+1} - P_i)/h,
    (A rho)_i = (F_{i+1/2} - F_{i-1/2})/h   (boundary rows divide by h/2),

so the trapezoid-weighted column sums vanish identically and time stepping
conserves mass to round-off.  Both operators are stored only as their three
bands, a plain (3, J+1) array (see FPModel).  Time integration is
Crank-Nicolson with the control frozen per step, exact in time for
piecewise-constant inputs.  A step is
(I - dt/2 L)^{-1} (I + dt/2 L) v = 2 (I - dt/2 L)^{-1} v - v, L = A + u B: one
gttrs solve with the LU factors (gttrf) of 1/2 (I - dt/2 L), made once per run
of equal controls, minus v.  simulate's block masses are weights^T v.

The four LAPACK routines (gttrf, gttrs, stebz, stein) are called through
ctypes in the ILP64 OpenBLAS that numpy's wheels bundle and have already
loaded, so importing this module loads no scipy.  Where numpy exports them
under other names, or not at all, scipy.linalg.lapack runs the same routines.

The stationary density is the Gibbs kernel e^{-W/nu} (normalized); the
decay rate toward it is the spectral gap of the generator symmetrized by
the multiplication operator e^{Phi/2}, Phi = ln(nu) + W/nu, combined with
the square-root trapezoid weighting that makes the similarity transform
consistent with the weighted inner product.
"""

from __future__ import annotations

import ctypes
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bounds import AuditReport, audit, gamma_fp
from .errors import ContractError, DataError, DomainError, NumericError
from .mild_solver import Trajectory
from .signals import _EXP_OVERFLOW, Signal

__all__ = [
    "FPModel",
    "DensityField",
    "clamp_end_slopes",
    "build_model",
    "stationary_density",
    "discrete_stationary_density",
    "step",
    "l2_norm",
    "spectral_gap",
    "simulate",
    "fit_gain_constant",
    "run_fp_iss_experiment",
]


@dataclass(frozen=True)
class DensityField:
    """Node samples of a density on [0, 1] with its cached trapezoid mass.
    Signed values are allowed during transients."""

    x: np.ndarray
    values: np.ndarray
    mass: float = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.shape != v.shape or x.ndim != 1:
            raise DataError("x and values must be 1-d arrays of equal length")
        if not np.all(np.isfinite(v)):
            raise DataError("density contains non-finite samples")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mass", float(np.trapezoid(v, x)))


@dataclass(frozen=True)
class FPModel:
    """Assembled discrete model: generator A (diffusion + potential drift),
    control generator B (drift along alpha), trapezoid weights.  A and B are
    tridiagonal, stored as (3, J+1) arrays of their bands: column i holds
    A[i-1, i], A[i, i], A[i+1, i] (the layout of scipy.sparse.dia_array's
    data for offsets [1, 0, -1]); A[0, 0] and A[2, J] are unused zeros."""

    J: int
    nu: float
    grid: np.ndarray
    W: np.ndarray
    alpha: np.ndarray
    A: np.ndarray
    B: np.ndarray
    weights: np.ndarray

    @property
    def h(self) -> float:
        return 1.0 / self.J


def clamp_end_slopes(samples: np.ndarray) -> np.ndarray:
    """Copy of the samples with both end slopes forced to zero (first and
    last values repeated), meeting the no-flux structural assumption."""
    out = np.asarray(samples, dtype=float).copy()
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def _flux_operator(P: np.ndarray, nu: float, h: float, cell: np.ndarray) -> np.ndarray:
    """Bands of the tridiagonal operator rho -> d/dx (nu d rho + rho dP) on
    cells of width cell."""
    n = P.size
    drift = np.diff(P) / h  # dP at the J faces
    # face i+1/2 coefficients: F = c_lo * rho_i + c_hi * rho_{i+1}
    c_lo = -nu / h + 0.5 * drift
    c_hi = nu / h + 0.5 * drift
    bands = np.zeros((3, n))
    bands[0, 1:] = c_hi / cell[:-1]  # outgoing face of row i, column i+1
    bands[1, :-1] += c_lo / cell[:-1]
    bands[1, 1:] -= c_hi / cell[1:]  # incoming face of row i, column i
    bands[2, :-1] = -c_lo / cell[1:]  # incoming face of row i+1, column i
    return bands


def build_model(nu: float, W_samples, alpha_samples, J: int) -> FPModel:
    """Assemble the discrete operators from node samples of the potential
    W and the control shape alpha (J+1 values each, or callables of x)."""
    if J < 16:
        raise DomainError(f"J must be >= 16, got {J}")
    if nu <= 0:
        raise DomainError("diffusion nu must be > 0")
    grid = np.linspace(0.0, 1.0, J + 1)
    h = 1.0 / J
    W = np.asarray(W_samples(grid) if callable(W_samples) else W_samples, dtype=float)
    alpha = np.asarray(
        alpha_samples(grid) if callable(alpha_samples) else alpha_samples, dtype=float
    )
    if W.shape != (J + 1,) or alpha.shape != (J + 1,):
        raise DataError(f"W and alpha must supply {J + 1} node samples")
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(alpha))):
        raise DataError("W and alpha must be finite at every node")
    end_slopes = (abs(alpha[1] - alpha[0]) / h, abs(alpha[-1] - alpha[-2]) / h)
    if max(end_slopes) > 1e-10:
        raise ContractError(
            "alpha must have zero one-sided slope at both ends "
            f"(got {end_slopes}); see clamp_end_slopes"
        )
    weights = np.full(J + 1, h)
    weights[0] = weights[-1] = h / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        A = _flux_operator(W, nu, h, weights)
        B = _flux_operator(alpha, 0.0, h, weights)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise NumericError("operator bands overflow; reduce the increments of W or alpha")
    return FPModel(J=J, nu=nu, grid=grid, W=W, alpha=alpha, A=A, B=B, weights=weights)


def stationary_density(m: FPModel) -> DensityField:
    """Gibbs density e^{-W/nu}, trapezoid-normalized to mass 1.

    W is shifted by its minimum, so the samples lie in [0, 1], the largest
    is 1 and the normalizer cannot over- or underflow.  This is the
    continuum equilibrium; its discrete residual ||A rho|| is O(h^2).  The
    exact kernel of the discrete operator is discrete_stationary_density."""
    with np.errstate(over="ignore"):
        v = np.exp(-(m.W - np.min(m.W)) / m.nu)
    v /= np.trapezoid(v, m.grid)
    return DensityField(m.grid, v)


def discrete_stationary_density(m: FPModel) -> DensityField:
    """Exact kernel vector of the discrete generator: every face flux
    vanishes, so the successive node ratios solve
    v_{i+1}(nu + dW_i/2) = v_i(nu - dW_i/2)."""
    d = 0.5 * np.diff(m.W)
    if np.any(np.abs(d) >= m.nu):
        raise NumericError(
            "discrete_stationary_density: potential increment exceeds the "
            "diffusion scale; refine the grid"
        )
    v = np.concatenate(([1.0], np.cumprod((m.nu - d) / (m.nu + d))))
    v /= np.trapezoid(v, m.grid)
    return DensityField(m.grid, v)


def l2_norm(m: FPModel, v: np.ndarray) -> float:
    """Trapezoid-weighted L^2 norm of node samples."""
    return float(math.sqrt(np.sum(m.weights * np.asarray(v) ** 2)))


# ---------------------------------------------------------------------------
# LAPACK: numpy's bundled ILP64 OpenBLAS through ctypes, else scipy's wrappers
# ---------------------------------------------------------------------------

_P, _LEN = ctypes.c_void_p, ctypes.c_size_t  # pointer; hidden length of a character
# dgttrf and dgttrs have no argtypes: converting dgttrs's 12 arguments on
# every call would cost 1.5-2 us against 2.3-2.7 us for the whole J = 128 call
_ARGTYPES = {"dgttrf": None, "dgttrs": None, "dstebz": [_P] * 18 + [_LEN] * 2,
             "dstein": [_P] * 13}
# tridiagonal(arrays, info) binds gttrf and gttrs, in place on arrays (dl, d,
# du, du2, ipiv, b) and with LAPACK's info in info, as calls of no arguments;
# stebz(d, e, il, iu) -> (m, w, iblock, isplit, info) gives the eigenvalues
# il..iu (1-based) in block order, stein(d, e, w[:m], iblock, isplit) ->
# (z, info) their eigenvectors
_Lapack = namedtuple("_Lapack", "tridiagonal stebz stein")


def _lapack_symbol(name: str):
    """numpy's vendored LAPACK routine, exported by its scipy-openblas64
    build as scipy_<name>_64_, or None.  PyDLL keeps the interpreter lock
    through the call: releasing it costs more than a J = 128 solve."""
    try:
        return getattr(ctypes.PyDLL(np._core._multiarray_umath.__file__), f"scipy_{name}_64_")
    except (AttributeError, OSError):
        return None


def _resolve() -> _Lapack:
    """The four routines through ctypes when numpy exports every one of
    them, else through scipy.linalg.lapack (imported only then)."""
    fns = {name: _lapack_symbol(name) for name in _ARGTYPES}
    if None in fns.values():
        from scipy.linalg.lapack import dgttrf, dgttrs, dstebz, dstein

        def tridiagonal(arrays, info):
            (dl, d, du, _, _, b), lu = arrays, []

            def factor():
                *lu[:], info.value = dgttrf(dl, d, du)

            def solve():
                b[...], info.value = dgttrs(*lu, b)
            return factor, solve

        return _Lapack(tridiagonal,
                       lambda d, e, il, iu: dstebz(d, e, 2, 0.0, 1.0, il, iu, 0.0, "B"),
                       dstein)
    for name, fn in fns.items():
        fn.restype, fn.argtypes = None, _ARGTYPES[name]
    return _Lapack(partial(_c_tridiagonal, fns["dgttrf"], fns["dgttrs"]),
                   partial(_c_stebz, fns["dstebz"]), partial(_c_stein, fns["dstein"]))


# ILP64: every integer, pivots included, is an int64 passed by reference;
# every array handed over is a contiguous float64 or int64 array
_ref, _i64 = ctypes.byref, ctypes.c_int64


def _c_tridiagonal(gttrf, gttrs, arrays, info):
    """gttrf's and gttrs's calls on byref of a ctypes view of each array,
    which ctypes passes fastest and which keeps the array alive."""
    n, views = _ref(_i64(arrays[1].size)), [_ref((ctypes.c_char * a.nbytes).from_buffer(a))
                                            for a in arrays]
    return (partial(gttrf, n, *views[:-1], _ref(info)),
            partial(gttrs, b"N", n, _ref(_i64(1)), *views, n, _ref(info), _LEN(1)))


def _c_stebz(stebz, d, e, il, iu):
    d, e = (np.ascontiguousarray(a, dtype=float) for a in (d, e))
    n = d.size
    w, iblock, isplit = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    work, iwork = np.empty(4 * n), np.empty(3 * n, dtype=np.int64)
    size, lo, hi, m, nsplit, info = (_i64(k) for k in (n, il, iu, 0, 0, 0))
    zero = ctypes.c_double(0.0)  # vl and vu (unused for range I) and abstol
    stebz(b"I", b"B", _ref(size), _ref(zero), _ref(zero), _ref(lo), _ref(hi), _ref(zero),
          d.ctypes.data, e.ctypes.data, _ref(m), _ref(nsplit), w.ctypes.data,
          iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data, iwork.ctypes.data,
          _ref(info), 1, 1)
    return m.value, w, iblock, isplit, info.value


def _c_stein(stein, d, e, w, iblock, isplit):
    d, e, w = (np.ascontiguousarray(a, dtype=float) for a in (d, e, w))
    n, m = d.size, w.size
    z = np.empty((m, n))  # column-major n x m
    work, iwork, ifail = np.empty(5 * n), np.empty(n, dtype=np.int64), np.empty(m, dtype=np.int64)
    size, count, info = _i64(n), _i64(m), _i64()
    stein(_ref(size), d.ctypes.data, e.ctypes.data, _ref(count), w.ctypes.data,
          iblock.ctypes.data, isplit.ctypes.data, z.ctypes.data, _ref(size),
          work.ctypes.data, iwork.ctypes.data, ifail.ctypes.data, _ref(info))
    return z.T, info.value


_LAPACK = _resolve()


def _block_rows(n: int) -> int:
    """States of n nodes per simulate block: at most the bytes of 32 states
    at J = 512, in a multiple of 32 (whose reductions keep the bits of
    32-state blocks, as 31 or 127 states do not)."""
    return 32 * max(1, 513 // n)


def _cn_workspace(m: FPModel, dt: float):
    """factor(u), which refills and factors the bands of 1/2 (I - dt/2 (A +
    u B)) in place, and advance(v, out), the unchecked step after v (a gttrs
    solve minus v) into out, on one run's workspace; callers hold errstate."""
    n, info, quarter = m.J + 1, _i64(), np.empty((3, m.J + 1))
    dl, d, du, du2, b = map(np.empty, (n - 1, n, n - 1, n - 2, n))
    gttrf, gttrs = _LAPACK.tridiagonal((dl, d, du, du2, np.empty(n, dtype=np.int64), b), info)

    def factor(u_cell: float) -> None:
        q = np.multiply(m.B, u_cell, out=quarter)
        np.multiply(0.25 * dt, np.add(m.A, q, out=q), out=q)
        if not np.all(np.isfinite(q)):
            raise NumericError("Crank-Nicolson matrix overflows; reduce the control or dt")
        np.negative(q[2, :-1], out=dl)
        np.subtract(0.5, q[1], out=d)
        np.negative(q[0, 1:], out=du)
        gttrf()
        if info.value != 0:
            raise NumericError(f"Crank-Nicolson matrix is singular (gttrf info {info.value}); "
                               "reduce dt")

    def advance(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        b[...] = v
        gttrs()
        if info.value != 0:
            raise NumericError(f"Crank-Nicolson solve failed (gttrs info {info.value})")
        return np.subtract(b, v, out=out)
    return factor, advance


def _finite(states: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(states)):
        raise NumericError("Crank-Nicolson produced non-finite values; reduce dt")
    return states


def step(m: FPModel, rho: DensityField, u_cell: float, dt: float) -> DensityField:
    """One Crank-Nicolson step of d rho/dt = (A + u B) rho with the control
    frozen at u_cell."""
    if not 0 < dt < math.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    if rho.values.size != m.J + 1:
        raise DataError(f"density has {rho.values.size} nodes, the model {m.J + 1}")
    factor, advance = _cn_workspace(m, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        factor(u_cell)
        new = advance(rho.values, np.empty(m.J + 1))
    return DensityField(m.grid, _finite(new))


def spectral_gap(m: FPModel) -> dict:
    """Spectral gap of the symmetrized generator.

    Similarity transform: S = D^{1/2} M A M^{-1} D^{-1/2} with
    M = diag(e^{Phi/2}), Phi = ln(nu) + (W - min W)/nu (a constant shift
    leaves S unchanged), and D the trapezoid weights;
    the residual asymmetry of the tridiagonal S (reported as symmetry_defect)
    is averaged away before the top two eigenpairs are solved for.  Returns
    omega = |second largest eigenvalue|, the near-zero top eigenvalue, and
    the angle between the computed kernel vector and the predicted e^{-Phi/2}.
    """
    dsq = np.sqrt(m.weights)
    bands = m.A
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi_vec = math.log(m.nu) + (m.W - np.min(m.W)) / m.nu
        mvec = np.exp(0.5 * phi_vec)
        left, right = dsq * mvec, 1.0 / (dsq * mvec)
        diag = left * bands[1] * right
        upper = left[:-1] * bands[0, 1:] * right[1:]
        lower = left[1:] * bands[2, :-1] * right[:-1]
        norm2 = np.sum(diag**2) + np.sum(upper**2) + np.sum(lower**2)
        e0_pred = dsq * np.exp(-0.5 * phi_vec)
        e0_pred /= np.linalg.norm(e0_pred)
    if not (math.isfinite(norm2) and np.all(np.isfinite(e0_pred))):
        raise NumericError("spectral_gap: e^{Phi/2} over- or underflows; nu or |W|/nu too large")
    defect = math.sqrt(2.0 * np.sum((upper - lower) ** 2) / norm2)
    # the top two eigenpairs as scipy's eigh_tridiagonal(select="i") gets them
    off, n = 0.5 * (upper + lower), diag.size
    found, w, iblock, isplit, info = _LAPACK.stebz(diag, off, n - 1, n)
    if info == 0:
        vecs, info = _LAPACK.stein(diag, off, w[:found], iblock, isplit)
    if info != 0:
        raise NumericError(f"spectral_gap: tridiagonal eigensolver failed (info {info})")
    order = np.argsort(w[:found])
    vals, vecs = w[order], vecs[:, order]
    lam0 = vals[-1]
    omega = float(abs(vals[-2]))
    if omega <= 0:
        raise NumericError("spectral_gap: degenerate spectrum")
    cosang = abs(float(np.dot(vecs[:, -1], e0_pred)))
    return {
        "omega": omega,
        "lambda0": float(lam0),
        "e0_check": float(math.acos(min(cosang, 1.0))),
        "symmetry_defect": defect,
    }


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def simulate(m: FPModel, rho0: DensityField, u: Signal | None, T: float,
             dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time-step and record (times, L^2 deviations from equilibrium,
    masses).  The run takes the fewest uniform steps of at most dt (up to
    round-off in T/dt) that end at T.  Deviations are measured against the
    exact discrete kernel so that the zero-input equilibrium run reads as
    identically zero."""
    if not (0 < T < math.inf and 0 < dt < math.inf):
        raise DomainError(f"T and dt must be finite and > 0, got T={T}, dt={dt}")
    if u is not None and u.d != 1:
        raise DomainError(f"the control u must be scalar, got {u.d} components")
    if rho0.values.size != m.J + 1:
        raise DataError(f"density has {rho0.values.size} nodes, the model {m.J + 1}")
    rho_inf = discrete_stationary_density(m).values
    try:  # more steps than numpy can allocate
        n_steps = max(1, math.ceil(T / dt - 1e-9))
        times, (devs, masses) = np.linspace(0.0, T, n_steps + 1), np.empty((2, n_steps + 1))
    except (OverflowError, ValueError, MemoryError) as exc:
        raise DomainError(f"T/dt = {T / dt:.3g} steps do not fit in memory") from exc
    dt = T / n_steps
    controls = u.value_at(times[:-1] + 0.5 * dt)[:, 0] if u is not None else np.zeros(n_steps)
    n_rows = _block_rows(m.J + 1)
    rows = np.empty((n_rows, m.J + 1))  # state i is row i % n_rows
    rows[0] = v = rho0.values
    factor, advance = _cn_workspace(m, dt)
    # the steps of a run of equal controls share one factor
    starts, row_views = (np.flatnonzero(controls[1:] != controls[:-1]) + 1).tolist(), list(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for first, stop in zip([0, *starts], [*starts, n_steps]):
            factor(controls[first])
            for i in range(first + 1, stop + 1):
                r = i % n_rows
                v = advance(v, row_views[r])
                if r == n_rows - 1 or i == n_steps:
                    # a last state after 32k is reduced alone, as in blocks of 32:
                    # numpy reduces one row by dot, not gemv
                    for lo, hi in ((0, r), (r, r + 1)) if r % 32 == 0 < r else ((0, r + 1),):
                        block, at = _finite(rows[lo:hi]), slice(i - r + lo, i - r + hi)
                        devs[at] = np.sqrt(((block - rho_inf) ** 2) @ m.weights)
                        masses[at] = block @ m.weights
    return times, devs, masses


def _input_energy(u: Signal | None, t):
    """Exact int_0^t ||u(s)||^2 ds for piecewise-constant u, taken as zero
    outside its domain: the running energy, linear between breakpoints; t is
    a time or an array of times."""
    if u is None:
        return np.zeros(np.shape(t)) if np.ndim(t) else 0.0
    at_knots = np.concatenate(([0.0], np.cumsum(u.widths * np.sum(u.values**2, axis=1))))
    return np.interp(t, u.grid, at_knots)


def fit_gain_constant(m: FPModel, runs, omega: float, margin: float = 1.5) -> float:
    """Smallest C (times a safety margin) such that every training run
    satisfies dev(t) <= C e^{-omega t}(dev0 + dev0^2) + gamma_fp(C, energy(t)).

    runs is a list of (times, devs, energies), devs and energies >= 0; the
    right-hand side is then increasing in C, so each run's minimal C is found
    by bisection, which drops a point once it holds where its run fails.
    """
    if not 1.0 <= margin < math.inf:
        raise DomainError(f"margin must be finite and >= 1, got {margin}")
    if not 0.0 < omega < math.inf:
        raise ContractError(f"fit_gain_constant needs a finite omega > 0, got {omega}")
    need = 1e-6
    for times, devs, energies in runs:
        devs, r = np.asarray(devs, dtype=float), np.asarray(energies, dtype=float)
        if np.any(devs < 0) or np.any(r < 0):
            raise DomainError("fit_gain_constant needs devs and energies >= 0")
        if not np.size(times) == devs.size == r.size:
            raise DataError("a run's times, devs and energies differ in length")
        scale, root = devs[0] + devs[0]**2, np.sqrt(r)
        # the points still checked; the largest sqrt(r) meets gamma_fp's guard first
        pts = np.array([np.exp(-omega * np.asarray(times)), devs, r, root])
        top = np.fmax.reduce(root)

        def holds(C: float) -> bool:
            nonlocal pts
            if C * top > _EXP_OVERFLOW:
                raise NumericError("gamma_fp: exponent C*sqrt(r) exceeds overflow guard")
            decay, dev, e, rt = pts  # gamma_fp's terms below in its order
            held = dev <= C * decay * scale + (C * e * np.exp(C * rt) + C * rt + C * e)
            if held.all():
                return True
            pts = pts[:, ~held]
            return False

        lo, hi = 0.0, 1.0
        while not holds(hi):
            hi *= 2.0
            if hi > 1e12:
                raise NumericError("fit_gain_constant: no finite C fits the data")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        need = max(need, hi)
    return margin * need


def run_fp_iss_experiment(m: FPModel, rho0: DensityField, u: Signal | None,
                          T: float, dt: float, fitC: float,
                          omega: float,
                          tol: float = 1e-6) -> AuditReport:
    """Audit one run against the ISS estimate

        dev(t) <= C e^{-omega t}(dev(0) + dev(0)^2) + gamma_fp(C, int ||u||^2)

    with omega the spectral gap (see spectral_gap) and C = fitC."""
    if abs(rho0.mass - 1.0) > 1e-10:
        raise DomainError(f"rho0 must have mass 1 (got {rho0.mass})")
    if not 0.0 < omega < math.inf:
        raise ContractError(f"run_fp_iss_experiment needs a finite omega > 0, got {omega}")
    times, devs, _ = simulate(m, rho0, u, T, dt)
    gain = gamma_fp(fitC, _input_energy(u, times))
    rhs = fitC * np.exp(-omega * times) * (devs[0] + devs[0]**2) + gain
    return audit(Trajectory(times, devs.reshape(-1, 1)), rhs, tol=tol)

