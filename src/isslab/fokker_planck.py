"""Conservative 1-D Fokker-Planck solver with no-flux boundaries.

Discretizes

    d rho / dt = d/dx ( nu d rho/dx + rho dW/dx ) + u * d/dx ( rho d alpha/dx )

on [0, 1] with J+1 uniform nodes.  Both operators are assembled in flux
form with arithmetic-mean drift interpolation and half-cell boundary rows,

    F_{i+1/2} = nu (rho_{i+1} - rho_i)/h + (rho_i + rho_{i+1})/2 * (P_{i+1} - P_i)/h,
    (A rho)_i = (F_{i+1/2} - F_{i-1/2})/h   (boundary rows divide by h/2),

so the trapezoid-weighted column sums vanish identically and time stepping
conserves mass to round-off.  Both operators are stored only as their three
bands (see FPModel).  Time integration is Crank-Nicolson with the control
frozen per step, exact in time for piecewise-constant inputs.  A step is
(I - dt/2 L)^{-1} (I + dt/2 L) v = 2 (I - dt/2 L)^{-1} v - v, L = A + u B: one
gttrs solve with the LU factors (gttrf) of 1/2 (I - dt/2 L), made once per run
of equal controls, minus v.  simulate's block masses are weights^T v.

The stationary density is the Gibbs kernel e^{-W/nu} (normalized); the
decay rate toward it is the spectral gap of the generator symmetrized by
the multiplication operator e^{Phi/2}, Phi = ln(nu) + W/nu, combined with
the square-root trapezoid weighting that makes the similarity transform
consistent with the weighted inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse import dia_array

from .bounds import AuditReport, audit, gamma_fp
from .errors import ContractError, DataError, DomainError, NumericError
from .mild_solver import Trajectory
from .signals import Signal

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
    tridiagonal dia_arrays with offsets [1, 0, -1], so their .data holds
    A[i-1, i], A[i, i], A[i+1, i] in column i."""

    J: int
    nu: float
    grid: np.ndarray
    W: np.ndarray
    alpha: np.ndarray
    A: dia_array
    B: dia_array
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


def _flux_operator(P: np.ndarray, nu: float, h: float, cell: np.ndarray) -> dia_array:
    """Tridiagonal operator rho -> d/dx (nu d rho + rho dP) on cells of width cell."""
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
    return dia_array((bands, [1, 0, -1]), shape=(n, n))


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
    if not (np.all(np.isfinite(A.data)) and np.all(np.isfinite(B.data))):
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


# states that simulate holds between its per-block checks and reductions;
# fixed, so memory does not grow with T/dt
_BLOCK_ROWS = 32


def _cn_factor(m: FPModel, u_cell: float, dt: float) -> list:
    """LU factors (LAPACK gttrf) of 1/2 (I - dt/2 (A + u_cell B)), the one
    operator a Crank-Nicolson step needs; callers hold np.errstate."""
    quarter = 0.25 * dt * (m.A.data + u_cell * m.B.data)
    if not np.all(np.isfinite(quarter)):
        raise NumericError("Crank-Nicolson matrix overflows; reduce the control or dt")
    *lu, info = dgttrf(-quarter[2, :-1], 0.5 - quarter[1], -quarter[0, 1:])
    if info != 0:
        raise NumericError(f"Crank-Nicolson matrix is singular (gttrf info {info}); reduce dt")
    return lu


def _cn_solve(lu: list, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One unchecked Crank-Nicolson step after v: a gttrs solve minus v."""
    return np.subtract(dgttrs(*lu, v)[0], v, out=out)


def _finite(states: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(states)):
        raise NumericError("Crank-Nicolson produced non-finite values; reduce dt")
    return states


def step(m: FPModel, rho: DensityField, u_cell: float, dt: float) -> DensityField:
    """One Crank-Nicolson step of d rho/dt = (A + u B) rho with the control
    frozen at u_cell."""
    if dt <= 0:
        raise DomainError("dt must be > 0")
    if rho.values.size != m.J + 1:
        raise DataError(f"density has {rho.values.size} nodes, the model {m.J + 1}")
    with np.errstate(over="ignore", invalid="ignore"):
        new = _cn_solve(_cn_factor(m, u_cell, dt), rho.values)
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
    bands = m.A.data
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
    n = diag.size
    vals, vecs = eigh_tridiagonal(
        diag, 0.5 * (upper + lower), select="i", select_range=(n - 2, n - 1)
    )
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
    rows = np.empty((_BLOCK_ROWS, m.J + 1))  # state i is row i % _BLOCK_ROWS
    rows[0] = v = rho0.values
    u_factored = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i, u_cell in enumerate(controls.tolist(), start=1):
            if u_cell != u_factored:
                lu, u_factored = _cn_factor(m, u_cell, dt), u_cell
            r = i % _BLOCK_ROWS
            v = _cn_solve(lu, v, out=rows[r])
            if r == _BLOCK_ROWS - 1 or i == n_steps:
                block = _finite(rows[:r + 1])
                devs[i - r:i + 1] = np.sqrt(((block - rho_inf) ** 2) @ m.weights)
                masses[i - r:i + 1] = block @ m.weights
    return times, devs, masses


def _input_energy(u: Signal | None, t):
    """Exact int_0^t ||u(s)||^2 ds for piecewise-constant u, taken as zero
    outside its domain; t is a time or an array of times."""
    if u is None:
        return np.zeros(np.shape(t)) if np.ndim(t) else 0.0
    power = Signal(u.grid, np.sum(u.values**2, axis=1, keepdims=True))
    energy = power.integral(np.clip(t, u.grid[0], u.grid[-1]))[..., 0]
    return float(energy) if np.ndim(t) == 0 else energy


def _rhs_curve(times: np.ndarray, dev0: float, energies: np.ndarray,
               C: float, omega: float) -> np.ndarray:
    decay = C * np.exp(-omega * times) * (dev0 + dev0**2)
    return decay + gamma_fp(C, energies)


def fit_gain_constant(m: FPModel, runs, omega: float, margin: float = 1.5) -> float:
    """Smallest C (times a safety margin) such that every training run
    satisfies dev(t) <= C e^{-omega t}(dev0 + dev0^2) + gamma_fp(C, energy(t)).

    runs is a list of (times, devs, energies); the right-hand side is
    increasing in C, so the per-point minimal C is found by bisection.
    """
    if margin < 1.0:
        raise DomainError("margin must be >= 1")
    need = 1e-6
    for times, devs, energies in runs:
        dev0 = devs[0]
        lo, hi = 0.0, 1.0
        for _ in range(200):
            rhs = _rhs_curve(times, dev0, energies, hi, omega)
            if np.all(devs <= rhs):
                break
            hi *= 2.0
            if hi > 1e12:
                raise NumericError("fit_gain_constant: no finite C fits the data")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            rhs = _rhs_curve(times, dev0, energies, mid, omega)
            if np.all(devs <= rhs):
                hi = mid
            else:
                lo = mid
        need = max(need, hi)
    return margin * need


def run_fp_iss_experiment(m: FPModel, rho0: DensityField, u: Signal | None,
                          T: float, dt: float, fitC: float,
                          omega: float | None = None,
                          tol: float = 1e-6) -> AuditReport:
    """Audit one run against the ISS estimate

        dev(t) <= C e^{-omega t}(dev(0) + dev(0)^2) + gamma_fp(C, int ||u||^2)

    with omega the computed spectral gap and C = fitC."""
    if abs(rho0.mass - 1.0) > 1e-10:
        raise DomainError(f"rho0 must have mass 1 (got {rho0.mass})")
    if omega is None:
        omega = spectral_gap(m)["omega"]
    times, devs, _ = simulate(m, rho0, u, T, dt)
    rhs = _rhs_curve(times, devs[0], _input_energy(u, times), fitC, omega)
    traj = Trajectory(times, devs.reshape(-1, 1))
    return audit(traj, rhs, tol=tol)

