"""Comparison-function machinery for ISS estimates of bilinear systems.

Implements the explicit gain functions

    beta(s, t)  = M e^{-omega t} s + (1/2) M^2 e^{-omega t} s^2 sup_{r in [0,t]} e^{-omega r}
    gamma1(s)   = 4 m^2 s^2 e^{4 m s}
    gamma2(s)   = s + (1/2) s^2
    gamma_fp(r) = C r e^{C sqrt(r)} + C sqrt(r) + C r

and assembles right-hand sides of the form

    ||x(t)|| <= beta(||x0||, t) + gamma1(C_B1 ||u1||_{E_Phi(0,t)})
                                + gamma2(C_B2 ||u2||_{E_Psi(0,t)})

together with an auditor that compares a computed trajectory against such a
bound point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError, DomainError, NumericError
from .signals import _EXP_OVERFLOW, Signal
if TYPE_CHECKING:
    from .orlicz import YoungFunction

__all__ = [
    "BoundParams",
    "AuditReport",
    "beta",
    "gamma1",
    "gamma2",
    "gamma_fp",
    "iss_rhs",
    "audit",
]


@dataclass(frozen=True)
class BoundParams:
    """Constants of the ISS estimate.

    M, omega    -- semigroup type: ||T(t)|| <= M e^{-omega t}, M >= 1
    m           -- bilinearity bound: ||F(x, u)|| <= m ||x|| ||u||
    C_B1, C_B2  -- admissibility constants of the control operators with
                   respect to the shifted semigroup e^{(omega/2) t} T(t)
    """

    M: float
    omega: float
    m: float
    C_B1: float = 0.0
    C_B2: float = 0.0

    def __post_init__(self):
        if self.M < 1.0:
            raise DomainError(f"semigroup bound M must be >= 1, got {self.M}")
        if self.m <= 0.0:
            raise DomainError(f"bilinearity bound m must be > 0, got {self.m}")
        if self.C_B1 < 0.0 or self.C_B2 < 0.0:
            raise DomainError("admissibility constants must be >= 0")


@dataclass(frozen=True)
class AuditReport:
    """Record of a bound-vs-trajectory comparison.

    max_violation   -- max over the grid of ||x(t)|| - rhs(t)
    min_slack_ratio -- min over the grid of rhs(t)/||x(t)|| (tightness)
    worst_time      -- grid time attaining max_violation
    n_points        -- number of compared grid points
    passed          -- max_violation <= tol*(1 + rhs) at every point
    """

    max_violation: float
    min_slack_ratio: float
    worst_time: float
    n_points: int
    passed: bool


# ---------------------------------------------------------------------------
# gain functions
# ---------------------------------------------------------------------------


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp elementwise: np.exp differs from it in the last bit for some x."""
    return np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)


def beta(p: BoundParams, s, t):
    """KL-class decay term of the estimate, elementwise on arrays s and t."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise DomainError("beta needs s, t >= 0")
    far = np.abs(p.omega * t) > _EXP_OVERFLOW
    if p.omega <= 0 and np.any(far):
        raise NumericError("beta: |omega*t| exceeds overflow guard")
    decay = _exp(-p.omega * t)
    sup_term = 1.0 if p.omega >= 0 else decay
    with np.errstate(all="ignore"):  # a float product overflows to inf silently
        out = np.where(far, np.where(s == 0, 0.0, p.M * decay * s),
                       p.M * decay * s + 0.5 * p.M**2 * decay * s * s * sup_term)
    return out if out.ndim else float(out)


def gamma1(p: BoundParams, s):
    """K-infinity gain of the bilinear input u1, elementwise on an array s."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise DomainError("gamma1 needs s >= 0")
    if np.any(4.0 * p.m * s > _EXP_OVERFLOW):
        raise NumericError("gamma1: exponent 4*m*s exceeds overflow guard")
    with np.errstate(all="ignore"):
        out = 4.0 * p.m**2 * s * s * _exp(4.0 * p.m * s)
    return out if out.ndim else float(out)


def gamma2(s):
    """K-infinity gain of the additive input u2, elementwise on an array s."""
    if np.any(np.asarray(s) < 0):
        raise DomainError("gamma2 needs s >= 0")
    return s + 0.5 * s * s


def gamma_fp(C: float, r):
    """K-infinity gain of the Fokker-Planck ISS estimate; r is a scalar
    (returns a float) or an array (returns an array of the same shape)."""
    if not 0.0 < C < math.inf:
        raise DomainError(f"gamma_fp needs a finite C > 0, got {C}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("gamma_fp needs r >= 0")
    root = np.sqrt(r)
    if np.any(C * root > _EXP_OVERFLOW):
        raise NumericError("gamma_fp: exponent C*sqrt(r) exceeds overflow guard")
    gain = C * r * np.exp(C * root) + C * root + C * r
    return float(gain) if gain.ndim == 0 else gain


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def _input_norm(phi: YoungFunction, u, t) -> np.ndarray:
    """||u||_{E_Phi(0,t)} for every horizon in t (a row per signal of a stack
    if some t > 0) from one prefix-norm solve; t > 0 needs u to start at 0."""
    from .orlicz import prefix_luxemburg_norms  # here: fokker_planck computes no norm
    t = np.asarray(t, dtype=float)
    if u is None or not np.any(t > 0.0):
        return np.zeros(t.shape)
    if any(v.grid[0] != 0.0 for v in ([u] if isinstance(u, Signal) else u)):
        raise DomainError("input signals must start at t = 0")
    return prefix_luxemburg_norms(phi, u, t)


def iss_rhs(p: BoundParams, x0_norm, u1, u2, phi: YoungFunction, psi: YoungFunction, t):
    """Right-hand side of the exponentially stable (omega > 0) estimate with
    t-uniform admissibility constants.

    t is a scalar (returns a float) or an array of horizons (returns an
    array of the same shape); the input norms of all horizons come from
    one prefix-norm solve per input.  B cases, x0_norm of shape (B,) with u1
    and u2 None, a Signal or B signals on one grid, give shape (B,) + t.shape.
    """
    if p.omega <= 0.0:
        raise ContractError("iss_rhs needs omega > 0: it is the exponentially stable estimate")
    ts, s = np.asarray(t, dtype=float), np.asarray(x0_norm, dtype=float)
    n1 = _input_norm(phi, u1, ts)
    n2 = _input_norm(psi, u2, ts)
    rhs = np.asarray(beta(p, s.reshape(s.shape + (1,) * ts.ndim), ts)
                     + gamma1(p, p.C_B1 * n1) + gamma2(p.C_B2 * n2))
    return rhs if rhs.ndim else float(rhs)


# ---------------------------------------------------------------------------
# auditing
# ---------------------------------------------------------------------------


def audit(traj, rhs, tol: float = 1e-6) -> AuditReport:
    """Compare a trajectory's norms against a bound on the same grid.

    rhs is an array of bound values, one per trajectory grid point.  PASS
    means ||x(t)|| - rhs(t) <= tol*(1 + rhs(t)) at every grid point.  For
    norms and rhs of shape (cases, points) each field but n_points is per case.
    """
    if tol < 0:
        raise DomainError("tol must be >= 0")
    grid = np.asarray(traj.grid, dtype=float)
    norms = np.asarray(traj.norms, dtype=float)
    if norms.shape[-1:] != grid.shape or grid.size < 1:
        raise ContractError("trajectory grid and norms must align and be nonempty")
    rhs_vals = np.asarray(rhs, dtype=float)
    if rhs_vals.size != norms.size:
        raise ContractError(
            f"bound values ({rhs_vals.size}) do not share the trajectory "
            f"grid ({grid.size} points)"
        )
    rhs_vals = rhs_vals.reshape(norms.shape)
    violations = norms - rhs_vals
    i = np.argmax(violations, axis=-1)
    with np.errstate(all="ignore"):  # a ratio past the double range is inf
        ratios = np.where(norms > 0, rhs_vals / norms, np.inf)
    fields = (np.max(violations, axis=-1), np.min(ratios, axis=-1), grid[i],
              np.all(violations <= tol * (1.0 + rhs_vals), axis=-1))
    if norms.ndim == 1:
        fields = (*map(float, fields[:3]), bool(fields[3]))
    return AuditReport(*fields[:3], n_points=int(grid.size), passed=fields[3])
