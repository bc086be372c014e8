"""Picard fixed-point solver for mild solutions of bilinear systems.

The solver integrates

    x(t) = T(t - a) x(a) + int_a^t T(t - s) [B1 F(x(s), u1(s)) + B2 u2(s)] ds

window by window.  Window lengths are chosen so the Picard map is a
contraction: the semigroup growth over a window is at most 2, and the
window Orlicz norm of u1 is small against the registered admissibility
surrogate and the local Lipschitz constant of F.  Inside a window the
convolution is a composite trapezoid rule whose nodes are aligned with the
input breakpoints, with the exact semigroup factor folded in through the
incremental recurrence

    I_j = T(dt_j) I_{j-1} + (dt_j/2) (T(dt_j) w_{j-1} + w_j),

so each sweep costs O(n) semigroup applications and the stiff linear part
is never time-stepped explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError, DomainError, NumericError
from .orlicz import YoungFunction, small_interval_norm
from .signals import Signal, write_csv

__all__ = ["SystemModel", "Trajectory", "solve_mild", "detect_blowup"]

# default norm threshold beyond which a trajectory is declared blown up:
# far above any audited bound, well below double overflow
BLOWUP_THRESHOLD = 1e12

_PICARD_CAP = 200
_DELTA_FLOOR = 1e-12


@dataclass(frozen=True)
class SystemModel:
    """Finite-dimensional truncation of a bilinear evolution system.

    semigroup  -- (t, x) -> T(t) x, supplied in closed form
    apply_B1   -- lifts F's output into the state space
    apply_B2   -- lifts the additive input into the state space
    F          -- bilinearity, ||F(x, u)|| <= m ||x|| ||u||
    lipschitz  -- radius k -> Lipschitz constant of x -> F(x, u)/||u|| on
                  the ball of radius k
    M, omega   -- semigroup type: ||T(t)|| <= M e^{-omega t}
    adm_c      -- admissibility-constant surrogate used by the window
                  selection (any upper bound preserves contraction)
    phi, psi   -- Young functions measuring u1 and u2 in the window rules
    """

    dim: int
    semigroup: Callable[[float, np.ndarray], np.ndarray]
    apply_B1: Callable[[np.ndarray], np.ndarray]
    apply_B2: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray, np.ndarray], np.ndarray]
    m: float
    lipschitz: Callable[[float], float]
    M: float = 1.0
    omega: float = 0.0
    adm_c: float = 1.0
    phi: YoungFunction = field(default_factory=lambda: YoungFunction.power(2))
    psi: YoungFunction = field(default_factory=lambda: YoungFunction.power(2))

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be >= 1")
        if self.m <= 0:
            raise DomainError("bilinearity bound m must be > 0")
        if self.M < 1:
            raise DomainError("semigroup bound M must be >= 1")
        if self.adm_c <= 0:
            raise DomainError("admissibility surrogate adm_c must be > 0")


@dataclass(frozen=True)
class Trajectory:
    """Time grid, state snapshots and cached state norms of one solve.

    status is 'complete' or 'blowup'; in the latter case t_blowup holds the
    first grid time whose norm exceeded the blow-up threshold.
    """

    grid: np.ndarray
    states: np.ndarray
    norms: np.ndarray = field(init=False)
    status: str = "complete"
    t_blowup: float | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if grid.ndim != 1 or grid.size != states.shape[0]:
            raise DataError("need one state per grid point")
        if grid.size >= 2 and np.any(np.diff(grid) <= 0):
            raise DataError("trajectory grid must be strictly increasing")
        if self.status not in ("complete", "blowup"):
            raise DataError(f"unknown trajectory status {self.status!r}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "norms", np.linalg.norm(states, axis=1))

    def to_csv(self, path, full_state: bool = False) -> None:
        header, cols = ["t", "norm"], [self.grid, self.norms]
        if full_state:
            header += [f"x_{j + 1}" for j in range(self.states.shape[1])]
            cols.append(self.states)
        write_csv(path, header, np.column_stack(cols).tolist())

    def to_json(self) -> dict:
        out = {"status": self.status, "n_points": int(self.grid.size)}
        if self.t_blowup is not None:
            out["t_blowup"] = self.t_blowup
        return out


def _window_nodes(a: float, b: float, u1: Signal | None, u2: Signal | None,
                  quad_h: float) -> np.ndarray:
    cells = max(2, int(math.ceil((b - a) / quad_h)))
    nodes = np.linspace(a, b, cells + 1)
    for u in (u1, u2):
        if u is not None:
            inner = u.grid[(u.grid > a) & (u.grid < b)]
            nodes = np.union1d(nodes, inner)
    return nodes


def _window_norm(phi: YoungFunction, u: Signal | None, a: float, delta: float) -> float:
    if u is None:
        return 0.0
    return small_interval_norm(phi, u, a, delta)


def solve_mild(model: SystemModel, x0, u1: Signal | None, u2: Signal | None,
               T: float, tol: float = 1e-8, quad_h: float = 1e-3,
               blowup_threshold: float = BLOWUP_THRESHOLD) -> Trajectory:
    """Solve the mild formulation on [0, T] by windowed Picard iteration."""
    if T <= 0:
        raise DomainError("horizon T must be > 0")
    if tol <= 0 or quad_h <= 0:
        raise DomainError("tol and quad_h must be > 0")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != model.dim:
        raise DataError(f"x0 has dimension {x0.size}, model expects {model.dim}")
    for name, u in (("u1", u1), ("u2", u2)):
        if u is not None and (u.domain.t0 > 0 or u.domain.t1 < T):
            raise DomainError(f"{name} must be defined on all of [0, {T}]")

    grid_out = [0.0]
    states_out = [x0.copy()]
    a = 0.0
    x_a = x0.copy()
    delta_cap = T
    if model.omega != 0.0:
        delta_cap = min(delta_cap, math.log(2.0) / abs(model.omega))

    while a < T - 1e-14:
        delta = min(delta_cap, T - a)
        # shrink the window until the contraction conditions hold
        while True:
            if delta < _DELTA_FLOOR:
                raise NumericError(
                    f"solve_mild: no contracting window at t={a} "
                    f"(delta floor {_DELTA_FLOOR} reached)"
                )
            nu1 = _window_norm(model.phi, u1, a, delta)
            r = float(np.linalg.norm(x_a))
            k_ball = 4.0 * model.M * r + 2.0 * model.M
            L_k = model.lipschitz(k_ball)
            ok = (
                model.m * model.adm_c * nu1 <= 0.5
                and model.adm_c * L_k * nu1 < 1.0
            )
            if ok and u2 is not None:
                nu2 = _window_norm(model.psi, u2, a, delta)
                ok = model.adm_c * nu2 <= model.M
            if ok:
                break
            delta *= 0.5

        converged = False
        while delta >= _DELTA_FLOOR:
            b = min(a + delta, T)
            nodes = _window_nodes(a, b, u1, u2, quad_h)
            dts = np.diff(nodes)
            n = nodes.size
            # inputs are constant per quadrature cell: nodes include every breakpoint
            mids = 0.5 * (nodes[:-1] + nodes[1:])
            v1 = u1.value_at(mids) if u1 is not None else np.zeros((n - 1, 1))
            v2 = u2.value_at(mids) if u2 is not None else np.zeros((n - 1, 1))

            # free evolution s_j = T(t_j - a) x_a, built incrementally
            free = np.empty((n, model.dim))
            free[0] = x_a
            for j in range(1, n):
                free[j] = model.semigroup(dts[j - 1], free[j - 1])

            def forcing(x: np.ndarray, cell: int) -> np.ndarray:
                return model.apply_B1(model.F(x, v1[cell])) + model.apply_B2(v2[cell])

            x_cur = free.copy()
            converged = False
            for _ in range(_PICARD_CAP):
                x_new = np.empty_like(x_cur)
                x_new[0] = x_a
                integral = np.zeros(model.dim)
                for j in range(1, n):
                    dt = dts[j - 1]
                    w_prev = forcing(x_cur[j - 1], j - 1)
                    w_here = forcing(x_cur[j], j - 1)
                    integral = model.semigroup(
                        dt, integral + 0.5 * dt * w_prev
                    ) + 0.5 * dt * w_here
                    x_new[j] = free[j] + integral
                diff = float(np.max(np.linalg.norm(x_new - x_cur, axis=1)))
                x_cur = x_new
                if diff <= tol:
                    converged = True
                    break
            if converged:
                break
            delta *= 0.5
        if not converged:
            raise NumericError(
                f"solve_mild: Picard iteration failed to contract at t={a}"
            )

        grid_out.extend(nodes[1:])
        states_out.extend(x_cur[1:])
        a = float(nodes[-1])
        x_a = x_cur[-1]

        norms_so_far = np.linalg.norm(np.asarray(states_out), axis=1)
        if np.any(norms_so_far > blowup_threshold):
            i = int(np.argmax(norms_so_far > blowup_threshold))
            return Trajectory(
                np.asarray(grid_out[: i + 1]),
                np.asarray(states_out[: i + 1]),
                status="blowup",
                t_blowup=float(grid_out[i]),
            )

    return Trajectory(np.asarray(grid_out), np.asarray(states_out))


def detect_blowup(traj: Trajectory, threshold: float) -> float | None:
    """First grid time at which the state norm exceeds threshold, if any."""
    if threshold <= 0:
        raise DomainError("threshold must be > 0")
    over = traj.norms > threshold
    if not np.any(over):
        return None
    return float(traj.grid[int(np.argmax(over))])
