"""Picard fixed-point solver for mild solutions of diagonal bilinear systems.

The system x' = diag(lam) x + u1 diag(mu) x + u2 has the semigroup
T(t) = diag(exp(lam t)), and the solver integrates its mild form

    x(t) = T(t - a) x(a) + int_a^t T(t - s) [u1(s) mu x(s) + u2(s)] ds

window by window.  The Picard map contracts on [a, a + delta] when T grows
at most 2 there and adm_c times the L^2 norm there is at most 1/2 for u1
and 1 for u2.  Those norms come from one table per input, the running
energy int_0^g (|u|/s)^2 at each breakpoint g (s the largest |value|, so no
square over- or underflows), and each window tests its whole halving ladder
delta_0 2^-k >= 1e-12 as one array, trying the contracting rungs in order
until the sweeps converge.  Inside a window the convolution is a composite
trapezoid rule whose nodes are aligned with the input breakpoints.  T is
linear, so free evolution and convolution fold into the one recurrence

    x_j = T(dt_j) (x_{j-1} + (dt_j/2) w_{j-1}) + (dt_j/2) w_j,   x_0 = x(a),

where w_{j-1} and w_j are the forcing at the two ends of cell j under that
cell's input.  The factors T(dt_j) of a window are computed once for all
its sweeps, and a sweep evaluates the window's forcings as two array
expressions, so the stiff linear part is never time-stepped explicitly.
Each step is an affine map x -> g_j x + c_j; a sweep composes them by an
inclusive doubling scan (Hillis-Steele) in ceil(log2 n) array steps that
only multiply and add, so factors that underflow to 0 stay exact.

The rule is symmetric, so its error expands in powers of h^2.  Each window
is solved on its nodes (x_h) and with every cell bisected (x_{h/2}), and one
Richardson step, (4 x_{h/2} - x_h) / 3 at the nodes, makes it fourth order;
the next window starts from that state.  The bisected solve starts warm:
shared nodes take x_h and each midpoint its left node times T(h/2), so a
mode that x_h holds at 0 stays 0 there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, NumericError
from .signals import Signal, _row_norms, write_csv

__all__ = ["SystemModel", "Trajectory", "solve_mild"]

# norm beyond which a trajectory is declared blown up: far above any
# audited bound, well below double overflow; read when a solve runs
BLOWUP_THRESHOLD = 1e12

_PICARD_CAP = 200
_DELTA_FLOOR = 1e-12


@dataclass(frozen=True)
class SystemModel:
    """Diagonal bilinear system x' = diag(lam) x + u1 diag(mu) x + u2, the
    one model of both the solver and the closed forms of `diagonal`.

    lam    -- generator eigenvalues, at least one; omega = -max(lam) is the
              decay rate
    mu     -- control coefficients of the scalar input u1
    adm_c  -- L^2 admissibility surrogate of the window rule (any upper
              bound preserves contraction; 0 if mu = 0); the closed forms
              ignore it, and `diagonal.stable_model` computes it

    u2 has one component, added to every mode, or one per mode.
    """

    lam: np.ndarray
    mu: np.ndarray
    adm_c: float

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if (lam.ndim != 1 or lam.size == 0 or mu.shape != lam.shape
                or not np.all(np.isfinite([lam, mu]))):
            raise DataError("lam and mu must be finite nonempty 1-d arrays of one length")
        if not 0.0 <= self.adm_c < math.inf:
            raise DomainError("admissibility surrogate adm_c must be >= 0 and finite")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    @property
    def dim(self) -> int:
        return self.lam.size

    @property
    def omega(self) -> float:
        return float(-np.max(self.lam))


@dataclass(frozen=True)
class Trajectory:
    """Time grid, state snapshots and cached state norms of one solve.

    status is 'complete' or 'blowup'; in the latter case t_blowup holds the
    first grid time whose norm exceeded the blow-up threshold.  states may
    carry a leading case axis (a stack on one grid); norms then do too.
    quad_error_estimate is solve_mild's max |x_{h/2} - x_h| / 3 over the run,
    the error of its trapezoid solve before extrapolation, not of the states.
    """

    grid: np.ndarray
    states: np.ndarray
    norms: np.ndarray = field(init=False)
    status: str = "complete"
    t_blowup: float | None = None
    quad_error_estimate: float | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if grid.ndim != 1 or grid.size != states.shape[-2]:
            raise DataError("need one state per grid point")
        if grid.size >= 2 and np.any(np.diff(grid) <= 0):
            raise DataError("trajectory grid must be strictly increasing")
        if self.status not in ("complete", "blowup"):
            raise DataError(f"unknown trajectory status {self.status!r}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "norms", _row_norms(
            states.reshape(-1, states.shape[-1])).reshape(states.shape[:-1]))

    def to_csv(self, path, full_state: bool = False) -> None:
        header, cols = ["t", "norm"], [self.grid, self.norms]
        if full_state:
            header += [f"x_{j + 1}" for j in range(self.states.shape[1])]
            cols.append(self.states)
        write_csv(path, header, np.column_stack(cols))

    def to_json(self) -> dict:
        extra = {k: v for k, v in (("t_blowup", self.t_blowup),
                                   ("quad_error_estimate", self.quad_error_estimate))
                 if v is not None}
        return {"status": self.status, "n_points": int(self.grid.size), **extra}


def _window_nodes(a: float, b: float, u1: Signal | None, u2: Signal | None,
                  quad_h: float) -> np.ndarray:
    nodes = np.linspace(a, b, max(2, int(math.ceil((b - a) / quad_h))) + 1)
    for u in (u for u in (u1, u2) if u is not None):
        nodes = np.union1d(nodes, u.grid[(u.grid > a) & (u.grid < b)])
    return nodes


def _l2_norms(u: Signal):
    """(a, b) -> L^2 norms of u on [a, b_k] from its running energies; the cells
    of a and b_k are measured from a and to b_k, so no digit of a short window is lost."""
    g, s = u.grid, float(np.max(np.abs(u.values))) or 1.0
    q = np.sum((u.values / s) ** 2, axis=1)
    run = np.concatenate(([0.0], np.cumsum(u.widths * q)))

    def norms(a: float, b: np.ndarray) -> np.ndarray:
        i = np.searchsorted(g, a, "right") - 1
        j = np.minimum(np.searchsorted(g, b, "right") - 1, q.size - 1)
        b = np.minimum(b, g[-1])
        inner = (g[i + 1] - a) * q[i] + (run[j] - run[i + 1]) + (b - g[j]) * q[j]
        return s * np.sqrt(np.where(j == i, (b - a) * q[i], inner))
    return norms


def _picard(model: SystemModel, x_a: np.ndarray, nodes: np.ndarray,
            u1: Signal | None, u2: Signal | None, tol: float,
            x: np.ndarray | None = None) -> np.ndarray | None:
    """Node states of one window, or None if _PICARD_CAP sweeps do not
    bring successive iterates within tol; the sweeps start from the node
    states x if given, else from the free evolution."""
    dts = np.diff(nodes)
    half = 0.5 * dts[:, None]
    growth = np.exp(dts[:, None] * model.lam)
    # inputs are constant per quadrature cell: nodes include every breakpoint
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    v1 = u1.value_at(mids) if u1 is not None else np.zeros((dts.size, 1))
    b2 = u2.value_at(mids) if u2 is not None else 0.0
    iterates = np.empty((2, nodes.size, model.dim))
    iterates[:, 0] = x_a
    c = np.zeros(growth.shape)  # zero forcing gives the free evolution
    for k in range(_PICARD_CAP + 1):
        if x is not None:
            # c_j = g_j w_{j-1} + w_j, the forcings at both ends of cell j
            c = (growth * (half * (model.mu * (v1 * x[:-1]) + b2))
                 + half * (model.mu * (v1 * x[1:]) + b2))
        # inclusive Hillis-Steele scan of the affine maps x -> g x + c
        g, s = growth.copy(), 1
        while s < dts.size:
            c[s:] = g[s:] * c[:-s] + c[s:]
            g[s:] *= g[:-s]
            s *= 2
        x_new = iterates[k % 2]
        np.multiply(g, x_a, out=x_new[1:])
        x_new[1:] += c
        if x is not None and math.sqrt(np.square(x_new - x).sum(axis=1).max()) <= tol:
            return x_new
        x = x_new
    return None


def solve_mild(model: SystemModel, x0, u1: Signal | None, u2: Signal | None,
               T: float, tol: float = 1e-8, quad_h: float = 1e-3) -> Trajectory:
    """Solve the mild formulation on [0, T] by windowed Picard iteration,
    cut at the first node whose norm exceeds BLOWUP_THRESHOLD."""
    if not 0 < T < math.inf:
        raise DomainError("horizon T must be > 0 and finite")
    if not (0 < tol < math.inf and 0 < quad_h < math.inf):
        raise DomainError("tol and quad_h must be > 0 and finite")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != model.dim:
        raise DataError(f"x0 has dimension {x0.size}, model expects {model.dim}")
    if not np.all(np.isfinite(x0)):
        raise DataError(f"x0 must be finite, got {x0}")
    for name, u in (("u1", u1), ("u2", u2)):
        if u is not None and (u.domain.t0 > 0 or u.domain.t1 < T):
            raise DomainError(f"{name} must be defined on all of [0, {T}]")
    if (u1 is not None and u1.d != 1) or (u2 is not None and u2.d not in (1, model.dim)):
        raise DomainError(f"u1 must be scalar and u2 have 1 or {model.dim} components")

    # u1 may cost at most half the contraction; u2 at most the bound M = 1
    rules = [(_l2_norms(u), bound) for u, bound in ((u1, 0.5), (u2, 1.0)) if u is not None]
    grids, states, a, x_a, t_blowup = [np.zeros(1)], [x0[None, :]], 0.0, x0, None
    quad_err = 0.0
    delta_cap = min(T, math.log(2.0) / abs(model.omega)) if model.omega else T

    while a < T - 1e-14 and t_blowup is None:
        delta0 = min(delta_cap, T - a)
        ladder = delta0 * 0.5 ** np.arange(int(math.log2(delta0 / _DELTA_FLOOR)) + 2)
        ok = ladder >= _DELTA_FLOOR
        for norms, bound in rules:
            ok &= model.adm_c * norms(a, a + ladder) <= bound
        for delta in ladder[ok]:
            nodes = _window_nodes(a, min(a + delta, T), u1, u2, quad_h)
            coarse = _picard(model, x_a, nodes, u1, u2, tol)
            if coarse is None:
                continue
            # x_{h/2}, started warm from x_h (see the module docstring)
            fine, guess = np.repeat(nodes, 2)[:-1], np.repeat(coarse, 2, axis=0)[:-1]
            fine[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
            guess[1::2] *= np.exp((fine[1::2] - nodes[:-1])[:, None] * model.lam)
            x = _picard(model, x_a, fine, u1, u2, tol, guess)
            if x is not None:
                break
        else:
            raise NumericError(f"solve_mild: no window at t={a} both contracts and lets the "
                               f"Picard iteration converge (delta floor {_DELTA_FLOOR} reached)")
        err = np.max(np.abs(x[::2] - coarse), axis=1) / 3.0
        x = (4.0 * x[::2] - coarse) / 3.0
        over = np.flatnonzero(np.linalg.norm(x, axis=1) > BLOWUP_THRESHOLD)
        if over.size:  # row 0 is x_a, so an initial state beyond it keeps only t = 0
            t_blowup = float(nodes[over[0]])
            nodes, x = nodes[:over[0] + 1], x[:over[0] + 1]
        quad_err = max(quad_err, float(np.max(err[:nodes.size])))
        grids.append(nodes[1:])
        states.append(x[1:])
        a, x_a = float(nodes[-1]), x[-1]

    return Trajectory(np.concatenate(grids), np.concatenate(states),
                      status="complete" if t_blowup is None else "blowup", t_blowup=t_blowup,
                      quad_error_estimate=quad_err)
