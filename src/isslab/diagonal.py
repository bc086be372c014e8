"""Diagonal bilinear system with explosively growing control coefficients.

The model is the countable family of scalar bilinear equations

    x_n'(t) = lambda_n x_n(t) + u(t) mu_n x_n(t),

truncated to N modes, with the benchmark choice lambda_n = -2^n and
mu_n = 2^n / n.  `stable_model` builds the truncation as the solver's
`SystemModel`, one model for the Picard solver and the closed forms.  Each
mode solves in closed form,

    x_n(t) = exp(lambda_n t + mu_n int_0^t u(s) ds) x_n(0),

which makes the truncation an exact oracle for the Picard solver and the
bound audits.  The module also provides the admissibility arithmetic: the
per-mode L^2 (Cauchy-Schwarz) constants whose growth in N is the evidence
that the control operator is not L^p-admissible for any finite p, and the
small-norm certificates that establish admissibility in the Orlicz space
built from Phi~(x) = x ln(ln(x+e)).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, DomainError, NumericError
from .mild_solver import SystemModel, Trajectory
from .orlicz import YoungFunction, _luxemburg_rows
from .signals import _EXP_OVERFLOW, Signal, _allocate, _row_norms, _stack

__all__ = [
    "stable_model",
    "example3_model",
    "closed_form_exponents",
    "closed_form_solution",
    "closed_form_trajectory",
    "verify_kn_bound",
    "lp_admissibility_scan",
    "example3_admissibility",
]

# constant in the small-norm certificate k_n = ln(Cn)/n
KN_CONSTANT = math.log(2.0) + math.log(2.0 * math.e)


def stable_model(lam, mu) -> SystemModel:
    """The diagonal system with strictly stable rates lam and control
    coefficients mu; its admissibility surrogate is the l^2 combination of
    the per-mode L^2 constants |mu_n| / sqrt(2 |lam_n|)."""
    m = SystemModel(lam, mu, 0.0)
    if np.any(m.lam >= 0):
        raise DomainError("stable_model expects strictly stable modes")
    c = m.mu / np.sqrt(2.0 * np.abs(m.lam))
    return SystemModel(m.lam, m.mu, float(_row_norms(c[None, :])[0]))


def example3_model(N: int) -> SystemModel:
    """The benchmark model lambda_n = -2^n, mu_n = 2^n/n, n = 1..N."""
    if not 1 <= N <= 60:
        raise DomainError(f"N must be in [1, 60], got {N}")
    n = np.arange(1, N + 1, dtype=float)
    pow2 = 2.0**n
    return stable_model(-pow2, pow2 / n)


# ---------------------------------------------------------------------------
# closed-form solution
# ---------------------------------------------------------------------------


def closed_form_exponents(m: SystemModel, u, t) -> np.ndarray:
    """Per-mode exponents lambda_n t + mu_n int_0^t u, the log-domain
    representation of the propagator; an array of times gives one row of
    exponents per time.  u is None, a scalar Signal or a stack of them (a
    sequence on one grid), which adds a leading axis, one entry per signal."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise DomainError("t must be >= 0")
    stack = () if u is None or isinstance(u, Signal) else (len(u),)
    flat = ts.reshape(-1)
    integral = np.zeros((stack or (1,)) + flat.shape)
    # t = 0 needs no input, however late the signal starts
    live = flat != 0.0
    if u is not None and np.any(live):
        w = _stack(u)  # one component per input
        if w.d != len(integral):
            raise DomainError("the diagonal system takes a scalar input")
        integral[:, live] = w.integral(flat[live]).T
    expo = m.lam * flat[:, None] + m.mu * integral[..., None]
    return expo.reshape(stack + ts.shape + (m.dim,))


def closed_form_solution(m: SystemModel, x0, u, t) -> np.ndarray:
    """x_n(t) = exp(lambda_n t + mu_n int_0^t u) x_n(0), exactly; an array
    of times gives one state row per time, and x0 broadcasts against them.
    An exponent above 700 takes h (h x0_n), h = exp(exponent / 2), so every
    state that is a double comes out as one.  NumericError if one overflows."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape[-1] != m.dim:
        raise DataError(f"x0 has {x0.shape[-1]} modes, the model {m.dim}")
    expo = closed_form_exponents(m, u, t)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        x = np.exp(np.minimum(expo, _EXP_OVERFLOW)) * x0
        big = expo > _EXP_OVERFLOW
        if np.any(big):
            h = np.exp(expo / 2.0)
            x = np.where(big & (x0 != 0), h * (h * x0), x)
    if np.any(np.isinf(x)):
        raise NumericError("closed_form_solution: a state leaves the double range; "
                           "work with closed_form_exponents (log domain) instead")
    return x


def closed_form_trajectory(m: SystemModel, x0, u, times) -> Trajectory:
    """Trajectory, or a stack of them, sampled from the closed form on times."""
    times = np.asarray(times, dtype=float)
    return Trajectory(times, closed_form_solution(m, x0, u, times))


# ---------------------------------------------------------------------------
# admissibility arithmetic
# ---------------------------------------------------------------------------


def verify_kn_bound(n: int, t: float) -> dict:
    """Check the small-norm certificate of the n-th mode:

        int_0^t Phi~((2^n/(k_n n)) e^{-2^n s}) ds <= 1,

    with Phi~(x) = x ln(ln(x+e)) and k_n = ln(Cn)/n, C = ln2 + ln(2e).
    The substitution z = A e^{-2^n s} + e, A = 2^n/(k_n n), turns the
    integral into 2^{-n} [G(z)] from z(t) to z(0) = A + e, with

        G(z) = z ln(ln z) - Ei(ln z),

    the antiderivative of ln(ln z) (Ei the exponential integral).
    """
    if n < 2:
        raise DomainError("verify_kn_bound needs n >= 2 (so that k_n * n >= 1)")
    if not t > 0:
        raise DomainError("t must be > 0")
    if n > 900:
        raise DomainError("n too large for double-precision evaluation")
    # deferred: scipy costs a noticeable share of CLI start-up
    from scipy.special import expi

    k_n = math.log(KN_CONSTANT * n) / n
    rate = 2.0**n
    amp = rate / (k_n * n)
    z = np.array([amp + math.e, amp * math.exp(-rate * t) + math.e])
    G = z * np.log(np.log(z)) - expi(np.log(z))
    integral = float(G[0] - G[1]) / rate
    return {"integral": integral, "k_n": k_n, "pass": integral <= 1.0}


def lp_admissibility_scan(p: float, N_list, t: float = math.inf) -> list[dict]:
    """Growth of the per-truncation admissibility upper bounds
    sup_{n<=N} mu_n ||e^{lambda_n .}||_{L^q(0,t)} (1/p + 1/q = 1),
    evaluated in log-magnitudes.

    For t = inf the per-mode constant is q^{-1/q} 2^{n/p}/n when p > 1 and
    2^n/n when p = 1, so the constants grow like 2^{N/p}/N, which is the
    numerical evidence that no finite p yields a bounded constant. At p = 2
    the supremum is attained at n = N for N >= 7, giving 2^{(N-1)/2}/N.
    """
    Ns = [int(N) for N in N_list]
    if not (p >= 1 and t > 0 and min(Ns, default=1) >= 1):
        raise DomainError(f"need p >= 1, t > 0 and N >= 1, got p={p}, t={t}, N_list={Ns}")
    n = _allocate(np.arange, 1.0, max(Ns, default=0) + 1.0)
    lg = n * math.log10(2.0) - np.log10(n)  # log10 mu_n
    if p > 1:  # at p = 1, q = inf and the kernel's sup norm is 1
        q = p / (p - 1.0)
        with np.errstate(over="ignore"):  # 2^n = inf past n = 1023: e^{-q 2^n t} = 0
            decay = -np.expm1(-q * 2.0**n * t)
        lg += (np.log10(decay) - math.log10(q) - n * math.log10(2.0)) / q
    best = np.maximum.accumulate(lg)[[N - 1 for N in Ns]].tolist()
    return [{"N": N, "log10_constant": b, "constant": 10.0**b if b < 300.0 else math.inf}
            for N, b in zip(Ns, best)]


def _decaying_majorant(amplitude: float, rate: float, cells: int = 600) -> Signal:
    """Piecewise-constant upper envelope of s -> amplitude * e^{-rate s},
    left-endpoint values on a geometric grid, truncated where the kernel
    underflows."""
    s_max = 745.0 / rate
    grid = np.concatenate(([0.0], np.geomspace(s_max * 1e-10, s_max, cells)))
    with np.errstate(under="ignore"):
        vals = amplitude * np.exp(-rate * grid[:-1])
    return Signal(grid, vals.reshape(-1, 1))


def example3_admissibility(N: int) -> dict:
    """Horizon-uniform admissibility constant of the benchmark control
    operator with respect to the half-shifted semigroup (shift omega/2 = 1).

    Each shifted mode kernel mu_n e^{-(2^n - 1) s} is majorized by a
    piecewise-constant envelope whose L_{Phi~} Luxemburg norm c_n is the
    smallest feasible float, with no tolerance; the Hoelder pairing gives

        C_B1 = 2 * sqrt(sum_n c_n^2),

    an upper bound valid for every horizon, so the audited estimate is a
    true consequence of the per-mode certificates.
    """
    model = example3_model(N)
    envs = [_decaying_majorant(mu, -lam - 1.0) for lam, mu in zip(model.lam, model.mu)]
    r = np.stack([e.cell_norms() for e in envs])
    c = _luxemburg_rows(YoungFunction.loglog(), r, np.stack([e.widths for e in envs]))
    return {"c_n": c, "C_B1": 2.0 * float(np.linalg.norm(c))}
