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
that the control operator is not L^p-admissible for any finite p, the
divergent Carleson-type series terms, and the small-norm certificates that
establish admissibility in the Orlicz space built from
Phi~(x) = x ln(ln(x+e)).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, DomainError, NumericError
from .mild_solver import SystemModel, Trajectory
from .orlicz import YoungFunction, luxemburg_norm
from .signals import _EXP_OVERFLOW, Signal

__all__ = [
    "stable_model",
    "example3_model",
    "closed_form_exponents",
    "closed_form_solution",
    "closed_form_trajectory",
    "mode_admissibility_l2",
    "carleson_series_term",
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
    top = np.max(np.abs(c))
    with np.errstate(over="ignore"):
        adm_c = float(np.linalg.norm(c))
    if adm_c in (0.0, math.inf) and top > 0:  # the squares under- or overflowed
        adm_c = float(top * np.linalg.norm(c / top))
    return SystemModel(m.lam, m.mu, adm_c)


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


def closed_form_exponents(m: SystemModel, u: Signal | None, t) -> np.ndarray:
    """Per-mode exponents lambda_n t + mu_n int_0^t u, the log-domain
    representation of the propagator; an array of times gives one row of
    exponents per time."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise DomainError("t must be >= 0")
    flat = ts.reshape(-1, 1)
    integral = np.zeros_like(flat)
    # t = 0 needs no input, however late the signal starts
    live = flat[:, 0] != 0.0
    if u is not None and np.any(live):
        if u.d != 1:
            raise DomainError("the diagonal system takes a scalar input")
        integral[live] = u.integral(flat[live, 0])
    expo = m.lam * flat + m.mu * integral
    return expo.reshape(ts.shape + (m.dim,))


def closed_form_solution(m: SystemModel, x0, u: Signal | None, t) -> np.ndarray:
    """x_n(t) = exp(lambda_n t + mu_n int_0^t u) x_n(0), exactly; an array
    of times gives one state row per time."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != m.dim:
        raise DataError(f"x0 has length {x0.size}, model has {m.dim} modes")
    expo = closed_form_exponents(m, u, t)
    if np.any(expo[..., x0 != 0] > _EXP_OVERFLOW):
        raise NumericError(
            "closed_form_solution: exponent overflow; work with "
            "closed_form_exponents (log domain) instead"
        )
    with np.errstate(under="ignore"):
        return np.exp(np.minimum(expo, _EXP_OVERFLOW)) * x0


def closed_form_trajectory(m: SystemModel, x0, u: Signal | None,
                           times) -> Trajectory:
    """Trajectory sampled from the closed form on the given time grid."""
    times = np.asarray(times, dtype=float)
    return Trajectory(times, closed_form_solution(m, x0, u, times))


# ---------------------------------------------------------------------------
# admissibility arithmetic
# ---------------------------------------------------------------------------


def mode_admissibility_l2(lam: float, b: float, t: float) -> float:
    """Cauchy-Schwarz upper bound b*sqrt((1-e^{2 lam t})/(2|lam|)) for the
    L^2-admissibility constant of one stable scalar mode.

    The bound is attained by the matched input u(s) proportional to
    e^{lam(t-s)}, so it is also the exact constant.  t may be inf.
    """
    if lam >= 0:
        raise DomainError("mode_admissibility_l2 needs lam < 0")
    decay = 0.0 if math.isinf(t) else math.exp(2.0 * lam * t)
    return abs(b) * math.sqrt((1.0 - decay) / (2.0 * abs(lam)))


def carleson_series_term(p: float, n: int, log10: bool = False) -> float:
    """Term 2^{2n/(p-2)} / n^{4p/(p-2)} of the divergent series that rules
    out L^p-admissibility for p > 2; log10=True returns its base-10 log."""
    if p <= 2:
        raise DomainError("carleson_series_term needs p > 2")
    if n < 1:
        raise DomainError("n must be >= 1")
    lg = (2.0 * n / (p - 2.0)) * math.log10(2.0) - (4.0 * p / (p - 2.0)) * math.log10(n)
    if log10:
        return lg
    if lg > 300.0:
        raise NumericError(
            "carleson_series_term: value exceeds double range; use log10=True"
        )
    return 10.0**lg


def verify_kn_bound(n: int, t: float, quad_cells: int = 8000) -> dict:
    """Check the small-norm certificate of the n-th mode:

        int_0^t Phi~((2^n/(k_n n)) e^{-2^n s}) ds <= 1,

    with Phi~(x) = x ln(ln(x+e)) and k_n = ln(Cn)/n, C = ln2 + ln(2e).
    The integral is evaluated after the substitution sigma = 2^n s, which
    resolves the boundary layer at s = 0, and confirmed by one grid
    refinement (relative change <= 1e-4 required).
    """
    if n < 2:
        raise DomainError("verify_kn_bound needs n >= 2 (so that k_n * n >= 1)")
    if t <= 0:
        raise DomainError("t must be > 0")
    if quad_cells < 16:
        raise DomainError("quad_cells must be >= 16")
    if n > 900:
        raise DomainError("n too large for double-precision evaluation")
    k_n = math.log(KN_CONSTANT * n) / n
    phit = YoungFunction.loglog()
    log_rate = n * math.log(2.0)
    log_amp = log_rate - math.log(k_n * n)

    # beyond sigma_max the argument underflows and Phi~ vanishes
    sigma_max = log_amp + 745.0
    if log_rate + math.log(t) < math.log(sigma_max):
        sigma_max = math.exp(log_rate) * t

    # deferred: scipy.integrate costs a noticeable share of CLI start-up
    from scipy.integrate import simpson

    def quad(cells: int) -> float:
        sig = np.linspace(0.0, sigma_max, cells + 1)
        with np.errstate(under="ignore"):
            arg = np.exp(np.minimum(log_amp - sig, _EXP_OVERFLOW))
            vals = phit(arg)
            return float(simpson(vals, x=sig)) * math.exp(-log_rate)

    coarse = quad(quad_cells)
    fine = quad(2 * quad_cells)
    if abs(fine - coarse) > 1e-4 * (1.0 + abs(fine)):
        raise NumericError("verify_kn_bound: quadrature did not converge")
    return {"integral": fine, "k_n": k_n, "pass": fine <= 1.0}


def lp_admissibility_scan(p: float, N_list, t: float = math.inf) -> list[dict]:
    """Growth of the per-truncation admissibility upper bounds
    sup_{n<=N} mu_n ||e^{lambda_n .}||_{L^q(0,t)} (1/p + 1/q = 1),
    evaluated in log-magnitudes.

    For t = inf the per-mode constant is q^{-1/q} 2^{n/p}/n when p > 1 and
    2^n/n when p = 1, so the constants grow like 2^{N/p}/N, which is the
    numerical evidence that no finite p yields a bounded constant. At p = 2
    the supremum is attained at n = N for N >= 7, giving 2^{(N-1)/2}/N.
    """
    if not (p >= 1 and t > 0):
        raise DomainError(f"need p >= 1 and t > 0, got p={p}, t={t}")
    rows = []
    for N in N_list:
        best = -math.inf
        for n in range(1, int(N) + 1):
            lam = -(2.0**n)
            log_mu = n * math.log10(2.0) - math.log10(n)
            if p == 1.0:
                # q = inf: the kernel's sup norm is 1
                lg = log_mu
            else:
                q = p / (p - 1.0)
                decay = 0.0 if math.isinf(t) else math.exp(q * lam * t)
                lg = log_mu + (math.log10(1.0 - decay) - math.log10(q * abs(lam))) / q
            best = max(best, lg)
        rows.append({
            "N": int(N),
            "log10_constant": best,
            "constant": 10.0**best if best < 300.0 else math.inf,
        })
    return rows


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
    phit = YoungFunction.loglog()
    c = []
    for n in range(1, N + 1):
        rate = -model.lam[n - 1] - 1.0
        if rate <= 0:
            raise DomainError("half-shifted mode is not stable")
        env = _decaying_majorant(model.mu[n - 1], rate)
        c.append(luxemburg_norm(phit, env))
    c = np.asarray(c)
    return {"c_n": c, "C_B1": 2.0 * float(np.linalg.norm(c))}
