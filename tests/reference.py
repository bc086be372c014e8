"""Independent reference implementations that tests compare the library
against: the exact L^p norm of a piecewise-constant signal, both sides of the
generalized Hoelder inequality (holder_pair), the terms of the Carleson-type
series that rules out L^p-admissibility (carleson_series_term), a writer and a
reader for the CSV artifacts of write_csv, a Crank-Nicolson step that factors
on every call, the gain-constant bisection over every point of a run,
Simpson's rule for the integral of the k_n certificate, and the audit-iss
rows computed case by case."""

import csv
import math

import numpy as np

from isslab import bounds, diagonal
from isslab.bounds import gamma_fp
from isslab.diagonal import KN_CONSTANT
from isslab.errors import DomainError, NumericError
from isslab.orlicz import YoungFunction, complementary, luxemburg_norm
from isslab.signals import _EXP_OVERFLOW, Interval, Signal, random_signal, restrict


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


def holder_pair(u: Signal, v: Signal, phi: YoungFunction, iv: Interval) -> dict:
    """Both sides of the generalized Hoelder inequality
    int |u||v| <= 2 ||u||_{L_Phi} ||v||_{L_Phi~} on iv."""
    comp = complementary(phi)
    ur = restrict(u, iv)
    vr = restrict(v, iv)
    cuts = np.union1d(ur.grid, vr.grid)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    wu = np.linalg.norm(ur.value_at(mids), axis=1)
    wv = np.linalg.norm(vr.value_at(mids), axis=1)
    lhs = float(np.sum(np.diff(cuts) * wu * wv))
    rhs = 2.0 * luxemburg_norm(phi, u, iv) * luxemburg_norm(comp, v, iv)
    return {"lhs": lhs, "rhs": rhs}


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


def cn_step(m, v: np.ndarray, u_cell: float, dt: float) -> np.ndarray:
    """One Crank-Nicolson step after v, 2 (I - dt/2 L)^{-1} v - v with
    L = A + u_cell B: scipy's gttrf of 1/2 (I - dt/2 L), made for this call
    alone, one gttrs solve and one subtraction (the LAPACK calls, and so the
    bits, of fokker_planck.step)."""
    from scipy.linalg.lapack import dgttrf, dgttrs
    quarter = 0.25 * dt * (m.A + u_cell * m.B)
    *lu, info = dgttrf(-quarter[2, :-1], 0.5 - quarter[1], -quarter[0, 1:])
    assert info == 0
    x, info = dgttrs(*lu, v)
    assert info == 0
    return x - v


def fit_gain_constant_bisection(runs, omega: float, margin: float = 1.5) -> float:
    """fokker_planck.fit_gain_constant's bisection with every point of a run
    checked at every C: the smallest C (times margin) with dev(t) <= C
    e^{-omega t}(dev0 + dev0^2) + gamma_fp(C, energy(t)) on every run."""
    need = 1e-6
    for times, devs, energies in runs:
        dev0 = devs[0]

        def holds(C):
            rhs = C * np.exp(-omega * times) * (dev0 + dev0**2) + gamma_fp(C, energies)
            return bool(np.all(devs <= rhs))

        lo, hi = 0.0, 1.0
        for _ in range(200):
            if holds(hi):
                break
            hi *= 2.0
            if hi > 1e12:
                raise NumericError("fit_gain_constant: no finite C fits the data")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if holds(mid):
                hi = mid
            else:
                lo = mid
        need = max(need, hi)
    return margin * need


def kn_integral_simpson(n: int, t: float, cells: int = 16000) -> float:
    """int_0^t Phi~((2^n/(k_n n)) e^{-2^n s}) ds, the integral that
    diagonal.verify_kn_bound takes in closed form, by Simpson's rule after
    the substitution sigma = 2^n s, which resolves the boundary layer at
    s = 0; t may be inf."""
    from scipy.integrate import simpson
    k_n = math.log(KN_CONSTANT * n) / n
    log_rate = n * math.log(2.0)
    log_amp = log_rate - math.log(k_n * n)
    # beyond sigma_max the argument underflows and Phi~ vanishes
    sigma_max = log_amp + 745.0
    if log_rate + math.log(t) < math.log(sigma_max):
        sigma_max = math.exp(log_rate) * t
    sig = np.linspace(0.0, sigma_max, cells + 1)
    with np.errstate(under="ignore"):
        vals = YoungFunction.loglog()(np.exp(np.minimum(log_amp - sig, _EXP_OVERFLOW)))
    return float(simpson(vals, x=sig)) * math.exp(-log_rate)


def audit_iss_rows(params: dict, base_seed: int, phi: YoungFunction) -> list[list]:
    """results.csv rows of the audit-iss command for its checked params
    (defaults filled in), one closed_form_trajectory, iss_rhs and audit call
    per case; phi is the tabulated complementary log-log gauge."""
    N, T = params["N"], params["T"]
    model = diagonal.example3_model(N)
    c_b1 = params["C_B1"]
    if c_b1 is None:
        c_b1 = diagonal.example3_admissibility(N)["C_B1"]
    bp = bounds.BoundParams(M=params["M"], omega=params["omega"], m=params["m"], C_B1=c_b1)
    times = np.linspace(0.0, T, params["samples"])
    rows = []
    for i in range(params["cases"]):
        case_seed = base_seed + i
        rng = np.random.Generator(np.random.Philox(case_seed))
        x0 = rng.uniform(-1.0, 1.0, N)
        u1 = random_signal(case_seed + 10_000, 1, Interval(0.0, T), params["cells"],
                           params["amplitude"])
        x0_norm = float(np.linalg.norm(x0))
        traj = diagonal.closed_form_trajectory(model, x0, u1, times)
        rhs = bounds.iss_rhs(bp, x0_norm, u1, None, phi, phi, times)
        rep = bounds.audit(traj, rhs, tol=params["tol"])
        rows.append([i, case_seed, x0_norm, rep.max_violation,
                     rep.min_slack_ratio, rep.passed])
    return rows
