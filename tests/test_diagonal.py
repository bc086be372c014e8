import math
import warnings

import numpy as np
import pytest

from isslab.diagonal import (
    _decaying_majorant,
    closed_form_exponents,
    closed_form_solution,
    closed_form_trajectory,
    example3_admissibility,
    example3_model,
    lp_admissibility_scan,
    mode_admissibility_l2,
    stable_model,
    verify_kn_bound,
)
from isslab.errors import DataError, DomainError, NumericError
from isslab.orlicz import YoungFunction, luxemburg_norm
from isslab.signals import Interval, Signal, random_signal
from reference import carleson_series_term, kn_integral_simpson


def test_example3_model_values():
    m1 = example3_model(1)
    assert np.array_equal(m1.lam, [-2.0]) and np.array_equal(m1.mu, [2.0])
    m3 = example3_model(3)
    assert np.array_equal(m3.lam, [-2.0, -4.0, -8.0])
    assert np.allclose(m3.mu, [2.0, 2.0, 8.0 / 3.0])
    assert np.all(example3_model(30).lam < 0)
    with pytest.raises(DomainError):
        example3_model(0)
    with pytest.raises(DomainError):
        example3_model(61)
    with pytest.raises(DataError):
        stable_model([-1.0], [1.0, 2.0])


def test_closed_form_free_decay():
    m = example3_model(4)
    x0 = np.ones(4)
    x = closed_form_solution(m, x0, None, 0.5)
    assert np.allclose(x, np.exp(m.lam * 0.5))


def test_closed_form_cancellation():
    m = example3_model(2)
    u = Signal.constant(1.0, Interval(0.0, 5.0))
    x0 = np.array([1.0, 0.0])
    for t in (0.0, 1.0, 5.0):
        x = closed_form_solution(m, x0, u, t)
        assert x[0] == pytest.approx(1.0)
        assert x[1] == 0.0


def test_closed_form_cocycle():
    m = example3_model(5)
    u = random_signal(3, 1, Interval(0.0, 2.0), 9, 1.0)
    x0 = np.linspace(0.2, 1.0, 5)
    t, s = 0.7, 0.9
    whole = closed_form_solution(m, x0, u, t + s)
    mid = closed_form_solution(m, x0, u, t)
    tail = Signal(u.grid - t, u.values)
    # the shifted-grid tail starts below 0; rebuild on [0, s] exactly
    keep = tail.grid[tail.grid > 0]
    grid = np.concatenate(([0.0], keep))
    idx = np.searchsorted(tail.grid, grid[:-1], side="right") - 1
    tail_sig = Signal(grid, tail.values[idx])
    restarted = closed_form_solution(m, mid, tail_sig, s)
    assert np.allclose(whole, restarted, rtol=1e-12)


def test_closed_form_overflow_guard():
    m = example3_model(2)
    u = Signal.constant(200.0, Interval(0.0, 10.0))
    with pytest.raises(NumericError):
        closed_form_solution(m, np.ones(2), u, 10.0)
    # the log-domain exponents stay available
    expo = closed_form_exponents(m, u, 10.0)
    assert expo[0] == pytest.approx(-20.0 + 2.0 * 2000.0)


def test_truncation_consistency():
    u = random_signal(5, 1, Interval(0.0, 1.0), 6, 1.0)
    small = example3_model(6)
    big = example3_model(10)
    xs = closed_form_solution(small, np.ones(6), u, 0.8)
    xb = closed_form_solution(big, np.ones(10), u, 0.8)
    assert np.array_equal(xs, xb[:6])


def test_trajectory_helper():
    m = example3_model(3)
    times = np.linspace(0.0, 1.0, 11)
    traj = closed_form_trajectory(m, np.ones(3), None, times)
    assert traj.status == "complete"
    assert traj.norms[0] == pytest.approx(math.sqrt(3.0))


def test_trajectory_norms_survive_overflowing_squares():
    # mode 1 grows like e^{4t} under u1 = 3: its square overflows from t = 88.7
    u = Signal.constant(3.0, Interval(0.0, 120.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = closed_form_trajectory(example3_model(8), np.eye(8)[0], u,
                                      np.linspace(0.0, 120.0, 2401))
    assert np.all(np.isfinite(traj.norms))
    assert np.array_equal(traj.norms, np.abs(traj.states[:, 0]))


def test_trajectory_matches_per_time_closed_form():
    m = example3_model(8)
    u = random_signal(11, 1, Interval(0.0, 2.0), 16, 1.0)
    x0 = np.linspace(-1.0, 1.0, 8)
    times = np.linspace(0.0, 2.0, 41)
    traj = closed_form_trajectory(m, x0, u, times)
    for t, state in zip(times, traj.states):
        integral = float(np.sum(
            (np.minimum(u.grid[1:], t) - np.minimum(u.grid[:-1], t)) * u.values[:, 0]
        ))
        assert np.array_equal(state, np.exp(m.lam * t + m.mu * integral) * x0)
    assert np.array_equal(closed_form_solution(m, x0, u, times), traj.states)
    assert np.array_equal(closed_form_exponents(m, u, times)[7],
                          closed_form_exponents(m, u, times[7]))
    # one overflowing time fails the whole trajectory
    big = Signal.constant(200.0, Interval(0.0, 10.0))
    with pytest.raises(NumericError):
        closed_form_trajectory(example3_model(2), np.ones(2), big, [0.0, 1.0, 10.0])
    with pytest.raises(DomainError):
        closed_form_trajectory(m, x0, u, [0.0, 3.0])


def test_closed_form_exponents_domain_contract():
    m = example3_model(3)
    late = Signal.constant(1.0, Interval(0.5, 2.0))
    pair = Signal.constant([1.0, 2.0], Interval(0.0, 2.0))
    # t = 0 needs no input, however late it starts and whatever its dimension
    for u in (late, pair):
        assert np.array_equal(closed_form_exponents(m, u, 0.0), m.lam * 0.0)
        assert np.array_equal(closed_form_exponents(m, u, [0.0, 0.0]), np.zeros((2, 3)))
    assert np.allclose(closed_form_exponents(m, late, 1.5), m.lam * 1.5 + m.mu)
    # every other time outside the domain, or a vector input, raises
    for t in (0.25, 2.5, [0.0, 0.25]):
        with pytest.raises(DomainError):
            closed_form_exponents(m, late, t)
    with pytest.raises(DomainError):
        closed_form_exponents(m, pair, [0.0, 1.0])


def test_mode_admissibility_l2():
    assert mode_admissibility_l2(-2.0, 0.0, 1.0) == 0.0
    assert mode_admissibility_l2(-2.0, 2.0, math.inf) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        mode_admissibility_l2(0.0, 1.0, 1.0)
    # matched input u(s) = e^{lam (t-s)} attains the constant
    lam, b, t = -3.0, 1.7, 2.0
    n = 200_000
    s = np.linspace(0.0, t, n + 1)
    kernel = b * np.exp(lam * (t - s))
    matched = np.exp(lam * (t - s))
    reached = np.trapezoid(kernel * matched, s)
    l2 = math.sqrt(np.trapezoid(matched**2, s))
    assert reached / l2 == pytest.approx(mode_admissibility_l2(lam, b, t), rel=1e-8)


def test_carleson_terms():
    assert carleson_series_term(4.0, 1) == pytest.approx(2.0)
    for n in (1, 3, 10):
        assert carleson_series_term(4.0, n) == pytest.approx(2.0**n / n**8)
    terms = [carleson_series_term(4.0, n, log10=True) for n in range(40, 100)]
    assert all(b > a for a, b in zip(terms, terms[1:]))
    with pytest.raises(DomainError):
        carleson_series_term(2.0, 1)
    with pytest.raises(NumericError):
        carleson_series_term(2.5, 500)


def test_carleson_divergence_witnesses():
    for p in (2.5, 3.0, 4.0, 8.0):
        assert any(
            carleson_series_term(p, n, log10=True) > 3.0 for n in range(1, 201)
        )


def test_verify_kn_bound():
    r2 = verify_kn_bound(2, 1.0)
    assert r2["pass"] and r2["integral"] <= 1.0
    r10 = verify_kn_bound(10, 1.0)
    assert r10["pass"] and r10["integral"] <= 1.0
    with pytest.raises(DomainError):
        verify_kn_bound(1, 1.0)
    kn = [verify_kn_bound(n, 1.0)["k_n"] for n in range(3, 12)]
    assert all(a > b for a, b in zip(kn, kn[1:]))


def test_lp_admissibility_scan_closed_form():
    rows = lp_admissibility_scan(2.0, [1, 5, 20, 50])
    for r in rows:
        N = r["N"]
        # running maximum over modes of the closed form 2^{(n-1)/2}/n
        expected = max(
            math.log10(2.0 ** ((n - 1) / 2.0) / n) for n in range(1, N + 1)
        )
        assert r["log10_constant"] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    logs = [r["log10_constant"] for r in rows]
    assert all(b >= a for a, b in zip(logs, logs[1:]))


@pytest.mark.parametrize("t", [1.0, 0.37, math.inf])
def test_verify_kn_bound_matches_simpson_reference(t):
    for n in range(2, 61):
        got = verify_kn_bound(n, t)["integral"]
        assert got == pytest.approx(kn_integral_simpson(n, t), rel=1e-6), n


def test_verify_kn_bound_passes_up_to_n900():
    for t in (1.0, math.inf):
        for n in range(2, 901):
            result = verify_kn_bound(n, t)
            assert result["pass"] and 0.0 < result["integral"] <= 1.0, (n, t, result)
    for n, t in ((901, 1.0), (5, math.nan)):
        with pytest.raises(DomainError):
            verify_kn_bound(n, t)


def _log10_mode_at_inf(p, n):
    """log10 of mu_n ||e^{lambda_n .}||_{L^q(0,inf)} = q^{-1/q} 2^{n/p}/n
    (2^n/n at p = 1), with q^{-1/q} = r^r for r = 1/q = 1 - 1/p."""
    r = 1.0 - 1.0 / p
    return n / p * math.log10(2.0) - math.log10(n) + (r * math.log10(r) if r else 0.0)


@pytest.mark.parametrize("p, t", [(2.0, 1.0), (2.0, 0.37), (1.0, 1.0), (1.5, math.inf),
                                  (3.0, math.inf), (8.0, math.inf)])
def test_lp_admissibility_scan_matches_mode_constants(p, t):
    # at p = 2 each mode's constant is the exact L^2 one of mode_admissibility_l2;
    # at p = 1 the kernel's sup norm is 1 on every horizon
    def log10_mode(n):
        if p == 2.0:
            return math.log10(mode_admissibility_l2(-(2.0**n), 2.0**n / n, t))
        return _log10_mode_at_inf(p, n)

    for r in lp_admissibility_scan(p, [1, 2, 7, 40], t):
        expected = max(log10_mode(n) for n in range(1, r["N"] + 1))
        assert r["log10_constant"] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_lp_admissibility_scan_past_n1023():
    # 2^n overflows a double past n = 1023, where e^{-q 2^n t} = 0 as at t = inf
    for p in (1.0, 2.0, 8.0):
        for t in (1.0, math.inf):
            (row,) = lp_admissibility_scan(p, [1100], t)
            assert math.isfinite(row["log10_constant"])
            assert row["log10_constant"] == pytest.approx(_log10_mode_at_inf(p, 1100), rel=1e-12)
    assert lp_admissibility_scan(2.0, []) == []


def test_lp_admissibility_scan_needs_positive_horizon():
    for t in (0.0, -1.0):
        with pytest.raises(DomainError):
            lp_admissibility_scan(2.0, [5], t)
    with pytest.raises(DomainError):
        lp_admissibility_scan(2.0, [5, 0])


def test_admissibility_matches_per_mode_norms():
    loglog = YoungFunction.loglog()
    c = [luxemburg_norm(loglog, _decaying_majorant(2.0**n / n, 2.0**n - 1.0))
         for n in range(1, 61)]
    for N in range(1, 61):
        got = example3_admissibility(N)
        assert got["c_n"].tolist() == c[:N]
        assert got["C_B1"] == 2.0 * float(np.linalg.norm(c[:N]))


def test_admissibility_certificate(adm8):
    assert adm8["C_B1"] > 0
    assert len(adm8["c_n"]) == 8
    # per-mode certificates shrink as the modes get stiffer
    assert all(a >= b for a, b in zip(adm8["c_n"][1:], adm8["c_n"][2:]))


def test_closed_form_state_overflow_raises():
    # the exponent is exactly 700, within its guard, but e^700 * 1e10 is not
    # a double: the product leaves the range, so the call raises, unwarned
    m, u = example3_model(1), Signal.constant(3.0, Interval(0.0, 175.0))
    assert closed_form_exponents(m, u, 175.0)[0] == 700.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            closed_form_solution(m, [1e10], u, 175.0)
        with pytest.raises(NumericError):
            closed_form_trajectory(m, [1e10], u, [0.0, 175.0])
        # the finite states keep their bits: e^700 times x0
        assert closed_form_solution(m, [1e-10], u, 175.0)[0] == np.exp(700.0) * 1e-10
        assert closed_form_solution(m, [0.0], u, 175.0)[0] == 0.0


@pytest.mark.parametrize("times", [0.75, [0.0, 0.3, 1.0, 2.0], np.linspace(0.0, 2.0, 41)])
def test_closed_form_of_a_stack_equals_each_input(times):
    m = example3_model(8)
    us = [random_signal(s, 1, Interval(0.0, 2.0), 16, 1.5) for s in range(5)]
    X0 = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 8))
    # one x0 row per input, broadcast over the times
    rows = X0.reshape((5,) + (1,) * np.ndim(times) + (8,))
    expo = closed_form_exponents(m, us, times)
    states = closed_form_solution(m, rows, us, times)
    shared = closed_form_solution(m, X0[0], us, times)
    traj = closed_form_trajectory(m, X0[:, None], us, np.atleast_1d(times))
    for i, (u, x0) in enumerate(zip(us, X0)):
        assert np.array_equal(expo[i], closed_form_exponents(m, u, times))
        assert np.array_equal(states[i], closed_form_solution(m, x0, u, times))
        assert np.array_equal(shared[i], closed_form_solution(m, X0[0], u, times))
        one = closed_form_trajectory(m, x0, u, np.atleast_1d(times))
        assert np.array_equal(traj.states[i], one.states)
        assert np.array_equal(traj.norms[i], one.norms)


def test_closed_form_stack_contract():
    m = example3_model(3)
    us = [random_signal(s, 1, Interval(0.0, 1.0), 4, 1.0) for s in range(2)]
    assert closed_form_exponents(m, us, [0.0, 0.5]).shape == (2, 2, 3)
    assert closed_form_solution(m, np.ones((2, 3)), us, 0.5).shape == (2, 3)
    assert closed_form_solution(m, np.ones((2, 1, 3)), us, [0.0, 0.5]).shape == (2, 2, 3)
    # x0 has the model's modes, and rows that broadcast against the inputs
    with pytest.raises(DataError):
        closed_form_solution(m, np.ones((2, 2)), us, 0.5)
    with pytest.raises(ValueError):
        closed_form_solution(m, np.ones((3, 3)), us, 0.5)
    # the inputs share one grid and are scalar
    with pytest.raises(DataError):
        closed_form_exponents(m, [us[0], random_signal(5, 1, Interval(0.0, 1.0), 3, 1.0)], 0.5)
    with pytest.raises(DomainError):
        closed_form_exponents(m, [random_signal(5, 2, Interval(0.0, 1.0), 4, 1.0)] * 2, 0.5)
