import math

import numpy as np
import pytest

from isslab.bounds import (
    BoundParams,
    audit,
    beta,
    gamma1,
    gamma2,
    gamma_fp,
    iss_rhs,
)
from isslab.errors import ContractError, DomainError, NumericError
from isslab.mild_solver import Trajectory
from isslab.orlicz import YoungFunction, luxemburg_norm
from isslab.signals import Interval, Signal, random_signal

P2 = YoungFunction.power(2)


def bp(M=1.0, omega=1.0, m=1.0, C_B1=1.0, C_B2=1.0):
    return BoundParams(M=M, omega=omega, m=m, C_B1=C_B1, C_B2=C_B2)


def test_params_validation():
    with pytest.raises(DomainError):
        BoundParams(M=0.5, omega=1.0, m=1.0)
    with pytest.raises(DomainError):
        BoundParams(M=1.0, omega=1.0, m=0.0)
    with pytest.raises(DomainError):
        BoundParams(M=1.0, omega=1.0, m=1.0, C_B1=-1.0)


def test_beta_values():
    assert beta(bp(), 0.0, 5.0) == 0.0
    assert beta(bp(M=1.0, omega=1.0), 2.0, 0.0) == pytest.approx(4.0)
    # decreasing to 0 in t for positive decay rate
    vals = [beta(bp(M=2.0, omega=1.0), 1.0, t) for t in np.linspace(0.0, 20.0, 30)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-7
    # strictly increasing in s
    svals = [beta(bp(), s, 1.0) for s in np.linspace(0.0, 5.0, 20)]
    assert all(a < b for a, b in zip(svals, svals[1:]))


def test_beta_negative_omega_sup_term():
    p = bp(omega=-1.0)
    # sup_{r<=t} e^{-omega r} = e^{t} for growing semigroups
    t, s = 2.0, 3.0
    expected = math.exp(t) * s + 0.5 * math.exp(t) * s * s * math.exp(t)
    assert beta(p, s, t) == pytest.approx(expected)


def test_gamma1_values():
    assert gamma1(bp(), 0.0) == 0.0
    assert gamma1(bp(m=1.0), 1.0) == pytest.approx(4.0 * math.e**4)
    grid = np.linspace(0.1, 5.0, 30)
    vals = [gamma1(bp(), s) for s in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(NumericError):
        gamma1(bp(), 1e4)


def test_gamma2_values():
    assert gamma2(0.0) == 0.0
    assert gamma2(2.0) == 4.0
    assert gamma2(1.0) == 1.5


def test_gamma_fp_values():
    assert gamma_fp(1.0, 0.0) == 0.0
    assert gamma_fp(1.0, 1.0) == pytest.approx(math.e + 2.0)
    grid = np.linspace(0.0, 10.0, 40)
    vals = [gamma_fp(0.7, r) for r in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert np.array_equal(gamma_fp(0.7, grid), vals)
    for C in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="finite C > 0"):
            gamma_fp(C, grid)


def test_iss_rhs_reduces_to_pieces():
    p = bp(omega=1.0)
    assert iss_rhs(p, 1.0, None, None, P2, P2, 3.0) == pytest.approx(beta(p, 1.0, 3.0))
    u1 = Signal.constant(0.5, Interval(0.0, 2.0))
    nrm = luxemburg_norm(P2, u1, Interval(0.0, 2.0))
    assert iss_rhs(p, 0.0, u1, None, P2, P2, 2.0) == pytest.approx(gamma1(p, nrm))


def test_iss_rhs_example_composition():
    p = bp(M=1.0, omega=1.0, m=1.0, C_B1=1.0, C_B2=1.0)
    u2 = Signal.constant(1.0, Interval(0.0, 1.0))
    val = iss_rhs(p, 1.0, None, u2, P2, P2, 1.0)
    assert val == pytest.approx(1.5 * math.exp(-1.0) + 1.5, rel=1e-9)


def test_iss_rhs_requires_positive_omega():
    with pytest.raises(ContractError):
        iss_rhs(bp(omega=0.0), 1.0, None, None, P2, P2, 1.0)
    with pytest.raises(ContractError):
        iss_rhs(bp(omega=-1.0), 1.0, None, None, P2, P2, 1.0)


def test_iss_rhs_monotone_in_horizon():
    p = bp(omega=2.0)
    u1 = random_signal(3, 1, Interval(0.0, 4.0), 16, 0.5)
    vals = [iss_rhs(p, 0.0, u1, None, P2, P2, t) for t in np.linspace(0.5, 4.0, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_iss_rhs_array_matches_scalar_horizons(comp_loglog):
    p = bp(omega=2.0, C_B1=0.3, C_B2=0.5)
    u1 = random_signal(5, 1, Interval(0.0, 2.0), 16, 1.0)
    u2 = random_signal(6, 2, Interval(0.0, 2.0), 7, 0.5)
    times = np.linspace(0.0, 2.0, 41)
    for phi in (comp_loglog, P2):
        rhs = iss_rhs(p, 0.8, u1, u2, phi, P2, times)
        assert rhs.shape == times.shape
        assert np.array_equal(rhs, [iss_rhs(p, 0.8, u1, u2, phi, P2, t) for t in times])
    assert isinstance(iss_rhs(p, 0.8, u1, None, P2, P2, 1.0), float)
    assert iss_rhs(p, 0.8, u1, u2, P2, P2, times.reshape(1, -1)).shape == (1, 41)
    with pytest.raises(DomainError):
        iss_rhs(p, 0.8, u1, None, P2, P2, np.array([1.0, -0.5]))


def test_iss_rhs_input_must_start_at_zero():
    p = bp(omega=2.0)
    u = Signal.constant(0.3, Interval(0.5, 2.0))
    # t = 0 has no input term; any t > 0 measures u on [0, t]
    assert iss_rhs(p, 0.8, u, None, P2, P2, 0.0) == beta(p, 0.8, 0.0)
    with pytest.raises(DomainError):
        iss_rhs(p, 0.8, u, None, P2, P2, 1.0)
    with pytest.raises(DomainError):
        iss_rhs(p, 0.8, None, u, P2, P2, np.array([0.0, 1.0]))


def test_audit_pass_fail_and_report():
    grid = np.linspace(0.0, 1.0, 11)
    traj = Trajectory(grid, np.exp(-grid).reshape(-1, 1))
    ok = audit(traj, np.exp(-grid) * 1.5, tol=1e-9)
    assert ok.passed and ok.n_points == 11
    assert ok.min_slack_ratio == pytest.approx(1.5)
    bad = audit(traj, 0.5 * np.exp(-grid), tol=1e-9)
    assert not bad.passed
    assert bad.max_violation > 0
    zero = Trajectory(grid, np.zeros((11, 1)))
    assert audit(zero, np.zeros(11)).passed
    with pytest.raises(ContractError):
        audit(traj, np.zeros(5))

