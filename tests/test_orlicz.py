import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isslab import orlicz
from isslab.errors import DataError, DomainError, UnsupportedError
from isslab.orlicz import (
    YoungFunction,
    complementary,
    legendre_transform,
    luxemburg_norm,
    prefix_luxemburg_norms,
    small_interval_norm,
)
from isslab.signals import Interval, Signal, random_signal, restrict
from reference import holder_pair, lp_norm

ALL_KINDS = [
    YoungFunction.power(2),
    YoungFunction.power_over_p(3),
    YoungFunction.loglog(),
    YoungFunction.identity(),
]


# -- evaluation ------------------------------------------------------------


def test_eval_young_values():
    assert YoungFunction.power(2)(3.0) == 9.0
    assert YoungFunction.loglog()(0.0) == 0.0
    assert YoungFunction.power_over_p(2)(2.0) == 2.0
    with pytest.raises(DomainError):
        YoungFunction.power(2)(-1.0)


@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda p: p.kind)
def test_young_convex_and_increasing(phi):
    s = np.geomspace(1e-6, 1e6, 100)
    v = phi(s)
    assert v[0] >= 0
    assert np.all(np.diff(v) >= 0)
    # chord midpoint dominates the function value (convexity)
    mid = phi(0.5 * (s[:-1] + s[1:]))
    assert np.all(mid <= 0.5 * (v[:-1] + v[1:]) * (1 + 1e-12))


@pytest.mark.parametrize(
    "phi", [p for p in ALL_KINDS if p.kind != "identity"], ids=lambda p: p.kind
)
def test_young_growth_conditions(phi):
    small = np.geomspace(1e-12, 1e-6, 5)
    assert phi(small[0]) / small[0] <= phi(small[-1]) / small[-1] + 1e-9
    assert phi(1e-12) / 1e-12 < 0.1
    # the ratio Phi(s)/s keeps growing without bound (slowly for the
    # nearly-linear kind, so only a factor is asserted here)
    assert phi(1e6) / 1e6 > 5.0 * max(phi(1.0), 1e-12)
    assert phi(1e12) / 1e12 > phi(1e6) / 1e6


# -- complementary functions ----------------------------------------------


def test_complementary_closed_forms():
    assert complementary(YoungFunction.power_over_p(2)).p == 2.0
    assert complementary(YoungFunction.power_over_p(3)).p == pytest.approx(1.5)
    with pytest.raises(UnsupportedError):
        complementary(YoungFunction.identity())


def test_tabulated_functions_compare_by_knot_values():
    a, b = complementary(YoungFunction.power(2)), complementary(YoungFunction.power(2))
    assert a.kind == "tabulated" and a is not b
    assert a == b and hash(a) == hash(b)
    assert a != complementary(YoungFunction.power(3))
    assert a != YoungFunction.tabulated(a.knots * [1.0, 2.0])
    assert len({a, b, YoungFunction.power(2)}) == 2


def test_legendre_transform_matches_closed_form():
    phi = YoungFunction.power_over_p(3)
    conj = complementary(phi)
    for s in (0.5, 1.0, 2.0):
        exact = conj(s)
        assert legendre_transform(phi, s) == pytest.approx(exact, rel=1e-6)
    assert legendre_transform(phi, 0.0) == 0.0


def _legendre_one(phi, s):
    """Per-knot reference: grid argmax, then golden section on one s."""
    if s == 0.0:
        return 0.0
    t = np.logspace(-12, 290, 3000)
    with np.errstate(over="ignore", invalid="ignore"):
        g = s * t - phi(t)
    g = np.where(np.isfinite(g), g, -np.inf)
    i = int(np.argmax(g))
    best = max(g[i], 0.0)
    invphi = (math.sqrt(5) - 1) / 2
    a, b = t[max(i - 1, 0)], t[min(i + 1, t.size - 1)]
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = s * c - phi(c), s * d - phi(d)
    for _ in range(200):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = s * c - phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = s * d - phi(d)
        if b - a <= 1e-14 * b:
            break
    return float(max(best, fc, fd, 0.0))


@pytest.mark.parametrize(
    "phi",
    [YoungFunction.loglog(), YoungFunction.power_over_p(3), YoungFunction.power(2.5)],
    ids=lambda p: p.kind,
)
def test_legendre_transform_batch_matches_per_knot(phi):
    s = np.concatenate([[0.0], np.logspace(-6, 6, 101)])
    batch = legendre_transform(phi, s)
    assert batch.shape == s.shape
    assert np.array_equal(batch, [_legendre_one(phi, x) for x in s])
    assert legendre_transform(phi, float(s[40])) == batch[40]
    assert np.array_equal(legendre_transform(phi, s.reshape(3, -1)), batch.reshape(3, -1))
    with pytest.raises(DomainError):
        legendre_transform(phi, np.array([1.0, -1.0]))


def test_complementary_knots_match_per_knot_transform(comp_loglog):
    # every maximizer lies on the [1e-12, 1e290] grid, so no knot searches
    # the lower grid and the table keeps its bits
    s, vals = comp_loglog.knots[:, 0], comp_loglog.knots[:, 1]
    assert np.array_equal(vals, [_legendre_one(YoungFunction.loglog(), x) for x in s])


@pytest.mark.parametrize("p", [1.1, 1.5])
def test_complementary_power_knots_below_the_grid(p):
    # s^p has its maximizers t = (s/p)^{1/(p-1)} below 1e-12 at the small
    # knots (s < 0.066 for p = 1.1), where the transform (p-1)(s/p)^q is tiny
    # but positive; a search stop relative to the maximizer keeps every knot
    # accurate, where one absolute below t = 1 left knots 1e-6 off
    knots = complementary(YoungFunction.power(p)).knots
    s, vals = knots[:, 0], knots[:, 1]
    assert s.size == 512 and np.all(vals > 0)
    exact = (p - 1.0) * (s / p) ** (p / (p - 1.0))
    assert np.max(np.abs(vals - exact) / exact) <= 1e-14


def test_tabulated_conjugate_interpolation_accuracy():
    phi = YoungFunction.power_over_p(3)
    tab_knots = np.array([[s, legendre_transform(phi, s)] for s in np.geomspace(0.01, 10, 2000)])
    tab = YoungFunction.tabulated(tab_knots)
    s = np.array([0.5, 1.0, 2.0])
    exact = complementary(phi)(s)
    assert np.allclose(tab(s), exact, rtol=1e-5)


# -- Luxemburg norm --------------------------------------------------------


def test_luxemburg_basic_values():
    iv = Interval(0.0, 1.0)
    assert luxemburg_norm(YoungFunction.power(2), Signal.constant(2.0, iv)) == pytest.approx(2.0, rel=1e-10)
    assert luxemburg_norm(YoungFunction.loglog(), Signal.zero(iv)) == 0.0
    assert luxemburg_norm(
        YoungFunction.identity(), Signal.constant(1.0, Interval(0.0, 3.0))
    ) == pytest.approx(3.0)


@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda p: p.kind)
def test_luxemburg_homogeneity(phi):
    u = random_signal(4, 2, Interval(0.0, 2.0), 10, 1.0)
    base = luxemburg_norm(phi, u)
    for c in (0.125, 3.0, 40.0):
        scaled = Signal(u.grid, c * u.values)
        assert luxemburg_norm(phi, scaled) == pytest.approx(c * base, rel=1e-10)


@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda p: p.kind)
def test_luxemburg_interval_monotone(phi):
    u = random_signal(6, 1, Interval(0.0, 3.0), 12, 1.0)
    inner = luxemburg_norm(phi, u, Interval(0.5, 2.0))
    outer = luxemburg_norm(phi, u, Interval(0.0, 3.0))
    assert inner <= outer + 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_luxemburg_matches_lp(p):
    for seed in range(20):
        u = random_signal(seed, 2, Interval(0.0, 2.0), 8, 2.0)
        assert luxemburg_norm(YoungFunction.power(p), u) == pytest.approx(
            lp_norm(u, p), rel=1e-8
        )
        # s^p/p is the L^p norm scaled by p^{-1/p}
        assert luxemburg_norm(YoungFunction.power_over_p(p), u) == pytest.approx(
            p ** (-1.0 / p) * lp_norm(u, p), rel=1e-14
        )


PREFIX_KINDS = [
    YoungFunction.power(2),
    YoungFunction.power(3.5),
    YoungFunction.power_over_p(3),
    YoungFunction.loglog(),
    YoungFunction.identity(),
    "tabulated",
]


@given(
    kind=st.sampled_from([YoungFunction.power_over_p(2), *PREFIX_KINDS]),
    seed=st.integers(min_value=0, max_value=10_000),
    c=st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=30, deadline=None)
def test_luxemburg_homogeneity_property(comp_loglog, kind, seed, c):
    u = random_signal(seed, 1, Interval(0.0, 1.0), 6, 1.0)
    phi = comp_loglog if kind == "tabulated" else kind
    base = luxemburg_norm(phi, u)
    scaled = Signal(u.grid, c * u.values)
    assert luxemburg_norm(phi, scaled) == pytest.approx(c * base, rel=1e-9, abs=1e-12)


@given(
    kind=st.sampled_from(PREFIX_KINDS),
    seed=st.integers(min_value=0, max_value=10_000),
    shrink=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6),
)
@settings(max_examples=30, deadline=None)
def test_luxemburg_monotonicity_property(comp_loglog, kind, seed, shrink):
    # scaling some cells' values by factors in [0, 1] never raises the norm
    phi = comp_loglog if kind == "tabulated" else kind
    u = random_signal(seed, 2, Interval(0.0, 1.0), 6, 1.0)
    smaller = Signal(u.grid, np.asarray(shrink)[:, None] * u.values)
    assert luxemburg_norm(phi, smaller) <= luxemburg_norm(phi, u) * (1 + 1e-9) + 1e-12


def _modular(phi, r, w, k):
    with np.errstate(over="ignore"):
        vals = phi(r / k)
    return float(np.sum(w * np.where(np.isfinite(vals), vals, np.inf)))


def _luxemburg_one(phi, u, tol=1e-12):
    """Scalar reference: bracket from k = max r by halving or doubling,
    then bisect, one modular evaluation at a time; below 1e-300 the norm
    is 0."""
    r, w = u.cell_norms(), u.widths
    if not np.any(r > 0):
        return 0.0
    if phi.kind == "identity":
        return float(np.sum(w * r))
    k = float(np.max(r))
    if _modular(phi, r, w, k) <= 1.0:
        hi, lo = k, k / 2.0
        while _modular(phi, r, w, lo) <= 1.0:
            hi, lo = lo, lo / 2.0
            if lo < 1e-300:
                return 0.0
    else:
        lo, hi = k, k * 2.0
        while _modular(phi, r, w, hi) > 1.0:
            lo, hi = hi, hi * 2.0
    while hi - lo > tol * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if _modular(phi, r, w, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


@given(
    kind=st.integers(min_value=0, max_value=len(PREFIX_KINDS) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
    cells=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=2),
    scale=st.sampled_from([1e-3, 1.0, 40.0]),
    length=st.sampled_from([0.05, 2.0, 60.0]),
    zeros=st.lists(st.integers(min_value=0, max_value=11), max_size=4),
    inner=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_prefix_norms_equal_luxemburg_norms(comp_loglog, kind, seed, cells, d,
                                            scale, length, zeros, inner):
    phi = comp_loglog if PREFIX_KINDS[kind] == "tabulated" else PREFIX_KINDS[kind]
    u = random_signal(seed, d, Interval(0.0, length), cells, scale)
    values = u.values.copy()
    values[[z for z in zeros if z < cells]] = 0.0
    u = Signal(u.grid, values)
    # t = 0, every breakpoint, and points inside cells; short and long
    # domains make rows bracket downward and upward over several steps
    ends = np.concatenate([[0.0], u.grid[1:], length * np.asarray(inner, dtype=float)])
    got = prefix_luxemburg_norms(phi, u, ends)
    assert got.shape == ends.shape
    for t, norm in zip(ends, got):
        if t == 0.0:
            assert norm == 0.0
            continue
        ur = restrict(u, Interval(0.0, t))
        assert norm == luxemburg_norm(phi, u, Interval(0.0, t))
        ref = _luxemburg_one(phi, ur)
        if phi.kind == "identity" or norm == 0:
            assert norm == ref
            continue
        # the smallest feasible float: it never under-reports, the float
        # below it is infeasible, and it is no larger than the bisection,
        # which stops up to 1e-12*(1+k) above the norm (4 ulps allowed)
        r, w = ur.cell_norms(), ur.widths
        assert _modular(phi, r, w, norm) <= 1.0 < _modular(phi, r, w, np.nextafter(norm, 0.0))
        assert norm <= ref + 4 * np.spacing(ref)


@given(
    kind=st.sampled_from([k for k in PREFIX_KINDS if k != YoungFunction.identity()]),
    rows=st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                            st.integers(min_value=1, max_value=8),
                            st.integers(min_value=1, max_value=2),
                            st.sampled_from([0.0, 1e-3, 1.0, 40.0]),
                            st.sampled_from([0.05, 2.0, 60.0])), min_size=1, max_size=5),
    pad=st.sampled_from([0.0, 1.0, 1e300]),
)
@settings(max_examples=60, deadline=None)
def test_kernel_rows_equal_their_single_norms(comp_loglog, kind, rows, pad):
    # one row per signal, padded to the longest with zero widths whose
    # cell norms (pad) the kernel leaves out
    phi = comp_loglog if kind == "tabulated" else kind
    us = [random_signal(seed, d, Interval(0.0, length), cells, amplitude)
          for seed, cells, d, amplitude, length in rows]
    r = np.full((len(us), max(u.widths.size for u in us)), pad)
    W = np.zeros_like(r)
    for i, u in enumerate(us):
        r[i, :u.widths.size], W[i, :u.widths.size] = u.cell_norms(), u.widths
    got = orlicz._luxemburg_rows(phi, r, W)
    assert got.tolist() == [luxemburg_norm(phi, u) for u in us]


# Phi through (0, 0), (1, 1), (2, 4), (4, 16), with slope 6 above s = 4
HAND_PHI = YoungFunction.tabulated([[1.0, 1.0], [2.0, 4.0], [4.0, 16.0]])


@pytest.mark.parametrize("grid, values, exact", [
    ([0.0, 1.0], [0.3], 0.3),  # Phi(c/k) = 1 on [0, 1]: k = c
    ([0.0, 1.0], [7.5], 7.5),
    ([0.0, 0.5, 1.0], [3.0, 1.0], 2.5),  # (Phi(3/k) + Phi(1/k))/2 = 1, 3/k in (1, 2)
    ([0.0, 0.25, 1.0], [8.0, 1.0], 4.5),  # 8/k in (1, 2), 1/k in (0, 1)
    ([0.0, 1.0 / 32.0], [20.0], 3.0),  # Phi(20/k) = 32 above the last knot
])
def test_tabulated_norm_is_exact(grid, values, exact):
    u = Signal(np.array(grid), np.array(values).reshape(-1, 1))
    norm = luxemburg_norm(HAND_PHI, u)
    assert abs(norm - exact) <= 4 * np.spacing(exact)
    # the smallest feasible float: the one below it is infeasible
    r, w = u.cell_norms(), u.widths
    assert _modular(HAND_PHI, r, w, norm) <= 1.0
    assert _modular(HAND_PHI, r, w, np.nextafter(norm, 0.0)) > 1.0


@pytest.fixture(scope="module")
def tables(comp_loglog):
    return [complementary(YoungFunction.power(p)) for p in (1.1, 1.5, 7.0)] + [comp_loglog]


@given(
    kind=st.integers(min_value=0, max_value=3),
    cells=st.lists(st.tuples(st.floats(min_value=-4.0, max_value=4.0),
                             st.floats(min_value=-24.0, max_value=0.0)),
                   min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_tabulated_norm_is_feasible_and_tight(tables, kind, cells):
    # values from 1e-4 to 1e4 put some r/k below the first knot; widths down
    # to 1e-24 put r/k above the last one.  Ascending widths keep the grid
    # strictly increasing.
    logv, logw = np.asarray(cells).T
    grid = np.concatenate([[0.0], np.cumsum(np.sort(10.0**logw))])
    u = Signal(grid, (10.0**logv).reshape(-1, 1))
    phi = tables[kind]
    norm = luxemburg_norm(phi, u)
    r, w = u.cell_norms(), u.widths
    assert _modular(phi, r, w, norm) <= 1.0
    assert _modular(phi, r, w, (1 - 1e-13) * norm) > 1.0


def test_tabulated_newton_falls_back_to_bisection(comp_loglog, monkeypatch):
    # slope 2.4 up to s = 0.45, then 0.1: not convex.  The root s = 1/2.4
    # (k = 2.4) lies in the steep piece and the bracket's infeasible end
    # s = 1/2 in the shallow one, so Newton jumps past the feasible end and
    # the row bisects to 2 ulps
    u = Signal.constant(1.0, Interval(0.0, 1.0))
    # with slope 0.5 above s = 0.45 the step lands at s = 0.29, past the root
    # but not past the feasible end s = 1/4: Newton stops on a feasible k =
    # 3.448, and the row bisects because the ulp steps down do not finish
    for top in (1.335, 2.355):
        phi = YoungFunction.tabulated([[0.45, 1.08], [3.0, top]])
        assert 2.4 <= luxemburg_norm(phi, u) <= 2.4 + 4 * np.spacing(2.4)
    # rows still falling when the sweeps run out bisect as well
    u = random_signal(3, 1, Interval(0.0, 1.0), 8, 1.0)
    newton = luxemburg_norm(comp_loglog, u)
    monkeypatch.setattr(orlicz, "_NEWTON_CAP", 1)
    assert abs(luxemburg_norm(comp_loglog, u) - newton) <= 4 * np.spacing(newton)


@pytest.mark.parametrize("phi", [YoungFunction.power(3.5), YoungFunction.loglog()],
                         ids=lambda p: p.kind)
def test_newton_stopped_below_the_root_bisects(phi, monkeypatch):
    # a modular read 1e-9 low stops Newton millions of ulps below the root,
    # farther than the ulp walk goes: the row bisects from the walk's last
    # infeasible float to the bracket's feasible end, onto the same norm
    u = random_signal(3, 1, Interval(0.0, 1.0), 8, 1.0)
    exact = luxemburg_norm(phi, u)
    value_slope = YoungFunction._value_slope

    def low(self, s):
        val, g = value_slope(self, s)
        return val * (1.0 - 1e-9), g

    monkeypatch.setattr(YoungFunction, "_value_slope", low)
    assert luxemburg_norm(phi, u) == exact


def test_tabulated_knot_values_must_not_decrease():
    with pytest.raises(DataError, match="nondecreasing"):
        YoungFunction.tabulated([[1.0, 2.0], [2.0, 1.0], [3.0, 5.0]])
    # flat pieces are allowed, and so are slope decreases (no convexity check)
    YoungFunction.tabulated([[1.0, 1.0], [2.0, 1.0], [3.0, 5.0], [4.0, 6.0]])


@pytest.mark.parametrize("p, e", [(3.5, 1022), (3.0, 999), (3.0, -999), (7.0, 700)])
def test_power_norm_is_exact_far_from_a_unit_modular(p, e):
    # one cell of width 2^-e: the norm is 0.75 * 2^(-e/p) exactly, where a
    # closed form (2^-e)^(1/p) errs by |ln 2^-e| times the rounding of 1/p
    u = Signal(np.array([0.0, 2.0**-e]), np.array([[0.75]]))
    exact = 0.75 * 2.0 ** (-e / p)
    assert abs(luxemburg_norm(YoungFunction.power(p), u) - exact) <= np.spacing(exact)


def test_power_norm_of_subnormal_width_cell():
    # the true norm 3.2e-158 lies where the modular overflows (below 7.2e-158):
    # Newton gets no finite step there, and the row bisects to where it ends
    phi = YoungFunction.power(2)
    u = restrict(Signal(np.array([0.0, 1.0]), np.array([[9.7e-4]])), Interval(0.0, 1.1e-309))
    norm = luxemburg_norm(phi, u)
    assert 0.0 < norm <= _luxemburg_one(phi, u) == pytest.approx(1.45e-157, rel=1e-3)
    assert _modular(phi, u.cell_norms(), u.widths, norm) <= 1.0


def test_prefix_norms_shape_and_domain():
    u = random_signal(2, 1, Interval(0.0, 1.0), 5, 1.0)
    ends = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    got = prefix_luxemburg_norms(YoungFunction.loglog(), u, ends)
    assert got.shape == (2, 3)
    assert np.all(np.diff(got.ravel()) >= 0)
    assert np.array_equal(prefix_luxemburg_norms(YoungFunction.power(2), Signal.zero(
        Interval(0.0, 1.0)), [0.5, 1.0]), [0.0, 0.0])
    with pytest.raises(DomainError):
        prefix_luxemburg_norms(YoungFunction.power(2), u, [0.5, 1.5])


def test_small_interval_norm():
    u = Signal.constant(1.0, Interval(0.0, 1.0))
    assert small_interval_norm(YoungFunction.identity(), u, 0.0, 0.25) == pytest.approx(0.25)
    assert small_interval_norm(YoungFunction.power(2), u, 0.0, 0.01) == pytest.approx(0.1, rel=1e-9)
    # vanishes with the interval, and is monotone in delta
    deltas = [0.2, 0.1, 0.05, 0.01, 0.001]
    vals = [small_interval_norm(YoungFunction.loglog(), u, 0.3, d) for d in deltas]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05


# -- Hoelder pairing -------------------------------------------------------


def test_holder_pair_values():
    iv = Interval(0.0, 1.0)
    phi = YoungFunction.power_over_p(2)
    zero = holder_pair(Signal.zero(iv), Signal.constant(1.0, iv), phi, iv)
    assert zero["lhs"] == 0.0 and zero["rhs"] == 0.0
    ones = holder_pair(Signal.constant(1.0, iv), Signal.constant(1.0, iv), phi, iv)
    # Luxemburg norms solve (1/k)^2/2 = 1, i.e. k = 1/sqrt(2), so the
    # right-hand side 2*k*k equals 1 and the pairing is an equality case
    assert ones["lhs"] == pytest.approx(1.0)
    assert ones["rhs"] == pytest.approx(1.0, rel=1e-9)
    assert ones["lhs"] <= ones["rhs"] + 1e-10


def test_holder_random_sweep():
    iv = Interval(0.0, 2.0)
    phi = YoungFunction.power_over_p(3)
    for seed in range(50):
        u = random_signal(seed, 1, iv, 7, 1.5)
        v = random_signal(seed + 500, 1, iv, 11, 1.5)
        hp = holder_pair(u, v, phi, iv)
        assert hp["lhs"] <= hp["rhs"] + 1e-10



@given(
    kind=st.integers(min_value=0, max_value=len(PREFIX_KINDS) - 1),
    seeds=st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=6),
    cells=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=2),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 40.0]),
    inner=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_prefix_norms_of_a_stack_equal_each_signal(comp_loglog, kind, seeds, cells, d,
                                                   scale, inner):
    # one kernel call for the whole stack gives each signal's own prefix norms
    phi = comp_loglog if PREFIX_KINDS[kind] == "tabulated" else PREFIX_KINDS[kind]
    us = [random_signal(s, d, Interval(0.0, 2.0), cells, scale) for s in seeds]
    ends = np.concatenate([[0.0], us[0].grid[1:], 2.0 * np.asarray(inner, dtype=float)])
    got = prefix_luxemburg_norms(phi, us, ends)
    assert got.shape == (len(us),) + ends.shape
    for u, row in zip(us, got):
        assert row.tolist() == prefix_luxemburg_norms(phi, u, ends).tolist()


def test_prefix_norms_stack_contract():
    phi = YoungFunction.power(2)
    u = random_signal(2, 1, Interval(0.0, 1.0), 5, 1.0)
    ends = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    assert prefix_luxemburg_norms(phi, (u, u, u), ends).shape == (3, 2, 3)
    # a stack shares one grid and d, and holds at least one signal
    for bad in ([], [u, random_signal(3, 1, Interval(0.0, 1.0), 4, 1.0)],
                [u, random_signal(3, 2, Interval(0.0, 1.0), 5, 1.0)]):
        with pytest.raises(DataError):
            prefix_luxemburg_norms(phi, bad, ends)
