import math

import numpy as np
import pytest

import scipy.optimize
import scipy.special

import arago.numerics
from arago.interaction import Obstacle
from arago.numerics import (
    _BOUND,
    _CALL_SIZE,
    _J0_CUT,
    _RUNG_POINTS,
    _RUNG_SPAN,
    _RUNGS,
    _W15,
    _W31,
    _X31,
    NumericsError,
    QuadratureSpec,
    _barycentric,
    bessel_j0,
    bisect,
    integrate_adaptive,
)
from arago.particles import ParticleSpecies
from arago.poisson import PoissonSetup, averaged_pattern, velocity_terms


# scales [0] give the plain integral of g, since J0(0) = 1
PLAIN = [0.0]


def test_smooth_exponential():
    res = integrate_adaptive(lambda x: np.exp(x), 0.0, 1.0, PLAIN)
    assert res.converged
    assert res.value[0] == pytest.approx(math.e - 1.0, rel=1e-12)


def test_oscillatory_damped():
    # int_0^T exp(-x) sin(b x) dx = (b - exp(-T)(sin bT + b cos bT)) / (1 + b^2)
    # Refinement in rounds evaluates all new panels of a round through one
    # integrand call: 6 calls here, where one call per panel took 57 for
    # the same 29 final panels.
    b, T = 50.0, 10.0
    exact = (b - math.exp(-T) * (math.sin(b * T) + b * math.cos(b * T))) / (1 + b * b)
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.exp(-x) * np.sin(b * x)

    res = integrate_adaptive(f, 0.0, T, PLAIN)
    assert res.converged
    assert res.value[0] == pytest.approx(exact, rel=1e-9)
    assert res.subdivisions == 29
    assert len(sizes) <= 12
    assert sum(sizes) == 31 * (2 * res.subdivisions - 1)


def _count_j0(monkeypatch):
    # every J0 argument matrix that numerics forms, one row per abscissa
    # and one column per scale
    formed, j0 = [], arago.numerics.bessel_j0

    def counted(x):
        formed.append(x)
        return j0(x)

    monkeypatch.setattr(arago.numerics, "bessel_j0", counted)
    return formed


def _s_j0_integral(length, c):
    # int_0^L s J0(c s) ds = L J1(c L) / c, and L^2 / 2 at c = 0
    c = np.asarray(c, dtype=float)
    safe = np.where(c == 0.0, 1.0, c)
    return np.where(c == 0.0, 0.5 * length ** 2,
                    length * scipy.special.j1(safe * length) / safe)


def test_calls_capped_at_call_size(monkeypatch):
    # 200 seeded panels of s J0(c s) for 300 scales c: every call, the
    # first included, takes _CALL_SIZE // (31 * 300) = 7 panels but the
    # last of a round, so no J0 matrix has more than _CALL_SIZE entries
    scales = np.linspace(1.0, 1000.0, 300)
    sizes = []
    formed = _count_j0(monkeypatch)

    def g(s):
        sizes.append(s.size)
        return s

    seeds = np.linspace(0.0, 10.0, 201)[1:-1]
    res = integrate_adaptive(g, 0.0, 10.0, scales, points=seeds)
    assert res.converged
    assert np.allclose(res.value, _s_j0_integral(10.0, scales),
                       rtol=1e-8, atol=1e-12)
    per_call = 31 * (_CALL_SIZE // (31 * scales.size))
    assert sizes[0] == per_call
    assert max(sizes) == per_call and all(n % 31 == 0 for n in sizes)
    assert max(x.size for x in formed) <= _CALL_SIZE


def test_complex_integrand():
    w = 37.0
    exact = (np.exp(1j * w) - 1.0) / (1j * w)
    res = integrate_adaptive(lambda x: np.exp(1j * w * x), 0.0, 1.0, PLAIN)
    assert res.converged
    assert abs(res.value[0] - exact) < 1e-10


def test_vector_valued():
    # one value and one error per scale, against the closed form
    # int_0^2 s J0(c s) ds = 2 J1(2 c) / c (2 at c = 0)
    scales = np.array([0.0, 0.5, 2.0, 7.0])
    res = integrate_adaptive(lambda s: s, 0.0, 2.0, scales)
    assert res.converged
    assert res.value.shape == res.error.shape == (4,)
    assert np.max(np.abs(res.value - _s_j0_integral(2.0, scales))) <= 1e-14


def test_error_bound_honest():
    # random smooth integrands with analytic antiderivatives: the reported
    # error estimate must bound the true error (with a small safety factor)
    rng = np.random.RandomState(7)
    for _ in range(10):
        c0, c1, c2 = rng.uniform(-2, 2, size=3)
        amp = rng.uniform(0.5, 2.0)
        om = rng.uniform(1.0, 30.0)
        a, b = sorted(rng.uniform(-3, 3, size=2))

        def f(x):
            return c0 + c1 * x + c2 * x * x + amp * np.cos(om * x)

        def F(x):
            return c0 * x + c1 * x * x / 2 + c2 * x ** 3 / 3 \
                + amp * np.sin(om * x) / om

        res = integrate_adaptive(f, a, b, PLAIN)
        true_err = abs(res.value[0] - (F(b) - F(a)))
        assert res.converged
        assert true_err <= max(res.error[0] * 10.0, 1e-13)


def test_breakpoint_seeding():
    # kink at x = 0.3; exact value 0.29
    res = integrate_adaptive(lambda x: np.abs(x - 0.3), 0.0, 1.0, PLAIN,
                             points=(0.3,))
    assert res.converged
    assert res.value[0] == pytest.approx(0.29, rel=1e-12)


def test_seeding_with_a_converged_partition_splits_nothing():
    # 400 equal panels of [0, 10] resolve exp(-x) sin(50 x), 0.2 periods
    # each: the seeded call evaluates them once and splits nothing
    def f(x):
        return np.exp(-x) * np.sin(50.0 * x)

    res = integrate_adaptive(f, 0.0, 10.0, PLAIN)
    assert res.converged and res.subdivisions < 400
    seeded = integrate_adaptive(f, 0.0, 10.0, PLAIN,
                                points=np.linspace(0.0, 10.0, 401)[1:-1])
    assert seeded.converged
    assert seeded.subdivisions == 400
    assert seeded.value[0] == pytest.approx(res.value[0], rel=1e-14)


def test_budget_exhaustion_flagged():
    # the budget caps the panel count even when a round would split more
    # panels than are left
    for budget in (2, 37, 300):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300,
                              max_subdivisions=budget)
        res = integrate_adaptive(lambda x: np.sin(1000.0 * x), 0.0, 10.0,
                                 PLAIN, spec=spec)
        assert not res.converged
        assert res.subdivisions <= spec.max_subdivisions
        with pytest.raises(NumericsError, match="hopeless"):
            res.require_converged("hopeless integral")


def test_empty_interval():
    # one zero value and one zero error per scale
    res = integrate_adaptive(lambda x: np.exp(x), 1.0, 1.0, [0.0, 1.0, 2.0])
    assert res.converged and res.subdivisions == 0
    assert res.value.shape == res.error.shape == (3,)
    assert not res.value.any() and not res.error.any()


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0, PLAIN)


def test_scales_must_be_a_finite_vector():
    for scales in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="scales"):
            integrate_adaptive(lambda x: x, 0.0, 1.0, scales)
    # bessel_j0 rejects the non-finite J0 arguments an infinite scale forms
    with pytest.raises(ValueError, match="finite"):
        integrate_adaptive(lambda x: x, 0.0, 1.0, [1.0, math.inf])


def test_gauss_subset_is_leggauss15():
    # the G15 rule embedded in K31 is the 15-point Gauss-Legendre rule, on
    # every second node; the 16 Kronrod-only nodes carry no G15 weight
    x, w = np.polynomial.legendre.leggauss(15)
    assert np.max(np.abs(_X31[1::2] - x)) <= 1e-15
    assert np.max(np.abs(_W15[1::2] - w)) <= 1e-15
    assert np.all(_W15[::2] == 0.0)


def test_kronrod_nodes_symmetric():
    assert _X31.shape == (31,)
    assert np.all(np.diff(_X31) > 0) and -1.0 < _X31[0]
    assert np.array_equal(_X31, -_X31[::-1])
    assert np.array_equal(_W31, _W31[::-1])
    assert np.array_equal(_W15, _W15[::-1])


def test_kronrod_polynomial_exactness():
    # K31 integrates x^d exactly for d <= 3*15 + 1 (47 by symmetry), G15
    # for d <= 29; x^30 is the first monomial G15 gets wrong
    def moment_error(w, d):
        return abs(np.sum(w * _X31 ** d) - (1 + (-1) ** d) / (d + 1))

    assert max(moment_error(_W31, d) for d in range(47)) <= 1e-15
    assert max(moment_error(_W15, d) for d in range(30)) <= 1e-15
    assert moment_error(_W15, 30) > 1e-10


def _chirp(c):
    # the radial factor s exp(i pi c s^2) of a Hankel integrand
    return lambda s: s * np.exp(1j * math.pi * c * s * s)


def _hankel_scales(u, k=3.0):
    # the J0 scales 2 pi k u of screen radii u
    return 2.0 * math.pi * k * u


def test_non_finite_factor_rejected():
    # the panel named is the first one where g has a bad value
    g = _chirp(3.0)

    def bad_factor(s):
        y = g(s)
        y[s > 1.0] = np.nan
        return y

    with pytest.raises(NumericsError,
                       match=r"non-finite values on \[1, 1\.5\]"):
        integrate_adaptive(bad_factor, 0.0, 1.5,
                           _hankel_scales(np.linspace(0.0, 3.0, 50)),
                           points=(0.05, 0.1, 1.0))


def test_chebyshev_j0_meets_its_interpolation_bound():
    # a panel over which the J0 argument spans D = 0.5: J0 read at the p = 8
    # first-kind Chebyshev points and carried to the 31 Kronrod nodes by the
    # rung's barycentric weights is within 2 (D/4)^p / p! = 3.0e-12 of
    # scipy's j0 there (measured 1.2e-13, so the bound is not loose by more
    # than 100x), and the panel takes the smallest rung that meets machine
    # epsilon: p = 12, since p = 10 gives 5.1e-16
    omega, lo = 7.0, 3.0
    hi = lo + 0.5 / omega
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    r = _RUNGS.index(8)
    at_points = scipy.special.j0(omega * (mid + half * _RUNG_POINTS[r]))
    q, s = _barycentric(_X31, r)
    err = np.max(np.abs(at_points @ q / s
                        - scipy.special.j0(omega * (mid + half * _X31))))

    def bound(p):
        return 2.0 * (0.5 / 4.0) ** p / math.factorial(p)

    assert 0.01 * bound(8) <= err <= bound(8)
    assert bound(10) > np.finfo(float).eps >= bound(12)
    assert _RUNGS[np.searchsorted(_RUNG_SPAN, omega * (hi - lo))] == 12


def test_product_rule_matches_kronrod_nodes(monkeypatch):
    # the product rule against a forced 31-node run (every rung's span
    # patched to 0) on the same panels, on two integrands of
    # s exp(i pi c s^2) J0(2 pi k u s). A fast chirp (c = 300, u <= 3)
    # makes the panels short while J0 stays slow across them: the rule asks
    # for under half of the J0 rows, and the integrals, which cancel to
    # ~1e-3 of the integral of |g| (1.125), move by at most their a-priori
    # bound, machine epsilon times 1.125 (measured 3e-17). Without a chirp
    # and at u <= 0.1 they do not cancel (0.32 to 1.125), so the bound is a
    # relative one: the five seeded panels form one run of rung 20, so the
    # rule asks for 20 J0 rows against 155 (56 when each read its own
    # rung), and every component agrees to 1e-14 relative (measured 6e-16)
    panels = arago.numerics._panels

    def both(g, u, points=()):
        formed, seen = _count_j0(monkeypatch), []

        def recorded(g, lo, hi, scales):
            seen.append((lo.tolist(), hi.tolist()))
            return panels(g, lo, hi, scales)

        monkeypatch.setattr(arago.numerics, "_panels", recorded)
        res = integrate_adaptive(g, 0.0, 1.5, _hankel_scales(u),
                                 points=points)
        with monkeypatch.context() as m:
            m.setattr(arago.numerics, "_RUNG_SPAN", np.zeros(len(_RUNGS)))
            n_rows, n_calls = sum(x.shape[0] for x in formed), len(seen)
            ref = integrate_adaptive(g, 0.0, 1.5, _hankel_scales(u),
                                     points=points)
            ref_rows = sum(x.shape[0] for x in formed) - n_rows
        assert res.converged and ref.converged
        # both runs form the same panels, round by round
        assert seen[:n_calls] == seen[n_calls:]
        return res.value, ref.value, n_rows, ref_rows

    value, ref, n_rows, ref_rows = both(_chirp(300.0),
                                        np.linspace(0.0, 3.0, 50))
    assert n_rows <= 0.5 * ref_rows
    assert np.max(np.abs(value - ref)) <= np.finfo(float).eps * 1.125

    seeds = (0.3, 0.5, 0.6, 1.0)
    value, ref, n_rows, ref_rows = both(_chirp(0.0),
                                        np.linspace(0.0, 0.1, 50), seeds)
    assert (n_rows, ref_rows) == (20, 155)
    assert np.all(np.abs(value - ref) <= 1e-14 * np.abs(ref))


def test_error_estimate_carries_the_interpolation_bound():
    # g = 1 against 4 copies of J0 on 50 panels of span D = 0.45 (rung
    # p = 10), a panel's width apart, so that each reads J0 alone: K31 and
    # G15 agree to rounding there, so the error estimate is the a-priori
    # bound 2 (D/4)^p / p! times sum |weights * g| = hi - lo on each panel,
    # plus |K31 - G15|
    omega, width = 9.0, 0.05
    bound = 2.0 * (omega * width / 4.0) ** 10 / math.factorial(10)
    lo = 2.0 + 2.0 * width * np.arange(50)
    _, err = arago.numerics._panels(np.ones_like, lo, lo + width,
                                    np.full(4, omega))
    assert np.all(bound * width <= err)
    assert np.all(err <= 1.1 * bound * width)


def test_wide_panel_keeps_kronrod_nodes(monkeypatch):
    # seeded panels, no refinement, one J0 call: [0, 1] (D = 2 pi k u_max
    # (hi - lo) = 57 rad) meets no rung and reads its 31 Kronrod nodes.
    # The 40 panels of D = 0.057 after it and [1.04, 1.5] (D = 26 rad) form
    # one run of D = 28 rad, at the 44 Chebyshev points of its whole
    # interval
    u = np.linspace(0.0, 3.0, 50)
    edges = np.concatenate([[0.0], np.linspace(1.0, 1.04, 41), [1.5]])
    panels = [(0.0, 1.0, _X31), (1.0, 1.5, _RUNG_POINTS[_RUNGS.index(44)])]
    formed = _count_j0(monkeypatch)
    integrate_adaptive(_chirp(3.0), 0.0, 1.5, _hankel_scales(u),
                       QuadratureSpec(max_subdivisions=1), points=edges[1:-1])
    assert [x.shape for x in formed] == [(31 + 44, 50)]
    t = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * nodes
                        for a, b, nodes in panels])
    assert np.allclose(formed[0], np.outer(t, _hankel_scales(u)),
                       rtol=1e-15, atol=0.0)


def test_bessel_j0_small_argument():
    # series 1 - x^2/4 + x^4/64 - x^6/2304
    x = 0.5
    series = 1 - x**2 / 4 + x**4 / 64 - x**6 / 2304
    assert bessel_j0(x) == pytest.approx(series, abs=2e-7)
    assert bessel_j0(0.0) == 1.0


def test_bessel_j0_first_zero():
    root = bisect(bessel_j0, 2.0, 3.0, 1e-12)
    assert root == pytest.approx(2.404825557695773, abs=1e-9)


def test_bessel_j0_vectorized():
    x = np.linspace(0.0, 20.0, 7)
    y = bessel_j0(x)
    assert y.shape == x.shape
    assert abs(y[0] - 1.0) < 1e-15


# the first five zeros of J0 (Abramowitz and Stegun, table 9.5)
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013,
             11.791534439014281, 14.930917708487787)


def _with_neighbours(x, count=4):
    # x and the `count` floats on either side of it
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -math.inf))
        above.append(np.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def test_bessel_j0_matches_scipy_densely():
    # oracle: scipy.special.j0 on 3e5 points of [0, 1e4], evenly and
    # geometrically spaced, plus the regime cut at 8 (whose neighbouring
    # floats fall in both regimes) and the first five zeros, each with its
    # neighbouring floats; the docstring's bound is 1e-12 up to 1e4, and
    # the polynomials keep 1e-14 up to 200
    x = np.concatenate([
        np.linspace(0.0, 1e4, 200001), np.geomspace(1e-8, 1e4, 100001),
        *[_with_neighbours(z) for z in (_J0_CUT,) + _J0_ZEROS]])
    err = np.abs(bessel_j0(x) - scipy.special.j0(x))
    assert err[x <= 200.0].max() <= 1e-14
    assert err.max() <= 1e-12


def test_bessel_j0_is_even_and_keeps_the_shape():
    x = np.linspace(0.0, 50.0, 24).reshape(2, 3, 4)
    y = bessel_j0(x)
    assert y.shape == x.shape and y.dtype == np.float64
    assert np.array_equal(bessel_j0(-x), y)
    # a scalar, or a 0-d array, gives a float, and the same bits as the
    # same argument inside an array
    for scalar in (x[1, 2, 3], np.asarray(-x[1, 2, 3])):
        value = bessel_j0(scalar)
        assert type(value) is float and value == y[1, 2, 3]
    assert bessel_j0(np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_bessel_j0_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        bessel_j0(np.array([1.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        bessel_j0(bad)


def test_bisect_basic():
    root = bisect(math.cos, 0.0, 2.0, 1e-12)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_bisect_endpoint_root():
    root = bisect(lambda x: x, 0.0, 1.0, 1e-12)
    assert abs(root) < 1e-10


def test_bisect_no_sign_change():
    with pytest.raises(ValueError, match="sign"):
        bisect(lambda x: 1.0 + x * x, 0.0, 1.0, 1e-10)


def test_bisect_matches_scipy_bitwise():
    # reference: scipy.optimize.bisect, whose midpoint sequence and stopping
    # test the numerics version follows; the roots must agree exactly
    rng = np.random.default_rng(3)
    for _ in range(200):
        lo = rng.uniform(-5.0, 1.0)
        hi = lo + rng.uniform(0.01, 20.0)
        root, power = rng.uniform(lo, hi), rng.uniform(0.5, 3.0)
        tol = 10.0 ** rng.uniform(-14, -2)

        def f(x):
            return np.sign(x - root) * np.abs(x - root) ** power

        assert bisect(f, lo, hi, tol) == scipy.optimize.bisect(
            f, lo, hi, xtol=tol)


def test_bisect_elementwise_targets():
    # one call bisects every level of a monotone function, each to
    # scipy's scalar result (at a tolerance where the 4 eps |x| part of the
    # stopping test matters), with f called once per step on all levels
    levels = np.array([3.0, 1.0, 0.2, 0.01, 1.0 / 8.0])
    calls = []

    def f(s):
        calls.append(np.shape(s))
        return 1.0 / s ** 3 - levels

    roots = bisect(f, 0.1, 10.0, 1e-15)
    assert roots.shape == levels.shape
    assert np.allclose(roots, levels ** (-1.0 / 3.0), rtol=1e-14, atol=0.0)
    for lvl, r in zip(levels, roots):
        assert r == scipy.optimize.bisect(lambda s: 1.0 / s ** 3 - lvl, 0.1,
                                          10.0, xtol=1e-15)
    assert len(calls) <= 2 + 60 and calls[-1] == levels.shape


def test_bisect_elementwise_names_unbracketed_element():
    levels = np.array([1.0, 2000.0])
    with pytest.raises(ValueError, match=r"sign change on \[0\.1, 10\]"):
        bisect(lambda s: 1.0 / s ** 3 - levels, 0.1, 10.0, 1e-10)
    with pytest.raises(ValueError, match="NaN"):
        bisect(lambda s: np.where(s == 0.75, np.nan, s - 0.7), 0.5, 1.0,
               1e-10)


def _recorded(f):
    """f, and the list of the points it is called at."""
    points = []

    def g(x):
        points.append(np.array(x, dtype=float))
        return f(x)
    return g, points


def _assert_nested(f, points):
    # replays bisect's sign bracket: each point after the two ends lies
    # strictly inside the bracket that the points before it left
    a, b = np.broadcast_arrays(points[0], points[1])
    fa = f(a)
    for x in points[2:]:
        assert np.all((x - a) * (x - b) < 0)
        same = f(x) * fa >= 0
        a, b = np.where(same, x, a), np.where(same, b, x)


# (f, df, lo, hi): functions on which raw Newton steps fail
NEWTON_TRAPS = {
    # from |x - 0.3| > 1.39 a Newton step lands farther out on the other
    # side: from the end -10 it lands at 148
    "arctan": (lambda x: np.arctan(x - 0.3),
               lambda x: 1.0 / (1.0 + (x - 0.3) ** 2), -10.0, 10.0),
    # every Newton step doubles the distance to the root and flips its side
    "cube root": (lambda x: np.cbrt(x - 0.2),
                  lambda x: np.abs(x - 0.2) ** (-2.0 / 3.0) / 3.0, -1.0, 2.0),
    # Newton cycles 1 -> 0 -> 1, and the root is at -1.769
    "cycle": (lambda x: x ** 3 - 2.0 * x + 2.0, lambda x: 3.0 * x ** 2 - 2.0,
              -3.0, 1.0),
}


@pytest.mark.parametrize("trap", NEWTON_TRAPS)
def test_bisect_newton_steps_stay_in_the_bracket(trap):
    # with df the root matches bisection's within tol, and no point that f
    # is read at leaves its bracket; single roots and elementwise alike
    f, df, lo, hi = NEWTON_TRAPS[trap]
    shift = np.array([-0.4, 0.0, 0.05, 0.3])
    for tol in (1e-6, 1e-12):
        g, points = _recorded(f)
        root = bisect(g, lo, hi, tol, df)
        assert abs(root - bisect(f, lo, hi, tol)) <= tol
        _assert_nested(f, points)

        g, points = _recorded(lambda x: f(x - shift))
        roots = bisect(g, lo + shift, hi + shift, tol,
                       lambda x: df(x - shift))
        assert roots.shape == shift.shape
        assert np.all(np.abs(roots - bisect(lambda x: f(x - shift),
                                            lo + shift, hi + shift, tol))
                      <= tol)
        _assert_nested(lambda x: f(x - shift), points)


def test_bisect_newton_converges_in_few_steps():
    # 1/s^3 at five levels, the case of test_bisect_elementwise_targets:
    # with df, f is called 13 times where bisection calls it 55 times, and
    # 8 to 13 times for each level alone; every root is within 4 eps of the
    # closed form
    levels = np.array([3.0, 1.0, 0.2, 0.01, 1.0 / 8.0])
    g, points = _recorded(lambda s: 1.0 / s ** 3 - levels)
    roots = bisect(g, 0.1, 10.0, 1e-15, lambda s: -3.0 / s ** 4)
    assert np.allclose(roots, levels ** (-1.0 / 3.0), rtol=4e-16, atol=0.0)
    assert len(points) <= 13
    for level in levels:
        g, points = _recorded(lambda s: 1.0 / s ** 3 - level)
        root = bisect(g, 0.1, 10.0, 1e-15, lambda s: -3.0 / s ** 4)
        assert root == pytest.approx(level ** (-1.0 / 3.0), rel=4e-16)
        assert len(points) <= 13


def test_bisect_newton_ends_within_tol_at_a_multiple_root():
    # at a root of multiplicity 9 each Newton step closes only 1/9 of the
    # distance, so a step below tol does not put the root within tol; the
    # element ends there only after a Newton step that halves the one
    # before, and otherwise by scipy's test on a midpoint
    def f(x):
        return (x - 0.1) ** 9

    def df(x):
        return 9.0 * (x - 0.1) ** 8
    for tol in (1e-6, 1e-12):
        for lo in (-0.5, np.array([-0.5, -0.4, 0.0])):
            g, points = _recorded(f)
            root = bisect(g, lo, 1.0, tol, df)
            assert np.all(np.abs(root - 0.1) <= tol)
            _assert_nested(f, points)


def test_bisect_newton_rejects_nan_and_names_unbracketed_element():
    levels = np.array([1.0, 2000.0])
    with pytest.raises(ValueError, match=r"sign change on \[0\.1, 10\]"):
        bisect(lambda s: 1.0 / s ** 3 - levels, 0.1, 10.0, 1e-10,
               lambda s: -3.0 / s ** 4)
    # NaN inside (0.55, 0.95), where the first Newton step lands
    def nan_inside(x, y):
        return np.where((x > 0.55) & (x < 0.95), np.nan, y)
    for lo in (0.5, np.full(3, 0.5)):
        with pytest.raises(ValueError, match="df returned NaN"):
            bisect(lambda x: x ** 3 - 0.4, lo, 1.0, 1e-10,
                   lambda x: nan_inside(x, 3.0 * x * x))
        with pytest.raises(ValueError, match="f returned NaN inside"):
            bisect(lambda x: nan_inside(x, x ** 3 - 0.4), lo, 1.0, 1e-10,
                   lambda x: 3.0 * x * x)


def _fig3_j0_fraction(monkeypatch, kind, v):
    # every J0 entry formed for a fig3 source average at v m/s, and the
    # 31 x panels x radii entries of the 31-node rule on the same panels
    obs = (Obstacle("disc", 500e-9, 10e-9) if kind == "disc"
           else Obstacle("sphere", 500e-9))
    particle = ParticleSpecies("au100", 19700.0, 5e-28, v, 0.0)
    setup = PoissonSetup(500e-9, 500e-9, 0.125, 0.125, obs, particle)
    kronrod, panels = [], arago.numerics._panels

    def counted_panels(g, lo, hi, scales):
        out = panels(g, lo, hi, scales)
        kronrod.append(31 * out[0].size)
        return out

    formed = _count_j0(monkeypatch)
    monkeypatch.setattr(arago.numerics, "_panels", counted_panels)
    u = np.linspace(0.0, 3.0 * setup.dimensionless().ell, 241)
    averaged_pattern(u, velocity_terms(setup, False, True, True))
    return sum(x.size for x in formed), sum(kronrod)


def test_fig3_disc_reads_j0_at_a_twentieth_of_the_kronrod_rows(monkeypatch):
    # the fig3 disc at 2 m/s: 3080 of 72292 entries (0.043), where runs
    # that formed only where a cost model favoured them formed 4576
    # (0.063), each panel reading J0 at its own rung 19448 (0.27), and the
    # 31-node rule all 72292
    j0, kronrod = _fig3_j0_fraction(monkeypatch, "disc", 2.0)
    assert j0 <= 0.05 * kronrod


def test_fig3_sphere_reads_j0_at_an_eighth_of_the_kronrod_rows(monkeypatch):
    # the fig3 sphere at 2.25 m/s: 21200 of 170872 entries (0.124), where
    # each panel reading J0 at its own rung formed 76214 (0.45)
    j0, kronrod = _fig3_j0_fraction(monkeypatch, "sphere", 2.25)
    assert j0 <= 0.15 * kronrod


def _spy_runs(monkeypatch):
    """The (lo, hi, runs) of every _runs call, one per _panels call."""
    seen, runs = [], arago.numerics._runs

    def spy(lo, hi, omega):
        out = runs(lo, hi, omega)
        seen.append((lo, hi, out))
        return out

    monkeypatch.setattr(arago.numerics, "_runs", spy)
    return seen


def _forced_kronrod(monkeypatch, g, a, b, scales, spec=None, points=()):
    """integrate_adaptive with every rung's span patched below 0, which
    no span meets, not even on scale 0: J0 at the 31 Kronrod nodes of
    every panel."""
    with monkeypatch.context() as m:
        m.setattr(arago.numerics, "_RUNG_SPAN", np.full(len(_RUNGS), -1.0))
        return integrate_adaptive(g, a, b, scales, spec, points)


def test_runs_match_kronrod_nodes_on_a_seeded_chirp(monkeypatch):
    # s exp(i pi 300 s^2) J0(2 pi 3 u s), u <= 0.5, seeded where the chirp
    # crosses steps of 8 rad: 265 short panels, read in calls of 33 (the
    # _CALL_SIZE share of 64 scales). Runs of up to 33 adjacent panels form,
    # and the integrals, which cancel to 3e-4 of the integral of |g|
    # (1.125), agree with the forced 31-node rule on the same panels to
    # machine epsilon times 1.125 (measured 0.04 of it)
    seeds = np.sqrt(8.0 * np.arange(1, 266) / (math.pi * 300.0))
    scales = _hankel_scales(np.linspace(0.0, 0.5, 64))
    seen = _spy_runs(monkeypatch)
    res = integrate_adaptive(_chirp(300.0), 0.0, 1.5, scales, points=seeds)
    ref = _forced_kronrod(monkeypatch, _chirp(300.0), 0.0, 1.5, scales,
                          points=seeds)
    assert res.converged and res.subdivisions == ref.subdivisions == 266
    assert max(panels.size for *_, runs in seen for panels, _, _ in runs) \
        == _CALL_SIZE // (31 * 64) == 33
    assert np.max(np.abs(res.value - ref.value)) <= (
        np.finfo(float).eps * 1.125)


@pytest.mark.parametrize("v, subdivisions, whole_at_least", [
    pytest.param(2.25, 51, 20, id="2.25"),
    pytest.param(20.0, 125, 10, id="20")])
def test_fig3_sphere_runs_match_kronrod_nodes(monkeypatch, v, subdivisions,
                                              whole_at_least):
    # the obstacle integral of the fig3 sphere's source average at 2.25 m/s
    # (106 scales, 51 panels) and at 20 m/s (412 scales, 125 panels, read
    # in calls of 5), against the forced 31-node rule on the same panels.
    # Runs of several panels on the 48-point rung form at both. Every
    # component is within machine epsilon times the integral of |g|
    # (measured 0.85 and 0.57 of it), and within 1e-14 relative where it
    # does not cancel below a tenth of that integral (measured 4.3e-16 and
    # 1.2e-15)
    obs = Obstacle("sphere", 500e-9)
    particle = ParticleSpecies("au100", 19700.0, 5e-28, v, 0.0)
    setup = PoissonSetup(500e-9, 500e-9, 0.125, 0.125, obs, particle)
    calls, direct = [], arago.poisson.integrate_adaptive

    def recorded(*args):
        calls.append(args)
        return direct(*args)

    seen = _spy_runs(monkeypatch)
    monkeypatch.setattr(arago.poisson, "integrate_adaptive", recorded)
    u = np.linspace(0.0, 3.0 * setup.dimensionless().ell, 241)
    averaged_pattern(u, velocity_terms(setup, False, True, True))
    assert len(calls) == 1
    assert any(panels.size > 1 and r == len(_RUNGS) - 1
               for *_, runs in seen for panels, r, _ in runs)
    g, a, b, scales, spec, points = calls[0]
    res = direct(g, a, b, scales, spec, points)
    ref = _forced_kronrod(monkeypatch, g, a, b, scales, spec, points)
    assert res.subdivisions == ref.subdivisions == subdivisions
    mass = direct(lambda s: np.abs(g(s)), a, b, [0.0], spec,
                  points).value[0].real
    moved = np.abs(res.value - ref.value)
    assert np.all(moved <= np.finfo(float).eps * mass)
    whole = np.abs(ref.value) >= 0.1 * mass
    assert whole.sum() >= whole_at_least
    assert np.all(moved[whole] <= 1e-14 * np.abs(ref.value[whole]))


def test_barycentric_weights_are_exact_on_a_chebyshev_point():
    # abscissae on a rung's points take those values exactly, with finite
    # weights; the others, the ends +-1 included, reproduce a polynomial of
    # degree p - 1 to 1e-13 of its largest value (measured 1.1e-14)
    for r, p in enumerate(_RUNGS):
        t = _RUNG_POINTS[r]
        x = np.concatenate([t[[0, p // 2, -1]], np.linspace(-1, 1, 9)])
        q, s = _barycentric(x, r)
        weights = q / s
        assert np.all(np.isfinite(weights))
        assert np.array_equal(weights[:, :3], np.eye(p)[:, [0, p // 2, -1]])
        f = np.polynomial.chebyshev.chebval(t, np.linspace(1.0, 0.1, p))
        exact = np.polynomial.chebyshev.chebval(x, np.linspace(1.0, 0.1, p))
        assert np.max(np.abs(f @ weights - exact)) <= (
            1e-13 * np.abs(exact).max())


def test_runs_join_only_abutting_panels_of_one_call(monkeypatch):
    # the chirp s exp(i pi 300 s^2) J0(2 pi 3 u s) on 50 and 200 radii,
    # refined from one panel: each refinement round evaluates the halves of
    # scattered panels, and 200 scales cut a round into calls of 10
    # panels. Each run lies within one call, and its panels, in ascending
    # order, each end where the next begins
    for m in (50, 200):
        seen = _spy_runs(monkeypatch)
        integrate_adaptive(_chirp(300.0), 0.0, 1.5,
                           _hankel_scales(np.linspace(0.0, 3.0, m)))
        assert max(lo.size for lo, _, _ in seen) <= _CALL_SIZE // (31 * m)
        gaps = joined = 0
        for lo, hi, runs in seen:
            order = np.argsort(lo)
            gaps += np.sum(hi[order][:-1] != lo[order][1:])
            for panels, _, _ in runs:
                assert np.all(np.diff(lo[panels]) > 0)
                assert np.array_equal(hi[panels][:-1], lo[panels][1:])
                joined += panels.size > 1
        assert gaps > 0 and joined > 0


def test_error_estimate_carries_the_run_bound(monkeypatch):
    # g = 1 against 64 copies of J0 on 50 adjacent panels of span
    # D = 0.45: runs form, and each panel's error estimate is at least its
    # run's bound 2 (D_run/4)^p / p! times sum |weights * g| = hi - lo
    omega, width = 9.0, 0.05
    edges = 2.0 + width * np.arange(51)
    seen = _spy_runs(monkeypatch)
    _, err = arago.numerics._panels(np.ones_like, edges[:-1], edges[1:],
                                    np.full(64, omega))
    (_, _, runs), = seen
    assert sum(panels.size for panels, _, _ in runs) >= 40
    for panels, r, d in runs:
        assert d == pytest.approx(omega * width * panels.size, rel=1e-12)
        bound = _BOUND[r] * (d / 4.0) ** _RUNGS[r] * width
        assert 0.0 < bound <= np.finfo(float).eps * width
        assert np.all(err[panels] >= bound)


def test_runs_join_abutting_panels_up_to_the_last_rung(monkeypatch):
    # two abutting panels of D = 0.14 (rung 8 alone) form one run of rung
    # 10, on one scale as on many. The panels are walked in ascending lo,
    # and a panel that would take its run past the 48-point rung starts
    # the next: 100 panels of D = 0.5 form runs of 69 and 31
    lo, hi = np.array([1.0, 1.01]), np.array([1.01, 1.02])
    (panels, r, _), = arago.numerics._runs(lo, hi, 14.0)
    assert panels.tolist() == [0, 1] and _RUNGS[r] == 10
    formed = _count_j0(monkeypatch)
    arago.numerics._panels(_chirp(3.0), lo, hi, np.array([14.0]))
    assert [x.shape for x in formed] == [(10, 1)]
    edges = np.linspace(1.0, 1.5, 101)
    runs = arago.numerics._runs(edges[-2::-1], edges[:0:-1], 100.0)
    assert [panels.size for panels, _, _ in runs] == [69, 31]
    (first, r, d), _ = runs
    assert first.tolist() == list(range(99, 30, -1)) and r == len(_RUNGS) - 1
    assert d <= _RUNG_SPAN[-1] < d + 0.5
    # a lone panel takes the rung its span meets up to 28 points (D <=
    # 12.17); past that, where a rung would save at most 3 of its 31 rows,
    # or where no rung meets it, it reads J0 at its 31 Kronrod nodes
    for width, rung in ((0.12, 28), (0.13, None), (0.5, None)):
        (_, r, _), = arago.numerics._runs(np.array([1.0]),
                                          np.array([1.0 + width]), 100.0)
        assert (r if r is None else _RUNGS[r]) == rung
    lo, hi = np.array([1.0, 2.0]), np.array([1.13, 2.5])
    arago.numerics._panels(np.ones_like, lo, hi, np.array([100.0]))
    t = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * _X31
                        for a, b in zip(lo, hi)])
    assert np.array_equal(formed[-1][:, 0], 100.0 * t)


def test_single_scale_runs_match_kronrod_nodes(monkeypatch):
    # s exp(i pi 300 s^2) on one scale, J0(0) = 1 (the plain integral) and
    # J0(2 pi 3 u s) at u = 0.5: abutting panels form runs however few the
    # scales, and the integrals agree with the forced 31-node rule on the
    # same panels to machine epsilon times the integral of |g| (1.125;
    # measured 0.007 and 0.011 of it)
    seen = _spy_runs(monkeypatch)
    for scale in (0.0, _hankel_scales(0.5)):
        seen.clear()
        res = integrate_adaptive(_chirp(300.0), 0.0, 1.5, [scale])
        assert any(panels.size > 1 for *_, runs in seen
                   for panels, _, _ in runs)
        calls = len(seen)
        ref = _forced_kronrod(monkeypatch, _chirp(300.0), 0.0, 1.5, [scale])
        assert all(r is None for *_, runs in seen[calls:] for _, r, _ in runs)
        assert res.converged and res.subdivisions == ref.subdivisions
        assert abs(res.value[0] - ref.value[0]) <= (
            np.finfo(float).eps * 1.125)
