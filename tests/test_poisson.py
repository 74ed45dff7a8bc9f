import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

import arago.numerics
import arago.poisson
from arago.classical import _polar_rule
from arago.interaction import EikonalPhase, Obstacle, capture_eta
from arago.numerics import (_CALL_SIZE, NumericsError, QuadratureSpec,
                            bessel_j0)
from arago.particles import ParticleSpecies, velocity_nodes
from arago.poisson import (
    DimensionlessParams,
    PoissonSetup,
    RadialProfile,
    arc_average_operator,
    averaged_pattern,
    default_grid,
    point_source_pattern,
    velocity_terms,
    visibility_checks,
)
from references import amplitude, annular_average, polar_average, spot_radius

# velocity that puts a 19700 amu particle at a 10 pm wavelength, so that the
# 500 nm / 0.125 m geometry lands at k = 0.2, ell = 2 exactly
V_10PM = 2.0255394488692375


def _params(k, ell):
    return DimensionlessParams(k=k, ell=ell, beta=0.0)


def _setup(R0=0.0, v=V_10PM, obstacle=None, dv_rel=0.0, alpha=0.0):
    obs = obstacle or Obstacle("sphere", 500e-9)
    p = ParticleSpecies("au100", 19700.0, alpha, v, dv_rel)
    return PoissonSetup(R0, 500e-9, 0.125, 0.125, obs, p)


def _nodes(setup, velocity=False, source=False):
    """The node list that a scenario of setup builds: with an interaction
    phase at every node wherever the particle is polarizable."""
    return velocity_terms(setup, velocity, setup.particle.alpha > 0, source)


def test_dimensionless_mapping():
    par = _setup().dimensionless()
    assert par.k == pytest.approx(0.2, rel=1e-10)
    assert par.ell == pytest.approx(2.0, rel=1e-14)
    assert par.beta == 0.0
    par2 = _setup(R0=250e-9).dimensionless()
    assert par2.beta == pytest.approx(0.5, rel=1e-12)


def test_setup_rejects_shadowless_source():
    with pytest.raises(ValueError, match="shadow"):
        _setup(R0=1.1e-6)  # needs R0 < R (L1+L2)/L2 = 1 um here


def test_setup_paraxial_warning():
    p = ParticleSpecies("au100", 19700.0, 0.0, V_10PM)
    with pytest.warns(UserWarning, match="paraxial"):
        PoissonSetup(0.0, 500e-9, 0.3, 1e-5, Obstacle("sphere", 500e-9), p)


def test_on_axis_closed_form():
    # psi(0) = i exp(i pi k ell) exactly, for any geometry without interaction
    for k, ell in ((0.2, 2.0), (1.0, 1.5), (2.0, 3.0), (5.0, 2.0)):
        psi = amplitude(0.0, _params(k, ell))
        exact = 1j * np.exp(1j * math.pi * k * ell)
        assert abs(psi - exact) < 1e-8


def test_spot_height_is_unity():
    for k in (0.2, 2.0):
        for ell in (1.5, 3.0):
            prof = point_source_pattern(np.array([0.0]), _params(k, ell))
            assert prof.w[0] == pytest.approx(1.0, abs=1e-6)


def test_outer_normalization_values():
    # frozen regressions for w at u = 3 ell; the envelope oscillates around 1
    # with an amplitude that dies off as k ell grows
    cases = {
        (0.05, 1.5): 0.745917,
        (0.2, 2.0): 0.955283,
        (1.0, 3.0): 0.981249,
        (2.0, 1.5): 0.981249,
        (5.0, 3.0): 0.991708,
    }
    for (k, ell), expected in cases.items():
        prof = point_source_pattern(np.array([3.0 * ell]), _params(k, ell))
        assert prof.w[0] == pytest.approx(expected, abs=1e-4)


def test_outer_value_depends_on_k_ell_product():
    # at u = c * ell the ideal pattern is a function of k*ell alone
    w_a = point_source_pattern(np.array([9.0]), _params(1.0, 3.0)).w[0]
    w_b = point_source_pattern(np.array([4.5]), _params(2.0, 1.5)).w[0]
    assert w_a == pytest.approx(w_b, rel=1e-6)


def test_far_field_normalization():
    for k, ell in ((0.2, 2.0), (2.0, 3.0)):
        prof = point_source_pattern(np.array([100.0 * ell]), _params(k, ell))
        assert prof.w[0] == pytest.approx(1.0, abs=5e-3)


def test_against_damped_brute_force():
    # independent evaluation of psi = int_1^inf bare(s) ds: truncate at S
    # with a cos^2 damping taper over the outer half and integrate by brute
    # trapezoid; the package route goes through the free-minus-aperture
    # decomposition instead
    k, ell, u = 1.3, 2.1, 1.7
    S = 50.0 / math.sqrt(k * ell)
    S0 = 0.5 * S
    s = np.linspace(1.0, S, 400000)
    taper = np.where(
        s < S0, 1.0,
        np.cos(0.5 * math.pi * (np.clip(s, S0, S) - S0) / (S - S0)) ** 2)
    bare = (2.0 * math.pi * k * ell * s
            * np.exp(1j * math.pi * k * ell * s * s)
            * bessel_j0(2.0 * math.pi * k * u * s))
    psi_brute = np.trapezoid(bare * taper, s)
    psi = amplitude(u, _params(k, ell))
    assert abs(psi - psi_brute) < 1e-3 * abs(psi)


def test_default_grid():
    g = default_grid(_params(0.2, 2.0))
    assert len(g) == 600
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(6.0, rel=1e-12)


def test_radial_profile_validation():
    with pytest.raises(ValueError, match="increasing"):
        RadialProfile(np.array([0.0, 0.0, 1.0]), np.ones(3))
    with pytest.raises(ValueError, match="non-negative"):
        RadialProfile(np.array([0.0, 1.0]), np.array([1.0, -0.1]))
    with pytest.raises(ValueError, match="1-D"):
        RadialProfile(np.array([0.0, 1.0]), np.ones(3))


# u in units of beta: on the axis, inside the disc, on its rim, outside
ANNULAR_U = np.array([0.0, 0.3, 1.0, 1.7, 5.0])
ANNULAR_BETA = (0.7, 1.0)


def test_annular_average_constant():
    for beta in ANNULAR_BETA:
        out = annular_average(ANNULAR_U * beta, beta,
                              lambda r: np.ones_like(r))
        assert np.allclose(out, 1.0, rtol=1e-12)


def test_annular_average_quadratic():
    # <(u + t)^2> over the offset disc has the closed form u^2 + beta^2 / 2
    for beta in ANNULAR_BETA:
        u = ANNULAR_U * beta
        out = annular_average(u, beta, lambda r: r ** 2)
        assert np.allclose(out, u ** 2 + beta ** 2 / 2.0, rtol=1e-9)


def test_annular_average_focal_divergence():
    # the kernel's factor r cancels a classical focal 1/r: on the axis the
    # mean of 1/r over the disc is (2 / beta^2) int_0^beta dr = 2 / beta
    for beta in ANNULAR_BETA:
        out = annular_average(np.array([0.0]), beta, lambda r: 1.0 / r)
        assert out[0] == pytest.approx(2.0 / beta, rel=1e-14)


def test_annular_average_matches_polar_rule():
    # independent route: the classical engine's polar rule (Gauss-Legendre in
    # the offset, midpoints in the angle) pushed to 400 x 8192 nodes, on a
    # smooth oscillatory f shaped like a point-source pattern at k = 4.
    # Measured: <= 1.5e-11 absolute.
    def f(r):
        return bessel_j0(8.0 * math.pi * r) ** 2 + np.cos(30.0 * r)

    for beta in ANNULAR_BETA:
        u = ANNULAR_U * beta
        ref = polar_average(u, beta, f, rule=_polar_rule(400, 8192))
        assert np.allclose(annular_average(u, beta, f), ref, rtol=0,
                           atol=1e-9)


def test_source_averaging_beta_zero_identity():
    grid = np.linspace(0.0, 4.0, 41)
    point = point_source_pattern(grid, _params(0.2, 2.0))
    setup = _setup(R0=0.0)
    avg = averaged_pattern(grid, _nodes(setup, source=True))
    assert np.array_equal(point.w, avg.w)


def test_source_averaging_lowers_spot():
    grid = np.array([0.0])
    w_point = point_source_pattern(grid, _params(0.2, 2.0)).w[0]
    half, full = _setup(R0=250e-9), _setup(R0=500e-9)
    w_half = averaged_pattern(grid, _nodes(half, source=True)).w[0]
    w_full = averaged_pattern(grid, _nodes(full, source=True)).w[0]
    assert w_point > w_half > w_full
    # frozen: beta = 1 spot height for k = 0.2
    assert w_full == pytest.approx(0.677814, abs=2e-4)


# (obstacle kind, velocity): fig3-sphere at the ends of the benchmark's
# velocity lattice, fig3-disc at its design velocity, and the same disc ten
# times faster (k = 1.97), where the former ell/200 spline grid was 1.7e-6 off
SOURCE_ORACLE_CASES = (("sphere", 1.5), ("sphere", 4.0), ("disc", 2.0),
                       ("disc", 20.0))


def _recorded_series(monkeypatch):
    """Record every Chebyshev series that an ArcAverage averages."""
    applied = []
    apply = arago.poisson.ArcAverage.apply

    def recorded(self, coef):
        applied.append(coef)
        return apply(self, coef)

    monkeypatch.setattr(arago.poisson.ArcAverage, "apply", recorded)
    return applied


def _fig3_source(kind, v):
    obs = Obstacle(kind, 500e-9, 10e-9 if kind == "disc" else None)
    setup = _setup(R0=500e-9, v=v, obstacle=obs, alpha=5e-28)
    return setup, EikonalPhase(obs, setup.particle, v)


@pytest.mark.parametrize("kind,v", SOURCE_ORACLE_CASES)
def test_source_average_matches_direct_amplitude(kind, v, monkeypatch):
    # oracle: the same arc-length kernel fed with |psi(r)|^2 from a direct
    # quadrature at every one of its nodes, with no working representation
    # in between. Measured: <= 7.8e-15 relative (the spline it replaced was
    # 3.5e-10 to 1.7e-6 off here). The fig3 cases are certified by their
    # first Chebyshev degree and sample the amplitude once.
    setup, phase = _fig3_source(kind, v)
    par = setup.dimensionless()
    u = np.linspace(0.0, 3.0 * par.ell, 61)
    ref = annular_average(u, par.beta, lambda r: np.abs(
        arago.poisson._amplitude_grid(r, par.k, par.ell, phase)) ** 2)
    calls = []
    direct = arago.poisson._amplitude_grid

    def counted(*args):
        calls.append(args)
        return direct(*args)

    monkeypatch.setattr(arago.poisson, "_amplitude_grid", counted)
    w = averaged_pattern(u, _nodes(setup, source=True)).w
    assert np.max(np.abs(w - ref) / ref) <= 1e-12
    if v < 5.0:
        assert len(calls) == 1


@pytest.mark.parametrize("kind,v", SOURCE_ORACLE_CASES)
def test_arc_operator_matches_annular_average(kind, v, monkeypatch):
    # oracle: annular_average fed with the same intensity series, evaluated
    # by Clenshaw at every node of the rule. The matrix sums the same
    # products in another order. Measured: <= 2.1e-15 relative.
    setup, _ = _fig3_source(kind, v)
    par = setup.dimensionless()
    u = np.linspace(0.0, 3.0 * par.ell, 241)
    top = u.max() + par.beta
    applied = _recorded_series(monkeypatch)
    w = averaged_pattern(u, _nodes(setup, source=True)).w
    (coef,) = applied
    ref = annular_average(u, par.beta, lambda r: np.polynomial.chebyshev
                          .chebval(2.0 * r / top - 1.0, coef))
    assert np.max(np.abs(w - ref) / ref) <= 1e-13


def test_arc_operator_grows_bit_for_bit():
    # a matrix grown for 13 and then 130 coefficients holds the bits of one
    # made for 130 at once, as one contiguous array, and so gives the same
    # profile
    u = np.linspace(0.0, 6.0, 61)
    coef = np.random.default_rng(3).standard_normal(130) / np.arange(
        1, 131) ** 2
    grown = arc_average_operator(u, 1.0)
    grown.apply(coef[:13])
    once = arc_average_operator(u, 1.0)
    assert np.array_equal(grown.apply(coef), once.apply(coef))
    assert np.array_equal(grown.columns, once.columns)
    assert grown.columns[:130].flags.c_contiguous


def test_source_average_refuses_past_degree_cap(monkeypatch):
    # the fast disc needs 322 Chebyshev nodes: the first degree (161) fails
    # the coefficient-tail test, and past a cap of 200 the doubling raises
    setup, _ = _fig3_source("disc", 20.0)
    u = np.linspace(0.0, 3.0 * setup.dimensionless().ell, 11)
    monkeypatch.setattr(arago.poisson, "_CHEB_MAX_NODES", 200)
    with pytest.raises(NumericsError, match="Chebyshev"):
        averaged_pattern(u, _nodes(setup, source=True))


def test_source_average_refuses_a_start_past_the_cap(monkeypatch):
    # the fig3 disc at 2000 m/s: the first node count 1.5 pi k s_max top + 24
    # is 8792, past _CHEB_MAX_NODES, and the refusal names it before any
    # amplitude is sampled. Starting at the cap would not help: the free
    # chirp alone needs a degree of about pi k top^2 / ell = 15200, and 8192
    # and 8792 samples leave coefficient tails of 0.33 and 0.56 of the
    # largest
    setup, _ = _fig3_source("disc", 2000.0)
    calls = []

    monkeypatch.setattr(arago.poisson, "_amplitude_grid",
                        lambda *args: calls.append(args))
    with pytest.raises(NumericsError, match="asks for 8792 to start with"):
        averaged_pattern(default_grid(setup.dimensionless(), 241),
                         _nodes(setup, source=True))
    assert calls == []


@pytest.mark.parametrize("kind", ["disc", "sphere"])
def test_source_average_stops_on_rounding_plateau(kind, monkeypatch):
    # at rel_tol = 1e-13 the tail target 1e-3 rel_tol lies below the
    # coefficients' rounding plateau (about 5e-16 of the largest). The
    # doubling must stop once the tail no longer falls, after at most two
    # samplings (44 and 88 nodes for the disc, 100 and 200 for the
    # sphere), and still meet the direct-amplitude oracle. Measured:
    # 6.2e-16 and 8.9e-16 relative; doubling to the rounding target took
    # up to 5632 (disc) and 6400 (sphere) nodes.
    setup, phase = _fig3_source(kind, 2.0)
    par = setup.dimensionless()
    quad = QuadratureSpec(rel_tol=1e-13)
    u = np.linspace(0.0, 3.0 * par.ell, 61)
    direct = arago.poisson._amplitude_grid
    ref = annular_average(u, par.beta, lambda r: np.abs(
        direct(r, par.k, par.ell, phase, quad)) ** 2)
    calls = []

    def counted(*args):
        calls.append(args)
        return direct(*args)

    monkeypatch.setattr(arago.poisson, "_amplitude_grid", counted)
    w = averaged_pattern(u, _nodes(setup, source=True), quad).w
    assert len(calls) <= 2
    assert np.max(np.abs(w - ref) / ref) <= 1e-12


def test_source_average_refuses_a_plateau_above_rel_tol(monkeypatch):
    # amplitude samples with 1e-6 relative noise put the coefficient
    # plateau near 1e-7, above the default rel_tol = 1e-8: once a doubling
    # does not lower it, the source average raises instead of doubling on
    setup, _ = _fig3_source("disc", 2.0)
    u = np.linspace(0.0, 3.0 * setup.dimensionless().ell, 11)
    direct = arago.poisson._amplitude_grid
    rng = np.random.default_rng(0)
    calls = []

    def noisy(*args):
        calls.append(args)
        psi = direct(*args)
        return psi * (1.0 + 1e-6 * rng.standard_normal(psi.shape))

    monkeypatch.setattr(arago.poisson, "_amplitude_grid", noisy)
    with pytest.raises(NumericsError, match="stall"):
        averaged_pattern(u, _nodes(setup, source=True))
    assert len(calls) == 2


@pytest.mark.parametrize("velocity", [False, True])
@pytest.mark.parametrize("kind", ["sphere", "disc"])
def test_velocity_nodes_take_params_at_their_phase_velocity(kind, velocity):
    # each node's params and phase are built at the node's own velocity, so
    # no node pairs a wavelength with a phase of another velocity (a 2 m/s
    # phase with a 3 m/s wavelength gave w(0) = 0.5808 against 0.5681 for a
    # consistent 3 m/s pair). Without velocity averaging the one node sits
    # at v_long with weight 1; without interaction no node has a phase.
    # Every node carries the setup's beta = 1 if the source is averaged,
    # and beta = 0 if not, which is how the engines tell the two apart
    obs = Obstacle(kind, 500e-9, 10e-9 if kind == "disc" else None)
    setup = _setup(R0=500e-9, v=2.0, obstacle=obs, dv_rel=0.1, alpha=5e-28)
    nodes = velocity_terms(setup, velocity, True, True)
    vs, weights = velocity_nodes(setup.particle) if velocity else ([2.0],
                                                                   [1.0])
    assert len(nodes) == len(vs) == (9 if velocity else 1)
    for (w_i, p_i, phase_i), v_i, weight in zip(nodes, vs, weights):
        assert (w_i, phase_i.v_z) == (weight, v_i)
        assert p_i == setup.dimensionless(phase_i.v_z)
        assert p_i.beta == 1.0
        assert (phase_i.obstacle, phase_i.particle) == (obs, setup.particle)
    assert len({p_i.k for _, p_i, _ in nodes}) == len(nodes)
    assert all(phase_i is None
               for *_, phase_i in velocity_terms(setup, velocity, False,
                                                 True))
    for (_, p_i, _), v_i in zip(
            velocity_terms(setup, velocity, False, False), vs):
        assert p_i == replace(setup.dimensionless(v_i), beta=0.0)


def test_velocity_averaging_identity_at_zero_spread():
    grid = np.linspace(0.0, 2.0, 11)
    setup = _setup(R0=500e-9)
    a = averaged_pattern(grid, _nodes(setup, source=True))
    b = averaged_pattern(grid, _nodes(setup, velocity=True, source=True))
    assert np.array_equal(a.w, b.w)


@pytest.mark.parametrize("source_averaging", [True, False])
@pytest.mark.parametrize("kind", ["sphere", "disc"])
def test_interacting_velocity_average_rebuilds_phase(kind, source_averaging):
    # the velocity average builds the phase, and with it the capture
    # radius, at every velocity node. Oracle: the weighted sum of the
    # single-velocity engine on setups whose v_long is each node's
    # velocity, written out. It holds bit for bit for point sources and at
    # dv_rel = 0, where it is the single-velocity source average itself.
    # Nine source-averaged nodes sum their intensities before the one
    # kernel pass, which changes only the rounding (measured <= 6.7e-16
    # relative); one phase at 3 m/s for every node moved the result by up
    # to 6.7e-2 (sphere) and 2.4e-2 (disc).
    obs = Obstacle(kind, 500e-9, 10e-9 if kind == "disc" else None)
    u = np.linspace(0.0, 6.0, 13)
    for dv_rel in (0.1, 0.0):
        setup = _setup(R0=500e-9, v=2.0, obstacle=obs, dv_rel=dv_rel,
                       alpha=5e-28)
        got = averaged_pattern(u, _nodes(setup, velocity=True,
                                         source=source_averaging))
        vs, weights = velocity_nodes(setup.particle)
        assert vs.size == (9 if dv_rel else 1)
        ref = np.zeros_like(u)
        for v_i, w_i in zip(vs, weights):
            setup_i = _setup(R0=500e-9, v=v_i, obstacle=obs, alpha=5e-28)
            ref += w_i * averaged_pattern(
                u, _nodes(setup_i, source=source_averaging)).w
        if source_averaging and dv_rel:
            assert np.max(np.abs(got.w - ref) / ref) <= 1e-12
        else:
            assert np.array_equal(got.w, ref)
    single = averaged_pattern(u, _nodes(setup, source=source_averaging))
    assert np.array_equal(got.w, single.w)


# the 9-node fig3 disc; the fast disc, whose 322 Chebyshev nodes are the
# largest degree of the oracle cases; and the fig3 sphere at 4 m/s, whose
# amplitude needs more than half of its 147 nodes, so that an intensity
# series of degree < 147 would alias (measured 2.5e-11 of its maximum)
@pytest.mark.parametrize("kind,v,dv_rel", [("disc", 2.0, 0.1),
                                           ("disc", 20.0, 0.0),
                                           ("sphere", 4.0, 0.0)])
def test_intensity_series_matches_node_amplitudes(kind, v, dv_rel,
                                                  monkeypatch):
    # oracle: the one intensity series the kernel matrix averages equals
    # sum_i w_i |psi_i(r)|^2 with each psi_i evaluated from its own
    # Chebyshev series, at 200 seeded radii. Measured: 8.3e-16, 2.4e-15 and
    # 5.8e-16 of its maximum; the series is exact because its degree stays
    # below 2 max_i n_i.
    obs = Obstacle(kind, 500e-9, 10e-9 if kind == "disc" else None)
    setup = _setup(R0=500e-9, v=v, obstacle=obs, dv_rel=dv_rel, alpha=5e-28)
    par = setup.dimensionless()
    u = np.linspace(0.0, 3.0 * par.ell, 61)
    terms = []
    chebyshev = arago.poisson._chebyshev_amplitude

    def recorded_amplitude(*args):
        terms.append(chebyshev(*args))
        return terms[-1]

    monkeypatch.setattr(arago.poisson, "_chebyshev_amplitude",
                        recorded_amplitude)
    applied = _recorded_series(monkeypatch)
    averaged_pattern(u, _nodes(setup, velocity=True, source=True))
    _, weights = velocity_nodes(setup.particle)
    assert len(terms) == weights.size == (9 if dv_rel else 1)
    top = u.max() + par.beta
    r = np.random.default_rng(7).uniform(0.0, top, 200)
    ref = sum(w_i * np.abs(np.polynomial.chebyshev.chebval(
        2.0 * r / top - 1.0, c_i)) ** 2 for w_i, c_i in zip(weights, terms))
    (coef,) = applied
    series = np.polynomial.chebyshev.chebval(2.0 * r / top - 1.0, coef)
    assert np.max(np.abs(series - ref)) <= 1e-13 * np.max(ref)


def test_intensity_series_is_cut_at_its_tail(monkeypatch):
    # the fig3 sphere at 1.5 m/s: the amplitude's 86 coefficients give an
    # exact intensity series of 172, and the kernel matrix averages only the
    # 99 above its 1e-6 rel_tol tail
    # (test_intensity_series_matches_node_amplitudes holds the cut series to
    # 1e-13)
    setup, _ = _fig3_source("sphere", 1.5)
    amplitudes = []
    chebyshev = arago.poisson._chebyshev_amplitude

    def recorded_amplitude(*args):
        c = chebyshev(*args)
        amplitudes.append(c.size)
        return c

    monkeypatch.setattr(arago.poisson, "_chebyshev_amplitude",
                        recorded_amplitude)
    u = np.linspace(0.0, 3.0 * setup.dimensionless().ell, 241)
    applied = _recorded_series(monkeypatch)
    averaged_pattern(u, _nodes(setup, source=True))
    (n,), (kept,) = amplitudes, [c.size for c in applied]
    assert n == 86 and kept < 0.6 * 2 * n


@pytest.mark.parametrize("kind", ["sphere", "disc"])
def test_velocity_average_takes_one_kernel_pass(kind, monkeypatch):
    # the fig3 velocity average samples each node's amplitude once (its
    # first Chebyshev degree is certified) and applies the arc-length kernel
    # matrix once to the summed intensity, not once per node
    obs = Obstacle(kind, 500e-9, 10e-9 if kind == "disc" else None)
    setup = _setup(R0=500e-9, v=2.0, obstacle=obs, dv_rel=0.1, alpha=5e-28)
    calls = {"amplitude": 0, "kernel": 0}
    amplitude_grid = arago.poisson._amplitude_grid

    def counted_amplitude(*args):
        calls["amplitude"] += 1
        return amplitude_grid(*args)

    monkeypatch.setattr(arago.poisson, "_amplitude_grid", counted_amplitude)
    applied = _recorded_series(monkeypatch)
    averaged_pattern(np.linspace(0.0, 6.0, 61),
                     _nodes(setup, velocity=True, source=True))
    calls["kernel"] = len(applied)
    assert calls == {"amplitude": 9, "kernel": 1}


@pytest.mark.parametrize("kind,v", [("sphere", 2.0), ("disc", 2.0),
                                    ("disc", 20.0)])
def test_velocity_averaged_profile_is_non_negative(kind, v):
    # a 20 nm source (beta = 0.04) keeps the dark rings deep; the summed
    # intensity series must still average to w >= 0 across the whole
    # screen (measured minima 0.061, 0.095 and 0.062; RadialProfile raises
    # on a negative value)
    obs = Obstacle(kind, 500e-9, 10e-9 if kind == "disc" else None)
    setup = _setup(R0=20e-9, v=v, obstacle=obs, dv_rel=0.1, alpha=5e-28)
    assert setup.dimensionless().beta == pytest.approx(0.04, rel=1e-12)
    prof = averaged_pattern(np.linspace(0.0, 6.0, 601),
                            _nodes(setup, velocity=True, source=True))
    assert np.all(prof.w >= 0.0)


def test_velocity_averaging_softens_spot():
    # at k = 0.2 with a beta = 1 source the on-axis value decreases with
    # velocity spread, quadratically in dv (frozen dev measurements:
    # 1.3e-5 at 5%, 5.2e-5 at 10%)
    grid = np.array([0.0])
    w_mono, w_5, w_10 = (averaged_pattern(
        grid, _nodes(setup, velocity=True, source=True)).w[0]
        for setup in (_setup(R0=500e-9, dv_rel=dv_rel)
                      for dv_rel in (0.0, 0.05, 0.10)))
    drop5 = w_mono - w_5
    drop10 = w_mono - w_10
    assert 2e-6 < drop5 < 5e-5
    assert drop10 > drop5
    assert drop10 / drop5 == pytest.approx(4.0, rel=0.2)


def test_spot_radius_estimate():
    assert spot_radius(_params(0.2, 2.0)) == pytest.approx(2.0, rel=1e-12)
    assert spot_radius(_params(2.0, 2.0)) == pytest.approx(0.2, rel=1e-12)


def test_spot_radius_matches_measured_minimum_at_large_k():
    # for k >= 0.5 the measured first minimum tracks 0.4/k to better than 15%
    for k in (0.5, 2.0):
        est = spot_radius(_params(k, 2.0))
        grid = np.linspace(0.0, 2.0 * est, 401)
        w = point_source_pattern(grid, _params(k, 2.0)).w
        interior = np.nonzero((w[1:-1] < w[:-2]) & (w[1:-1] <= w[2:]))[0]
        assert interior.size > 0
        u_min = grid[interior[0] + 1]
        assert u_min == pytest.approx(est, rel=0.15)


def test_first_minimum_small_k_regression():
    # at k = 0.2 free-wave interference drags the first minimum inward of the
    # 0.4/k estimate; frozen measured position
    grid = np.linspace(1.2, 2.2, 501)
    w = point_source_pattern(grid, _params(0.2, 2.0)).w
    interior = np.nonzero((w[1:-1] < w[:-2]) & (w[1:-1] <= w[2:]))[0]
    u_min = grid[interior[0] + 1]
    assert u_min == pytest.approx(1.6038389747618929, abs=0.005)


def test_visibility_checks_rows():
    rows = {r.name: r for r in visibility_checks(_setup(R0=100e-9))}
    assert set(rows) == {"spot_vs_shadow", "source_radius",
                         "shadow_existence", "paraxial"}
    sv = rows["spot_vs_shadow"]
    assert sv.value == pytest.approx(0.4, rel=1e-9)
    assert sv.satisfied  # k*ell = 0.4 exactly at the 10 pm design velocity
    sr = rows["source_radius"]
    assert sr.bound == pytest.approx(1e-6, rel=1e-9)
    assert sr.satisfied
    assert rows["shadow_existence"].satisfied
    assert rows["paraxial"].satisfied


def test_visibility_checks_flag_slow_beam():
    rows = {r.name: r for r in visibility_checks(_setup(v=V_10PM / 2.0))}
    assert not rows["spot_vs_shadow"].satisfied


def test_quantum_spot_enhancement():
    # attraction steepens the wavefront near the edge and brightens the spot;
    # frozen for the nominal 2 m/s gold cluster
    obs = Obstacle("sphere", 500e-9)
    setup = _setup(v=2.0, obstacle=obs, alpha=5e-28)
    par = setup.dimensionless()
    phase = EikonalPhase(obs, setup.particle, 2.0)
    w0 = point_source_pattern(np.array([0.0]), par, phase=phase).w[0]
    assert w0 > 1.0
    assert w0 == pytest.approx(3.50316872, abs=0.01)  # frozen


def test_fast_beam_regressions():
    # 10x velocity: the boundary phase phi(1 + eta) is 2.2e3 rad for the
    # disc and 1.94e3 rad for the sphere, so the phase winds through
    # hundreds of cycles next to the wall; the panels of the obstacle
    # integral resolve it like any other stretch. The sphere's capture
    # radius (eta = 3.0874e-2) is checked against trajectory shooting in
    # test_interaction.test_capture_eta_fast_passage.
    v = 20.2553946
    for kind, b, expected in (("disc", 10e-9, 4.143044563259182),
                              ("sphere", None, 9.5653730311359)):
        obs = Obstacle(kind, 500e-9, b)
        setup = _setup(v=v, obstacle=obs, alpha=5e-28)
        phase = EikonalPhase(obs, setup.particle, v)
        w0 = point_source_pattern(np.array([0.0]), setup.dimensionless(),
                                  phase=phase).w[0]
        assert w0 == pytest.approx(expected, rel=1e-6)


# a 10 nm disc at 10x the fig3 velocity (phi(1 + eta) = 2.2e3 rad) and a
# 500 nm sphere at 50 m/s (2.8e3 rad)
FAST_DISC = (Obstacle("disc", 500e-9, 10e-9), 20.2553946)
FAST_SPHERE = (Obstacle("sphere", 500e-9), 50.0)


@pytest.mark.parametrize("case,rel_tol,n", [
    (FAST_DISC, 1e-11, 241), (FAST_DISC, 1e-12, 1), (FAST_DISC, 1e-12, 4),
    (FAST_SPHERE, 1e-10, 241)],
    ids=["disc-241", "disc-axis", "disc-4", "sphere-241"])
def test_fast_beam_meets_rel_tol(case, rel_tol, n):
    # where phi(1 + eta) runs to thousands of radians the amplitude must
    # still meet the requested rel_tol. Reference: the same code at
    # rel_tol 1e-12, abs_tol 1e-13 and 40000 subdivisions (an abs_tol of
    # 1e-15 cannot be met near the wall of a 500 m/s beam). Measured:
    # <= 1.1e-13 (disc) and 3.6e-13 (sphere) relative; the endpoint series
    # this replaced was 3.2e-10 off on the sphere.
    obs, v = case
    setup = _setup(v=v, obstacle=obs, alpha=5e-28)
    par = setup.dimensionless()
    phase = EikonalPhase(obs, setup.particle, v)
    assert phase.phi(1.0 + capture_eta(obs, setup.particle, v)) > 2000.0
    grid = np.linspace(0.0, 3.0 * par.ell, n)
    w = point_source_pattern(grid, par, phase,
                             QuadratureSpec(rel_tol=rel_tol)).w
    ref = point_source_pattern(grid, par, phase, QuadratureSpec(
        rel_tol=1e-12, abs_tol=1e-13, max_subdivisions=40000)).w
    assert np.max(np.abs(w - ref) / ref) <= rel_tol


@pytest.mark.parametrize("n", [241, 2])
def test_phase_pattern_is_one_integral(n, monkeypatch):
    # with a phase, the blocked disc and the interaction zone are one
    # integral over [0, s_negligible], one adaptive pass for a wide grid
    # and a small one alike; the ideal obstacle takes one call over [0, 1]
    setup, phase = _fig3_source("sphere", 2.0)
    par = setup.dimensionless()
    direct = arago.poisson.integrate_adaptive
    spans = []

    def recording(g, a, b, scales, spec=None, points=()):
        spans.append((a, b))
        return direct(g, a, b, scales, spec, points)

    monkeypatch.setattr(arago.poisson, "integrate_adaptive", recording)
    point_source_pattern(np.linspace(0.0, 6.0, n), par, phase)
    assert spans == [(0.0, phase.s_negligible)]
    spans.clear()
    point_source_pattern(np.linspace(0.0, 6.0, n), par)
    assert spans == [(0.0, 1.0)]


def test_first_panels_call_of_each_integral_is_full(monkeypatch):
    # the one integral of a fig3-disc point pattern on 241 radii: its first
    # _panels call carries as many seeded panels as a call holds,
    # min(seeded, _CALL_SIZE // (31 m)) for m scales, and not the one panel
    # that once went alone to learn m
    setup, phase = _fig3_source("disc", 2.0)
    direct, panels = arago.poisson.integrate_adaptive, arago.numerics._panels
    calls = []

    def recording(g, a, b, scales, spec=None, points=()):
        calls.append(("integral", 1 + len({p for p in points if a < p < b}),
                      len(scales)))
        return direct(g, a, b, scales, spec, points)

    def counted_panels(g, lo, hi, scales):
        calls.append(("panels", lo.size, scales.size))
        return panels(g, lo, hi, scales)

    monkeypatch.setattr(arago.poisson, "integrate_adaptive", recording)
    monkeypatch.setattr(arago.numerics, "_panels", counted_panels)
    point_source_pattern(np.linspace(0.0, 6.0, 241), setup.dimensionless(),
                         phase)
    starts = [i for i, call in enumerate(calls) if call[0] == "integral"]
    assert starts == [0] and calls[0][2] == 241
    _, seeded, m = calls[0]
    assert calls[1] == ("panels", min(seeded, _CALL_SIZE // (31 * m)), m)
    assert calls[1][1] > 1


def test_phase_breakpoints_step_the_wall_phase():
    # the seed levels step down from phi(1 + eta) by _PHASE_STEP radians
    # while L_j > 4 step / 3, then by quarters, and stop at the first level
    # at or below the floor; phi at each seed is its level, in closed form
    # for the disc and solved to rounding for the sphere
    step = arago.poisson._PHASE_STEP
    disc = Obstacle("disc", 500e-9, 10e-9)
    for obs, v, rtol, linear in ((disc, 2.0, 1e-13, 40),
                                 (disc, 20.2553946, 1e-13, 85),
                                 (Obstacle("sphere", 500e-9), 2.0, 1e-12, 25)):
        setup = _setup(v=v, obstacle=obs, alpha=5e-28)
        phase = EikonalPhase(obs, setup.particle, v)
        a = 1.0 + capture_eta(obs, setup.particle, v)
        pts = np.array(arago.poisson._phase_breakpoints(
            phase, a, QuadratureSpec()))
        levels = [phase.phi(a)]
        while levels[-1] > 1e-3:
            levels.append(levels[-1] - step if levels[-1] > 4.0 * step / 3.0
                          else levels[-1] / 4.0)
        levels = np.array(levels)
        assert np.count_nonzero(levels[:-1] > 4.0 * step / 3.0) >= linear
        assert pts.size == levels.size - 1 and np.all(np.diff(pts) > 0)
        assert levels[-2] > 1e-3 >= levels[-1]
        assert np.allclose(phase.phi(pts), levels[1:], rtol=rtol, atol=0.0)


@pytest.mark.parametrize("v,a", [(1.5, None), (4.0, None), (20.0, None),
                                 (50.0, None), (2.0, 1.0 + 1e-6)])
def test_sphere_seeds_are_the_level_crossings(v, a):
    # the sphere's seeds are found by Newton steps in log(s - 1), at the
    # fig3 capture radius and at the seed-allowance wall a = 1 + 1e-6: each
    # is within the 1e-10 tolerance in s of scipy's bisection without the
    # slope, and phi there is its level to 1e-12 plus what one ulp of s
    # moves phi (below 4e-14 at the capture radii, 7.5e-10 at s - 1 = 1e-6)
    setup, phase = _fig3_source("sphere", v)
    if a is None:
        a = 1.0 + capture_eta(phase.obstacle, phase.particle, v)
    calls = []

    def crossing(level, lo, hi, tol):
        calls.append((level, lo, hi, tol))
        return EikonalPhase.crossing(phase, level, lo, hi, tol)

    phase.crossing = crossing
    seeds = np.array(arago.poisson._phase_breakpoints(
        phase, a, QuadratureSpec()))
    (levels, lo, hi, tol), = calls
    assert tol == 1e-10 and seeds.size == levels.size > 30
    ref = np.array([scipy.optimize.bisect(lambda s: phase.phi(s) - level,
                                          lo, hi, xtol=tol)
                    for level in levels.tolist()])
    assert np.all(np.abs(seeds - ref) <= tol + 4.0 * np.spacing(ref))
    ulp = np.abs(phase.dphi_ds(seeds)) * np.spacing(seeds) / levels
    assert np.all(np.abs(phase.phi(seeds) / levels - 1.0) <= 1e-12 + ulp)


@pytest.mark.parametrize("v", [2.0, np.float64(20.2553946)])
def test_disc_seeds_are_the_closed_form_crossings(v):
    # the disc's seeds are 1 + (P / L)^(1/4) at each level L of the ladder,
    # bit for bit, at the fig3 capture radius; a velocity node's v is a
    # numpy float
    setup, phase = _fig3_source("disc", v)
    a = 1.0 + phase.eta
    levels = [phase.phi(a)]
    while levels[-1] > 1e-3:
        levels.append(max(levels[-1] - arago.poisson._PHASE_STEP,
                          levels[-1] / 4.0))
    seeds = arago.poisson._phase_breakpoints(phase, a, QuadratureSpec())
    assert len(seeds) > 40
    assert seeds == [1.0 + (phase.prefactor / lvl) ** 0.25
                     for lvl in levels[1:]]


@pytest.mark.parametrize("kind,a", [("disc", 1.0 + 1e-4),
                                    ("sphere", 1.0 + 1e-6)])
def test_phase_breakpoints_stay_within_the_seed_allowance(kind, a):
    # a wall phase of 1e6 rad and more would take phi / _PHASE_STEP equal
    # steps; the step widens so that the seeds stay within half of
    # max_subdivisions, and the ladder still reaches the floor when the
    # allowance holds it
    setup, phase = _fig3_source(kind, 2.0)
    assert phase.phi(a) >= 1e6
    for budget in (2000, 20, 1):
        pts = np.array(arago.poisson._phase_breakpoints(
            phase, a, QuadratureSpec(max_subdivisions=budget)))
        assert pts.size <= budget // 2 and np.all(np.diff(pts) > 0)
        if budget == 2000:
            assert pts.size > 500 and phase.phi(pts[-1]) <= 1e-3


def test_velocity_averaged_disc_seeds_the_wall_panels(monkeypatch):
    # the fig3 disc averaged over its 9 velocity nodes and its source: with
    # the wall phase seeded at equal steps, the 9 integrals (one per node)
    # make 24 _panels calls; with a probe pass per node they made 35, and
    # halving a ~765 rad first panel round by round at the wall took 87
    setup = _setup(R0=500e-9, v=2.0, obstacle=Obstacle("disc", 500e-9, 10e-9),
                   dv_rel=0.1, alpha=5e-28)
    panels, calls = arago.numerics._panels, []

    def counted_panels(*args):
        calls.append(args)
        return panels(*args)

    monkeypatch.setattr(arago.numerics, "_panels", counted_panels)
    averaged_pattern(default_grid(setup.dimensionless(), 241),
                     _nodes(setup, velocity=True, source=True))
    assert len(calls) <= 24


def _fig2b():
    # fig2b: the ideal sphere at k = 2, ell = 2, with a point source
    setup = _setup(v=10.0 * V_10PM)
    return setup, None


def _seeded_partitions(monkeypatch, run):
    """Run run() and return (a, b, scales, points) of each obstacle
    integral it makes."""
    direct = arago.poisson.integrate_adaptive
    seen = []

    def recording(g, a, b, scales, spec=None, points=()):
        seen.append((a, b, np.asarray(scales), np.asarray(points)))
        return direct(g, a, b, scales, spec, points)

    monkeypatch.setattr(arago.poisson, "integrate_adaptive", recording)
    run()
    return seen


def _free_phase(par, omega, s):
    return math.pi * par.k * par.ell * s * s + omega * s


@pytest.mark.parametrize("case,v,source", [
    ("fig2b", None, False), ("sphere", 2.5, True), ("sphere", 20.0, False),
    ("disc", 50.0, False)])
def test_seeded_gaps_advance_the_free_phase_by_at_most_the_step(
        case, v, source, monkeypatch):
    # every gap of the partition that integrate_adaptive is seeded with
    # winds at most _PHASE_STEP of the free chirp plus the fastest J0
    # phase; the interaction-phase seeds alone leave gaps of up to 4e2 rad
    # (fig3 sphere at 20 m/s)
    setup, _ = _fig2b() if case == "fig2b" else _fig3_source(case, v)
    par = setup.dimensionless()
    u = default_grid(par, 600 if case == "fig2b" else 241)
    seen = _seeded_partitions(monkeypatch, lambda: averaged_pattern(
        u, _nodes(setup, source=source)))
    assert seen
    for a, b, scales, points in seen:
        edges = np.unique(np.concatenate([[a, b], points[
            (points > a) & (points < b)]]))
        gain = np.diff(_free_phase(par, scales.max(), edges))
        assert gain.max() <= arago.poisson._PHASE_STEP * (1.0 + 1e-12)


def test_free_phase_split_widens_its_step_to_the_seed_allowance():
    # the fig3 sphere source average at 20 m/s winds 9.6e2 rad of free
    # phase over its [0, s_negligible], 40 parts of _PHASE_STEP. Under a
    # budget of max_subdivisions the step widens to 2 Psi(b) / n, n =
    # max_subdivisions // 2, so the split adds at most n / 2 seeds (7 at a
    # budget of 40, where a fixed step would add 34) and every gap winds at
    # most the wider step; at a budget of 4 or less it adds none
    setup, phase = _fig3_source("sphere", 20.0)
    par = setup.dimensionless()
    a = 1.0 + capture_eta(phase.obstacle, phase.particle, 20.0)
    omega = 2.0 * math.pi * par.k * (3.0 * par.ell + par.beta)
    b = phase.s_negligible
    psi_b = _free_phase(par, omega, b)
    assert psi_b > 39 * arago.poisson._PHASE_STEP
    for budget in (2000, 40, 4, 1):
        spec = QuadratureSpec(max_subdivisions=budget)
        edges = np.array([0.0, a] + arago.poisson._phase_breakpoints(
            phase, a, spec) + [b])
        split = arago.poisson._free_phase_split(
            edges, math.pi * par.k * par.ell, omega, spec)
        added = split.size - edges.size
        n = max(budget // 2, 1)
        assert added <= n / 2 and (added > 0) == (budget >= 40)
        step = max(arago.poisson._PHASE_STEP, 2.0 * psi_b / n)
        gain = np.diff(_free_phase(par, omega, np.sort(split)))
        assert gain.max() <= step * (1.0 + 1e-12)


def test_fig3_sphere_source_average_splits_few_seeded_panels(monkeypatch):
    # with the gaps split by the free phase, the seeds start the panels at
    # about the width the refinement keeps. Of the panels evaluated for a
    # fig3 sphere source average at 1.5, 2.5 and 4 m/s, the refinement
    # splits 1-2 (a fraction of 0.022, 0.036 and 0.016); with the
    # interaction-phase seeds alone it split 7, 11 and 12 (0.13-0.17)
    panels, evaluated, final = arago.numerics._panels, [0], [0]
    direct = arago.poisson.integrate_adaptive

    def counted_panels(g, lo, hi, scales):
        evaluated[0] += lo.size
        return panels(g, lo, hi, scales)

    def counted(*args):
        res = direct(*args)
        final[0] += res.subdivisions
        return res

    monkeypatch.setattr(arago.numerics, "_panels", counted_panels)
    monkeypatch.setattr(arago.poisson, "integrate_adaptive", counted)
    for v in (1.5, 2.5, 4.0):
        setup, _ = _fig3_source("sphere", v)
        evaluated[0] = final[0] = 0
        averaged_pattern(default_grid(setup.dimensionless(), 241),
                         _nodes(setup, source=True))
        # each split panel is evaluated as two halves and leaves the final
        # partition one panel larger
        split = evaluated[0] - final[0]
        assert 0 <= split <= 0.06 * evaluated[0]


@pytest.mark.parametrize("case,v", [("fig2b", None), ("sphere", 2.5),
                                    ("sphere", 20.0)])
def test_free_phase_seeds_meet_the_default_rel_tol(case, v):
    # fig2b's point pattern and the fig3 sphere's source average, at the
    # default rel_tol 1e-8, against the same code at rel_tol 1e-12, abs_tol
    # 1e-13 and 40000 subdivisions. Measured: 3.8e-14, 3.2e-15 and 2.6e-14
    # relative
    setup, _ = _fig2b() if case == "fig2b" else _fig3_source(case, v)
    source = case != "fig2b"
    u = default_grid(setup.dimensionless(), 241 if source else 600)
    w = averaged_pattern(u, _nodes(setup, source=source)).w
    ref = averaged_pattern(u, _nodes(setup, source=source), QuadratureSpec(
        rel_tol=1e-12, abs_tol=1e-13, max_subdivisions=40000)).w
    assert np.max(np.abs(w - ref) / ref) <= QuadratureSpec().rel_tol


def test_fig3_disc_gets_no_free_phase_seed(monkeypatch):
    # the fig3 disc's wall-phase seeds at 2 m/s already step the free phase
    # by less than _PHASE_STEP, so its obstacle integral is seeded with the
    # wall and the interaction-phase ladder alone
    setup, phase = _fig3_source("disc", 2.0)
    u = default_grid(setup.dimensionless(), 241)
    seen = _seeded_partitions(monkeypatch, lambda: averaged_pattern(
        u, _nodes(setup, source=True)))
    a = 1.0 + capture_eta(phase.obstacle, phase.particle, 2.0)
    ladder = [a] + arago.poisson._phase_breakpoints(phase, a,
                                                    QuadratureSpec())
    assert len(seen) == 1
    _, b, _, points = seen[0]
    assert sorted(p for p in points.tolist() if 0.0 < p < b) == ladder


@pytest.mark.parametrize("kind", ["disc", "sphere"])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
def test_fig3_source_average_meets_rel_tol(kind, rel_tol):
    # the fig3 source-averaged profiles at 2 m/s against the same code at
    # rel_tol 1e-12, abs_tol 1e-13 and 40000 subdivisions. Measured:
    # <= 8.9e-15 (disc) and 2.0e-14 (sphere) relative
    setup, _ = _fig3_source(kind, 2.0)
    u = default_grid(setup.dimensionless(), 241)
    nodes = _nodes(setup, source=True)
    w = averaged_pattern(u, nodes, QuadratureSpec(rel_tol=rel_tol)).w
    ref = averaged_pattern(u, nodes, QuadratureSpec(
        rel_tol=1e-12, abs_tol=1e-13, max_subdivisions=40000)).w
    assert np.max(np.abs(w - ref) / ref) <= rel_tol


def test_wide_grid_matches_single_radius_amplitude():
    # a wide point-source output grid (here 703 radii at spacing ell/200 on
    # fig3 geometry) shares its panels across all radii, refined until every
    # one of them meets the error test; every radius, the largest included,
    # must come out as the single-radius amplitude, whose panels are its own.
    # Measured: <= 8.9e-16 relative.
    for obs in (Obstacle("sphere", 500e-9), Obstacle("disc", 500e-9, 10e-9)):
        setup = _setup(R0=500e-9, v=2.0, obstacle=obs, alpha=5e-28)
        par = setup.dimensionless()
        phase = EikonalPhase(obs, setup.particle, 2.0)
        du = par.ell / 200.0
        top = 3.0 * par.ell + par.beta + 2 * du
        work = np.linspace(0.0, top, int(math.ceil(top / du)) + 1)
        assert work.size == 703
        psi = arago.poisson._amplitude_grid(work, par.k, par.ell, phase)
        for i in (0, 101, 350, 555, 702):
            single = amplitude(work[i], par, phase)
            assert abs(psi[i] - single) <= 1e-8 * abs(single)


def test_shadow_edge_moves_outward_with_attraction():
    # capture plus deflection enlarge the effective obstacle: the half-height
    # crossing of the shadow edge shifts to larger u
    v = 20.2553946
    obs = Obstacle("disc", 500e-9, 10e-9)
    setup = _setup(v=v, obstacle=obs, alpha=5e-28)
    par = setup.dimensionless()
    phase = EikonalPhase(obs, setup.particle, v)
    grid = np.linspace(2.0, 2.6, 121)

    def edge(w):
        idx = np.nonzero((w[:-1] < 0.5) & (w[1:] >= 0.5))[0][0]
        return float(np.interp(0.5, [w[idx], w[idx + 1]],
                               [grid[idx], grid[idx + 1]]))

    e_ideal = edge(point_source_pattern(grid, par).w)
    e_int = edge(point_source_pattern(grid, par, phase=phase).w)
    assert e_ideal == pytest.approx(2.2196, abs=0.01)
    assert 0.02 < e_int - e_ideal < 0.10
