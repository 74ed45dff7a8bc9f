import math

import numpy as np
import pytest

import arago.poisson
from arago.classical import _polar_average
from arago.interaction import EikonalPhase, Obstacle, capture_eta
from arago.numerics import NumericsError, QuadratureSpec, bessel_j0
from arago.particles import ParticleSpecies, velocity_nodes
from arago.poisson import (
    DimensionlessParams,
    PoissonSetup,
    RadialProfile,
    amplitude,
    annular_average,
    default_grid,
    point_source_pattern,
    source_averaged_pattern,
    spot_radius,
    visibility_checks,
    wavelength_averaged_pattern,
)

# velocity that puts a 19700 amu particle at a 10 pm wavelength, so that the
# 500 nm / 0.125 m geometry lands at k = 0.2, ell = 2 exactly
V_10PM = 2.0255394488692375


def _params(k, ell):
    return DimensionlessParams(k=k, ell=ell, beta=0.0)


def _setup(R0=0.0, v=V_10PM, obstacle=None, dv_rel=0.0, alpha=0.0):
    obs = obstacle or Obstacle("sphere", 500e-9)
    p = ParticleSpecies("au100", 19700.0, alpha, v, dv_rel)
    return PoissonSetup(R0, 500e-9, 0.125, 0.125, obs, p)


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
        ref = _polar_average(u, beta, f, n_t=400, n_theta=8192)
        assert np.allclose(annular_average(u, beta, f), ref, rtol=0,
                           atol=1e-9)


def test_source_averaging_beta_zero_identity():
    grid = np.linspace(0.0, 4.0, 41)
    point = point_source_pattern(grid, _params(0.2, 2.0))
    avg = source_averaged_pattern(grid, _setup(R0=0.0))
    assert np.array_equal(point.w, avg.w)


def test_source_averaging_lowers_spot():
    grid = np.array([0.0])
    w_point = point_source_pattern(grid, _params(0.2, 2.0)).w[0]
    w_half = source_averaged_pattern(grid, _setup(R0=250e-9)).w[0]
    w_full = source_averaged_pattern(grid, _setup(R0=500e-9)).w[0]
    assert w_point > w_half > w_full
    # frozen: beta = 1 spot height for k = 0.2
    assert w_full == pytest.approx(0.677814, abs=2e-4)


# (obstacle kind, velocity): fig3-sphere at the ends of the benchmark's
# velocity lattice, fig3-disc at its design velocity, and the same disc ten
# times faster (k = 1.97), where the former ell/200 spline grid was 1.7e-6 off
SOURCE_ORACLE_CASES = (("sphere", 1.5), ("sphere", 4.0), ("disc", 2.0),
                       ("disc", 20.0))


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
    w = source_averaged_pattern(u, setup, phase).w
    assert np.max(np.abs(w - ref) / ref) <= 1e-12
    if v < 5.0:
        assert len(calls) == 1


def test_source_average_refuses_past_degree_cap(monkeypatch):
    # the fast disc needs 322 Chebyshev nodes: the first degree (161) fails
    # the coefficient-tail test, and past a cap of 200 the doubling raises
    setup, phase = _fig3_source("disc", 20.0)
    u = np.linspace(0.0, 3.0 * setup.dimensionless().ell, 11)
    monkeypatch.setattr(arago.poisson, "_CHEB_MAX_NODES", 200)
    with pytest.raises(NumericsError, match="Chebyshev"):
        source_averaged_pattern(u, setup, phase)


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
    w = source_averaged_pattern(u, setup, phase, quad).w
    assert len(calls) <= 2
    assert np.max(np.abs(w - ref) / ref) <= 1e-12


def test_source_average_refuses_a_plateau_above_rel_tol(monkeypatch):
    # amplitude samples with 1e-6 relative noise put the coefficient
    # plateau near 1e-7, above the default rel_tol = 1e-8: once a doubling
    # does not lower it, the source average raises instead of doubling on
    setup, phase = _fig3_source("disc", 2.0)
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
        source_averaged_pattern(u, setup, phase)
    assert len(calls) == 2


def test_source_average_takes_velocity_from_phase():
    # with a phase, the wavelength is taken at the phase's velocity: a v
    # that disagrees with it raises (a 2 m/s fig3-disc phase with v = 3 gave
    # w(0) = 0.5808 against 0.5681 for a consistent 3 m/s pair), and a
    # 3 m/s phase without v is the matching pair given with v = 3
    setup, phase_2 = _fig3_source("disc", 2.0)
    u = np.linspace(0.0, 3.0, 7)
    with pytest.raises(ValueError, match="v_z"):
        source_averaged_pattern(u, setup, phase_2, v=3.0)
    phase_3 = EikonalPhase(phase_2.obstacle, setup.particle, 3.0)
    w = source_averaged_pattern(u, setup, phase_3).w
    assert np.array_equal(
        w, source_averaged_pattern(u, setup, phase_3, v=3.0).w)
    assert not np.array_equal(w, source_averaged_pattern(u, setup, phase_2).w)


def test_velocity_averaging_identity_at_zero_spread():
    grid = np.linspace(0.0, 2.0, 11)
    a = source_averaged_pattern(grid, _setup(R0=500e-9))
    b = wavelength_averaged_pattern(grid, _setup(R0=500e-9, dv_rel=0.0))
    assert np.array_equal(a.w, b.w)


@pytest.mark.parametrize("source_averaging", [True, False])
@pytest.mark.parametrize("kind", ["sphere", "disc"])
def test_interacting_velocity_average_rebuilds_phase(kind, source_averaging):
    # the velocity average rebuilds the phase, and with it the capture
    # radius, at every velocity node; the phase it is given (here built at
    # 3 m/s) lends only its obstacle and particle. Oracle: the weighted sum
    # of the single-velocity engine, written out, bit for bit. At dv_rel = 0
    # it is the single-velocity source average itself.
    obs = Obstacle(kind, 500e-9, 10e-9 if kind == "disc" else None)
    u = np.linspace(0.0, 6.0, 13)
    for dv_rel in (0.1, 0.0):
        setup = _setup(R0=500e-9, v=2.0, obstacle=obs, dv_rel=dv_rel,
                       alpha=5e-28)
        phase = EikonalPhase(obs, setup.particle, 3.0)
        got = wavelength_averaged_pattern(u, setup, phase,
                                          source_averaging=source_averaging)
        vs, weights = velocity_nodes(setup.particle)
        assert vs.size == (9 if dv_rel else 1)
        ref = np.zeros_like(u)
        for v_i, w_i in zip(vs, weights):
            phase_i = EikonalPhase(obs, setup.particle, v_i)
            if source_averaging:
                prof = source_averaged_pattern(u, setup, phase_i, v=v_i)
            else:
                prof = point_source_pattern(u, setup.dimensionless(v_i),
                                            phase_i)
            ref += w_i * prof.w
        assert np.array_equal(got.w, ref)
    if source_averaging:
        single = source_averaged_pattern(
            u, setup, EikonalPhase(obs, setup.particle, 2.0))
        assert np.array_equal(got.w, single.w)


def test_velocity_averaging_softens_spot():
    # at k = 0.2 with a beta = 1 source the on-axis value decreases with
    # velocity spread, quadratically in dv (frozen dev measurements:
    # 1.3e-5 at 5%, 5.2e-5 at 10%)
    grid = np.array([0.0])
    w_mono = source_averaged_pattern(grid, _setup(R0=500e-9)).w[0]
    w_5 = wavelength_averaged_pattern(
        grid, _setup(R0=500e-9, dv_rel=0.05)).w[0]
    w_10 = wavelength_averaged_pattern(
        grid, _setup(R0=500e-9, dv_rel=0.10)).w[0]
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
    rows = {r.name: r for r in visibility_checks(_setup(), v=V_10PM / 2.0)}
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


def test_fast_beam_wall_strip_regressions():
    # 10x velocity: the boundary phase phi(1 + eta) is 2.2e3 for the disc,
    # above _PHI_SPLIT, so the disc takes the endpoint-series path of the
    # integrator; the sphere's is 1.94e3, just below it, so the sphere is
    # integrated by adaptive quadrature alone. The sphere's capture radius
    # (eta = 3.0874e-2) is checked against trajectory shooting in
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


def test_wall_strip_matches_pure_adaptive(monkeypatch):
    # the boundary phases of the fast disc (2.2e3 rad) and of a 500 nm sphere
    # at 50 m/s (2.8e3 rad) are still tractable by brute adaptive subdivision
    # with a generous budget; the endpoint-series path must agree with it.
    # Measured: 2.7e-11 (disc) and 1.0e-10 (sphere) relative.
    grid = np.array([0.0, 0.7, 1.5, 3.0])
    quad = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14,
                          max_subdivisions=20000)
    for obs, v in ((Obstacle("disc", 500e-9, 10e-9), 20.2553946),
                   (Obstacle("sphere", 500e-9), 50.0)):
        setup = _setup(v=v, obstacle=obs, alpha=5e-28)
        par = setup.dimensionless()
        phase = EikonalPhase(obs, setup.particle, v)
        eta = capture_eta(obs, setup.particle, v)
        assert phase.phi(1.0 + eta) > arago.poisson._PHI_SPLIT
        w_strip = point_source_pattern(grid, par, phase=phase).w
        with monkeypatch.context() as m:
            m.setattr(arago.poisson, "_PHI_SPLIT", 1e12)
            w_brute = point_source_pattern(grid, par, phase=phase, quad=quad).w
        assert np.allclose(w_strip, w_brute, rtol=1e-8, atol=1e-10)


def test_wall_strip_falls_back_to_panels(monkeypatch):
    # the endpoint series of the fast disc's wall strip has a fixed error
    # of about 1.3e-10, which misses the budget at rel_tol 1e-11 on a wide
    # grid and at 1e-12 even on axis; the strip is then integrated by
    # panels with the rest of the interaction. The result must agree with
    # brute adaptive quadrature within the tolerances of
    # test_wall_strip_matches_pure_adaptive, and to the requested rel_tol,
    # which the series alone misses (by 5.5e-11, 1.4e-12 and 2.8e-11).
    # Measured: <= 1.5e-13 relative.
    v = 20.2553946
    obs = Obstacle("disc", 500e-9, 10e-9)
    setup = _setup(v=v, obstacle=obs, alpha=5e-28)
    par = setup.dimensionless()
    phase = EikonalPhase(obs, setup.particle, v)
    eta = capture_eta(obs, setup.particle, v)
    assert phase.phi(1.0 + eta) > arago.poisson._PHI_SPLIT
    brute_quad = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14,
                                max_subdivisions=20000)
    for rel_tol, grid in ((1e-11, np.linspace(0.0, 3.0 * par.ell, 241)),
                          (1e-12, np.array([0.0])),
                          (1e-12, np.array([0.0, 0.7, 1.5, 3.0]))):
        w = point_source_pattern(grid, par, phase=phase,
                                 quad=QuadratureSpec(rel_tol=rel_tol)).w
        with monkeypatch.context() as m:
            m.setattr(arago.poisson, "_PHI_SPLIT", 1e12)
            w_brute = point_source_pattern(grid, par, phase=phase,
                                           quad=brute_quad).w
        assert np.allclose(w, w_brute, rtol=1e-8, atol=1e-10)
        assert np.max(np.abs(w - w_brute) / w_brute) <= rel_tol


def test_wall_strip_fallback_keeps_outer_integral(monkeypatch):
    # when the endpoint series misses its budget (the fast disc on axis at
    # rel_tol 1e-12), only the strip [a, s_split] is integrated again by
    # panels; the outer integral [s_split, s_negligible] is kept, so no
    # interaction integral spans [a, s_negligible]
    v = 20.2553946
    obs = Obstacle("disc", 500e-9, 10e-9)
    setup = _setup(v=v, obstacle=obs, alpha=5e-28)
    phase = EikonalPhase(obs, setup.particle, v)
    probed = arago.poisson._integrate_on_probed_panels
    spans = []

    def recording(integrand, u, lo, hi, spec, points):
        spans.append((lo, hi))
        return probed(integrand, u, lo, hi, spec, points)

    monkeypatch.setattr(arago.poisson, "_integrate_on_probed_panels",
                        recording)
    point_source_pattern(np.array([0.0]), setup.dimensionless(), phase,
                         QuadratureSpec(rel_tol=1e-12))
    a = 1.0 + capture_eta(obs, setup.particle, v)
    assert len(spans) == 2
    (s_split, s_neg), strip = spans
    assert s_neg == phase.s_negligible and a < s_split < s_neg
    assert strip == (a, s_split)


def test_phase_breakpoints_hit_quarter_levels():
    # phi at the j-th breakpoint is phi(1 + eta) / 4^j, down to the floor;
    # the disc's crossings are closed forms, the sphere's are bisected to
    # 1e-10 in s
    disc = Obstacle("disc", 500e-9, 10e-9)
    for obs, v, rtol in ((disc, 2.0, 1e-13), (disc, 20.2553946, 1e-13),
                         (Obstacle("sphere", 500e-9), 2.0, 1e-6)):
        setup = _setup(v=v, obstacle=obs, alpha=5e-28)
        phase = EikonalPhase(obs, setup.particle, v)
        a = 1.0 + capture_eta(obs, setup.particle, v)
        pts = np.array(arago.poisson._phase_breakpoints(phase, a))
        levels = phase.phi(a) / 4.0 ** np.arange(1, pts.size + 1)
        assert pts.size > 5 and np.all(np.diff(pts) > 0)
        assert levels[-2] > 1e-3 >= levels[-1]
        assert np.allclose(phase.phi(pts), levels, rtol=rtol, atol=0.0)


def test_probed_panels_match_single_radius_amplitude():
    # a wide point-source output grid (here 703 radii at spacing ell/200 on
    # fig3 geometry) takes its interaction panels from a probe subset of the
    # radii; every radius, the largest included, must still come out as the
    # single-radius amplitude (which skips the probe).
    # Measured: <= 3.6e-15 relative.
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
