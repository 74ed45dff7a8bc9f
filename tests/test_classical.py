import math

import numpy as np
import pytest

from arago import classical
from arago.classical import (
    _POLAR_RULE,
    RayMap,
    _branch_sum,
    _work_grid,
    _work_position,
    classical_point_pattern,
    classical_source_averaged,
    distinguishability,
    polar_average_operator,
    ray_map,
)
from arago.constants_units import CONST, amu_to_kg
from arago.interaction import EikonalPhase, Obstacle, capture_eta
from arago.numerics import NumericsError
from arago.particles import ParticleSpecies, velocity_nodes
from arago.poisson import (
    DimensionlessParams,
    PoissonSetup,
    RadialProfile,
    averaged_pattern,
    default_grid,
    velocity_terms,
)

from references import polar_average


def _fig3(kind, R0=500e-9):
    b = 10e-9 if kind == "disc" else None
    obs = Obstacle(kind, 500e-9, b)
    p = ParticleSpecies("au100", 19700.0, 5e-28, 2.0)
    setup = PoissonSetup(R0, 500e-9, 0.125, 0.125, obs, p)
    phase = EikonalPhase(obs, p, p.v_long)
    return setup, phase, ray_map(setup.dimensionless(), phase)


def _nodes(setup, velocity=False, source=False):
    """The node list that a scenario of setup builds, with its phases."""
    return velocity_terms(setup, velocity, True, source)


def test_free_map_is_pure_projection():
    par = DimensionlessParams(k=0.2, ell=2.0, beta=0.0)
    rmap = ray_map(par, None)
    assert np.allclose(rmap.u_final, 2.0 * rmap.s_grid, rtol=1e-14)
    grid = np.linspace(0.5, 6.0, 111)
    w = classical_point_pattern(grid, rmap).w
    # sharp geometric shadow at u = ell: zero inside, one outside, with at
    # most one grid cell of transition
    assert np.all(w[grid < 2.0 - 0.06] == 0.0)
    assert np.allclose(w[grid > 2.0 + 0.06], 1.0, rtol=1e-6)


def test_ray_map_validation():
    par = DimensionlessParams(k=0.2, ell=2.0, beta=0.0)
    with pytest.raises(ValueError, match="s_max"):
        ray_map(par, None, s_max=0.5)
    _, phase, _ = _fig3("sphere")  # eta = 0.078
    with pytest.raises(ValueError, match="s_max"):
        ray_map(par, phase, s_max=1.05)


def test_ray_map_starts_at_capture_radius():
    # the map reads its capture radius from the phase: it starts at
    # 1 + phase.eta, capture_eta of the phase's obstacle, particle and
    # velocity (here 3 m/s, not the particle's v_long), and at 1 without a
    # phase
    par = DimensionlessParams(k=0.2, ell=2.0, beta=0.0)
    p = ParticleSpecies("au100", 19700.0, 5e-28, 2.0)
    for obs in (Obstacle("sphere", 500e-9), Obstacle("disc", 500e-9, 10e-9)):
        phase = EikonalPhase(obs, p, 3.0)
        rmap = ray_map(par, phase)
        assert rmap.s_grid[0] == 1.0 + phase.eta
        assert rmap.s_grid[0] == 1.0 + capture_eta(obs, p, 3.0)
        assert rmap.s_grid[0] != 1.0 + capture_eta(obs, p, p.v_long)
    assert ray_map(par, None).s_grid[0] == 1.0


def test_branch_sum_by_hand():
    # u_final = -1, 1, 2, 4, 5 over s = 1..5, ell = 2. Each branch hit at a
    # target u adds ell^2 s / (u du/ds) at its preimage s; a target on a
    # node takes the slope of the step to its right. By hand:
    #   u = 0.5: s = 1.75 and s = 1.25 (from u_final = -0.5), 7 + 5
    #   u = 1.0: s = 2 on the second step (8) and s = 1 at u_final = -1 (2)
    #   u = 1.5: s = 2.5, 4 * 2.5 / 1.5; -1.5 is below the map
    #   u = 3.0: s = 3.5 on the third step, 4 * 3.5 / 6
    #   u = 6.0: beyond the map, 0
    rmap = RayMap(np.arange(1.0, 6.0), np.array([-1.0, 1.0, 2.0, 4.0, 5.0]),
                  2.0)
    targets = np.array([0.5, 1.0, 1.5, 3.0, 6.0])
    expected = [12.0, 10.0, 20.0 / 3.0, 7.0 / 3.0, 0.0]
    assert _branch_sum(targets, rmap) == pytest.approx(expected, rel=1e-14)


def _branch_sum_by_sign(targets, rmap):
    # the sum one search per sign, + branch then - branch, as the reference
    # for the single search over both signs
    s, u_f, ell = rmap.s_grid, rmap.u_final, rmap.ell
    du, ds = np.diff(u_f), np.diff(s)
    w = np.zeros_like(targets)
    for tsign in (1.0, -1.0):
        t = tsign * targets
        idx = np.searchsorted(u_f, t, side="right")
        inside = (idx > 0) & (idx < len(u_f))
        j = idx[inside] - 1
        s_at = s[j] + (t[inside] - u_f[j]) / du[j] * ds[j]
        w[inside] += ell * ell * s_at / (targets[inside] * (du[j] / ds[j]))
    return w


@pytest.mark.parametrize("kind", ["sphere", "disc"])
def test_branch_sum_matches_one_search_per_sign(kind):
    # on the fig3 ray maps, over the work grid with the 3 ell pin appended
    # (as classical_point_pattern asks for it), over radii past the map and
    # in shuffled order, the one search gives the same bits as one per sign
    setup, _, rmap = _fig3(kind)
    par = setup.dimensionless()
    work = _work_grid(3.0 * par.ell + par.beta, par.ell)
    for targets in (np.append(work, 3.0 * par.ell),
                    np.random.default_rng(7).permutation(np.append(
                        work, [1e-12, 20.0, 1e3]))):
        assert np.array_equal(_branch_sum(targets, rmap),
                              _branch_sum_by_sign(targets, rmap))
    pin = _branch_sum_by_sign(np.array([3.0 * par.ell]), rmap)[0]
    assert np.array_equal(classical_point_pattern(work, rmap).w,
                          _branch_sum_by_sign(work, rmap) / pin)


@pytest.mark.parametrize("u_final,step", [([-1.0, 1.0, 3.0, 2.0], 2),
                                          ([-1.0, 1.0, 1.0, 3.0], 1)])
def test_branch_sum_refuses_a_map_that_turns(u_final, step):
    # a map that falls or stalls has more than one preimage per side; the
    # error names the first such step
    rmap = RayMap(np.arange(1.0, 5.0), np.array(u_final), 2.0)
    with pytest.raises(NumericsError, match=f"on step {step},"):
        _branch_sum(np.array([0.5, 1.5]), rmap)


@pytest.mark.parametrize("v", [1.5, 50.0])
@pytest.mark.parametrize("kind", ["sphere", "disc"])
def test_ray_maps_are_strictly_increasing(kind, v):
    # the inward kick weakens as s grows, so u_final = ell s + c q(s) rises
    # strictly, from across the axis at the wall to the open screen
    obs = Obstacle(kind, 500e-9, 10e-9 if kind == "disc" else None)
    p = ParticleSpecies("au100", 19700.0, 5e-28, v)
    setup = PoissonSetup(500e-9, 500e-9, 0.125, 0.125, obs, p)
    rmap = ray_map(setup.dimensionless(v), EikonalPhase(obs, p, v))
    assert np.all(np.diff(rmap.u_final) > 0)
    assert rmap.u_final[0] < 0 < rmap.u_final[-1]


def test_ray_map_ballistic_guard():
    # truncating the map while the kick is still strong must be rejected
    setup, phase, _ = _fig3("sphere")
    with pytest.raises(ValueError, match="ballistic"):
        ray_map(setup.dimensionless(), phase, s_max=1.5)


@pytest.mark.parametrize("kind", ["sphere", "disc"])
def test_attraction_pulls_rays_inward(kind):
    # phi' < 0 on both obstacles: every ray lands inside its straight line
    setup, phase, rmap = _fig3(kind)
    assert np.all(rmap.u_final < setup.dimensionless().ell * rmap.s_grid)


@pytest.mark.parametrize("v", [2.0, 20.0])
@pytest.mark.parametrize("kind", ["disc", "sphere"])
def test_ray_map_deflects_by_the_si_kick(kind, v):
    # at the node nearest s = 1.2 the map's deflection u_final - ell s is
    # the radial kick q carried over L2 at speed v, in units of R:
    # L2 q / (m v R), all in SI units. For the disc
    # q = -4 C4 b / (v R^5 (s-1)^5), written out here; for the sphere
    # q = hbar phi'(s) / R. The map itself takes phi'(s)/(2 pi k); the two
    # agree to 2.2e-16 (measured)
    R, L2, b = 500e-9, 0.125, 10e-9
    obs = Obstacle(kind, R, b if kind == "disc" else None)
    p = ParticleSpecies("au100", 19700.0, 5e-28, v)
    phase = EikonalPhase(obs, p, v)
    params = PoissonSetup(500e-9, R, 0.125, L2, obs, p).dimensionless(v)
    rmap = ray_map(params, phase)
    i = np.argmin(np.abs(rmap.s_grid - 1.2))
    s = rmap.s_grid[i]
    assert abs(s - 1.2) < 1e-3
    if kind == "disc":
        q = -4.0 * p.C4 * b / (v * R ** 5 * (s - 1.0) ** 5)
    else:
        q = CONST.hbar * phase.dphi_ds(s) / R
    expected = L2 * q / (amu_to_kg(19700.0) * v * R)
    assert rmap.u_final[i] - params.ell * s == pytest.approx(expected,
                                                             rel=1e-10)


def test_focal_ray_exists():
    # strong near-wall kicks throw the innermost rays across the axis, so the
    # map changes sign somewhere
    _, _, rmap = _fig3("sphere")
    assert rmap.u_final[0] < 0 < rmap.u_final[-1]


def test_central_divergence_slope():
    # the focal accumulation behaves like 1/u near the axis; frozen fitted
    # slopes: sphere -0.9986, disc -1.0018
    for kind, frozen in (("sphere", -0.9986), ("disc", -1.0018)):
        _, _, rmap = _fig3(kind)
        u = np.geomspace(0.02, 0.2, 25)
        w = classical_point_pattern(u, rmap).w
        slope = np.polyfit(np.log(u), np.log(w), 1)[0]
        assert slope == pytest.approx(frozen, abs=0.02)
        assert slope == pytest.approx(-1.0, abs=0.1)


def test_flux_conservation():
    # integral of w over an inner disc must match the obstacle-plane flux
    # that lands there: int 2 s ds over |u_f| <= U times ell^2 (both in the
    # pinned normalization), to 1%
    for kind in ("sphere", "disc"):
        _, _, rmap = _fig3(kind)
        U = 6.0
        u = np.linspace(1e-3, U, 4001)
        prof = classical_point_pattern(u, rmap)
        lhs = np.trapezoid(prof.w * 2.0 * u, u)
        ell = rmap.ell
        pin_u = np.array([3.0 * ell])
        pin = classical_point_pattern(pin_u, rmap).w[0]  # 1 by construction
        inside = np.abs(rmap.u_final) <= U
        rhs = np.trapezoid(2.0 * rmap.s_grid[inside] * ell ** 2,
                           rmap.s_grid[inside])
        assert pin == pytest.approx(1.0, rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=0.015)


def test_central_flux_integrable():
    # 1/u is integrable against 2 pi u du; the enclosed flux near the axis
    # stays finite
    _, _, rmap = _fig3("sphere")
    u = np.linspace(1e-4, 0.5, 2000)
    w = classical_point_pattern(u, rmap).w
    enclosed = np.trapezoid(w * 2.0 * math.pi * u, u)
    assert np.isfinite(enclosed)
    assert enclosed < 10.0


def test_source_averaging_regularizes_center():
    setup, phase, rmap = _fig3("sphere")
    grid = np.linspace(0.025, 3.0, 60)
    prof = classical_source_averaged(grid, setup.dimensionless(),
                                     [(1.0, rmap)])
    assert np.all(np.isfinite(prof.w))
    assert prof.w[0] > 0


def test_source_averaged_beta_zero_identity():
    obs = Obstacle("sphere", 500e-9)
    p = ParticleSpecies("au100", 19700.0, 5e-28, 2.0)
    setup = PoissonSetup(0.0, 500e-9, 0.125, 0.125, obs, p)
    phase = EikonalPhase(obs, p, p.v_long)
    rmap = ray_map(setup.dimensionless(), phase)
    grid = np.linspace(0.1, 3.0, 30)
    a = classical_point_pattern(grid, rmap)
    b = classical.averaged_pattern(grid, _nodes(setup, source=True))
    assert np.array_equal(a.w, b.w)


@pytest.mark.parametrize("kind,R0", [("sphere", 500e-9), ("disc", 500e-9),
                                     ("sphere", 100e-9)])
def test_polar_operator_matches_direct_average(kind, R0):
    # the fig3 presets (beta = 1) and a smaller source (beta = 0.2) on their
    # origin-free compare grid, against the rule summed directly
    setup, _, rmap = _fig3(kind, R0)
    p = setup.dimensionless()
    u = default_grid(p, 241)[1:]
    op = polar_average_operator(u, p.beta, p.ell)
    work = op.work

    def direct(g):
        return polar_average(u, p.beta, lambda r: np.interp(r, work, g)
                             / np.maximum(r, 1e-300))

    # g = work makes f = interp(r, work, work)/r = 1, and Gauss-Legendre
    # integrates the disc's weight t exactly: every row averages to 1
    # (measured 9e-16)
    assert np.max(np.abs(op.apply(work) - 1.0)) <= 1e-14
    # the physical g, and a random g kinked at every work cell, where a node
    # put in the wrong cell moves its term by O(1); the operator reorders
    # the direct rule's sums (measured 1.1e-15 and 4.9e-15)
    physical = work * classical_point_pattern(work, rmap).w
    kinked = np.random.default_rng(17).uniform(0.5, 1.5, work.size)
    for g in (physical, kinked):
        np.testing.assert_allclose(op.apply(g), direct(g), rtol=1e-13,
                                   atol=0)
    # the profile is the operator of its geometry applied to the physical g
    np.testing.assert_array_equal(
        classical_source_averaged(u, p, [(1.0, rmap)]).w,
        np.maximum(op.apply(physical), 0.0))


def test_shared_operators_are_keyed_by_their_whole_geometry():
    # one operators dict shared by both engines across two grids of the same
    # size and three geometries, (beta, ell) = (1, 2), (0.5, 2) and (1, 3),
    # must give each profile the bits of a fresh dict. A key that left out
    # the grid, beta or (classical) ell would hand a profile an operator of
    # another geometry. The quantum matrix does not depend on ell, so the
    # two geometries with beta = 1 share it on each grid: 4 quantum and 6
    # classical operators
    obs = Obstacle("disc", 500e-9, 10e-9)
    p = ParticleSpecies("au100", 19700.0, 5e-28, 2.0)
    shared = {}
    for u in (np.linspace(0.05, 6.0, 41), np.linspace(0.1, 5.0, 41)):
        for R0, L2 in ((500e-9, 0.125), (250e-9, 0.125), (250e-9, 0.25)):
            setup = PoissonSetup(R0, 500e-9, 0.125, L2, obs, p)
            nodes = _nodes(setup, source=True)
            for engine in (averaged_pattern, classical.averaged_pattern):
                np.testing.assert_array_equal(
                    engine(u, nodes, operators=shared).w, engine(u, nodes).w)
    assert sorted(key[0] for key in shared) == ["arc"] * 4 + ["polar"] * 6


@pytest.mark.parametrize("source", [False, True])
@pytest.mark.parametrize("kind", ["sphere", "disc"])
def test_velocity_average_is_the_weighted_node_sum(kind, source):
    # the classical profile averages over the velocity nodes of the quantum
    # one, each node with its own phase and ray map. Oracle: the weighted
    # sum of the single-velocity profiles of setups whose v_long is each
    # node's velocity, written out. It holds bit for bit for point sources;
    # a source average sums the nodes' g before its one polar pass, which
    # changes only the rounding (measured <= 9.4e-16 relative). The spread
    # moves the profile by 5.3e-4 to 7.6e-3 relative
    obs = Obstacle(kind, 500e-9, 10e-9 if kind == "disc" else None)

    def fig3(v, dv_rel=0.0):
        p = ParticleSpecies("au100", 19700.0, 5e-28, v, dv_rel=dv_rel)
        return PoissonSetup(500e-9, 500e-9, 0.125, 0.125, obs, p)

    setup = fig3(2.0, dv_rel=0.1)
    u = default_grid(setup.dimensionless(), 61)[1:]
    got = classical.averaged_pattern(
        u, _nodes(setup, velocity=True, source=source)).w
    vs, weights = velocity_nodes(setup.particle)
    assert vs.size == 9
    ref = sum(w_i * classical.averaged_pattern(
        u, _nodes(fig3(v_i), source=source)).w
        for v_i, w_i in zip(vs, weights))
    if source:
        assert np.max(np.abs(got - ref) / ref) <= 1e-14
    else:
        assert np.array_equal(got, ref)
    single = classical.averaged_pattern(u, _nodes(setup, source=source)).w
    assert np.max(np.abs(got - single) / single) > 1e-4


@pytest.mark.parametrize("source", [False, True])
def test_velocity_average_at_zero_spread_is_the_single_velocity(source):
    # the fig3 particle has dv_rel = 0: one node, v_long, with weight 1
    setup, _, _ = _fig3("disc")
    u = default_grid(setup.dimensionless(), 61)[1:]
    np.testing.assert_array_equal(
        classical.averaged_pattern(
            u, _nodes(setup, velocity=True, source=source)).w,
        classical.averaged_pattern(u, _nodes(setup, source=source)).w)


def test_velocity_average_builds_one_polar_operator(monkeypatch):
    # nine velocity nodes: nine ray maps and one polar operator
    obs = Obstacle("disc", 500e-9, 10e-9)
    p = ParticleSpecies("au100", 19700.0, 5e-28, 2.0, dv_rel=0.1)
    setup = PoissonSetup(500e-9, 500e-9, 0.125, 0.125, obs, p)
    calls = {"ray_map": 0, "operator": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(classical, "ray_map",
                        counted("ray_map", classical.ray_map))
    monkeypatch.setattr(classical, "polar_average_operator", counted(
        "operator", classical.polar_average_operator))
    shared = {}
    classical.averaged_pattern(default_grid(setup.dimensionless(), 41)[1:],
                               _nodes(setup, velocity=True, source=True),
                               operators=shared)
    assert calls == {"ray_map": 9, "operator": 1}
    assert [key[0] for key in shared] == ["polar"]


@pytest.mark.parametrize("R0", [500e-9, 100e-9])
def test_work_position_matches_interp(R0):
    # every node radius of the rule on the fig3 compare grid, with the seam
    # at 0.2 ell, its neighbours and the clamp below work[0] added
    setup, _, _ = _fig3("sphere", R0)
    p = setup.dimensionless()
    u = default_grid(p, 241)[1:]
    work = _work_grid(u.max() + p.beta, p.ell)
    seam = 0.2 * p.ell
    x1, _, cos_t = _POLAR_RULE
    t = 0.5 * p.beta * x1[:, None]
    r = np.sqrt(np.maximum(u[:, None, None] ** 2 + t * t
                           + 2.0 * u[:, None, None] * t * cos_t, 0.0)).ravel()
    assert r.min() < seam < r.max()
    r = np.concatenate([r, [0.0, 0.5 * work[0], work[0], np.nextafter(
        seam, 0.0), seam, np.nextafter(seam, 1.0), work[-1]]])
    ref = np.interp(r, work, np.arange(work.size))
    # measured 4.5e-13, one ulp of the index
    assert np.max(np.abs(_work_position(r, work) - ref)) <= 1e-9


def test_pattern_rejects_origin():
    _, _, rmap = _fig3("sphere")
    with pytest.raises(ValueError, match="diverges"):
        classical_point_pattern(np.array([0.0, 1.0]), rmap)


def test_distinguishability_identical_profiles():
    u = np.linspace(0.025, 6.0, 40)
    prof = RadialProfile(u, np.ones_like(u))
    rep = distinguishability(prof, prof, 2.0)
    assert rep.ratio == 1.0
    assert rep.l1_shadow == 0.0
    assert rep.u_probe == pytest.approx(0.025)
    # no central ratio without a positive radius in the shadow u < ell = 2,
    # not even for identical profiles: a grid that reaches it only at the
    # origin, at its edge or past it is refused
    for u in (np.array([0.0, 2.0, 3.0]), np.linspace(6.9, 200.0, 29)):
        prof = RadialProfile(u, np.ones_like(u))
        with pytest.raises(ValueError, match="shadow"):
            distinguishability(prof, prof, 2.0)


def test_distinguishability_zero_classical():
    u = np.linspace(0.025, 6.0, 40)
    q = RadialProfile(u, np.ones_like(u))
    c = RadialProfile(u, np.zeros_like(u))
    assert distinguishability(q, c, 2.0).ratio == math.inf


def test_distinguishability_grid_mismatch():
    u = np.linspace(0.025, 6.0, 40)
    q = RadialProfile(u, np.ones_like(u))
    c = RadialProfile(u[:-1], np.ones(39))
    with pytest.raises(ValueError, match="grid"):
        distinguishability(q, c, 2.0)
