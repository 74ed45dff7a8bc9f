import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

import arago
from arago.constants_units import CONST
from arago.interaction import EikonalPhase, Obstacle, capture_eta
from arago.numerics import bisect
from arago.particles import ParticleSpecies, species_preset
from references import capture_eta_shooting

AU = species_preset("au100")          # 19700 amu, alpha 5e-28 m^3, v 2 m/s
SPHERE = Obstacle("sphere", 500e-9)
DISC = Obstacle("disc", 500e-9, 10e-9)


def disc_phase(C4, b, v_z, R, s):
    """Disc oracle: the edge potential -C4/(r-R)^4 acting for the transit
    time b/v_z gives C4 b / (hbar v_z R^4 (s-1)^4)."""
    return C4 * b / (CONST.hbar * v_z * R ** 4 * (np.asarray(s) - 1.0) ** 4)


def test_obstacle_validation():
    with pytest.raises(ValueError, match="kind"):
        Obstacle("cube", 1e-6)
    with pytest.raises(ValueError, match="R"):
        Obstacle("sphere", 0.0)
    with pytest.raises(ValueError, match="thickness"):
        Obstacle("disc", 1e-6)
    with pytest.raises(ValueError, match="thickness"):
        Obstacle("disc", 1e-6, -1e-9)


def test_disc_phase_closed_form():
    # C4 b / (hbar v R^4 (s-1)^4), transcribed independently here
    s = 1.2
    expected = AU.C4 * 10e-9 / (CONST.hbar * 2.0 * (500e-9) ** 4 * 0.2 ** 4)
    assert disc_phase(AU.C4, 10e-9, 2.0, 500e-9, s) == pytest.approx(
        expected, rel=1e-12)
    assert EikonalPhase(DISC, AU, 2.0).phi(s) == pytest.approx(expected,
                                                               rel=1e-12)


def test_disc_phase_power_law():
    phase = EikonalPhase(DISC, AU, 2.0)
    r = phase.phi(1.1) / phase.phi(1.2)
    assert r == pytest.approx(16.0, rel=1e-12)


def test_disc_phase_velocity_scaling():
    r = EikonalPhase(DISC, AU, 2.0).phi(1.3) \
        / EikonalPhase(DISC, AU, 4.0).phi(1.3)
    assert r == pytest.approx(2.0, rel=1e-12)


def _line_integral_phase(s, derivative=False):
    """Independent route to the sphere phase (or its s-derivative): integrate
    C4/d^4 (or its derivative in s) along the straight trajectory with generic
    quadrature, splitting at z = R and adding the analytic far tail beyond
    z = Z R, Z = 2000 s."""
    C4, R, Z = AU.C4, 500e-9, 2000.0 * s
    if derivative:
        f = lambda z: (-4.0 * C4 * s * R * R / math.hypot(s * R, z)
                       / (math.hypot(s * R, z) - R) ** 5)
        tail = -4.0 * C4 * s * R * R / (5.0 * (Z * R) ** 5)
    else:
        f = lambda z: C4 / (math.hypot(s * R, z) - R) ** 4
        tail = C4 / (3.0 * (Z * R) ** 3)
    val1, _ = scipy.integrate.quad(f, 0, R, epsabs=0, epsrel=1e-12,
                                   limit=2000)
    val2, _ = scipy.integrate.quad(f, R, Z * R, epsabs=0, epsrel=1e-12,
                                   limit=2000)
    return 2.0 * (val1 + val2 + tail) / (CONST.hbar * AU.v_long)


def test_sphere_phase_against_line_integral():
    phase = EikonalPhase(SPHERE, AU, AU.v_long)
    for s in (1.001, 1.01, 1.05, 1.5, 3.0, 30.0, 99.0):
        # abs=0: the phase is ~1e-7 rad at s = 99, where approx's default
        # abs=1e-12 alone would allow a relative error of ~1e-5
        assert phase.phi(s) == pytest.approx(_line_integral_phase(s),
                                             rel=1e-9, abs=0)
        assert phase.dphi_ds(s) == pytest.approx(
            _line_integral_phase(s, derivative=True), rel=1e-9, abs=0)


def test_sphere_phase_anchors():
    # regression values, Au100 sphere at v = 2 m/s
    anchors = {
        1.05: 3668.67162241202,
        1.1: 333.98355661407345,
        1.5: 1.44202613680484,
        2.0: 0.15028249238498373,
        5.0: 0.0019221082149735336,
    }
    phase = EikonalPhase(SPHERE, AU, AU.v_long)
    for s, val in anchors.items():
        assert float(phase.phi(s)) == pytest.approx(val, rel=1e-9)


def test_sphere_phase_far_asymptote():
    # the far tail falls off as s^-3 (the potential integrates to C4/d^4 with
    # one power eaten by the path length)
    phase = EikonalPhase(SPHERE, AU, AU.v_long)
    s = np.geomspace(50.0, 500.0, 12)
    slope = np.polyfit(np.log(s), np.log(phase.phi(s)), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.1)


def test_sphere_phase_intermediate_slope():
    # in the near-to-intermediate zone the local exponent is steeper than the
    # far asymptote; frozen regression for the fitted slope on s in [5, 50]
    phase = EikonalPhase(SPHERE, AU, AU.v_long)
    s = np.geomspace(5.0, 50.0, 12)
    slope = np.polyfit(np.log(s), np.log(phase.phi(s)), 1)[0]
    assert slope == pytest.approx(-3.28, abs=0.05)


def test_phase_table_matches_raw():
    sp = EikonalPhase(SPHERE, AU, AU.v_long)
    dp = EikonalPhase(DISC, AU, AU.v_long)
    for s in np.geomspace(1.01, 8.0, 20):
        assert float(sp.phi(s)) == pytest.approx(_line_integral_phase(s),
                                                 rel=1e-8)
        assert float(dp.phi(s)) == pytest.approx(
            disc_phase(AU.C4, 10e-9, AU.v_long, 500e-9, s), rel=1e-8)


def test_phase_monotone_decreasing():
    phase = EikonalPhase(SPHERE, AU, AU.v_long)
    s = np.geomspace(1.005, 20.0, 200)
    vals = phase.phi(s)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_phase_anchor_disc():
    phase = EikonalPhase(DISC, AU, AU.v_long)
    assert float(phase.phi(1.1)) == pytest.approx(14.314035477710805, rel=1e-9)


def test_s_negligible():
    sp = EikonalPhase(SPHERE, AU, AU.v_long)
    dp = EikonalPhase(DISC, AU, AU.v_long)
    assert sp.s_negligible == pytest.approx(11.524225739691524, rel=1e-6)
    assert dp.s_negligible == pytest.approx(2.945093678106338, rel=1e-6)
    # the boundary is where the phase hits the declared floor
    assert float(sp.phi(sp.s_negligible)) == pytest.approx(
        sp.phase_floor, rel=1e-4)
    # beyond it the continuation keeps decaying instead of clamping
    assert float(sp.phi(2.0 * sp.s_negligible)) < sp.phase_floor


# fig3 sphere velocities (m/s) of the root oracles
ORACLE_VELOCITIES = (1.5, 4.0, 20.0, 50.0)
EPS = np.finfo(float).eps


@pytest.mark.parametrize("v", ORACLE_VELOCITIES)
def test_s_negligible_is_the_floor_crossing(v):
    # s_negligible is the root of phi = phase_floor, solved by Newton steps
    # in log(s - 1): phi there is the floor to 1e-12, and scipy's bisection
    # without the slope lands within its 1e-6 tolerance in s of it
    phase = EikonalPhase(SPHERE, AU, v)
    floor = phase.phase_floor
    assert phase.phi(phase.s_negligible) == pytest.approx(floor, rel=1e-12)
    s_far = (phase.prefactor * math.pi / (2.0 * floor)) ** (1.0 / 3.0)
    ref = scipy.optimize.bisect(lambda s: phase.phi(s) - floor, s_far,
                                4.0 * s_far, xtol=1e-6)
    assert abs(phase.s_negligible - ref) <= 1e-6 + 4.0 * EPS * ref


@pytest.mark.parametrize("v", ORACLE_VELOCITIES)
def test_capture_minimum_is_a_root_to_rounding(v, monkeypatch):
    # r* solves (r - 1)^5 = (A/2)(r + 1): its residual is below what one
    # ulp of r moves it (measured 0.17-0.29 of that), and scipy's bisection
    # without the slope lands within its 1e-12 tolerance of it
    roots = []

    def recorded(*args):
        roots.append(bisect(*args))
        return roots[-1]

    monkeypatch.setattr(arago.interaction, "bisect", recorded)
    capture_eta(SPHERE, AU, v)
    r = roots[0]
    half_A = 2.0 * AU.C4 / (AU.mass_kg * v ** 2 * SPHERE.R ** 4)
    residual = (r - 1.0) ** 5 - half_A * (r + 1.0)
    slope = 5.0 * (r - 1.0) ** 4 - half_A
    assert len(roots) == 1
    assert abs(residual) <= abs(slope) * np.spacing(r)
    ref = scipy.optimize.bisect(lambda r: (r - 1.0) ** 5 - half_A * (r + 1.0),
                                1.0, 3.0 + (2.0 * half_A) ** 0.25, xtol=1e-12)
    assert abs(r - ref) <= 1e-12 + 4.0 * EPS * ref



def test_crossing_converts_its_tolerance_to_log_distance(monkeypatch):
    # crossing solves in x = log(s - 1), where a step dx moves s by at most
    # (hi - 1) dx, so bisect gets tol / (hi - 1) for a tolerance tol in s.
    # The Newton stop lands far below either tolerance on the sphere's
    # phase, so only the tolerance bisect receives shows the conversion
    phase = EikonalPhase(SPHERE, AU, 2.0)
    tols = []

    def recorded(f, lo, hi, tol, df):
        tols.append(tol)
        return bisect(f, lo, hi, tol, df)

    monkeypatch.setattr(arago.interaction, "bisect", recorded)
    hi = phase.s_negligible
    s = phase.crossing(np.array([1.0, 1e-2]), 1.1, hi, 1e-6)
    assert tols == [1e-6 / (hi - 1.0)] and hi - 1.0 > 5.0
    np.testing.assert_allclose(phase.phi(s), [1.0, 1e-2], rtol=1e-12)


@pytest.mark.parametrize("v", (2.0, np.float64(20.2553946)))
def test_disc_crossing_is_the_closed_form(v, monkeypatch):
    # the disc phase P (s - 1)^-4 crosses a level L at 1 + (P / L)^(1/4),
    # in scalar arithmetic and bit for bit, for a scalar level and for
    # every level of an array, whatever the bracket and tolerance; no root
    # finder runs. A velocity node's v is a numpy float, as is P then.
    # numpy's vectorized power moves some of these 1000 roots by an ulp
    # where it differs from the scalar power (9 at 2 m/s with numpy 2.4.6
    # on an AVX-512 Xeon)
    phase = EikonalPhase(DISC, AU, v)
    monkeypatch.setattr(arago.interaction, "bisect", None)
    P = phase.prefactor
    assert phase.s_negligible == 1.0 + (P / phase.phase_floor) ** 0.25
    assert phase.crossing(0.3, None, None, None) == 1.0 + (P / 0.3) ** 0.25
    levels = np.geomspace(1e-3, 1e4, 1000)
    s = phase.crossing(levels, 1.0, 2.0, 1e-10)
    assert s.shape == levels.shape
    assert s.tolist() == [1.0 + (P / lvl) ** 0.25 for lvl in levels.tolist()]
    grid = phase.crossing(levels.reshape(50, 20), None, None, None)
    assert grid.shape == (50, 20) and grid.ravel().tolist() == s.tolist()

def test_dphi_ds_consistency():
    phase = EikonalPhase(SPHERE, AU, AU.v_long)
    for s in (1.1, 1.5, 3.0, 8.0):
        h = 1e-5 * (s - 1.0)
        fd = (float(phase.phi(s + h)) - float(phase.phi(s - h))) / (2 * h)
        assert float(phase.dphi_ds(s)) == pytest.approx(fd, rel=1e-5)


def test_capture_eta_sphere():
    # trajectory shooting, Au100 at 2 m/s on a 500 nm sphere: etaR ~ 39 nm
    eta = capture_eta(SPHERE, AU, AU.v_long)
    assert eta == pytest.approx(0.078445686340332, rel=1e-4)
    # the phase holds the capture radius of its own obstacle, particle and
    # velocity, at any velocity
    assert EikonalPhase(SPHERE, AU, AU.v_long).eta == eta
    assert EikonalPhase(SPHERE, AU, 3.0).eta == capture_eta(SPHERE, AU, 3.0)
    assert eta * 500e-9 == pytest.approx(39.2e-9, rel=0.02)
    # brute-force oracle, independent of the r* root-find: (1 + eta)^2 is the
    # minimum of B(r) = r^2 (1 + (A/2)/(r-1)^4) over r in [1 + delta, 3],
    # here on 1e5 nodes geometric in r - 1. Measured: 1.0e-9 relative at
    # fig3 (the grid's quadratic error at the interior minimum r*); exactly
    # 0 for alpha = 5e-38 m^3, where r* - 1 = 6.2e-4 < delta = 1e-3 and the
    # roughness floor r_min = 1 + delta binds (r* there would give 7.8e-4).
    delta = 0.5e-9 / 500e-9
    r = 1.0 + np.geomspace(delta, 2.0, 100_000)
    for alpha, floor_binds in ((5e-28, False), (5e-38, True)):
        p = ParticleSpecies("au100", 19700.0, alpha, 2.0)
        half_A = 2.0 * p.C4 / (p.mass_kg * 2.0 ** 2 * 500e-9 ** 4)
        B = r * r * (1.0 + half_A / (r - 1.0) ** 4)
        assert (np.argmin(B) == 0) == floor_binds
        assert capture_eta(SPHERE, p, 2.0) == pytest.approx(
            math.sqrt(B.min()) - 1.0, rel=1e-8)


def test_capture_eta_disc():
    eta = capture_eta(DISC, AU, AU.v_long)
    assert eta == pytest.approx(0.034414191517024, rel=1e-6)
    assert EikonalPhase(DISC, AU, AU.v_long).eta == eta
    assert EikonalPhase(DISC, AU, 3.0).eta == capture_eta(DISC, AU, 3.0)
    assert eta * 500e-9 == pytest.approx(17.2e-9, rel=0.02)


def test_capture_eta_shrinks_with_velocity():
    slow = capture_eta(SPHERE, AU, 2.0)
    fast = capture_eta(SPHERE, AU, 8.0)
    assert fast < slow


def test_solver_is_imported_on_first_use():
    # importing the interaction module must not load scipy.integrate;
    # solve_ivp, which the trajectory reference of tests/references.py
    # calls, imports it on its first call and returns scipy's own result,
    # whose nfev perfbench/spans.py reads
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(arago.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, arago.interaction as ia; "
         "before = 'scipy.integrate' in sys.modules; "
         "sol = ia.solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0]); "
         "print(json.dumps([before, 'scipy.integrate' in sys.modules, "
         "type(sol).__module__, type(sol).__name__, int(sol.nfev), "
         "bool(sol.success), float(sol.y[0, -1])]))"],
        env=env, capture_output=True, text=True, check=True)
    before, after, module, name, nfev, success, y_end = json.loads(out.stdout)
    assert not before
    assert after
    assert module.startswith("scipy.integrate.") and name == "OdeResult"
    assert nfev > 0 and success
    assert y_end == pytest.approx(math.exp(-1.0), rel=1e-3)


def test_capture_eta_fast_passage():
    # fast beams: the capture radius stays far above the roughness floor
    # (delta = 1e-3 of R here). The shooting reference caps its step, so it
    # cannot step across the sphere and miss the wall.
    fast = ParticleSpecies("au100", 19700.0, 5e-28, 20.2553946)
    eta_s = capture_eta(SPHERE, fast, fast.v_long)
    assert eta_s == pytest.approx(0.030873894804279, rel=1e-6)
    for R, v in ((500e-9, 20.2553946), (1e-6, 10.0), (500e-9, 50.0)):
        obs = Obstacle("sphere", R)
        p = ParticleSpecies("au100", 19700.0, 5e-28, v)
        assert capture_eta(obs, p, v) == pytest.approx(
            capture_eta_shooting(obs, p, v), rel=2e-5)
    eta_d = capture_eta(DISC, fast, fast.v_long)
    assert eta_d == pytest.approx(0.01590623277593229, rel=1e-6)
