import math

import numpy as np
import pytest

from arago.constants_units import CONST, polarizability_to_C4
from arago.farfield import (
    FarFieldSetup,
    ballistic_rise_time,
    coherence_width,
    collimation_check,
    coriolis_shift,
    coriolis_velocity_criterion,
    cutoff_distance,
    feasibility_report,
    free_fall_distance,
    gravity_velocity_criterion,
    mass_limit,
    required_flux,
)
from arago.particles import ParticleSpecies, species_preset
from references import kg_to_amu, thermal_wavelength

# the slow-beam gold-cluster fountain scenario used by several checks
AU5000 = ParticleSpecies("Au5000", 1e6, 2.5e-26, 4.5, 0.05)
FOUNTAIN = FarFieldSetup(D=4e-6, Y=100e-6, L1=1.0, L2=1.0, d=100e-9, b=100e-9,
                         eps2=1e-3, eps3=1e-3, latitude=0.8378, H=1.0)


def test_setup_defaults():
    s = FarFieldSetup(D=4e-6, Y=100e-6, L1=1.0, L2=1.0, d=100e-9, b=100e-9)
    assert s.theta_eff == pytest.approx(2e-6, rel=1e-12)   # D / (2 L1)
    assert s.open_width == pytest.approx(50e-9, rel=1e-12)  # d / 2


def test_cutoff_distance_au5000():
    # 1e6 amu gold cluster at 1 m/s through a 100 nm thick grating
    C4 = polarizability_to_C4(2.5e-26)
    x_c = cutoff_distance(C4, 100e-9, 1e6, 1.0)
    assert x_c == pytest.approx(46.58973918526526e-9, rel=1e-9)
    assert x_c == pytest.approx(46e-9, rel=0.05)


def test_cutoff_distance_c60():
    # frozen at the formula's own value; the commonly quoted 17 nm for this
    # case is not consistent with the x_c^6 = 18 C4 b^2/(m v^2) form under the
    # same polarizability convention that reproduces the Au5000 number
    C4 = polarizability_to_C4(8.9e-29)
    x_c = cutoff_distance(C4, 100e-9, 720.0, 150.0)
    assert x_c == pytest.approx(11.444920399520402e-9, rel=1e-9)
    assert not (abs(x_c - 17e-9) / 17e-9 < 0.05)


def test_cutoff_distance_monotonic():
    C4 = polarizability_to_C4(2.5e-26)
    base = cutoff_distance(C4, 100e-9, 1e6, 1.0)
    assert cutoff_distance(C4, 100e-9, 1e6, 2.0) < base
    assert cutoff_distance(C4, 200e-9, 1e6, 1.0) > base
    assert cutoff_distance(C4, 100e-9, 2e6, 1.0) < base
    assert cutoff_distance(2 * C4, 100e-9, 1e6, 1.0) > base
    with pytest.raises(ValueError):
        cutoff_distance(C4, 0.0, 1e6, 1.0)


def test_mass_limit_value():
    # 100 nm period, 10 K source, 10 urad collimation
    limit = mass_limit(100e-9, 10.0, 10e-6)
    assert kg_to_amu(limit) == pytest.approx(957524.0327268483, rel=1e-9)


def test_mass_limit_consistency_chain():
    # at the limiting mass the thermal wavelength equals d * Theta exactly
    rng = np.random.RandomState(3)
    for _ in range(5):
        d = rng.uniform(50e-9, 500e-9)
        T = rng.uniform(4.0, 900.0)
        Theta = rng.uniform(1e-6, 1e-4)
        m_star = kg_to_amu(mass_limit(d, T, Theta))
        assert thermal_wavelength(m_star, T) == pytest.approx(
            d * Theta, rel=1e-12)


def test_mass_limit_theta_scaling():
    assert mass_limit(100e-9, 10.0, 20e-6) == pytest.approx(
        mass_limit(100e-9, 10.0, 10e-6) / 4.0, rel=1e-12)


def test_gravity_criterion_value():
    # frozen for the slow (1 m/s) species preset; the bound scales with v
    bound = gravity_velocity_criterion(
        FarFieldSetup(D=4e-6, Y=100e-6, L1=1.0, L2=1.0, d=100e-9, b=100e-9,
                      eps1=1e-3),
        species_preset("au5000"))
    assert bound == pytest.approx(4.067597058381649e-4, rel=1e-9)


def test_gravity_criterion_conventions():
    # the flight length of the fall is L = L2: the bound v L2 h/(m d g L^2
    # eps1) goes as 1/L2 and does not see L1 (with L = L1 + L2 it would)
    def bound(L1, L2):
        return gravity_velocity_criterion(
            FarFieldSetup(D=4e-6, Y=100e-6, L1=L1, L2=L2, d=100e-9,
                          b=100e-9, eps1=1e-3), AU5000)

    assert bound(3.0, 1.0) == bound(1.0, 1.0)
    assert bound(1.0, 2.0) == pytest.approx(bound(1.0, 1.0) / 2.0, rel=1e-12)


def test_gravity_criterion_vacuous():
    setup = FarFieldSetup(D=4e-6, Y=100e-6, L1=1.0, L2=1.0, d=100e-9,
                          b=100e-9, eps1=0.0)
    assert gravity_velocity_criterion(setup, AU5000) == math.inf


def test_coriolis_shift_zeros():
    assert coriolis_shift(4.5, 0.0, 1e-3, 1e-3, 0.8378) == 0.0
    assert coriolis_shift(4.5, 0.4, 0.0, 0.0, 0.8378) == 0.0
    assert coriolis_shift(4.5, 0.4, 0.0, 0.0, 0.0) == 0.0


def test_coriolis_shift_value():
    assert coriolis_shift(4.5, 0.378, 1e-3, 0.0, 0.8378) == pytest.approx(
        -3.488259925980278e-8, rel=1e-9)


def test_ballistic_rise_time():
    # reach H = 1 m launching upward at 4.5 m/s in Earth gravity
    t = ballistic_rise_time(4.5, 1.0)
    assert t == pytest.approx(0.3778057703038352, rel=1e-9)
    # slower than the escape condition v^2 = 2 g H
    with pytest.raises(ValueError):
        ballistic_rise_time(1.0, 1.0)


def test_coriolis_criterion_coefficients():
    crit = coriolis_velocity_criterion(FOUNTAIN, AU5000)
    assert crit.flight_time == pytest.approx(0.3778057703038352, rel=1e-9)
    a2, a3 = crit.derived_coeffs
    assert a2 == pytest.approx(406.29714025702236, rel=1e-6)
    assert a3 == pytest.approx(35.380892599673416, rel=1e-6)
    # the epsilon coefficient ratio of the dephasing bracket
    assert a2 / a3 == pytest.approx(410.0 / 36.0, rel=0.10)
    # the literal closed form carries the same bracket structure
    l2, l3 = crit.literal_coeffs
    assert l2 / l3 == pytest.approx(a2 / a3, rel=1e-6)
    assert crit.derived_bound > 0
    assert crit.literal_bound > 0


@pytest.mark.parametrize("v_L, eps2, eps3, lat", [
    (4.5, 1e-3, 1e-3, 0.8378),   # the fountain
    (4.5, 1e-3, 0.0, 0.3),
    (4.43, 0.0, 2e-3, 1.2),      # just above the apex speed sqrt(2 g H)
    (18.0, 5e-4, 1e-3, 0.0),
])
def test_coriolis_criterion_is_the_exact_derivative(v_L, eps2, eps3, lat):
    # the derived bound is the fringe period over v |dy_c/dv|, with dy_c/dv
    # from a central difference of coriolis_shift along the flight time
    setup = FarFieldSetup(D=4e-6, Y=100e-6, L1=1.0, L2=1.0, d=100e-9,
                          b=100e-9, eps2=eps2, eps3=eps3, latitude=lat,
                          H=1.0)
    p = ParticleSpecies("Au5000", 1e6, 2.5e-26, v_L, 0.05)
    crit = coriolis_velocity_criterion(setup, p)

    def shift(v):
        return coriolis_shift(v, ballistic_rise_time(v, 1.0), eps2, eps3, lat)
    h = 1e-6 * v_L
    dy_dv = (shift(v_L + h) - shift(v_L - h)) / (2.0 * h)
    fringe = CONST.h * setup.H / (setup.d * p.mass_kg * v_L)
    assert crit.derived_bound == pytest.approx(fringe / (v_L * abs(dy_dv)),
                                               rel=1e-6)
    omega_t2 = CONST.omega_earth * crit.flight_time ** 2
    assert crit.derived_bound * omega_t2 == pytest.approx(crit.literal_bound,
                                                          rel=1e-12)


def test_coriolis_criterion_refuses_the_apex():
    # at v = sqrt(2 g H) the beam reaches H at its apex, where dt/dv, and
    # so dy_c/dv, diverges: a ValueError, never a nan
    v_apex = math.sqrt(2.0 * CONST.g * FOUNTAIN.H)
    t = ballistic_rise_time(v_apex, FOUNTAIN.H)
    assert v_apex == CONST.g * t
    with pytest.raises(ValueError, match="apex"):
        coriolis_velocity_criterion(
            FOUNTAIN, ParticleSpecies("Au5000", 1e6, 2.5e-26, v_apex, 0.05))


def test_coherence_width_value():
    assert coherence_width(0.7e-12, 1.0, 4e-6) == pytest.approx(
        175e-9, rel=1e-12)


def test_collimation_check():
    ok = collimation_check(4e-6, 0.7e-12, 100e-9)
    assert ok.satisfied
    assert ok.bound == pytest.approx(7e-6, rel=1e-12)
    bad = collimation_check(10e-6, 0.7e-12, 100e-9)
    assert not bad.satisfied


def test_required_flux_value():
    p = ParticleSpecies("m30k", 30000.0, 7.6e-28, 18.236735037858658, 0.05)
    setup = FarFieldSetup(D=4e-6, Y=100e-6, L1=1.0, L2=1.0, d=100e-9,
                          b=100e-9, eta_trans=1.0 / 3.0, tau=3600.0,
                          N_target=1000.0)
    flux = required_flux(setup, p)
    assert flux == pytest.approx(1.0416666666666667e20, rel=1e-9)
    # in cgs-style units this is the usual 1e16 cm^-2 s^-1 sr^-1 scale
    assert flux * 1e-4 == pytest.approx(1.04e16, rel=0.02)


def test_required_flux_velocity_independent():
    # v appears in numerator and in Delta v; the ratio cancels
    s = FarFieldSetup(D=4e-6, Y=100e-6, L1=1.0, L2=1.0, d=100e-9, b=100e-9,
                      eta_trans=1.0 / 3.0, tau=3600.0)
    f1 = required_flux(s, ParticleSpecies("x", 3e4, 7.6e-28, 18.0, 0.05))
    f2 = required_flux(s, ParticleSpecies("x", 3e4, 7.6e-28, 180.0, 0.05))
    assert f1 == pytest.approx(f2, rel=1e-12)
    with pytest.raises(ValueError):
        required_flux(s, ParticleSpecies("x", 3e4, 7.6e-28, 18.0, 0.0))


def test_free_fall_distance():
    assert free_fall_distance(2.0, 1.0) == pytest.approx(19.62, rel=1e-9)
    assert free_fall_distance(2.0, 18.236735037858658) == pytest.approx(
        0.0589935901280702, rel=1e-9)


def test_feasibility_report_rows():
    p = ParticleSpecies("m30k", 30000.0, 7.6e-28, 18.236735037858658, 0.05)
    setup = FarFieldSetup(D=4e-6, Y=100e-6, L1=1.0, L2=1.0, d=100e-9,
                          b=100e-9, eps1=1e-3, eps2=1e-3, eps3=1e-3,
                          latitude=0.8378, H=1.0, T_source=600.0,
                          eta_trans=1.0 / 3.0, tau=3600.0)
    rows = feasibility_report(setup, p)
    names = [r.name for r in rows]
    assert names == ["particle_size", "collimation", "slit_clogging",
                     "mass_limit", "gravity_dephasing", "coriolis_dephasing",
                     "coherence", "transit_time", "free_fall",
                     "required_flux"]
    for r in rows:
        assert isinstance(r.satisfied, bool)
        assert isinstance(r.note, str) and r.note


def test_feasibility_report_guards_failures():
    # a 1 m/s beam cannot climb a 1 m fountain; the coriolis row must report
    # the error instead of blowing up the audit, and free fall must fail
    p = species_preset("au5000")  # v_long = 1 m/s, dv_rel = 0
    rows = feasibility_report(FOUNTAIN, p)
    by_name = {r.name: r for r in rows}
    cor = by_name["coriolis_dephasing"]
    assert not cor.satisfied
    assert cor.note.startswith("error:")
    assert math.isnan(cor.value)
    assert not by_name["free_fall"].satisfied
    # dv_rel = 0 makes the flux requirement undefined; guarded, not raised
    assert by_name["required_flux"].note.startswith("error:")
