import numpy as np
import pytest

from arago.particles import (
    ParticleSpecies,
    de_broglie_wavelength,
    species_preset,
    velocity_nodes,
)
from references import thermal_velocity, thermal_wavelength


def test_de_broglie_wavelength_gold_cluster():
    # 19700 amu at 2.02553946 m/s sits at 10 pm by construction
    lam = de_broglie_wavelength(19700.0, 2.02553946)
    assert lam == pytest.approx(1.0e-11, rel=1e-8)


def test_de_broglie_inverse_in_velocity():
    lam1 = de_broglie_wavelength(720.0, 100.0)
    lam2 = de_broglie_wavelength(720.0, 200.0)
    assert lam1 == pytest.approx(2.0 * lam2, rel=1e-14)


def test_de_broglie_rejects_bad_input():
    with pytest.raises(ValueError):
        de_broglie_wavelength(0.0, 1.0)
    with pytest.raises(ValueError):
        de_broglie_wavelength(720.0, -1.0)


def test_thermal_velocity_value():
    # 30000 amu source at 600 K
    assert thermal_velocity(30000.0, 600.0) == pytest.approx(
        18.236735037858658, rel=1e-12)


def test_thermal_beam_wavelength():
    # 30000 amu at ~18 m/s gives ~0.7 pm
    v = thermal_velocity(30000.0, 600.0)
    lam = de_broglie_wavelength(30000.0, v)
    assert lam == pytest.approx(0.7e-12, rel=0.1)
    assert thermal_wavelength(30000.0, 600.0) == pytest.approx(lam, rel=1e-12)


def test_species_validation():
    with pytest.raises(ValueError):
        ParticleSpecies("x", -1.0, 1e-28, 1.0)
    with pytest.raises(ValueError):
        ParticleSpecies("x", 720.0, -1e-28, 1.0)
    with pytest.raises(ValueError):
        ParticleSpecies("x", 720.0, 1e-28, 0.0)
    with pytest.raises(ValueError):
        ParticleSpecies("x", 720.0, 1e-28, 1.0, dv_rel=1.0)


def test_species_C4_zero_for_zero_alpha():
    p = ParticleSpecies("bare", 720.0, 0.0, 100.0)
    assert p.C4 == 0.0


def test_species_C4_value():
    p = ParticleSpecies("au100", 19700.0, 5e-28, 2.0)
    assert p.C4 == pytest.approx(1.8868973014476347e-54, rel=1e-12)


def test_species_wavelength_override():
    p = ParticleSpecies("au100", 19700.0, 5e-28, 2.0)
    assert p.wavelength(4.0) == pytest.approx(p.wavelength() / 2.0, rel=1e-14)


def test_velocity_nodes_degenerate():
    p = ParticleSpecies("x", 720.0, 0.0, 150.0, dv_rel=0.0)
    v, w = velocity_nodes(p)
    assert list(v) == [150.0]
    assert list(w) == [1.0]


def test_velocity_nodes_moments():
    # 9-point Gauss-Hermite is exact for the first and second moments of the
    # untruncated Gaussian; for dv_rel = 5% no node is anywhere near v = 0,
    # so truncation never bites and the moments come out exact.
    p = ParticleSpecies("x", 720.0, 0.0, 150.0, dv_rel=0.05)
    v, w = velocity_nodes(p)
    assert np.all(v > 0)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    sigma = 0.05 * 150.0 / 2.355
    assert np.dot(w, v) == pytest.approx(150.0, rel=1e-13)
    var = np.dot(w, (v - 150.0) ** 2)
    assert var == pytest.approx(sigma * sigma, rel=1e-12)


def test_velocity_nodes_truncation():
    # enormous spread: negative-velocity nodes must be dropped, weights
    # renormalized
    p = ParticleSpecies("x", 720.0, 0.0, 1.0, dv_rel=0.99)
    v, w = velocity_nodes(p, n=15)
    assert np.all(v > 0)
    assert len(v) < 15
    assert w.sum() == pytest.approx(1.0, rel=1e-14)


def test_species_presets():
    au = species_preset("au100")
    assert au.mass == 19700.0
    assert au.alpha == 5e-28
    assert au.v_long == 2.0
    big = species_preset("AU5000")  # case-insensitive
    assert big.mass == 1e6
    assert species_preset("c60").mass == 720.0


def test_species_preset_unknown():
    with pytest.raises(KeyError, match="known"):
        species_preset("unobtainium")
