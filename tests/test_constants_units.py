import math

import pytest

from arago.constants_units import (
    CONST,
    PhysicalConstants,
    amu_to_kg,
    polarizability_to_C4,
)
from references import kg_to_amu


def test_constant_values():
    assert CONST.h == 6.62607015e-34
    assert CONST.hbar == pytest.approx(CONST.h / (2.0 * math.pi), rel=1e-15)
    assert CONST.kB == 1.380649e-23
    assert CONST.c == 2.99792458e8
    assert CONST.amu == 1.66053906660e-27
    assert 9.8 < CONST.g < 9.82
    assert 7.2e-5 < CONST.omega_earth < 7.4e-5


def test_constants_immutable():
    with pytest.raises(Exception):
        CONST.h = 1.0


def test_constants_validated():
    with pytest.raises(ValueError):
        PhysicalConstants(kB=-1.0)
    # hbar is slaved to h
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=1e-34)


def test_amu_roundtrip():
    for m in (1.0, 720.0, 19700.0, 1e6):
        assert kg_to_amu(amu_to_kg(m)) == pytest.approx(m, rel=1e-14)


def test_amu_scale():
    assert amu_to_kg(1.0) == pytest.approx(1.66053906660e-27, rel=1e-12)
    with pytest.raises(ValueError):
        amu_to_kg(0.0)
    with pytest.raises(ValueError):
        kg_to_amu(-1.0)


def test_polarizability_to_C4_value():
    # 3 hbar c alpha / (8 pi) for the 100 nm gold sphere volume (5e-28 m^3)
    assert polarizability_to_C4(5e-28) == pytest.approx(
        1.8868973014476347e-54, rel=1e-12)


def test_polarizability_to_C4_linear():
    assert polarizability_to_C4(1e-27) == pytest.approx(
        2.0 * polarizability_to_C4(5e-28), rel=1e-14)


def test_polarizability_to_C4_rejects_nonpositive():
    with pytest.raises(ValueError):
        polarizability_to_C4(0.0)
    with pytest.raises(ValueError):
        polarizability_to_C4(-1e-30)
