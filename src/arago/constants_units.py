"""Physical constants and the unit conversions the formulas need.

Everything downstream computes in SI. The two deliberate exceptions at the API
boundary: particle masses are quoted in atomic mass units, and polarizabilities
are quoted as volumes (m^3, Gaussian convention), because that is how the
relevant literature tabulates them. The conversions live here and nowhere else.
"""

import math
from dataclasses import dataclass

_H_PLANCK = 6.62607015e-34  # J s, exact by SI definition


@dataclass(frozen=True)
class PhysicalConstants:
    """Bundle of constants; immutable, safe to share anywhere."""

    h: float = _H_PLANCK                       # Planck constant, J s
    hbar: float = _H_PLANCK / (2.0 * math.pi)  # reduced Planck constant, J s
    kB: float = 1.380649e-23                   # Boltzmann constant, J/K
    c: float = 2.99792458e8                    # speed of light, m/s
    g: float = 9.81                            # gravitational acceleration, m/s^2
    omega_earth: float = 7.3e-5                # Earth rotation rate, rad/s
    amu: float = 1.66053906660e-27             # atomic mass unit, kg

    def __post_init__(self):
        for name in ("h", "hbar", "kB", "c", "g", "omega_earth", "amu"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"constant {name} must be strictly positive")
        # hbar is not an independent knob
        if abs(self.hbar - self.h / (2.0 * math.pi)) > 4 * math.ulp(self.hbar):
            raise ValueError("hbar must equal h/(2 pi)")


CONST = PhysicalConstants()


def amu_to_kg(m):
    """Convert a mass in atomic mass units to kg. m must be positive."""
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    return m * CONST.amu


def polarizability_to_C4(alpha):
    """C4 coefficient (J m^4) of the retarded surface attraction -C4/z^4.

    `alpha` is the static polarizability *volume* in m^3 (Gaussian convention,
    i.e. the quantity usually quoted in Angstrom^3). With that convention
    C4 = 3 hbar c alpha / (8 pi) carries J m^4 directly. Quoted SI
    polarizabilities (C m^2/V) must be divided by 4 pi eps0 first.
    """
    if not alpha > 0:
        raise ValueError(f"polarizability volume must be positive, got {alpha}")
    return 3.0 * CONST.hbar * CONST.c * alpha / (8.0 * math.pi)
