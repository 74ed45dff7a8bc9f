"""Particle species and kinematic wavelength relations.

Masses cross this boundary in atomic mass units, velocities in m/s,
polarizabilities as volumes in m^3 (see constants_units). Species presets
live in the packaged data file presets/species.cfg, not in code.
"""

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .config import as_float, parse_kv
from .constants_units import CONST, amu_to_kg, polarizability_to_C4


def de_broglie_wavelength(mass, v):
    """Matter wavelength h/(m v); mass in amu, v in m/s, result in m."""
    if not (mass > 0 and v > 0):
        raise ValueError("mass and velocity must be positive")
    return CONST.h / (amu_to_kg(mass) * v)


@dataclass(frozen=True)
class ParticleSpecies:
    """A particle type plus its beam kinematics.

    dv_rel is the relative velocity spread Delta v / v, interpreted as a FWHM;
    the averaging routines use a truncated Gaussian with
    sigma = dv_rel * v_long / 2.355.
    """

    name: str
    mass: float          # amu
    alpha: float         # polarizability volume, m^3
    v_long: float        # most probable longitudinal velocity, m/s
    dv_rel: float = 0.0

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if self.alpha < 0:
            raise ValueError("polarizability volume must be non-negative")
        if not self.v_long > 0:
            raise ValueError("v_long must be positive")
        if not 0.0 <= self.dv_rel < 1.0:
            raise ValueError("dv_rel must lie in [0, 1)")

    @property
    def mass_kg(self):
        return amu_to_kg(self.mass)

    @property
    def C4(self):
        """Surface-attraction coefficient, J m^4 (0 for alpha = 0)."""
        return 0.0 if self.alpha == 0.0 else polarizability_to_C4(self.alpha)

    def wavelength(self, v=None):
        """de Broglie wavelength at velocity v (default: v_long)."""
        return de_broglie_wavelength(self.mass, self.v_long if v is None else v)


def velocity_nodes(species, n=9):
    """Deterministic velocity samples (v_i, weight_i) for spread averaging.

    Gauss-Hermite nodes mapped onto the truncated Gaussian velocity
    distribution (sigma = dv_rel * v_long / 2.355). Nodes that would land at
    non-positive velocities are dropped and the weights renormalized. For
    dv_rel = 0 this degenerates to the single node (v_long, 1).
    """
    if species.dv_rel == 0.0:
        return np.array([species.v_long]), np.array([1.0])
    t, w = np.polynomial.hermite.hermgauss(n)
    sigma = species.dv_rel * species.v_long / 2.355
    v = species.v_long + math.sqrt(2.0) * sigma * t
    keep = v > 0
    v, w = v[keep], w[keep]
    return v, w / w.sum()


def _species_data():
    ref = importlib.resources.files("arago") / "presets" / "species.cfg"
    return parse_kv(ref.read_text(encoding="utf-8"))


def species_preset(name):
    """Load a named species from the packaged data file (case-insensitive)."""
    items = _species_data()
    key = name.lower()
    prefix = f"species.{key}."
    fields = {k[len(prefix):]: v for k, v in items.items()
              if k.startswith(prefix)}
    if not fields:
        known = sorted({k.split(".")[1] for k in items if k.startswith("species.")})
        raise KeyError(f"unknown species preset {name!r}; known: {known}")
    return ParticleSpecies(
        name=fields.get("name", key),
        mass=as_float(fields, "mass"),
        alpha=as_float(fields, "alpha"),
        v_long=as_float(fields, "v_long"),
        dv_rel=as_float(fields, "dv_rel", default=0.0),
    )
