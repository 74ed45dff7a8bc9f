"""Reference formulas that only the tests use."""

import math

import numpy as np

from arago.classical import _POLAR_RULE
from arago.config import serialize_kv
from arago.constants_units import CONST, amu_to_kg
from arago.poisson import _amplitude_grid, _arc_rule


def spot_radius(params):
    """Estimated bright-spot radius 0.4/k (units of R).

    The first dark ring sits near the first zero of J0, at
    2.40483/(2 pi k) = 0.383/k; 0.4/k is the conventional round number.
    """
    return 0.4 / params.k


def polar_average(u, beta, radial_fn, rule=_POLAR_RULE):
    """Mean of a radial function over the disc of radius beta around each u:
    (2/beta^2) int_0^beta t dt <f(sqrt(u^2 + t^2 + 2 u t cos theta))>_theta,
    Gauss-Legendre in t, midpoints in theta (see classical._polar_rule),
    summed directly. The default is the classical source average's rule,
    which classical.polar_average_operator builds as a matrix.
    """
    x1, w_t, cos_t = rule
    t = 0.5 * beta * x1
    wt = 0.5 * beta * w_t
    out = np.zeros_like(u)
    for ti, wi in zip(t, wt):
        r = np.sqrt(np.maximum(u[:, None] ** 2 + ti * ti
                               + 2.0 * u[:, None] * ti * cos_t[None, :], 0.0))
        out += wi * ti * radial_fn(r.ravel()).reshape(r.shape).mean(axis=1)
    return out * (2.0 / beta ** 2)


def annular_average(u_grid, beta, radial_fn):
    """Mean of a radial function f over the disc of radius beta around each
    u, by the arc-length kernel rule of poisson._arc_rule with f called once
    at every node, which poisson.arc_average_operator builds as a matrix on
    Chebyshev coefficients."""
    u = np.asarray(u_grid, dtype=float)
    if beta == 0.0:
        return radial_fn(u)
    r, w, inner = _arc_rule(u, beta)
    sums = (w * radial_fn(r.ravel()).reshape(r.shape)).sum(axis=1)
    out = sums[:u.size]
    out[inner] += sums[u.size:]
    return out / beta ** 2


def amplitude(u, params, phase=None, quad=None):
    """Complex diffraction amplitude psi at a single scaled screen radius."""
    return complex(_amplitude_grid([float(u)], params.k, params.ell,
                                   phase, quad)[0])


def serialize_config(cfg):
    """Canonical text form of a parsed scenario (sorted keys, LF)."""
    return serialize_kv(cfg.raw)


def kg_to_amu(m):
    """Inverse of constants_units.amu_to_kg."""
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    return m / CONST.amu


def thermal_velocity(mass, T):
    """Most probable velocity sqrt(2 kB T / m) of a thermal beam source;
    mass in amu."""
    if not (mass > 0 and T > 0):
        raise ValueError("mass and temperature must be positive")
    return math.sqrt(2.0 * CONST.kB * T / amu_to_kg(mass))


def thermal_wavelength(mass, T):
    """Wavelength at the most probable thermal velocity, h/sqrt(2 kB T m)."""
    if not (mass > 0 and T > 0):
        raise ValueError("mass and temperature must be positive")
    return CONST.h / math.sqrt(2.0 * CONST.kB * T * amu_to_kg(mass))
