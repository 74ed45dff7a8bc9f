"""Casimir-Polder interaction models for sphere and disc obstacles.

A fast particle passing the obstacle at radial distance r = s R accumulates
the eikonal phase phi(s) = -integral V dz / (hbar v_z) along its straight
line of flight. Both obstacles give phi = prefactor(v_z) * shape(s) in closed
form: for a thin disc the wall potential -C4/(r-R)^4 acts during the transit
time b/v_z, so the shape is (s-1)^-4; for a sphere the potential of the
tangential plane, -C4/(sqrt(x^2+y^2+z^2)-R)^4 around the sphere center,
integrates along the whole line to an elementary function of s. The same
phi(s) feeds the quantum pattern (phase factor e^{i phi}) and the classical
counter-model (kick hbar dphi/dr, a screen deflection phi'(s)/(2 pi k)),
which is the point of sharing it as one object.

The capture radius follows from the same potential: for a sphere from the
minimum of the effective potential barrier (capture_eta), for a disc from
the transit-time cutoff. The tests check the sphere's against trajectory
shooting (tests/references.py). The package needs numpy alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants_units import CONST, amu_to_kg
from .numerics import bisect


@dataclass(frozen=True)
class Obstacle:
    """Sphere of radius R, or disc of radius R and thickness b (m)."""

    kind: str
    R: float
    b: float = None

    def __post_init__(self):
        if self.kind not in ("sphere", "disc"):
            raise ValueError(f"obstacle kind must be sphere or disc, "
                             f"got {self.kind!r}")
        if not self.R > 0:
            raise ValueError("R must be positive")
        if self.kind == "disc" and not (self.b is not None and self.b > 0):
            raise ValueError("disc obstacle requires a positive thickness b")


def _sphere_shape(s):
    """Line integral int dz / (sqrt(s^2 + z^2) - 1)^4 over all z (units of R).

    Elementary in s with q = s^2 - 1. Both terms are positive, so the form
    does not cancel as s -> 1; the far tail is pi / (2 s^3).
    """
    q = (s - 1.0) * (s + 1.0)
    s2 = s * s
    return ((13.0 * s2 + 2.0) / (3.0 * q ** 3)
            + s2 * (s2 + 4.0) * np.arccos(-1.0 / s) / q ** 3.5)


def _sphere_shape_ds(s):
    """d/ds of _sphere_shape; a sum of negative terms, again cancellation-free."""
    q = (s - 1.0) * (s + 1.0)
    s2 = s * s
    return (-s * (55.0 * s2 + 50.0) / (3.0 * q ** 4)
            - s * (3.0 * s2 * s2 + 24.0 * s2 + 8.0) * np.arccos(-1.0 / s)
            / q ** 4.5)


# (shape, d shape/ds) of phi / prefactor for each obstacle kind
_SHAPES = {
    "disc": (lambda s: (s - 1.0) ** -4, lambda s: -4.0 * (s - 1.0) ** -5),
    "sphere": (_sphere_shape, _sphere_shape_ds),
}


class EikonalPhase:
    """Interaction phase phi(s) = prefactor * shape(s) for one
    obstacle/particle/velocity, in closed form, and its capture radius.

    The prefactor is C4 b / (hbar v_z R^4) for a disc and C4 / (hbar v_z R^3)
    for a sphere, so phi scales exactly as 1/v_z. Exposes phi(s) and
    dphi_ds(s) for s > 1, and crossing(level, ...), where phi equals a
    level: in closed form for the disc, by Newton steps for the sphere.
    eta = capture_eta(obstacle, particle, v_z), which both engines read, is
    computed once here. s_negligible is the crossing of phase_floor; integrals
    against (e^{i phi} - 1) truncate there. The floor bounds the dropped
    integrand's phase factor |e^{i phi} - 1|, not the dropped integral: the
    point pattern's truncation error at the spot measures 1-3x the floor.
    """

    phase_floor = 1e-4

    def __init__(self, obstacle, particle, v_z):
        self.obstacle = obstacle
        self.particle = particle
        self.v_z = v_z
        phase_floor = self.phase_floor
        C4 = particle.C4
        if C4 <= 0:
            raise ValueError("EikonalPhase needs an attractive interaction; "
                             "use phase=None for the ideal case")
        R = obstacle.R
        self._shape, self._shape_ds = _SHAPES[obstacle.kind]

        if obstacle.kind == "disc":
            self.prefactor = C4 * obstacle.b / (CONST.hbar * v_z * R ** 4)
            # the closed form needs no bracket
            lo = hi = None
        else:
            self.prefactor = C4 / (CONST.hbar * v_z * R ** 3)
            # the shape exceeds its far tail pi/(2 s^3), so phi is still above
            # the floor at s_far; hi doubles until phi is below it
            s_far = (self.prefactor * math.pi / (2 * phase_floor)) ** (1 / 3.0)
            hi = max(4.0, 2.0 * s_far)
            while self.phi(hi) > phase_floor:
                hi *= 2.0
            lo = max(s_far, 1.0 + 1e-9)
        self.s_negligible = float(self.crossing(phase_floor, lo, hi, 1e-6))
        self.eta = capture_eta(obstacle, particle, v_z)

    def crossing(self, level, lo, hi, tol):
        """s where phi(s) = level, elementwise over level (> 0).

        The disc's phase P (s - 1)^-4 inverts in closed form, s = 1 +
        (P / level)^(1/4), so lo, hi and tol are not used. It is evaluated
        one level at a time in scalar arithmetic: numpy's vectorized power
        differs from it in the last bit for some inputs.

        The sphere's crossing is found in [lo, hi] to tol in s, and
        phi(lo) >= level >= phi(hi) is required. It is solved as log phi =
        log level in x = log(s - 1), by bisect with the closed-form slope
        d log phi / dx = (s - 1) dphi_ds / phi. Near the wall phi spans
        many decades, as (s - 1)^-3.5, and far out it falls as s^-3; in
        these variables log phi is close to linear, so Newton steps
        converge from the start, and every iterate stays at s > 1. A step
        dx moves s by at most (hi - 1) dx, so x is solved to
        tol / (hi - 1).
        """
        if self.obstacle.kind == "disc":
            levels = np.asarray(level, dtype=float)
            return np.reshape([1.0 + (self.prefactor / lvl) ** 0.25
                               for lvl in levels.ravel().tolist()],
                              levels.shape)[()]
        log_level = np.log(level)

        def log_phi(x):
            return np.log(self.phi(1.0 + np.exp(x))) - log_level

        def slope(x):
            e = np.exp(x)
            return e * self.dphi_ds(1.0 + e) / self.phi(1.0 + e)

        x = bisect(log_phi, math.log(lo - 1.0), math.log(hi - 1.0),
                   tol / (hi - 1.0), slope)
        return 1.0 + np.exp(x)

    def phi(self, s):
        """Phase in radians, vectorized over s (> 1 required)."""
        s = np.asarray(s, dtype=float)
        if (s <= 1.0).any():
            raise ValueError("phi(s) requires s > 1")
        out = self.prefactor * self._shape(s)
        return float(out) if out.ndim == 0 else out

    def dphi_ds(self, s):
        """Derivative dphi/ds (negative), vectorized over s (> 1 required)."""
        s = np.asarray(s, dtype=float)
        if (s <= 1.0).any():
            raise ValueError("dphi_ds(s) requires s > 1")
        out = self.prefactor * self._shape_ds(s)
        return float(out) if out.ndim == 0 else out


def cutoff_distance(C4, b, mass, v):
    """Capture cutoff x_c = (18 C4 b^2 / (m v^2))^(1/6).

    A particle of mass (amu) passing a wall of thickness b (m) at speed v is
    adsorbed if it comes closer than x_c to the surface; the numerical factor
    follows from requiring the attractive deflection during the transit b/v to
    exceed the remaining wall distance.
    """
    if not (C4 > 0 and b > 0 and mass > 0 and v > 0):
        raise ValueError("cutoff_distance requires positive inputs")
    m = amu_to_kg(mass)
    return (18.0 * C4 * b * b / (m * v * v)) ** (1.0 / 6.0)


# surface roughness (m): approaches within it of the wall count as captured
_ROUGHNESS = 0.5e-9


def capture_eta(obstacle, particle, v_z):
    """Fractional effective enlargement: particles inside (1+eta) R are lost.

    Sphere: in scaled units (lengths in R, speed 1) the potential is
    -(A/4)/(r-1)^4 with A = 4 C4 / (m v_z^2 R^4), and a ray of impact
    parameter b reaches radius r iff b^2 <= B(r) = r^2 (1 + (A/2)/(r-1)^4).
    It is captured iff it reaches the roughness shell r = 1 + delta, so
    (1 + eta)^2 is the minimum of B over r >= 1 + delta (the fall-to-centre
    capture cross-section). B has a single minimum, at the root r* of
    (r-1)^5 = (A/2)(r+1), found by bisect with the closed-form derivative
    to within an ulp. Disc: the transit-time capture cutoff of the wall
    formula with the disc thickness, eta = x_c / R.
    """
    if not v_z > 0:
        raise ValueError("v_z must be positive")
    C4 = particle.C4
    if C4 == 0.0:
        return 0.0
    R = obstacle.R
    if obstacle.kind == "disc":
        return cutoff_distance(C4, obstacle.b, particle.mass, v_z) / R

    half_A = 2.0 * C4 / (particle.mass_kg * v_z ** 2 * R ** 4)
    delta = _ROUGHNESS / R
    # at r - 1 = A^(1/5) the right side exceeds the left by A/2 (r - 1), at
    # r - 1 = 2 + A^(1/4) the left side already exceeds the right; from the
    # lower end, where the two nearly agree, a Newton step is good to second
    # order in A^(1/5)
    r_star = bisect(lambda r: (r - 1.0) ** 5 - half_A * (r + 1.0),
                    1.0 + (2.0 * half_A) ** 0.2, 3.0 + (2.0 * half_A) ** 0.25,
                    1e-12, lambda r: 5.0 * (r - 1.0) ** 4 - half_A)
    r_min = max(r_star, 1.0 + delta)
    return r_min * math.sqrt(1.0 + half_A / (r_min - 1.0) ** 4) - 1.0


# Nothing in the package calls this wrapper. The name stays bound only
# because perfbench/test_perfbench.py deletes interaction.solve_ivp by name
# and perfbench/spans.py wraps it to count the solves of the trajectory
# reference in tests/references.py, which calls it. scipy.integrate is
# imported on first use, so the package runs on numpy alone.
def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on its first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)
