"""Classical deflection counter-model.

Instead of a diffracted wave, each particle follows a straight ray from the
point source, receives the instantaneous radial momentum kick
q(r) = hbar dphi/dr in the obstacle plane, and continues ballistically to
the screen. The screen intensity follows from flux conservation in the
radial measure: a source annulus s ds maps to a screen annulus u du through
u_final(s), so

    w_cl(u) = sum_branches  ell^2 s / (u |du_final/ds|)

normalized to 1 on the open screen (pinned at u = 3 ell). Attraction bends
rays across the axis, so a screen radius u generally has preimages on both
the crossed (u_final < 0) and uncrossed sides. The map itself is strictly
increasing (the inward kick weakens as s grows), so each side holds one
preimage; a map that turns is refused. The on-axis focal ray makes w_cl diverge
like 1/u at the origin; the divergence is integrable against the area
element u du and is never evaluated at u = 0.

The classical and quantum engines consume the same EikonalPhase object and
read the particle, velocity and capture radius from it. The finite-source
averages differ: the quantum engine uses the arc-length kernel of
poisson.annular_average, this engine a polar rule (_polar_average) whose
discretization error near the focal divergence is frozen in the recorded
classical reference profile; it keeps that rule until the reference is
re-recorded.
"""

import math
from dataclasses import dataclass

import numpy as np

from .interaction import capture_eta, classical_kick
from .numerics import NumericsError
from .poisson import RadialProfile


@dataclass
class RayMap:
    """Obstacle-plane radii mapped to signed screen radii."""

    s_grid: np.ndarray
    u_final: np.ndarray      # signed: negative means the ray crossed the axis
    ell: float               # (L1 + L2)/L1 of the geometry it was built for


def ray_map(params, phase, s_max=8.0):
    """Build the kick-and-project ray map on [1+eta, s_max].

    The particle, its velocity v_z and eta = capture_eta(...) come from the
    phase; phase=None means eta = 0 and the pure shadow projection u = ell s.
    The 4000-point grid is geometric in the wall distance s - (1+eta)
    because the kick spans many decades near the surface.
    """
    a = 1.0 if phase is None else 1.0 + capture_eta(
        phase.obstacle, phase.particle, phase.v_z)
    if s_max <= a + 1e-6:
        raise ValueError("s_max must exceed 1 + eta")
    offs = np.geomspace(1e-9, s_max - a, 3999)
    s = np.concatenate([[a], a + offs])

    if phase is None:
        u_fin = params.ell * s
    else:
        q = classical_kick(phase, s)  # kg m/s, negative toward the axis
        particle, v_z = phase.particle, phase.v_z
        R = phase.obstacle.R
        L2 = R * R / (params.k * particle.wavelength(v_z))
        u_fin = params.ell * s + L2 * q / (particle.mass_kg * v_z * R)
        tail = abs(u_fin[-1] / (params.ell * s[-1]) - 1.0)
        if tail > 1e-3:
            raise ValueError(
                f"ray map not ballistic at s_max={s_max}: residual kick "
                f"{tail:.2e}; enlarge s_max")

    return RayMap(s, u_fin, params.ell)


def _branch_sum(targets, rmap):
    """Sum ell^2 s/(u |du/ds|) over the ray-map branches hitting each target.

    targets are positive screen radii; both map signs contribute (a ray at
    u_final = -u lands at radius u). u_final = ell s + c q(s) with the kick
    q < 0 and |q| falling in s is strictly increasing, so each sign has at
    most one preimage; a map that is not raises NumericsError.
    """
    ell = rmap.ell
    s, u_f = rmap.s_grid, rmap.u_final
    du = np.diff(u_f)
    ds = np.diff(s)
    stalls = np.flatnonzero(du <= 0)
    if stalls.size:
        j = stalls[0]
        raise NumericsError(
            f"ray map not strictly increasing: u_final goes from "
            f"{u_f[j]:.6g} to {u_f[j + 1]:.6g} on step {j}, s = {s[j]:.6g} "
            f"to {s[j + 1]:.6g}")
    w = np.zeros_like(targets)
    for tsign in (1.0, -1.0):
        t = tsign * targets
        idx = np.searchsorted(u_f, t, side="right")
        inside = (idx > 0) & (idx < len(u_f))
        j = idx[inside] - 1
        s_at = s[j] + (t[inside] - u_f[j]) / du[j] * ds[j]
        w[inside] += ell * ell * s_at / (targets[inside] * (du[j] / ds[j]))
    return w


def classical_point_pattern(u_grid, rmap):
    """Screen intensity of the deflection model for a point source.

    Requires u > 0 everywhere (the focal divergence is never evaluated at
    the origin); pinned to 1 at u = 3 ell.
    """
    u = np.asarray(u_grid, dtype=float)
    if np.any(u <= 0):
        raise ValueError("classical pattern diverges at u = 0; "
                         "use a grid of strictly positive radii")
    ell = rmap.ell
    pin = _branch_sum(np.array([3.0 * ell]), rmap)[0]
    if pin <= 0:
        raise ValueError("ray map does not reach u = 3 ell; enlarge s_max")
    return RadialProfile(u, _branch_sum(u, rmap) / pin)


def _polar_average(u, beta, radial_fn, n_t=48, n_theta=256):
    """Mean of a radial function over the disc of radius beta around each u:
    (2/beta^2) int_0^beta t dt <f(sqrt(u^2 + t^2 + 2 u t cos theta))>_theta,
    Gauss-Legendre in t, midpoints in theta. The midpoints are symmetric
    about theta = pi, so only the first half is evaluated. Near the focal 1/r
    divergence the default rule is off by 0.4 % at u = 0.275 and 0.7 % at
    u = 0.5 in both fig3 presets (against the arc-length kernel at 4096
    nodes).
    """
    x_t, w_t = np.polynomial.legendre.leggauss(n_t)
    t = 0.5 * beta * (x_t + 1.0)
    wt = 0.5 * beta * w_t
    cos_t = np.cos((np.arange(n_theta // 2) + 0.5) * (2.0 * math.pi / n_theta))
    out = np.zeros_like(u)
    for ti, wi in zip(t, wt):
        r = np.sqrt(np.maximum(u[:, None] ** 2 + ti * ti
                               + 2.0 * u[:, None] * ti * cos_t[None, :], 0.0))
        out += wi * ti * radial_fn(r.ravel()).reshape(r.shape).mean(axis=1)
    return out * (2.0 / beta ** 2)


def classical_source_averaged(u_grid, setup, rmap):
    """Finite-source version of classical_point_pattern, averaged with the
    polar rule of _polar_average (see the module notes). The integrable 1/u
    focal divergence is handled by interpolating u * w(u), which stays
    finite down to the axis. The projected source radius beta does not
    depend on velocity."""
    beta = setup.dimensionless().beta
    u = np.asarray(u_grid, dtype=float)
    if beta == 0.0:
        return classical_point_pattern(u, rmap)
    top = u.max() + beta
    ell = rmap.ell
    work = np.unique(np.concatenate([
        np.geomspace(1e-6 * ell, 0.2 * ell, 500),
        np.linspace(0.2 * ell, top * 1.001, 2000)]))
    g = work * classical_point_pattern(work, rmap).w  # u*w, finite at 0
    w = _polar_average(u, beta, lambda r: np.interp(r, work, g)
                       / np.maximum(r, 1e-300))
    return RadialProfile(u, np.maximum(w, 0.0))


@dataclass(frozen=True)
class DistinguishabilityReport:
    """How far apart the quantum and classical central spots are."""

    ratio: float        # quantum/classical height at the first off-axis node
    l1_shadow: float    # integrated |w_q - w_cl| over the shadow region
    u_probe: float      # where the ratio was taken


def distinguishability(u_grid, setup, quantum, classical):
    """Central-height ratio and shadow-region L1 distance of two profiles."""
    u = np.asarray(u_grid, dtype=float)
    if not (np.array_equal(u, quantum.u) and np.array_equal(u, classical.u)):
        raise ValueError("profiles must share the query grid")
    pos = np.flatnonzero(u > 0)
    if pos.size == 0:
        raise ValueError("need at least one positive radius")
    i0 = pos[0]
    wq, wc = quantum.w[i0], classical.w[i0]
    ratio = math.inf if wc == 0 else wq / wc
    ell = setup.dimensionless().ell
    shadow = u < ell
    l1 = float(np.trapezoid(np.abs(quantum.w[shadow] - classical.w[shadow]),
                            u[shadow]))
    return DistinguishabilityReport(ratio, l1, float(u[i0]))
