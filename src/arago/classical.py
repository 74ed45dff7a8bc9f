"""Classical deflection counter-model.

Instead of a diffracted wave, each particle follows a straight ray from the
point source, receives the instantaneous radial momentum kick
q = hbar dphi/dr in the obstacle plane, and continues ballistically to the
screen. In units of R that deflects it by L2 q/(m v R) = phi'(s)/(2 pi k),
as L2 = R^2/(k lambda) and lambda = h/(m v), so that
u_final(s) = ell s + phi'(s)/(2 pi k). Flux conservation in the radial
measure maps a source annulus s ds to a screen annulus u du through it, so

    w_cl(u) = sum_branches  ell^2 s / (u |du_final/ds|)

normalized to 1 on the open screen (pinned at u = 3 ell). Attraction bends
rays across the axis, so a screen radius u generally has preimages on both
the crossed (u_final < 0) and uncrossed sides. The map itself is strictly
increasing (the inward kick weakens as s grows), so each side holds one
preimage; a map that turns is refused. The on-axis focal ray makes w_cl diverge
like 1/u at the origin; the divergence is integrable against the area
element u du and is never evaluated at u = 0.

The classical and quantum engines read the one node list of
poisson.velocity_terms that a scenario builds, and nothing else: k, ell and
beta from each node's params, phi and the capture radius eta from its
phase; beta > 0 asks for the source average. The finite-source averages
differ: the quantum engine uses the arc-length kernel of
poisson._arc_rule (as the matrix poisson.arc_average_operator), this engine
a polar rule whose discretization error near the focal divergence is frozen
in the recorded classical reference profile; it keeps that rule until the
reference is re-recorded. The rule is linear in the tabulated profile
g = u w(u) and depends otherwise only on the screen grid, beta and ell, so
it runs as one banded matrix (polar_average_operator) applied to g. Profiles
that share the geometry, as the scenarios of a velocity sweep do, share the
matrix through a dict that classical_source_averaged keys by it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError
from .poisson import RadialProfile


@dataclass
class RayMap:
    """Obstacle-plane radii mapped to signed screen radii."""

    s_grid: np.ndarray
    u_final: np.ndarray      # signed: negative means the ray crossed the axis
    ell: float               # (L1 + L2)/L1 of the geometry it was built for


def ray_map(params, phase, s_max=8.0):
    """Build the kick-and-project ray map u_final = ell s + phi'(s)/(2 pi k)
    on [1+eta, s_max], from params.k, params.ell and the phase's dphi_ds
    and eta; phase=None means eta = 0 and the pure shadow projection
    u = ell s. The 4000-point grid is geometric in the wall distance
    s - (1+eta) because the kick spans many decades near the surface.
    """
    a = 1.0 if phase is None else 1.0 + phase.eta
    if s_max <= a + 1e-6:
        raise ValueError("s_max must exceed 1 + eta")
    offs = np.geomspace(1e-9, s_max - a, 3999)
    s = np.concatenate([[a], a + offs])

    if phase is None:
        u_fin = params.ell * s
    else:
        # phi' < 0: the kick pulls toward the axis
        u_fin = params.ell * s + phase.dphi_ds(s) / (2.0 * math.pi * params.k)
        tail = abs(u_fin[-1] / (params.ell * s[-1]) - 1.0)
        if tail > 1e-3:
            raise ValueError(
                f"ray map not ballistic at s_max={s_max}: residual kick "
                f"{tail:.2e}; enlarge s_max")

    return RayMap(s, u_fin, params.ell)


def _branch_sum(targets, rmap):
    """Sum ell^2 s/(u |du/ds|) over the ray-map branches hitting each target.

    targets are positive screen radii; both map signs contribute (a ray at
    u_final = -u lands at radius u). u_final = ell s + phi'(s)/(2 pi k),
    with phi' < 0 and |phi'| falling in s, is strictly increasing, so each
    sign has at most one preimage; a map that is not raises NumericsError.
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
    # both signs in one search, on keys that ascend when the targets do:
    # -targets reversed, then +targets
    n = targets.size
    t = np.concatenate([-targets[::-1], targets])
    idx = np.searchsorted(u_f, t, side="right")
    inside = (idx > 0) & (idx < len(u_f))
    j = idx[inside] - 1
    s_at = s[j] + (t[inside] - u_f[j]) / du[j] * ds[j]
    w = np.zeros(2 * n)
    w[inside] = ell * ell * s_at / (np.abs(t[inside]) * (du[j] / ds[j]))
    return w[n:] + w[n - 1::-1]


def classical_point_pattern(u_grid, rmap):
    """Screen intensity of the deflection model for a point source.

    Requires u > 0 everywhere (the focal divergence is never evaluated at
    the origin); pinned to 1 at u = 3 ell.
    """
    u = np.asarray(u_grid, dtype=float)
    if np.any(u <= 0):
        raise ValueError("classical pattern diverges at u = 0; "
                         "use a grid of strictly positive radii")
    w = _branch_sum(np.append(u, 3.0 * rmap.ell), rmap)
    pin = w[-1]
    if pin <= 0:
        raise ValueError("ray map does not reach u = 3 ell; enlarge s_max")
    return RadialProfile(u, w[:-1] / pin)


def _polar_rule(n_t, n_theta):
    """Nodes of the polar rule on the unit source disc: x + 1 and w of
    n_t-point Gauss-Legendre in the offset, and the cosines of the first
    half of n_theta angle midpoints (the midpoints are symmetric about
    theta = pi)."""
    x_t, w_t = np.polynomial.legendre.leggauss(n_t)
    cos_t = np.cos((np.arange(n_theta // 2) + 0.5) * (2.0 * math.pi / n_theta))
    return x_t + 1.0, w_t, cos_t


# the classical source average's rule: 48 offsets x 256 angles
_POLAR_RULE = _polar_rule(48, 256)

# nodes of the work grid: geometric up to 0.2 ell, then uniform
_GEOMETRIC_NODES = 500
_UNIFORM_NODES = 2000


def _work_grid(top, ell):
    """Radii on which the classical source average tabulates g = u w(u):
    geometric near the focus, uniform beyond 0.2 ell, up to 1.001 top. The
    two parts share 0.2 ell, at index _GEOMETRIC_NODES - 1."""
    return np.unique(np.concatenate([
        np.geomspace(1e-6 * ell, 0.2 * ell, _GEOMETRIC_NODES),
        np.linspace(0.2 * ell, top * 1.001, _UNIFORM_NODES)]))


def _work_position(r, work):
    """Fractional index of radii r <= work[-1] on work = _work_grid(...),
    as np.interp(r, work, np.arange(work.size)) gives it, clamped to 0
    below work[0]: in closed form on the uniform part, by np.interp on the
    geometric part below it."""
    seam = _GEOMETRIC_NODES - 1
    scale = (_UNIFORM_NODES - 1) / (work[-1] - work[seam])
    pos = r * scale
    pos += seam - work[seam] * scale
    below = r < work[seam]
    if below.any():
        pos[below] = np.interp(r[below], work[:seam + 1],
                               np.arange(seam + 1.0))
    return pos


# screen radii per block of the banded operator
_BLOCK_ROWS = 6


@dataclass(frozen=True)
class PolarAverage:
    """The polar rule's mean of f(r) = np.interp(r, work, g)/r over the
    source disc around each screen radius, as a matrix M on g.

    A row of M reaches only the work cells of [|u - beta|, u + beta], so M
    is stored by blocks of _BLOCK_ROWS rows, each dense over the columns
    its nodes reach: 1.2 MB on the fig3 grids, where a dense M takes 4.8 MB.
    """

    u: np.ndarray            # the screen radii, one per row
    beta: float
    work: np.ndarray         # the radii g is tabulated on, one per column
    blocks: tuple            # (first row, first column, dense block)

    def apply(self, g):
        w = np.empty_like(self.u)
        for i0, j0, block in self.blocks:
            w[i0:i0 + block.shape[0]] = block @ g[j0:j0 + block.shape[1]]
        return w


def polar_average_operator(u_grid, beta, ell):
    """The classical source average on the origin-free grid u_grid as a
    PolarAverage; it depends on the geometry only, not on the profile.

    The rule averages f over the disc of radius beta around u,
    (2/beta^2) int_0^beta t dt <f(sqrt(u^2 + t^2 + 2 u t cos theta))>_theta,
    by Gauss-Legendre in t and midpoints in theta (_POLAR_RULE). Node
    (t_k, theta_m) adds c_k/r, c_k = (2/beta^2) w_k t_k / (n_theta/2), to
    row u, split as (1 - lam) on the work cell j below its radius r and
    lam on cell j + 1, as np.interp weighs them (below work[0] it clamps to
    j = 0, lam = 0). Near the focal 1/r divergence the rule is off by
    0.4 % at u = 0.275 and 0.7 % at u = 0.5 in both fig3 presets (against
    the arc-length kernel at 4096 nodes). A build takes about 25 ms on the
    fig3 grids and a mat-vec about a millisecond.
    """
    u = np.asarray(u_grid, dtype=float)
    work = _work_grid(u.max() + beta, ell)
    x1, w_t, cos_t = _POLAR_RULE
    t = (0.5 * beta * x1)[:, None]
    c = (0.5 * beta * w_t)[:, None] * t * (2.0 / beta ** 2) / cos_t.size
    t_sq = t * t
    blocks = []
    for i0 in range(0, u.size, _BLOCK_ROWS):
        ub = u[i0:i0 + _BLOCK_ROWS, None, None]
        nb = ub.shape[0]
        # r^2 = u^2 + t^2 + 2 u t cos(theta), rounded as the direct sum
        # does; |cos| < 1 and t > 0 keep it positive, and r < u + beta
        # keeps j + 1 on the work grid, which ends at 1.001 (u.max() + beta)
        r = (2.0 * ub * t) * cos_t
        r += ub * ub + t_sq
        np.sqrt(r, out=r)
        weight = c / r
        pos = _work_position(r, work)
        j = pos.astype(np.intp)
        lam = np.subtract(pos, j, out=pos)
        lam *= weight
        weight -= lam
        j0 = int(j.min())
        width = int(j.max()) + 2 - j0
        flat = (j + (np.arange(nb) * width - j0)[:, None, None]).ravel()
        size = nb * width
        block = np.bincount(flat, weight.ravel(), size)
        block[1:] += np.bincount(flat, lam.ravel(), size - 1)
        blocks.append((i0, j0, block.reshape(nb, width)))
    return PolarAverage(u, beta, work, tuple(blocks))


def classical_source_averaged(u_grid, params, terms, operators=None):
    """The polar rule's source average (see polar_average_operator and the
    module notes) of sum_i w_i classical_point_pattern(RayMap_i) over the
    (w_i, RayMap_i) terms, over the disc of radius params.beta > 0 in the
    geometry params.ell. The rule is linear in the interpolated g = u w(u),
    finite down to the axis, so the terms' weighted g are summed on the work
    grid and averaged once. The operator depends on the grid, beta and ell
    only, so the profiles of a sweep share it through the dict operators,
    under ("polar", grid bytes, beta, ell)."""
    u = np.asarray(u_grid, dtype=float)
    operators = {} if operators is None else operators
    key = "polar", u.tobytes(), params.beta, params.ell
    if key not in operators:
        operators[key] = polar_average_operator(u, params.beta, params.ell)
    op = operators[key]
    g = op.work * sum(w_i * classical_point_pattern(op.work, rmap).w
                      for w_i, rmap in terms)
    return RadialProfile(u, np.maximum(op.apply(g), 0.0))


def averaged_pattern(u_grid, nodes, operators=None):
    """Classical pattern on the origin-free u_grid, averaged as
    poisson.averaged_pattern averages the quantum one: over its nodes,
    each with a ray map to s_max = max(8, u_max / ell + 2), and over the
    source disc of radius beta if the nodes' beta > 0."""
    u = np.asarray(u_grid, dtype=float)
    terms = [(w_i, ray_map(p_i, phase_i, max(8.0, u[-1] / p_i.ell + 2.0)))
             for w_i, p_i, phase_i in nodes]
    if nodes[0][1].beta > 0.0:
        return classical_source_averaged(u, nodes[0][1], terms, operators)
    return RadialProfile(u, sum(w_i * classical_point_pattern(u, rmap).w
                                for w_i, rmap in terms))


@dataclass(frozen=True)
class DistinguishabilityReport:
    """How far apart the quantum and classical central spots are."""

    ratio: float        # quantum/classical height at the first off-axis node
    l1_shadow: float    # integrated |w_q - w_cl| over the shadow region
    u_probe: float      # where the ratio was taken


def distinguishability(quantum, classical, ell):
    """Central-height ratio, at the first positive radius, which must lie
    in the shadow u < ell, and shadow-region L1 distance of two profiles."""
    u = quantum.u
    if not np.array_equal(u, classical.u):
        raise ValueError("profiles must share the query grid")
    shadow = u < ell
    pos = np.flatnonzero(shadow & (u > 0))
    if pos.size == 0:
        raise ValueError(f"no positive radius in the shadow u < ell = "
                         f"{ell:.6g} to take the central ratio at")
    i0 = pos[0]
    wq, wc = quantum.w[i0], classical.w[i0]
    ratio = math.inf if wc == 0 else wq / wc
    l1 = float(np.trapezoid(np.abs(quantum.w[shadow] - classical.w[shadow]),
                            u[shadow]))
    return DistinguishabilityReport(ratio, l1, float(u[i0]))
