"""Near-field Poisson spot engine.

The on-screen intensity behind a circular obstacle, in scaled coordinates
u = r_screen / R, is w_p(u) = |psi(u)|^2 with the radially symmetric Fresnel
amplitude

    psi(u) = int_1^inf ds 2 pi k l s exp(i pi k l s^2 + i phi(s)) J0(2 pi k u s)

where k = R^2/(L2 lambda) (Fresnel parameter), l = (L1+L2)/L1, and phi the
eikonal interaction phase. The semi-infinite oscillatory integral is never
brute-forced. Babinet's principle splits it into the free wave, the exact
phase-free integral from s = 0, and one finite integral over the obstacle
and its interaction zone:

    psi(u) = i exp(-i pi k u^2 / l)            (free propagation, closed form)
             + int_0^{s_neg} 2 pi k l s exp(i pi k l s^2) m(s) J0(2 pi k u s) ds

with m = -1 on [0, 1+eta), where the obstacle blocks the free wave, and
m = e^{i phi} - 1 on (1+eta, s_neg]. The capture parameter eta removes
adsorbed particles; it is the phase's own eta, computed once when the
phase is built. The integral truncates where phi falls below the
phase floor. The floor bounds the dropped integrand's phase factor
|e^{i phi} - 1|, not the dropped integral: the point pattern's truncation
error at the spot measures 1-3x the floor (ROADMAP item 3). The ideal
obstacle (no phase) has eta = 0 and s_neg = 1: the blocked disc alone.

integrate_adaptive takes the obstacle integral as a complex radial factor
g(s) and the J0 scales 2 pi k u, one per screen radius; it reads J0 at a
few Chebyshev points of each run of adjacent panels that J0 barely changes
across (on the fig3 sphere, a third of the samples that a read per panel
takes), and integrates all screen radii at once. With a phase, the panels
start from the wall 1+eta and from where phi crosses levels 24 rad apart
down from phi(1+eta), about the phase one final panel winds at the wall,
and quarter levels below (_phase_breakpoints). Where phi is small, the
free chirp pi k ell s^2 and J0 still wind, so every gap of those seeds,
and the ideal obstacle's [0, 1], is split into parts of at most 24 rad of
the free phase pi k ell s^2 + 2 pi k u_max s (_free_phase_split). The
whole grid is integrated in one adaptive pass from those seeds, refined
wherever any radius fails the componentwise error test, so one radius
and a full grid take the same path. Near a fast beam's wall, where phi
reaches thousands of radians, the same refinement resolves the winding
phase.

Finite sources average |psi|^2 over the projected source disc (radius
beta = (L2/L1)(R0/R) in u units). The points of the disc at distance r from
the origin form an arc, so the disc mean is a 1-D integral of the radial
pattern against an arc-length kernel (_arc_rule). psi is read from a
Chebyshev interpolant on [0, u_max + beta]: psi is an entire function of u
(the free chirp plus Hankel transforms of radial functions supported on
[0, s_neg]), so its Chebyshev coefficients decay geometrically once the
degree passes its bandwidth, and the decay of the coefficient tail
certifies the degree. |psi|^2 is a real Chebyshev series of its own, exact
because its degree is below twice the amplitude's, and cut where its
coefficient tail sums below 1e-6 rel_tol of its largest. The kernel is
linear in that series, so it runs as a matrix on its coefficients
(arc_average_operator): column m is the kernel average of T_m, made by the
three-term recurrence at the kernel's nodes, and a profile costs one
mat-vec. The matrix depends on the screen grid and beta only, not on the
velocity, so the scenarios of a velocity sweep share one, grown to the
longest series among them (averaged_pattern keys it by both). Velocity
spreads average over the nodes of velocity_terms, each with its own params
and phase (and so eta), built once per scenario for both engines; the
nodes' weighted intensities are summed into one series on the shared
[0, u_max + beta], which takes one mat-vec. The nodes are all that either
engine reads; the beta of their params is 0 for a point source.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import ConstraintReport
from .interaction import EikonalPhase
# _capture_eta is unused here: perfbench/test_perfbench.py::
# test_install_patches_every_binding_and_uninstall_restores_all asserts it
from .interaction import capture_eta as _capture_eta  # noqa: F401
from .numerics import DEFAULT_SPEC, NumericsError, integrate_adaptive
from .particles import velocity_nodes


@dataclass(frozen=True)
class DimensionlessParams:
    """The three numbers that fully determine a scaled diffraction pattern."""

    k: float      # Fresnel parameter R^2/(L2 lambda)
    ell: float    # (L1 + L2)/L1
    beta: float   # projected source radius (L2/L1)(R0/R)

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("k must be positive")
        if not self.ell > 1:
            raise ValueError("ell must exceed 1")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass(frozen=True)
class PoissonSetup:
    """Source, obstacle and screen geometry for a near-field run."""

    R0: float        # source pinhole radius, m (0 = point source)
    R: float         # obstacle radius, m
    L1: float        # source to obstacle, m
    L2: float        # obstacle to screen, m
    obstacle: object
    particle: object

    def __post_init__(self):
        if self.R0 < 0:
            raise ValueError("R0 must be non-negative")
        for name in ("R", "L1", "L2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if abs(self.obstacle.R - self.R) > 1e-12 * self.R:
            raise ValueError("obstacle radius must match setup R")
        shadow_bound = self.R * (self.L1 + self.L2) / self.L2
        if not self.R0 < shadow_bound:
            raise ValueError(
                f"R0 = {self.R0:.3e} m leaves no geometric shadow; need "
                f"R0 < R (L1+L2)/L2 = {shadow_bound:.3e} m")
        worst = max(self.R0, self.R) / min(self.L1, self.L2)
        if worst > 0.01:
            warnings.warn(
                f"paraxial approximation strained: transverse/longitudinal "
                f"ratio {worst:.3g} exceeds 0.01", stacklevel=2)

    def dimensionless(self, v=None):
        lam = self.particle.wavelength(v)
        return DimensionlessParams(
            k=self.R ** 2 / (self.L2 * lam),
            ell=(self.L1 + self.L2) / self.L1,
            beta=(self.L2 / self.L1) * (self.R0 / self.R))


@dataclass
class RadialProfile:
    """Radial intensity record: w(u) normalized to the obstacle-free screen."""

    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.u.shape != self.w.shape or self.u.ndim != 1:
            raise ValueError("u and w must be matching 1-D arrays")
        if np.any(np.diff(self.u) <= 0):
            raise ValueError("u grid must be strictly increasing")
        if np.any(self.w < 0):
            raise ValueError("intensities must be non-negative")


def default_grid(params, n=600, u_max=None):
    """The standard screen grid: n points uniform on [0, 3 ell]."""
    top = 3.0 * params.ell if u_max is None else u_max
    return np.linspace(0.0, top, n)


# seed step, in radians, of the wall phase and of the free phase: at the
# default rel_tol the final panels at the fig3-disc wall wind ~25 rad each,
# and of 16, 20, 24 and 32 rad, 24 forms the fewest J0 entries on the
# 9-node fig3 disc (174,458) and on the 21 fig3 spheres of 1.5-4 m/s
# (2,000,670), with both the ladder and the free-phase split taking it
_PHASE_STEP = 24.0


def _phase_breakpoints(phase, a, spec):
    """Abscissae where phi crosses a ladder of levels, as quad seeds.

    The levels step down from phi(a) by _PHASE_STEP radians while that is
    the smaller step, then by quarters, L_{j+1} = max(L_j - step, L_j / 4),
    and stop at the first level at or below the floor. Equal steps put the
    seeds at the wall, where phi winds fastest, about as far apart as the
    panels the quadrature keeps there; quarter levels alone left the fig3
    disc a first panel of ~765 rad, halved over 7 refinement rounds. The
    seeds only save rounds; the error test is unchanged. The step widens to
    2 phi(a) / n for the seed allowance n = spec.max_subdivisions // 2, so
    the equal steps take at most half of it, and the ladder stops at n
    seeds in any case. EikonalPhase.crossing finds the crossings of all
    levels in one elementwise call, in closed form for the disc and to
    1e-10 in s for the sphere. The ladder sees phi only; _free_phase_split
    then splits its gaps by the free phase.
    """
    lo = max(a, 1.0 + 1e-9)
    levels = [phase.phi(lo)]
    floor = max(phase.phase_floor * 4.0, 1e-3)
    allowance = spec.max_subdivisions // 2
    step = max(_PHASE_STEP, 2.0 * levels[0] / max(allowance, 1))
    while levels[-1] > floor and len(levels) <= allowance:
        levels.append(max(levels[-1] - step, levels[-1] / 4.0))
    return phase.crossing(np.array(levels[1:]), lo, phase.s_negligible,
                          1e-10).tolist()


def _free_phase_split(edges, chirp, omega, spec):
    """The ascending partition edges of [0, b] with each gap split into
    m = ceil(dPsi / step) parts of equal Psi(s) = chirp s^2 + omega s.

    Psi is the phase of the free chirp (chirp = pi k ell) plus the fastest
    J0 phase (omega = 2 pi k u_max), which the interaction-phase seeds do
    not see: where phi is small, a gap between them winds tens of radians
    of Psi and would be evaluated whole, J0 at all 31 Kronrod nodes, before
    the refinement halves it. The step is _PHASE_STEP, widened to
    2 Psi(b) / n for the seed allowance n = spec.max_subdivisions // 2, so
    the split adds at most n / 2 seeds. A new seed is the root
    2 T / (omega + sqrt(omega^2 + 4 chirp T)) of Psi(s) = T, a form that
    does not cancel. Returns the edges and the new seeds, unsorted.
    """
    psi = (chirp * edges + omega) * edges
    gain = np.diff(psi)
    step = max(_PHASE_STEP,
               2.0 * psi[-1] / max(spec.max_subdivisions // 2, 1))
    if gain.max() <= step:
        return edges
    extra = np.ceil(gain / step).astype(int) - 1
    gap = np.repeat(np.arange(gain.size), extra)
    j = np.arange(1, gap.size + 1) - (np.cumsum(extra) - extra)[gap]
    target = psi[gap] + j * (gain / (extra + 1))[gap]
    return np.concatenate([edges, 2.0 * target / (
        omega + np.sqrt(omega * omega + 4.0 * chirp * target))])


def _amplitude_grid(u_grid, k, ell, phase=None, quad=None):
    """psi(u) for a whole grid of screen radii at once."""
    spec = quad or DEFAULT_SPEC
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if np.any(u < 0):
        raise ValueError("screen radii must be non-negative")
    a = 1.0 if phase is None else 1.0 + phase.eta
    two_pi_k = 2.0 * math.pi * k

    # the complex radial factor of the obstacle integral, negated where the
    # obstacle blocks (s < a) and times e^{i phi} - 1 past the wall
    def obstacle(s):
        s = np.asarray(s)
        radial = two_pi_k * ell * s * np.exp(1j * math.pi * k * ell * s * s)
        past = s > a
        radial[~past] = -radial[~past]
        if past.any():
            radial[past] *= np.exp(1j * phase.phi(s[past])) - 1.0
        return radial

    free = 1j * np.exp(-1j * math.pi * k * u * u / ell)
    if phase is None:
        b, seeds = a, [0.0, a]
    elif phase.s_negligible <= a:
        raise ValueError("capture radius swallows the interaction zone; "
                         "nothing left to integrate")
    else:
        b = phase.s_negligible
        seeds = [0.0, a] + _phase_breakpoints(phase, a, spec) + [b]
    points = _free_phase_split(np.array(seeds), math.pi * k * ell,
                               two_pi_k * u.max(), spec)
    res = integrate_adaptive(obstacle, 0.0, b, two_pi_k * u, spec, points)
    return free + res.require_converged("obstacle integral").value


def point_source_pattern(u_grid, params, phase=None, quad=None):
    """w_p(u) = |psi(u)|^2 for a point source on axis."""
    psi = _amplitude_grid(u_grid, params.k, params.ell, phase, quad)
    return RadialProfile(np.asarray(u_grid, dtype=float), np.abs(psi) ** 2)


# Gauss-Legendre nodes on [-1, 1] for both pieces of the arc-length kernel
_XK, _WK = np.polynomial.legendre.leggauss(64)


def _arc_rule(u, beta):
    """Nodes r and weights w, in groups of 64, of the mean of a radial
    function f over the disc of radius beta around each screen radius u.

    The points at distance r from the origin fill an arc of the disc, so the
    mean is the 1-D integral int f(r) K(u, r) dr with the arc-length kernel

        K = (2 r / (pi beta^2)) arccos((u^2 + r^2 - beta^2) / (2 u r))

    on |u - beta| < r < u + beta, plus K = 2 r / beta^2 (full circles) on
    r < beta - u. Group i < u.size holds the arc of row i: 64 nodes in phi
    in [0, pi] with r = m - h cos(phi), m and h the midpoint and half-width
    of the arc band, which makes the square-root edges of the arccos smooth.
    The groups after it hold the full circles of the rows in `inner`
    (u < beta), in order, at 64 Gauss-Legendre nodes in r. The disc mean at
    row i is the weighted sum of f over its groups, divided by beta^2. The
    factor r of K cancels a 1/r focal divergence of f.
    """
    inner = u < beta
    c = (beta - u[inner])[:, None]
    r_in = 0.5 * c * (1.0 + _XK)
    m = np.maximum(u, beta)[:, None]
    h = np.minimum(u, beta)[:, None]
    phi = 0.5 * math.pi * (1.0 + _XK)
    r_arc = m - h * np.cos(phi)
    two_ur = 2.0 * u[:, None] * r_arc
    cos_arc = (u[:, None] ** 2 + r_arc ** 2 - beta ** 2) / np.where(
        two_ur > 0.0, two_ur, 1.0)
    w_arc = (_WK * h * np.sin(phi)) * r_arc * np.arccos(
        np.clip(cos_arc, -1.0, 1.0))
    return (np.concatenate([r_arc, r_in]),
            np.concatenate([w_arc, c * _WK * r_in]), inner)


# columns of an ArcAverage made per block: the block's buffer of
# _ARC_BLOCK + 2 rows over the 17,856 nodes of a fig3 grid takes 1.1 MB
_ARC_BLOCK = 6


def _aligned_empty(rows, cols):
    """np.empty((rows, cols)) starting on a 64-byte boundary. A ufunc
    writes into an aligned row about 1.5x as fast: one recurrence step over
    the 17,856 fig3 nodes measured 11-12 us against 18 us unaligned, on a
    2-core AVX-512 Xeon."""
    raw = np.empty(rows * cols + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + rows * cols].reshape(rows, cols)


@dataclass
class ArcAverage:
    """The disc mean of Chebyshev series on [0, u_max + beta], as a matrix.

    Row i, column m holds the disc mean of T_m(2 r / top - 1) around u[i],
    top = u.max() + beta, by the rule _arc_rule; a series with
    coefficients c averages to the mat-vec sum_m c_m A[:, m]. The matrix
    depends on the grid and beta only, so every series on the grid shares
    it. Its columns are made on demand, in whole blocks of _ARC_BLOCK, by
    the three-term recurrence W_{m+1} = 2 x W_m - W_{m-1} on W_m = w T_m(x)
    at the rule's nodes x, weights w; each block is summed over every group
    of nodes. Growing never revisits a made column, so a column has the
    same bits however the matrix grew.
    """

    u: np.ndarray            # the screen radii, one per row
    beta: float
    inner: np.ndarray        # the rows that have a full-circle group
    x2: np.ndarray           # 2 x at the nodes, x = 2 r / top - 1
    recurrence: np.ndarray   # W_m, W_{m+1} for the next column m to make,
                             # then the block's other _ARC_BLOCK rows
    columns: np.ndarray      # column m of the matrix in row m, contiguous

    def apply(self, coef):
        """The disc means of the Chebyshev series coef on the grid."""
        if coef.size > self.columns.shape[0]:
            self._grow(coef.size)
        return coef @ self.columns[:coef.size]

    def _grow(self, size):
        rows, x2 = self.recurrence, self.x2
        blocks = [self.columns]
        for _ in range(self.columns.shape[0], size, _ARC_BLOCK):
            for i in range(2, _ARC_BLOCK + 2):
                np.multiply(x2, rows[i - 1], out=rows[i])
                rows[i] -= rows[i - 2]
            sums = np.einsum("mgj->mg", rows[:_ARC_BLOCK].reshape(
                _ARC_BLOCK, -1, _XK.size))
            block = sums[:, :self.u.size]
            block[:, self.inner] += sums[:, self.u.size:]
            blocks.append(block / self.beta ** 2)
            rows[:2] = rows[_ARC_BLOCK:]
        self.columns = np.concatenate(blocks)


def arc_average_operator(u_grid, beta):
    """The ArcAverage of the grid u_grid and source radius beta > 0, with no
    columns made yet: its rule's nodes and weights, and the first two terms
    W_0 = w and W_1 = w x of the recurrence."""
    u = np.asarray(u_grid, dtype=float)
    r, w, inner = _arc_rule(u, beta)
    x = 2.0 * r.ravel() / (u.max() + beta) - 1.0
    rows = _aligned_empty(_ARC_BLOCK + 2, x.size)
    rows[0] = w.ravel()
    np.multiply(rows[0], x, out=rows[1])
    return ArcAverage(u, beta, inner, 2.0 * x, rows, np.empty((0, u.size)))


# a source average whose amplitude needs more Chebyshev nodes than this is
# refused; a 500 nm disc at 200 m/s (k = 19.7) needs 2154
_CHEB_MAX_NODES = 8192
# the intensity series of a source average drops a coefficient tail that
# sums to at most this times rel_tol of its largest coefficient: a thousandth
# of the tail that certifies the amplitude (1e-3 rel_tol)
_TRIM = 1e-6
# a coefficient tail that stays above this fraction of the block before it
# (or of the previous attempt's tail) has stopped falling: it sits on the
# rounding plateau, where the tail of each block is noise of one size
_CHEB_STALL = 0.1


def _chebyshev_coefficients(f):
    """Chebyshev coefficients of the n samples f_j = f(cos theta_j),
    theta_j = pi (j + 1/2) / n: the cosine sums
    c_m = (2/n) sum_j f_j cos(m theta_j) (c_0 halved), taken with one FFT of
    the even extension of the samples. They are exact for a polynomial of
    degree < n."""
    n = f.size
    c = np.fft.fft(np.concatenate([f, f[::-1]]))[:n] * (
        np.exp(-0.5j * math.pi * np.arange(n) / n) / n)
    c[0] *= 0.5
    return c


def _chebyshev_amplitude(top, params, phase, quad):
    """Certified complex Chebyshev coefficients of psi on [0, top].

    psi is sampled once per attempt at the n first-kind Chebyshev points
    r_j = top (1 + cos theta_j) / 2, theta_j = pi (j + 1/2) / n, and
    transformed by _chebyshev_coefficients. The starting n covers the
    bandwidth 2 pi k s_max with a 1.5 margin; it is doubled until the tail,
    the largest of the last w = max(n/8, 4) coefficients, is below
    1e-3 rel_tol times the largest one. Doubling stops early once the tail
    no longer falls, i.e. once it is within a factor 1/_CHEB_STALL of the w
    coefficients before it: the coefficients then sit on their rounding
    plateau, which is accepted if it is at most rel_tol times the largest
    coefficient. A plateau above that which a further doubling does not
    lower either raises NumericsError, and so does a starting n above
    _CHEB_MAX_NODES, before anything is sampled.
    """
    spec = quad or DEFAULT_SPEC
    s_max = phase.s_negligible if phase is not None else 1.0
    start = n = int(math.ceil(1.5 * math.pi * params.k * s_max * top)) + 24
    previous = math.inf
    while n <= _CHEB_MAX_NODES:
        theta = math.pi * (np.arange(n) + 0.5) / n
        psi = _amplitude_grid(0.5 * top * (1.0 + np.cos(theta)), params.k,
                              params.ell, phase, spec)
        c = _chebyshev_coefficients(psi)
        size = np.abs(c) / np.abs(c).max()
        w = max(n // 8, 4)
        tail = size[-w:].max()
        flat = tail >= _CHEB_STALL * size[-2 * w:-w].max()
        if tail <= 1e-3 * spec.rel_tol or (flat and tail <= spec.rel_tol):
            return c
        if flat and tail >= _CHEB_STALL * previous:
            raise NumericsError(
                f"source average: the Chebyshev coefficients of the "
                f"amplitude on [0, {top:.4g}] stall at {tail:.1e} of their "
                f"largest, above rel_tol = {spec.rel_tol:.1e}")
        previous = tail
        n *= 2
    raise NumericsError(
        f"source average: the amplitude on [0, {top:.4g}] is not resolved "
        f"by {_CHEB_MAX_NODES} Chebyshev nodes (its bandwidth asks for "
        f"{start} to start with)")


def _source_average(operator, terms, rel_tol):
    """Annular average of I = sum_i w_i |psi_i|^2 over the source disc.

    terms are (w_i, c_i) pairs, c_i the Chebyshev coefficients of psi_i on
    [0, top], top = u_max + beta of the operator's grid. I is a polynomial
    of degree < n = 2 max_i len(c_i), so its values at the n first-kind
    Chebyshev points give its coefficients exactly. Each psi_i is evaluated
    there with one inverse FFT of its zero-padded coefficients (the inverse
    of _chebyshev_coefficients), and the sum is transformed back. The
    longest tail of I's coefficients whose magnitudes sum to at most
    _TRIM rel_tol of the largest is cut, which moves I by no more than
    that, and the one real series that is left is averaged by one mat-vec
    of the operator (an ArcAverage, grown to the series' length if it is
    shorter).
    """
    n = 2 * max(c.size for _, c in terms)
    shift = np.exp(0.5j * math.pi * np.arange(n) / n)
    samples = np.zeros(n)
    for w, c in terms:
        padded = np.zeros(n, dtype=complex)
        padded[:c.size] = c
        padded[0] *= 2.0
        psi = np.fft.ifft(np.concatenate([
            padded * shift, [0.0], (padded * shift.conj())[:0:-1]]))[:n] * n
        samples += w * (psi.real ** 2 + psi.imag ** 2)
    coef = _chebyshev_coefficients(samples).real
    tail = np.cumsum(np.abs(coef[::-1]))[::-1]
    coef = coef[:max(np.count_nonzero(
        tail > _TRIM * rel_tol * np.abs(coef).max()), 1)]
    return operator.apply(coef)


def velocity_terms(setup, velocity, interacting, source):
    """The (w_i, params_i, phase_i) nodes, all that either engine reads:
    the velocity_nodes v_i if velocity, else weight 1 at v_long, each with
    the params of setup at v_i, beta zeroed unless source, and, if
    interacting, the EikonalPhase (and with it eta) of setup.obstacle and
    setup.particle at v_i, else None."""
    vs, weights = (velocity_nodes(setup.particle) if velocity
                   else ([setup.particle.v_long], [1.0]))
    point = {} if source else {"beta": 0.0}
    return [(w_i, replace(setup.dimensionless(v_i), **point), EikonalPhase(
        setup.obstacle, setup.particle, v_i) if interacting else None)
            for v_i, w_i in zip(vs, weights)]


def averaged_pattern(u_grid, nodes, quad=None, operators=None):
    """Pattern on u_grid, summed over the nodes of velocity_terms and
    averaged over the source disc of radius beta, which the nodes share. A
    source average (beta > 0) sums the nodes' weighted intensities, each
    from the certified Chebyshev series of its amplitude on
    [0, u_max + beta], into one series and averages it by one mat-vec of
    the arc-length kernel matrix (_source_average); with beta = 0 the
    nodes' point-source patterns are summed. The matrix depends on the grid
    and beta only: operators is a dict that the profiles of a sweep share,
    in which it is built on first use under ("arc", grid bytes, beta).
    """
    u = np.asarray(u_grid, dtype=float)
    beta = nodes[0][1].beta
    if beta > 0.0:
        operators = {} if operators is None else operators
        key = "arc", u.tobytes(), beta
        if key not in operators:
            operators[key] = arc_average_operator(u, beta)
        top = u.max() + beta
        return RadialProfile(u, _source_average(operators[key], [
            (w_i, _chebyshev_amplitude(top, p_i, phase_i, quad))
            for w_i, p_i, phase_i in nodes], (quad or DEFAULT_SPEC).rel_tol))
    acc = np.zeros_like(u)
    for w_i, p_i, phase_i in nodes:
        acc += w_i * point_source_pattern(u, p_i, phase_i, quad).w
    return RadialProfile(u, acc)


def visibility_checks(setup):
    """Geometry sanity checks for seeing a spot at all, as report rows, at
    the particle's mean velocity."""
    p = setup.dimensionless()
    lam = setup.particle.wavelength()
    rows = [
        ConstraintReport(
            "spot_vs_shadow", p.k * p.ell, 0.4, p.k * p.ell >= 0.4,
            "k*ell must stay above ~0.4 or the spot is wider than the "
            "shadow (larger is better)"),
        ConstraintReport(
            "source_radius", setup.R0, 0.4 * setup.L1 * lam / setup.R,
            setup.R0 <= 0.4 * setup.L1 * lam / setup.R,
            "source pinhole small enough not to smear the spot away"),
        ConstraintReport(
            "shadow_existence", setup.R0,
            setup.R * (setup.L1 + setup.L2) / setup.L2,
            setup.R0 < setup.R * (setup.L1 + setup.L2) / setup.L2,
            "source small enough that a geometric shadow exists"),
        ConstraintReport(
            "paraxial", max(setup.R0, setup.R) / min(setup.L1, setup.L2),
            0.01,
            max(setup.R0, setup.R) / min(setup.L1, setup.L2) <= 0.01,
            "transverse scales must stay far below the distances"),
    ]
    return rows
