"""Near-field Poisson spot engine.

The on-screen intensity behind a circular obstacle, in scaled coordinates
u = r_screen / R, is w_p(u) = |psi(u)|^2 with the radially symmetric Fresnel
amplitude

    psi(u) = int_1^inf ds 2 pi k l s exp(i pi k l s^2 + i phi(s)) J0(2 pi k u s)

where k = R^2/(L2 lambda) (Fresnel parameter), l = (L1+L2)/L1, and phi the
eikonal interaction phase. The semi-infinite oscillatory integral is never
brute-forced. It is evaluated by a Babinet-style decomposition:

    psi(u) = i exp(-i pi k u^2 / l)          (free propagation, closed form)
             - int_0^{1+eta} [bare integrand] ds        (finite, smooth)
             + int_{1+eta}^{s_neg} [bare] (e^{i phi} - 1) ds   (finite)

using the exact result for the phase-free integral extended to zero lower
bound. The capture parameter eta removes adsorbed particles by starting the
obstacle integrals at s = 1 + eta, with eta = capture_eta of the phase's
own obstacle, particle and velocity (0 without a phase); the last integral
truncates where phi falls below the phase floor, with a truncation error
bounded by the floor.

The interaction integral is evaluated for all screen radii at once: its
panels are adapted on a probe subset of the radii first, and the whole grid
is then integrated once on those panels and refined wherever any radius
still needs it, under the same componentwise error test.

Finite sources average |psi|^2 over the projected source disc (radius
beta = (L2/L1)(R0/R) in u units). The points of the disc at distance r from
the origin form an arc, so the disc mean is a 1-D integral of the radial
pattern against an arc-length kernel (annular_average). The kernel's nodes
read psi from a Chebyshev interpolant on [0, u_max + beta]: psi is an entire
function of u (the free chirp plus Hankel transforms of radial functions
supported on [0, s_neg]), so its Chebyshev coefficients decay geometrically
once the degree passes its bandwidth, and the decay of the coefficient tail
certifies the degree. Velocity spreads average over deterministic velocity
nodes with the interaction phase, and with it eta, rebuilt per node.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ConstraintReport
from .interaction import EikonalPhase, capture_eta as _capture_eta
from .numerics import (DEFAULT_SPEC, NumericsError, bessel_j0, bisect,
                       integrate_adaptive)
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


def _phase_breakpoints(phase, a):
    """Abscissae where phi crosses successive quarter levels, as quad seeds.

    The disc phase P (s-1)^-4 crosses a level in closed form; the sphere's
    crossings are bisected, all levels in one elementwise bisection.
    """
    lo = max(a, 1.0 + 1e-9)
    levels = [phase.phi(lo)]
    floor = max(phase.phase_floor * 4.0, 1e-3)
    while levels[-1] > floor:
        levels.append(levels[-1] / 4.0)
    if phase.obstacle.kind == "disc":
        return [1.0 + (phase.prefactor / lvl) ** 0.25 for lvl in levels[1:]]
    targets = np.array(levels[1:])
    return bisect(lambda s: phase.phi(s) - targets, lo, phase.s_negligible,
                  1e-10).tolist()


# Boundary phase (rad) beyond which the interaction integrand oscillates too
# fast for cheap panel quadrature; the wall strip is then handled by
# _wall_strip, and by panels only where the series misses the error budget.
_PHI_SPLIT = 2000.0


def _wall_strip(u, k, ell, phase, a, b):
    """Endpoint evaluation of the fast-oscillating edge of the interaction
    integral: int_a^b 2*pi*k*ell*s J0(2*pi*k*u*s) exp(i*Psi(s)) ds with
    Psi = pi*k*ell*s^2 + phi(s) and |Psi'| enormous throughout [a, b].

    Integrating twice against d(exp(i*Psi))/(i*Psi') gives a two-term
    series in the endpoint values; each further term is smaller by
    ~|d/ds| / |Psi'|, so the third-order endpoint magnitude serves as the
    error estimate. Returns (value, error) as arrays over u.
    """
    two_pi_k = 2.0 * math.pi * k

    def G(s):
        return (two_pi_k * ell * s) * bessel_j0(two_pi_k * u * s)

    def Psi(s):
        return math.pi * k * ell * s * s + float(phase.phi(s))

    def dPsi(s):
        return 2.0 * math.pi * k * ell * s + float(phase.dphi_ds(s))

    def h0(s):
        return G(s) / (1j * dPsi(s))

    def h1(s):
        h = 1e-4 * (s - 1.0)
        return (h0(s + h) - h0(s - h)) / (2.0 * h * 1j * dPsi(s))

    def endpoint(s, sign):
        h = 1e-4 * (s - 1.0)
        h2 = (h1(s + h) - h1(s - h)) / (2.0 * h * abs(dPsi(s)))
        val = sign * (h0(s) - h1(s)) * np.exp(1j * Psi(s))
        return val, np.abs(h2)

    val_b, err_b = endpoint(b, +1.0)
    val_a, err_a = endpoint(a, -1.0)
    return val_a + val_b, 2.0 * (err_a + err_b)


# probe radii for the interaction panels: every 32nd screen radius + the largest
_PROBE_STRIDE = 32


def _integrate_on_probed_panels(integrand, u, a, b, spec, points):
    """int_a^b integrand(s, u) ds for every radius in u.

    Adapting on a probe subset of the radii first, and seeding the full pass
    with the probe's final panels, spares the full grid the evaluations on
    panels that are later split. The full pass still refines wherever any
    radius fails the componentwise error test.
    """
    probe = np.unique(np.append(u[::_PROBE_STRIDE], u.max()))
    if u.size > probe.size:
        points = integrate_adaptive(lambda s: integrand(s, probe), a, b,
                                    spec, points).cuts
    return integrate_adaptive(lambda s: integrand(s, u), a, b, spec, points)


def _amplitude_grid(u_grid, k, ell, phase=None, quad=None):
    """psi(u) for a whole grid of screen radii at once."""
    spec = quad or DEFAULT_SPEC
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if np.any(u < 0):
        raise ValueError("screen radii must be non-negative")
    a = 1.0 if phase is None else 1.0 + _capture_eta(
        phase.obstacle, phase.particle, phase.v_z)
    two_pi_k = 2.0 * math.pi * k

    # integrands as (complex radial factor, real J0 matrix), the pair form
    # of integrate_adaptive
    def bare(s):
        s = np.asarray(s)
        return (two_pi_k * ell * s * np.exp(1j * math.pi * k * ell * s * s),
                bessel_j0(two_pi_k * np.outer(s, u)))

    def shadow(s):
        radial, j0 = bare(s)
        return -radial, j0

    free = 1j * np.exp(-1j * math.pi * k * u * u / ell)
    res0 = integrate_adaptive(bare, 0.0, a, spec)
    res0.require_converged("free-edge integral")
    psi = free - res0.value

    if phase is None:
        return psi
    if phase.s_negligible <= a:
        raise ValueError("capture radius swallows the interaction zone; "
                         "nothing left to integrate")

    def interacting(s, radii):
        s = np.asarray(s)
        radial = (two_pi_k * ell * s
                  * np.exp(1j * math.pi * k * ell * s * s)
                  * (np.exp(1j * phase.phi(s)) - 1.0))
        return radial, bessel_j0(two_pi_k * np.outer(s, radii))

    def interaction(lo, hi=phase.s_negligible, what="interaction integral"):
        return _integrate_on_probed_panels(
            interacting, u, lo, hi, spec,
            _phase_breakpoints(phase, lo)).require_converged(what)

    if phase.phi(a) <= _PHI_SPLIT:
        return psi + interaction(a).value
    # near the wall the eikonal phase winds through too many cycles for
    # cheap panel quadrature; peel that strip off and evaluate its
    # oscillatory part by the endpoint series instead
    s_split = bisect(lambda s: phase.phi(s) - _PHI_SPLIT, a,
                     phase.s_negligible, 1e-12)
    res_m = integrate_adaptive(shadow, a, s_split, spec)
    res_m.require_converged("wall-strip shadow integral")
    strip_val, strip_err = _wall_strip(u, k, ell, phase, a, s_split)
    outer = interaction(s_split)
    total = psi + res_m.value + strip_val + outer.value
    budget = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
    if np.all(strip_err <= 10.0 * budget):
        return total
    # the series has a fixed accuracy, which missed the budget: integrate
    # the strip by panels and keep the outer integral already done
    strip = interaction(a, s_split, (
        "wall-strip endpoint series not accurate enough (error ~ "
        f"{float(np.max(strip_err)):.3e}); the interaction integral over "
        "the wall strip"))
    return psi + strip.value + outer.value


def amplitude(u, params, phase=None, quad=None):
    """Complex diffraction amplitude psi at a single scaled screen radius."""
    return complex(_amplitude_grid([float(u)], params.k, params.ell,
                                   phase, quad)[0])


def point_source_pattern(u_grid, params, phase=None, quad=None):
    """w_p(u) = |psi(u)|^2 for a point source on axis."""
    psi = _amplitude_grid(u_grid, params.k, params.ell, phase, quad)
    return RadialProfile(np.asarray(u_grid, dtype=float), np.abs(psi) ** 2)


# Gauss-Legendre nodes on [-1, 1] for both pieces of the arc-length kernel
_XK, _WK = np.polynomial.legendre.leggauss(64)


def annular_average(u_grid, beta, radial_fn):
    """Mean of a radial function f over the disc of radius beta around each u.

    The points at distance r from the origin fill an arc of the disc, so the
    mean is the 1-D integral int f(r) K(u, r) dr with the arc-length kernel

        K = (2 r / (pi beta^2)) arccos((u^2 + r^2 - beta^2) / (2 u r))

    on |u - beta| < r < u + beta, plus K = 2 r / beta^2 (full circles) on
    r < beta - u. The circles, present for u < beta only, take 64
    Gauss-Legendre nodes in r; the arcs take 64 nodes in phi in [0, pi] with
    r = m - h cos(phi), m and h the midpoint and half-width of the arc band,
    which makes the square-root edges of the arccos smooth. f is called once
    with every node. The factor r of K cancels a 1/r focal divergence of f.
    """
    u = np.asarray(u_grid, dtype=float)
    if beta == 0.0:
        return radial_fn(u)
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
    f = radial_fn(np.concatenate([r_arc.ravel(), r_in.ravel()]))
    out = (w_arc * f[:r_arc.size].reshape(r_arc.shape)).sum(axis=1)
    out[inner] += (c * _WK * r_in
                   * f[r_arc.size:].reshape(r_in.shape)).sum(axis=1)
    return out / beta ** 2


# a source average whose amplitude needs more Chebyshev nodes than this is
# refused; a 500 nm disc at 200 m/s (k = 19.7) needs 2154
_CHEB_MAX_NODES = 8192
# a coefficient tail that stays above this fraction of the block before it
# (or of the previous attempt's tail) has stopped falling: it sits on the
# rounding plateau, where the tail of each block is noise of one size
_CHEB_STALL = 0.1


def _chebyshev_amplitude(top, params, phase, quad):
    """Certified Chebyshev coefficients of psi on [0, top], shape (n, 2).

    psi is sampled once per attempt at the n first-kind Chebyshev points
    r_j = top (1 + cos theta_j) / 2, theta_j = pi (j + 1/2) / n; the
    coefficients are the cosine sums c_m = (2/n) sum_j psi_j cos(m theta_j)
    (c_0 halved), taken with one FFT of the even extension of the samples.
    The starting n covers the bandwidth 2 pi k s_max with a 1.5 margin; it
    is doubled until the tail, the largest of the last w = max(n/8, 4)
    coefficients, is below 1e-3 rel_tol times the largest one. Doubling
    stops early once the tail no longer falls, i.e. once it is within a
    factor 1/_CHEB_STALL of the w coefficients before it: the coefficients
    then sit on their rounding plateau, which is accepted if it is at most
    rel_tol times the largest coefficient. A plateau above that which a
    further doubling does not lower either raises NumericsError. Columns
    are the real and imaginary parts.
    """
    spec = quad or DEFAULT_SPEC
    s_max = phase.s_negligible if phase is not None else 1.0
    n = int(math.ceil(1.5 * math.pi * params.k * s_max * top)) + 24
    previous = math.inf
    while n <= _CHEB_MAX_NODES:
        theta = math.pi * (np.arange(n) + 0.5) / n
        psi = _amplitude_grid(0.5 * top * (1.0 + np.cos(theta)), params.k,
                              params.ell, phase, spec)
        c = np.fft.fft(np.concatenate([psi, psi[::-1]]))[:n] * (
            np.exp(-0.5j * math.pi * np.arange(n) / n) / n)
        c[0] *= 0.5
        size = np.abs(c) / np.abs(c).max()
        w = max(n // 8, 4)
        tail = size[-w:].max()
        flat = tail >= _CHEB_STALL * size[-2 * w:-w].max()
        if tail <= 1e-3 * spec.rel_tol or (flat and tail <= spec.rel_tol):
            return np.column_stack([c.real, c.imag])
        if flat and tail >= _CHEB_STALL * previous:
            raise NumericsError(
                f"source average: the Chebyshev coefficients of the "
                f"amplitude on [0, {top:.4g}] stall at {tail:.1e} of their "
                f"largest, above rel_tol = {spec.rel_tol:.1e}")
        previous = tail
        n *= 2
    raise NumericsError(
        f"source average: the amplitude on [0, {top:.4g}] is not resolved "
        f"by {_CHEB_MAX_NODES} Chebyshev nodes")


def source_averaged_pattern(u_grid, setup, phase=None, quad=None, v=None):
    """Pattern averaged over the finite source disc (radius R0).

    The amplitude psi is represented on [0, u_max + beta] by the certified
    Chebyshev interpolant of _chebyshev_amplitude, and |psi|^2 from it is
    averaged over the disc of radius beta around each screen radius with the
    arc-length kernel of annular_average. With a phase the wavelength is
    taken at phase.v_z, and a v that differs from it raises ValueError;
    v (default v_long) sets the wavelength only for the ideal obstacle.
    """
    if phase is not None:
        if v is not None and v != phase.v_z:
            raise ValueError(f"v = {v!r} differs from the phase's velocity "
                             f"v_z = {phase.v_z!r}")
        v = phase.v_z
    p = setup.dimensionless(v)
    u = np.asarray(u_grid, dtype=float)
    if p.beta == 0.0:
        return point_source_pattern(u, p, phase, quad)

    top = u.max() + p.beta
    coef = _chebyshev_amplitude(top, p, phase, quad)

    def intensity(r):
        re, im = np.polynomial.chebyshev.chebval(2.0 * r / top - 1.0, coef)
        return re * re + im * im

    return RadialProfile(u, annular_average(u, p.beta, intensity))


def wavelength_averaged_pattern(u_grid, setup, phase=None, quad=None,
                                source_averaging=True):
    """Pattern averaged over the particle's velocity distribution.

    At each of the velocity_nodes v_i the Fresnel parameter and the phase,
    EikonalPhase(phase.obstacle, phase.particle, v_i), are rebuilt (phase
    None is the ideal obstacle); the phase's own velocity is not used.
    dv_rel = 0 reduces to the single-velocity result.
    """
    u = np.asarray(u_grid, dtype=float)
    vs, weights = velocity_nodes(setup.particle)
    acc = np.zeros_like(u)
    for v_i, w_i in zip(vs, weights):
        phase_i = None if phase is None else EikonalPhase(
            phase.obstacle, phase.particle, v_i)
        if source_averaging:
            prof = source_averaged_pattern(u, setup, phase_i, quad, v=v_i)
        else:
            prof = point_source_pattern(u, setup.dimensionless(v_i), phase_i,
                                        quad)
        acc += w_i * prof.w
    return RadialProfile(u, acc)


def spot_radius(params):
    """Estimated bright-spot radius 0.4/k (units of R).

    The first dark ring sits near the first zero of J0, at
    2.40483/(2 pi k) = 0.383/k; 0.4/k is the conventional round number.
    """
    return 0.4 / params.k


def visibility_checks(setup, v=None):
    """Geometry sanity checks for seeing a spot at all, as report rows."""
    v_eff = setup.particle.v_long if v is None else v
    p = setup.dimensionless(v_eff)
    lam = setup.particle.wavelength(v_eff)
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
