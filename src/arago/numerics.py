"""Shared numerical machinery: Bessel J0, adaptive Hankel quadrature, a
bracketed root finder, in numpy alone.

J0 has two regimes that meet at |x| = 8: below, a polynomial in x^2; above,
the modulus and phase form sqrt(2/(pi x)) M cos(x - pi/4 + delta/x), with M
and delta polynomials in 1/x^2 (Abramowitz and Stegun 9.2.17). Their
coefficients are Chebyshev fits of mpmath values, embedded as constants;
bessel_j0 is within 1.2e-15 of scipy.special.j0 on [0, 200].

The quadrature engine computes int_a^b g(s) J0(c_j s) ds for every scale c_j
of a list at once: one oscillatory Hankel integral for an entire screen
grid. It refines in rounds on the embedded Gauss-Kronrod 15/31 point rule
(QUADPACK's qk31): the complex factor g is read at the 31 Kronrod nodes of
every panel, |K31 - G15| is the panel's error estimate, and all scales share
the panels under a componentwise error test. Each round halves the worst
panels, just enough of them that the rest would meet the error budget, and
evaluates all the new panels through one call of g (or a few, to bound the
memory of a call), so the per-call overhead is paid per round, not per
panel.

The panels are short where g winds, and J0 barely changes across them, so
J0 is product-integrated (Filon 1928; Iserles and Norsett, Proc. R. Soc. A
461, 2005): it is read at p first-kind Chebyshev points of an interval and
carried to the Kronrod nodes by interpolation. No derivative of J0(c s)
exceeds |c|^p, so with omega = max |c_j| and D = omega times the
interval's width, p is the smallest rung of the ladder 4, 6, ..., 48 whose
a-priori interpolation bound 2 (D/4)^p / p! is at most machine epsilon;
that bound times a panel's sum of |weight * g| (real and imaginary parts
taken apart) is added to the panel's error estimate. The panels of a call
form runs of adjacent panels, as wide as the last rung allows, that read
J0 once, at the points of the run's whole interval, and barycentric
weights (Berrut and Trefethen, SIAM Rev. 46, 501, 2004) carry those
values to the Kronrod nodes of each panel in it; a run may span a kink of
g, since J0 has none. A lone panel that no rung below 31 points meets
reads J0 at its 31 Kronrod nodes.

The root finder bisect is elementwise, so one call finds the crossings of
many levels. Without a derivative it bisects, step for step as
scipy.optimize.bisect; given the derivative, it takes Newton steps that stay
inside each element's bisection bracket (the rtsafe rule), which converge
quadratically where the function is smooth.

Semi-infinite oscillatory integrals never reach this module; the callers reduce
them to finite intervals plus analytic closed forms first, so only robust
finite-interval quadrature is needed here.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for integrate_adaptive.

    Both tolerances bound the summed error of one whole integral per scale
    (for the diffraction code, the whole obstacle integral at one screen
    radius), not the error of a panel: where that integral cancels to a
    small value, abs_tol binds.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_SPEC = QuadratureSpec()


@dataclass
class QuadratureResult:
    """One value and one error estimate per scale, the panel count and the
    accuracy flag `converged`.

    A False flag means the subdivision budget ran out before the tolerance was
    met. The estimate is still returned, never silently degraded.
    """

    value: np.ndarray      # complex, shape (m,)
    error: np.ndarray      # float, shape (m,)
    converged: bool
    subdivisions: int      # panels of the final partition, 0 if a == b

    def require_converged(self, what="quadrature"):
        if not self.converged:
            raise NumericsError(
                f"{what} did not reach the requested accuracy "
                f"(error ~ {np.max(self.error):.3e} after "
                f"{self.subdivisions} subdivisions)")
        return self


class NumericsError(RuntimeError):
    """Raised when a numerical routine cannot certify its result."""


# J0 in two regimes that meet at |x| = _J0_CUT = 8 (the form of Abramowitz
# and Stegun 9.2.17-9.2.31), as Chebyshev interpolants of 40-digit mpmath
# values, converted to monomials and rounded to double, lowest degree first:
#   mpmath.chebyfit(lambda t: besselj(0, sqrt(32 (t + 1))), [-1, 1], 16)
# for _J0_SMALL, and with 11 points each, at x = sqrt(128 / (s + 1)), the
# two columns of _J0_LARGE: the amplitude sqrt(x (J0^2 + Y0^2)), which is
# sqrt(2 / pi) M, and the phase term delta = x (theta - x + pi / 4), theta
# the phase of J0 + i Y0. Their fit errors are 1.3e-17, 1.4e-16 and 1.1e-15
# (delta enters divided by x > 8); rounding the coefficients adds 7e-17 to
# the first. Embedded as constants, as the Kronrod nodes are, so that J0
# needs numpy alone; tests/test_numerics.py checks bessel_j0 against
# scipy.special.j0.
_J0_CUT = 8.0
_J0_SMALL = np.array([
    0.045829664859813754, 0.9303012472958572, -0.6484692830871821,
    -0.8080888076696872, 1.0383794611436883, -0.507468045847101,
    0.14598884856785535, -0.028472718610877044, 0.00405807898810883,
    -0.0004435459224433769, 3.8473200057927604e-05, -2.717749207626176e-06,
    1.595584886623164e-07, -7.91533375368561e-09, 3.3794624520643e-10,
    -1.2430166156640003e-11])
# the amplitude's coefficients and delta's, transposed so that _J0_LARGE[k]
# is the column of both degree-k terms: _horner steps the two at once
_J0_LARGE = np.array([
    [0.797499818629752, -0.0003800698974499098, 4.506774608166123e-06,
     -1.5463413239687505e-07, 9.787882173196673e-09, -9.347323966285203e-10,
     1.2020316098886966e-10, -1.9164085384592883e-11, 3.662423765623813e-12,
     -1.0143544077666525e-12, 2.6409377006309227e-13],
    [-0.12450345867138757, 0.00048509785024144727, -1.0858254770568517e-05,
     5.35952433029215e-07, -4.3396906955771356e-08, 4.969210159424446e-09,
     -7.358125720915226e-10, 1.3087864308121478e-10, -2.74411032359987e-11,
     8.532136141247918e-12, -2.38473445575044e-12]]).T[:, :, None].copy()


def bessel_j0(x):
    """Bessel function of the first kind J0, elementwise, from numpy alone.

    J0 is even, and is evaluated at |x|. For |x| <= 8 it is a polynomial of
    degree 15 in t = x^2/32 - 1; for |x| > 8 it is sqrt(2/(pi x)) M
    cos(x - pi/4 + delta/x) (Abramowitz and Stegun 9.2.17), with the
    modulus M and the phase term delta polynomials of degree 10 in
    s = 128/x^2 - 1. The coefficients are Chebyshev fits of mpmath values
    (see _J0_SMALL), summed by Horner's rule. Against scipy.special.j0 the
    largest difference is 1.2e-15 on [0, 200] and 1.3e-14 on [0, 1e4],
    where the rounding of the phase to double dominates; the bound is
    1e-12 absolute over |x| <= 1e4. Rejects non-finite input instead of
    propagating NaN into quadratures.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    if ax.size and not ax.max() < math.inf:
        raise ValueError("bessel_j0 requires finite input")
    out = np.empty_like(ax)
    large = ax > _J0_CUT
    small = ~large
    t = ax[small]
    if t.size:
        t *= t
        t *= 1.0 / 32.0
        t -= 1.0
        out[small] = _horner(_J0_SMALL, t)
    x = ax[large]
    if x.size:
        s = x * x
        np.divide(128.0, s, out=s)
        s -= 1.0
        amplitude, phase = _horner(_J0_LARGE, s)
        # x + (delta/x - pi/4): one rounding at the size of x
        phase /= x
        phase -= 0.25 * math.pi
        phase += x
        np.cos(phase, out=phase)
        amplitude *= phase
        amplitude /= np.sqrt(x)
        out[large] = amplitude
    return float(out) if out.ndim == 0 else out


def _horner(c, t):
    """sum_k c[k] t^k by Horner's rule, c lowest degree first; c[k] may be
    a column, which steps one polynomial per row at once."""
    acc = c[-1] * t
    acc += c[-2]
    for ck in c[-3::-1]:
        acc *= t
        acc += ck
    return acc


# G15/K31 Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk31; Piessens et al.,
# QUADPACK, 1983): the 16 nodes x >= 0 in descending order, their K31
# weights, and the G15 weights of the odd-numbered ones (the 15-point
# Gauss-Legendre nodes). Embedded as constants because computing the Kronrod
# nodes at import costs memory; tests/test_numerics.py checks them against
# leggauss(15) and polynomial exactness.
_XK_HALF = np.array([
    0.9980022986933971, 0.9879925180204854, 0.9677390756791391,
    0.937273392400706, 0.8972645323440819, 0.8482065834104272,
    0.790418501442466, 0.7244177313601701, 0.650996741297417,
    0.5709721726085388, 0.4850818636402397, 0.3941513470775634,
    0.29918000715316884, 0.20119409399743451, 0.1011420669187175, 0.0])
_WK_HALF = np.array([
    0.005377479872923349, 0.015007947329316122, 0.02546084732671532,
    0.03534636079137585, 0.04458975132476488, 0.05348152469092809,
    0.06200956780067064, 0.06985412131872826, 0.07684968075772038,
    0.08308050282313302, 0.08856444305621176, 0.09312659817082532,
    0.09664272698362368, 0.09917359872179196, 0.10076984552387559,
    0.10133000701479154])
_WG_HALF = np.zeros(16)
_WG_HALF[1::2] = [
    0.03075324199611727, 0.07036604748810812, 0.10715922046717194,
    0.13957067792615432, 0.16626920581699392, 0.1861610000155622,
    0.19843148532711158, 0.2025782419255613]


# all 31 nodes ascending; the G15 nodes are _X31[1::2], and _W15 is zero
# on the 16 Kronrod-only nodes
_X31 = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_W31 = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_W15 = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])
# rows: the K31 value and the K31 - G15 difference
_RULES = np.stack([_W31, _W31 - _W15])


# work per call of _panels: at most this many J0 entries, 31 per panel and
# scale (512 KB in float64), which bounds the memory that one call holds
_CALL_SIZE = 2 ** 16


# The product rule of _panels. J0(c x) with |c| <= omega has p-th
# derivative at most omega^p (no derivative of J0 exceeds 1); interpolated
# at p first-kind Chebyshev points of an interval over which omega x spans
# D, it is off by at most 2 (D/4)^p / p! anywhere on that interval.
# An interval takes the smallest rung p of _RUNGS whose bound is at most
# _KERNEL_TOL, that is whose D is at most _RUNG_SPAN, and rung r reads J0
# at _RUNG_POINTS[r] on [-1, 1]; the barycentric weights _BARY[r] carry
# those values to the Kronrod nodes of each panel of the interval.
_RUNGS = (4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48)
_KERNEL_TOL = np.finfo(float).eps
_BOUND = np.array([2.0 / math.factorial(p) for p in _RUNGS])
_RUNG_SPAN = 4.0 * (_KERNEL_TOL / _BOUND) ** (1.0 / np.array(_RUNGS))
_RUNG_POINTS = [-np.cos(np.pi * (np.arange(p) + 0.5) / p) for p in _RUNGS]
_BARY = [(-1.0) ** np.arange(p) * np.sin(np.pi * (np.arange(p) + 0.5) / p)
         for p in _RUNGS]


def _runs(lo, hi, omega):
    """The runs of panels that read J0 together: a list of (panels, rung,
    D), panels the indices of one panel, or of several that abut, in
    ascending order, D = omega times the run's width, and rung the index
    of the first rung whose span D meets.

    The panels are walked in ascending order of lo. A run takes in the
    next panel while that panel abuts it and the widened run still meets
    the last rung. A run of one panel whose rung has 31 points or more, or
    that meets no rung, has rung None: it reads J0 at its own 31 Kronrod
    nodes, no more than such a rung would read.
    """
    order = np.argsort(lo, kind="stable")
    a, b = lo[order].tolist(), hi[order].tolist()
    top = _RUNG_SPAN[-1]
    runs, first = [], 0
    for j in range(1, len(a) + 1):
        if j < len(a) and b[j - 1] == a[j] and (
                omega * (b[j] - a[first]) <= top):
            continue
        d = omega * (b[j - 1] - a[first])
        r = int(np.searchsorted(_RUNG_SPAN, d))
        if j - first == 1 and (r == len(_RUNGS) or _RUNGS[r] >= _X31.size):
            r = None
        runs.append((order[first:j], r, d))
        first = j
    return runs


def _barycentric(x, r):
    """The barycentric interpolation from rung r's points t to the
    abscissae x on [-1, 1], as q[j, a] = lambda_j / (x_a - t_j) and its
    column sums s: the interpolant at x_a is sum_j q[j, a] f(t_j) / s[a].
    An abscissa on a point t_j has q[:, a] = e_j and s[a] = 1, which takes
    f(t_j) exactly."""
    t = _RUNG_POINTS[r][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = _BARY[r][:, None] / (x - t)
        s = q.sum(axis=0)
    on = ~np.isfinite(s)
    if on.any():
        q[:, on] = x[on] == t
        s[on] = 1.0
    return q, s


def _panels(g, lo, hi, scales):
    """G15/K31 of g(s) J0(c s) on the panels [lo_j, hi_j], for every c in
    scales, through one call of g and one of bessel_j0.

    Returns (K31, |K31 - G15|) per panel and scale, of shape (n, m). The
    31 n Kronrod abscissae of all panels go to g as one array. The panels
    form runs (_runs), and J0 is evaluated once, in ascending order, at
    the points of every run: the first rung of _RUNGS that its span D =
    max |c| (hi - lo) meets, spread over its whole interval, or the 31
    Kronrod nodes of a lone panel that meets none below 31 points.

    With w = half-width * (K31 weights, K31 - G15 weights) * g per panel,
    split as [Re w; Im w] of shape (n, 4, 31), the panels of a run sum
    (w @ L) @ K in one matrix product, L the 31 x p barycentric matrix
    from the run's p points to each panel's Kronrod nodes and K those J0
    rows, and a panel on its own Kronrod nodes sums w @ K, so no complex
    array of the size of K is formed. Both rules read the same
    interpolant, so |K31 - G15| keeps its form; the interpolation bound
    2 (D/4)^p / p! of the run, times the panel's sum of |Re w_K31| +
    |Im w_K31| (at least its sum of |w_K31|), is added to it. A non-finite
    value of g raises NumericsError naming the first panel that has it.
    """
    n, width = lo.size, _X31.size
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    y = np.asarray(g((mid[:, None] + half[:, None] * _X31).ravel()))
    if y.shape != (n * width,):
        raise ValueError("integrand must return one value per abscissa")
    if not np.isfinite(y).all():
        j = int(np.argmax(~np.isfinite(y.reshape(n, width)).all(axis=1)))
        raise NumericsError(
            f"integrand returned non-finite values on "
            f"[{lo[j]:.6g}, {hi[j]:.6g}]")
    w = half[:, None, None] * _RULES * y.reshape(n, 1, width)
    w = np.concatenate([w.real, w.imag], axis=1)
    runs = _runs(lo, hi, np.abs(scales).max())
    # each run's interval, as centre and half-width, and each panel's
    # interpolation bound factor, 0 on its own Kronrod nodes
    at, factor = [], np.zeros(n)
    for panels, r, d in runs:
        start, end = lo[panels[0]], hi[panels[-1]]
        at.append((0.5 * (start + end), 0.5 * (end - start)))
        if r is not None:
            factor[panels] = _BOUND[r] * (0.25 * d) ** _RUNGS[r]
    bound = factor * np.abs(w[:, ::2]).sum(axis=(1, 2))
    j0 = bessel_j0(np.outer(np.concatenate([
        centre + radius * (_X31 if r is None else _RUNG_POINTS[r])
        for (_, r, _), (centre, radius) in zip(runs, at)]), scales))
    p = np.empty((n, 4, scales.size))
    first = 0
    for (panels, r, _), (centre, radius) in zip(runs, at):
        if r is None:
            p[panels] = w[panels] @ j0[first:first + width]
            first += width
            continue
        rows, k = _RUNGS[r], panels.size
        x = (mid[panels, None] - centre) + half[panels, None] * _X31
        q, s = _barycentric(x.ravel() / radius, r)
        q = q.reshape(rows, k, width).transpose(1, 2, 0)
        p[panels] = (((w[panels] / s.reshape(k, 1, width)) @ q).reshape(
            -1, rows) @ j0[first:first + rows]).reshape(k, 4, -1)
        first += rows
    return (p[:, 0] + 1j * p[:, 2],
            np.abs(p[:, 1] + 1j * p[:, 3]) + bound[:, None])


def _evaluate(g, lo, hi, scales):
    """_panels over any number of panels, in calls of at most _CALL_SIZE
    J0 entries (31 per panel and scale, and at least one panel)."""
    step = max(_CALL_SIZE // (_X31.size * scales.size), 1)
    parts = [_panels(g, lo[i:i + step], hi[i:i + step], scales)
             for i in range(0, lo.size, step)]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


def integrate_adaptive(g, a, b, scales, spec=None, points=()):
    """int_a^b g(s) J0(c s) ds over the finite interval [a, b], for every
    c in scales, by adaptive quadrature.

    g maps an ndarray of abscissae to the complex factor there, an array of
    the same shape; scales is a 1-D array of the m values c. g is read at
    the 31 Kronrod nodes of each panel, and J0, which changes slowly across
    short panels, at 4 to 48 Chebyshev points of a run of adjacent panels,
    where that certifies it to machine epsilon (see _panels), and at the
    Kronrod nodes of a lone panel where it does not.
    Scales [0] give the plain integral of g.
    `points` seeds the initial subdivision with known breakpoints (phase
    levels, kinks); they are clipped to the open interval. Seeds that
    already form a converged partition are evaluated once and not split.

    Refinement runs in rounds. Each round ranks the panels by their largest
    error-to-budget ratio over the scales, and halves the shortest
    worst-first run of them whose removal would leave every component's
    error sum within its budget; the halves take their panel's place, so
    the panels stay in order. The new panels are evaluated together, in
    calls of at most _CALL_SIZE J0 entries. The panel count never exceeds
    spec.max_subdivisions (unless the seeded panels alone do).

    Returns a QuadratureResult with one value and one error per scale.
    Componentwise convergence criterion: err_j <= max(abs_tol, rel_tol *
    |I_j|) for every scale c_j.
    """
    spec = spec or DEFAULT_SPEC
    scales = np.atleast_1d(np.asarray(scales, dtype=float))
    if scales.ndim != 1 or scales.size == 0:
        raise ValueError("scales must be a non-empty 1-D array")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return QuadratureResult(np.zeros(scales.size, dtype=complex),
                                np.zeros(scales.size), True, 0)

    edges = np.array([a] + sorted({float(p) for p in points if a < p < b})
                     + [b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    val, err = _evaluate(g, lo, hi, scales)
    while True:
        total, total_err = val.sum(axis=0), err.sum(axis=0)
        budget = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        converged = bool(np.all(total_err <= budget))
        n = lo.size
        room = spec.max_subdivisions - n
        if converged or room <= 0:
            break
        order = np.argsort(-(err / budget).max(axis=1), kind="stable")
        # left[j]: the error sums that remain once order[:j + 1] is split
        left = np.cumsum(err[order[::-1]], axis=0)[::-1][1:]
        enough = np.append(np.all(left <= budget, axis=1), True)
        split = order[:min(int(np.argmax(enough)) + 1, room)]
        mid = 0.5 * (lo[split] + hi[split])
        # panels already at floating point resolution cannot be halved
        halvable = (mid > lo[split]) & (mid < hi[split])
        split, mid = split[halvable], mid[halvable]
        if split.size == 0:
            break
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _evaluate(g, new_lo, new_hi, scales)
        # a split panel's two halves take its place: panel i moves to slot
        # first[i], and its right half, if any, goes to first[i] + 1
        grow = np.ones(n, dtype=int)
        grow[split] = 2
        first = np.cumsum(grow) - grow
        at = np.concatenate([first[split], first[split] + 1])
        lo, hi = np.repeat(lo, grow), np.repeat(hi, grow)
        val, err = np.repeat(val, grow, axis=0), np.repeat(err, grow, axis=0)
        lo[at], hi[at], val[at], err[at] = new_lo, new_hi, new_val, new_err

    return QuadratureResult(total, total_err, converged, lo.size)


# relative part of the bisection stopping test: 4 machine epsilons
_BISECT_RTOL = 4.0 * np.finfo(float).eps


def bisect(f, lo, hi, tol, df=None):
    """Root of f in [lo, hi], which must bracket a sign change: by
    bisection, or with df, the derivative of f, by Newton steps kept inside
    the bisection bracket.

    Elementwise over arrays: lo and hi may be arrays, and f and df may
    return an array (say, one phase minus an array of levels); each element
    keeps its own bracket, and f and df are called once per step with every
    element. A single root takes the same steps on Python floats.

    Without df every step is scipy.optimize.bisect's: the step dm halves,
    xm = xa + dm, and an element stops at xm once f(xm) == 0 or |dm| < tol
    + 4 eps |xm|.

    With df an element steps by the rule of rtsafe (Press et al., Numerical
    Recipes, 3rd ed., sec. 9.4): from its last iterate x, at first the
    bracket end where |f| is smaller, it takes the Newton point x - f/df if
    that lies strictly inside its sign bracket and the Newton step is below
    half the last step, when that was one, and the bracket's midpoint
    otherwise. It stops where f is 0, by scipy's test after a midpoint, or
    at the Newton point once a Newton step below tol + 4 eps |x| halves the
    last one. Near a simple root the steps converge quadratically, so that
    point is far closer than tol; near a multiple root a step below tol
    does not bound the error, and there the steps fail to halve. No iterate
    leaves its bracket, and none stalls: Newton steps in a row at least
    halve, and a midpoint halves the bracket.

    Raises ValueError if f(lo) and f(hi) do not bracket a root, or if f or
    df returns NaN.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    xa, xb = np.asarray(lo, dtype=float)[()], np.asarray(hi, dtype=float)[()]
    xa, xb, fa, fb = np.broadcast_arrays(xa, xb, f(xa), f(xb))
    if np.any(np.isnan(fa)) or np.any(np.isnan(fb)):
        raise ValueError("f returned NaN at the bracket ends")
    unbracketed = fa * fb > 0
    if np.any(unbracketed):
        j = int(np.argmax(unbracketed))
        raise ValueError(
            f"no sign change on [{xa.flat[j]:.6g}, {xb.flat[j]:.6g}]: f ends "
            f"are {fa.flat[j]:.3e}, {fb.flat[j]:.3e}")
    root = np.where(fa == 0, xa, xb)
    todo = (fa != 0) & (fb != 0)
    if root.ndim == 0:
        return (_bisect_scalar(f, df, float(xa), float(xb), float(fa),
                               float(fb), tol) if todo else float(root))
    # the bracket is xa, where f has the sign of fa, and xa + dm; the last
    # iterate x and f there, first the bracket end where |f| is smaller; and
    # the size of the last step if it was a Newton step, else inf
    dm = xb - xa
    nearer = np.abs(fa) < np.abs(fb)
    x, fx = np.where(nearer, xa, xb), np.where(nearer, fa, fb)
    last = np.full(root.shape, np.inf)
    while todo.any():
        half = dm * 0.5
        xm, midpoint = xa + half, True
        if df is not None:
            dfx = df(x)
            if np.isnan(dfx).any():
                raise ValueError("df returned NaN")
            with np.errstate(divide="ignore", invalid="ignore"):
                dx = -fx / dfx
            xn, xb = x + dx, xa + dm
            fast = np.abs(dx) < 0.5 * last
            # a fast Newton step below the tolerance ends at its point
            close = todo & fast & (last < np.inf) & (
                np.abs(dx) < tol + _BISECT_RTOL * np.abs(xn))
            root = np.where(close, xn, root)
            todo = todo & ~close
            if not todo.any():
                break
            newton = fast & ((xn - xa) * (xn - xb) < 0)
            xm, midpoint = np.where(newton, xn, xm), ~newton
            last = np.where(newton, np.abs(dx), np.inf)
        x, fx = xm, f(xm)
        if np.isnan(fx).any():
            raise ValueError("f returned NaN inside the bracket")
        move = fx * fa >= 0
        # scipy's dm halves; a Newton point splits the bracket unevenly
        dm = half if df is None else np.where(move, xb - xm, xm - xa)
        xa = np.where(move, xm, xa)
        stop = todo & ((fx == 0) | (midpoint & (
            np.abs(half) < tol + _BISECT_RTOL * np.abs(xm))))
        root = np.where(stop, xm, root)
        todo = todo & ~stop
    return root


def _bisect_scalar(f, df, xa, xb, fa, fb, tol):
    """bisect's steps for a single root, on Python floats: a tenth of the
    cost of the array steps for one element."""
    dm = xb - xa
    x, fx = (xa, fa) if abs(fa) < abs(fb) else (xb, fb)
    last = math.inf
    while True:
        half = dm * 0.5
        xm, newton = xa + half, False
        if df is not None:
            dfx = df(x)
            if np.isnan(dfx):
                raise ValueError("df returned NaN")
            dx = -fx / dfx if dfx else math.inf
            xn, xb = x + dx, xa + dm
            fast = abs(dx) < 0.5 * last
            if (fast and last < math.inf
                    and abs(dx) < tol + _BISECT_RTOL * abs(xn)):
                return xn
            newton = fast and (xn - xa) * (xn - xb) < 0
            if newton:
                xm = xn
            last = abs(dx) if newton else math.inf
        x, fx = xm, f(xm)
        if np.isnan(fx):
            raise ValueError("f returned NaN inside the bracket")
        move = fx * fa >= 0
        dm = half if df is None else xb - xm if move else xm - xa
        if move:
            xa = xm
        if fx == 0 or (not newton
                       and abs(half) < tol + _BISECT_RTOL * abs(xm)):
            return xm
