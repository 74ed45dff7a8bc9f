"""Shared numerical machinery: Bessel J0, adaptive quadrature, bisection.

The quadrature engine is a worst-interval-first adaptive scheme built on the
embedded Gauss-Kronrod 15/31 point rule: every one of the 31 evaluations of
a panel goes into its K31 value, and |K31 - G15| is its error estimate. It
accepts complex and vector-valued integrands: an integrand may return an
array of shape (n_points,) or (n_points, m), in which case all m components
are integrated simultaneously over the same subdivision tree with a
componentwise error test. It may also return a pair (g, K), a complex factor
of shape (n_points,) and a real matrix of shape (n_points, m) whose product
g[:, None] * K is the integrand; the panel sums then never form that complex
product. That is what lets the diffraction code evaluate one oscillatory
Hankel integral for an entire screen grid in a single pass.

Semi-infinite oscillatory integrals never reach this module; the callers reduce
them to finite intervals plus analytic closed forms first, so only robust
finite-interval quadrature is needed here.
"""

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.special


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for integrate_adaptive."""

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
    """Value + componentwise error estimate; `converged` is the accuracy flag.

    A False flag means the subdivision budget ran out before the tolerance was
    met. The estimate is still returned, never silently degraded.
    """

    value: object          # complex scalar or complex ndarray (m,)
    error: object          # float scalar or float ndarray (m,)
    converged: bool
    subdivisions: int
    cuts: tuple            # interior boundaries of the final panels

    def require_converged(self, what="quadrature"):
        if not self.converged:
            raise NumericsError(
                f"{what} did not reach the requested accuracy "
                f"(error ~ {np.max(self.error):.3e} after "
                f"{self.subdivisions} subdivisions)")
        return self


class NumericsError(RuntimeError):
    """Raised when a numerical routine cannot certify its result."""


def bessel_j0(x):
    """Bessel function of the first kind J0, elementwise.

    Accurate to better than 1e-12 absolute over |x| <= 1e4. Rejects
    non-finite input instead of propagating NaN into quadratures.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("bessel_j0 requires finite input")
    out = scipy.special.j0(x)
    return float(out) if out.ndim == 0 else out


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


def _panel(f, lo, hi):
    """One G15/K31 panel on [lo, hi]: returns (K31, |K31 - G15|) per component.

    The integrand is read as g(x)[:, None] * K(x). f returns either the pair
    (g, K), or a plain array K, which is the case g = 1. With
    c = (K31 weights, K31 - G15 weights) * g, both sums come from the one
    matrix product [Re c; Im c] @ K, so for a complex g and a real K no
    complex array of the size of K is formed. Non-finite values in either
    factor raise NumericsError.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    y = f(mid + half * _X31)
    g, kern = y if isinstance(y, tuple) else (1.0, y)
    g, kern = np.asarray(g), np.asarray(kern)
    if kern.ndim == 0:
        kern = np.full(_X31.shape, kern[()])
    if kern.shape[0] != _X31.size or g.shape not in ((), _X31.shape):
        raise ValueError("integrand must return one value per abscissa")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(kern))):
        raise NumericsError(
            f"integrand returned non-finite values on [{lo:.6g}, {hi:.6g}]")
    c = half * _RULES * g
    p = np.concatenate([c.real, c.imag]) @ kern
    value, diff = p[:2] + 1j * p[2:]
    return value, np.abs(diff)


def integrate_adaptive(f, a, b, spec=None, points=()):
    """Adaptive quadrature of f over the finite interval [a, b].

    f maps an ndarray of abscissae to the integrand in one of two forms:
    an ndarray of values, shape (n,) or (n, m) for m simultaneous
    components, possibly complex; or a pair (g, K) of a factor g of shape
    (n,) and a matrix K of shape (n, m), meaning g[:, None] * K (g complex,
    K real: a radial factor times a Bessel kernel, summed without forming
    the complex product).
    `points` seeds the initial subdivision with known breakpoints (phase
    levels, kinks); they are clipped to the open interval. The result's
    `cuts` are the interior boundaries of the final panels: passing them as
    `points` to a related integrand starts it on the panels this one needed.

    Returns a QuadratureResult. Componentwise convergence criterion:
    err_i <= max(abs_tol, rel_tol * |I_i|) for every component i.
    """
    spec = spec or DEFAULT_SPEC
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return QuadratureResult(0.0 + 0.0j, 0.0, True, 0, ())

    cuts = [a] + sorted({float(p) for p in points if a < p < b}) + [b]
    segs = []            # heap of (-max_err, tiebreak, lo, hi, I, err)
    serial = 0
    total = None
    total_err = None
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, err = _panel(f, lo, hi)
        total = val if total is None else total + val
        total_err = err if total_err is None else total_err + err
        heapq.heappush(segs, (-np.max(err), serial, lo, hi, val, err))
        serial += 1

    def ok(tot, tot_err):
        return bool(np.all(tot_err <= np.maximum(spec.abs_tol,
                                                 spec.rel_tol * np.abs(tot))))

    n = len(segs)
    while n < spec.max_subdivisions and not ok(total, total_err):
        neg_err, _, lo, hi, val, err = heapq.heappop(segs)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating point resolution; put it back and stop
            heapq.heappush(segs, (neg_err, serial, lo, hi, val, err))
            break
        lval, lerr = _panel(f, lo, mid)
        rval, rerr = _panel(f, mid, hi)
        total = total - val + lval + rval
        total_err = total_err - err + lerr + rerr
        heapq.heappush(segs, (-np.max(lerr), serial, lo, mid, lval, lerr))
        heapq.heappush(segs, (-np.max(rerr), serial + 1, mid, hi, rval, rerr))
        serial += 2
        n += 1

    leaves = sorted(seg[2] for seg in segs)   # panel lower ends, a first
    return QuadratureResult(total, total_err, ok(total, total_err), n,
                            tuple(leaves[1:]))


def bisect(f, lo, hi, tol):
    """Root of f in [lo, hi] by bisection; requires a sign change.

    Final bracket width <= tol. Raises ValueError if f(lo) and f(hi) do not
    bracket a root.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(
            f"no sign change on [{lo:.6g}, {hi:.6g}]: f ends are "
            f"{flo:.3e}, {fhi:.3e}")
    return float(scipy.optimize.bisect(f, lo, hi, xtol=tol))
