"""Shared numerical machinery: Bessel J0, adaptive quadrature, bisection.

The quadrature engine is a worst-interval-first adaptive scheme built on an
embedded Gauss-Legendre 10/21 point pair. It accepts complex and vector-valued
integrands: an integrand may return an array of shape (n_points,) or
(n_points, m), in which case all m components are integrated simultaneously
over the same subdivision tree with a componentwise error test. That is what
lets the diffraction code evaluate one oscillatory integral for an entire
screen grid in a single pass.

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


# Embedded Gauss-Legendre pair. Generated, not transcribed, so the nodes are
# reproducible from numpy alone.
_X10, _W10 = np.polynomial.legendre.leggauss(10)
_X21, _W21 = np.polynomial.legendre.leggauss(21)
_XPAIR = np.concatenate([_X10, _X21])


def _panel(f, lo, hi):
    """One 10/21 panel on [lo, hi]: returns (I21, |I21 - I10| per component)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    y = np.asarray(f(mid + half * _XPAIR))
    if y.ndim == 0:
        y = np.full(_XPAIR.shape, y[()])
    if y.shape[0] != _XPAIR.shape[0]:
        raise ValueError("integrand must return one value per abscissa")
    if not np.all(np.isfinite(y.view(float) if np.iscomplexobj(y) else y)):
        raise NumericsError(
            f"integrand returned non-finite values on [{lo:.6g}, {hi:.6g}]")
    y10, y21 = y[:10], y[10:]
    coarse = half * np.tensordot(_W10, y10, axes=(0, 0))
    fine = half * np.tensordot(_W21, y21, axes=(0, 0))
    return fine, np.abs(fine - coarse)


def integrate_adaptive(f, a, b, spec=None, points=()):
    """Adaptive quadrature of f over the finite interval [a, b].

    f maps an ndarray of abscissae to an ndarray of values, either shape
    (n,) or (n, m) for m simultaneous components; values may be complex.
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
