"""Shared numerical machinery: Bessel J0, adaptive Hankel quadrature, a
bracketed root finder.

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
taken apart) is added to the panel's error estimate. Adjacent panels of a
call form runs that read J0 once, at the points of the run's whole
interval, and barycentric weights (Berrut and Trefethen, SIAM Rev. 46,
501, 2004) carry those values to the Kronrod nodes of each panel in it; a
run may span a kink of g, since J0 has none. A run forms only where it
cuts the work, its J0 entries and interpolation weights against those of
its panels alone, so few-scale integrals read J0 per panel: at p <= 20
points through a fixed 31 x p Lagrange matrix, or, on a panel that meets
no such rung, at its 31 Kronrod nodes.

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
import scipy.special


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


# work per call of _panels: at most this many J0 entries, 31 per panel and
# scale (512 KB in float64), which bounds the memory that one call holds
_CALL_SIZE = 2 ** 16


def _lagrange_matrix(t):
    """L[a, i], the Lagrange basis polynomial of the nodes t that is 1 at
    t_i, evaluated at the Kronrod node _X31[a]: shape (31, t.size)."""
    off = ~np.eye(t.size, dtype=bool)
    num = np.where(off, _X31[:, None, None] - t, 1.0).prod(axis=2)
    return num / np.where(off, t[:, None] - t, 1.0).prod(axis=1)


# The product rule of _panels. J0(c x) with |c| <= omega has p-th
# derivative at most omega^p (no derivative of J0 exceeds 1); interpolated
# at p first-kind Chebyshev points of an interval over which omega x spans
# D, it is off by at most 2 (D/4)^p / p! anywhere on that interval.
# An interval takes the smallest rung p of _RUNGS whose bound is at most
# _KERNEL_TOL, that is whose D is at most _RUNG_SPAN, and rung r reads J0
# at _RUNG_POINTS[r] on [-1, 1]. A run of adjacent panels (_runs) may take
# any rung, and the barycentric weights _BARY[r] carry its values to the
# Kronrod nodes of each of its panels. A lone panel takes only the first
# _LONE rungs, up to 20 points (24 and 28 would save at most 7 of its 31
# rows, and measured no faster), and _LAGRANGE[r] maps their values to its
# Kronrod nodes; lone rung _LONE is a panel that meets none: the 31
# Kronrod nodes themselves, with no bound. _NODES and _LONE_BOUND are the
# point counts and the bound factors of the lone rungs.
_RUNGS = (4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48)
_LONE = 7
_KERNEL_TOL = np.finfo(float).eps
_BOUND = np.array([2.0 / math.factorial(p) for p in _RUNGS])
_RUNG_SPAN = 4.0 * (_KERNEL_TOL / _BOUND) ** (1.0 / np.array(_RUNGS))
_RUNG_POINTS = [-np.cos(np.pi * (np.arange(p) + 0.5) / p) for p in _RUNGS]
_BARY = [(-1.0) ** np.arange(p) * np.sin(np.pi * (np.arange(p) + 0.5) / p)
         for p in _RUNGS]
_NODES = np.array(_RUNGS[:_LONE] + (_X31.size,))
_LONE_BOUND = np.append(_BOUND[:_LONE], 0.0)
_LAGRANGE = [_lagrange_matrix(t) for t in _RUNG_POINTS[:_LONE]]

# The work that decides a run, in units of one J0 entry (measured at
# 14-30 ns, the less for small arguments): a run of k panels on rung p
# forms m p J0 entries for m scales, and 31 p k barycentric entries at
# _INTERP_COST each (4-7 ns), and its own products cost _RUN_COST (about
# 15 us); a lone panel forms m times its node count.
_INTERP_COST = 0.2
_RUN_COST = 600.0


def _runs(lo, hi, omega, lone, m):
    """The runs of adjacent panels that read J0 once each: a list of
    (panels, rung, D), panels the indices of two or more panels that abut
    in ascending order, and D = omega times the run's width.

    The panels are walked in ascending order of lo. A run takes in the
    next panel while that panel abuts it, the widened run still meets a
    rung, and the widened run's variable cost is below that of the run and
    the panel apart; a lone panel of lone[i] nodes costs m lone[i]. A run
    that then costs less, _RUN_COST included, than its panels alone is
    kept. A run of k panels on rung p costs more than _INTERP_COST 31 p k,
    and p is at least the node count of each of its panels alone, so no
    run pays for m <= _INTERP_COST 31.
    """
    if m <= _INTERP_COST * _X31.size or lo.size < 2:
        return []
    order = np.argsort(lo, kind="stable")
    a, b = lo[order], hi[order]
    joined = (b[:-1] == a[1:]).tolist()
    if not any(joined):
        return []
    a, b = a.tolist(), b.tolist()
    alone = (m * lone[order]).tolist()
    spans, rungs, top = _RUNG_SPAN.tolist(), _RUNGS, len(_RUNGS)
    per_panel = _INTERP_COST * _X31.size
    runs, first, rung, cost, apart = [], 0, 0, alone[0], alone[0]
    for j in range(1, len(a) + 1):
        if j < len(a) and joined[j - 1]:
            # the widened run's rung: its span only grows as it widens
            d, r = omega * (b[j] - a[first]), rung
            while r < top and spans[r] < d:
                r += 1
            if r < top:
                wider = (m + per_panel * (j + 1 - first)) * rungs[r]
                if wider < cost + alone[j]:
                    rung, cost, apart = r, wider, apart + alone[j]
                    continue
        if j - first > 1 and cost + _RUN_COST < apart:
            runs.append((order[first:j], rung, omega * (b[j - 1] - a[first])))
        if j < len(a):
            first, rung, cost, apart = j, 0, alone[j], alone[j]
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
    31 n Kronrod abscissae of all panels go to g as one array. In
    ascending order of lo, the panels form runs of adjacent panels
    (_runs) and lone panels. A run of total span D = max |c| (hi - lo)
    takes the first rung of _RUNGS that D meets, and a lone panel the
    first rung below 31 points that its own span meets, or its 31 Kronrod
    nodes. J0 is evaluated once, at the points of every lone panel,
    grouped by rung, and then at those of each run, spread over the run's
    whole interval.

    With w = half-width * (K31 weights, K31 - G15 weights) * g per panel,
    split as [Re w; Im w] of shape (n, 4, 31), a panel sums (w @ L) @ K,
    L the 31 x p matrix that carries its rung's p J0 values to its Kronrod
    nodes (the fixed Lagrange matrix of a lone panel's rung, or the
    barycentric matrix from its run's points) and K those J0 rows, and a
    31-node panel sums w @ K, so no complex array of the size of K is
    formed. The panels of a lone rung, and those of a run, share one
    matrix product. Both rules read the same interpolant, so |K31 - G15|
    keeps its form; the interpolation bound 2 (D/4)^p / p! of the panel's
    rung, or of its run, times the panel's sum of |Re w_K31| + |Im w_K31|
    (at least its sum of |w_K31|) is added to it. A non-finite value of g
    raises NumericsError naming the first panel that has it.
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
    omega = np.abs(scales).max()
    span = omega * (hi - lo)
    rung = np.searchsorted(_RUNG_SPAN[:_LONE], span)
    runs = _runs(lo, hi, omega, _NODES[rung], scales.size)
    # the interpolation bound factor of each panel: its lone rung's, 0 on
    # 31 Kronrod nodes, or its run's
    factor = _LONE_BOUND[rung] * (
        0.25 * np.minimum(span, _RUNG_SPAN[_LONE - 1])) ** _NODES[rung]
    # the panels in J0 row order: the lone ones by rung, unmoved when they
    # share one, then each run's; the reordered panels a:b of each group
    # share one matrix product
    if runs:
        alone = np.ones(n, dtype=bool)
        for panels, r, d in runs:
            alone[panels] = False
            factor[panels] = _BOUND[r] * (0.25 * d) ** _RUNGS[r]
        lone = np.flatnonzero(alone)
        lone = lone[np.argsort(rung[lone], kind="stable")]
        order = np.concatenate([lone] + [panels for panels, _, _ in runs])
    elif rung.min() == rung.max():
        lone = order = slice(None)
    else:
        lone = order = np.argsort(rung, kind="stable")
    count = np.bincount(rung[lone], minlength=_LONE + 1).tolist()
    groups, a = [], 0
    for r, size in enumerate(count):
        if size:
            groups.append((a, a + size, r, None))
            a += size
    for panels, r, _ in runs:
        # the run's interval, as centre and half-width
        start, end = lo[panels[0]], hi[panels[-1]]
        groups.append((a, a + panels.size, r,
                       (0.5 * (start + end), 0.5 * (end - start))))
        a += panels.size
    bound = factor * np.abs(w[:, ::2]).sum(axis=(1, 2))
    mid, half, w = mid[order, None], half[order, None], w[order]
    j0 = bessel_j0(np.outer(np.concatenate([
        (mid[a:b] + half[a:b] * (_RUNG_POINTS[r] if r < _LONE else _X31)
         ).ravel() if run is None else run[0] + run[1] * _RUNG_POINTS[r]
        for a, b, r, run in groups]), scales))
    p = np.empty((n, 4, scales.size))
    first = 0
    for a, b, r, run in groups:
        if run is None:
            rows = (b - a) * _NODES[r]
            k = j0[first:first + rows].reshape(b - a, -1, scales.size)
            p[a:b] = (w[a:b] @ _LAGRANGE[r] if r < _LONE else w[a:b]) @ k
        else:
            rows = _RUNGS[r]
            x = ((mid[a:b] - run[0]) + half[a:b] * _X31) / run[1]
            q, s = _barycentric(x.ravel(), r)
            q = q.reshape(rows, b - a, width).transpose(1, 2, 0)
            p[a:b] = (((w[a:b] / s.reshape(b - a, 1, width)) @ q).reshape(
                -1, rows) @ j0[first:first + rows]).reshape(b - a, 4, -1)
        first += rows
    if not isinstance(order, slice):
        p[order] = p.copy()
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
    or at 4 to 20 of a lone panel, where that certifies it to machine
    epsilon (see _panels), and at the Kronrod nodes where it does not.
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
