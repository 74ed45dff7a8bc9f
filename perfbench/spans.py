"""In-memory span tracing of the arago modules, from outside the program.

`Tracer.install()` replaces the public functions of each layer module with
wrappers that record a span (name, layer, start, end, parent, run id) and a
few work counts. A function is replaced under every name it is bound to in
the `arago` modules, because callers import by name: `poisson` calls
`integrate_adaptive`, `bessel_j0` and `capture_eta` through its own bindings.
`Tracer.uninstall()` puts every original back.

A function that an arago module passes as an argument to a traced function
(an integrand, a root-finding target, a radial profile) runs in a span of
the layer that defined it. Otherwise the work of `capture_eta`'s shooting
or `poisson`'s integrands would count as self time of `numerics`.

A name that no longer exists is skipped, so its counters read 0.
"""

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict, namedtuple
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "particles", "interaction", "numerics", "poisson",
          "classical", "farfield")

Span = namedtuple("Span", "id name layer start end parent run")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_phi(counts, args, kwargs, result):
    counts["interaction.phi.points"] += int(np.size(args[1]))


def _count_j0(counts, args, kwargs, result):
    counts["numerics.bessel_j0.points"] += int(np.size(args[0]))


def _count_quadrature(counts, args, kwargs, result):
    counts["numerics.integrate_adaptive.subdivisions"] += result.subdivisions
    counts["numerics.integrate_adaptive.converged"] += bool(result.converged)


def _count_grid(counts, args, kwargs, result):
    points = np.size(_arg(args, kwargs, 0, "u_grid"))
    counts["poisson.point_source_pattern.points"] += int(points)


# Work counts taken from a call's arguments and result, by (layer, name).
_COUNTERS = {
    ("interaction", "phi"): _count_phi,
    ("numerics", "bessel_j0"): _count_j0,
    ("numerics", "integrate_adaptive"): _count_quadrature,
    ("poisson", "point_source_pattern"): _count_grid,
}

# Methods traced besides the public module functions: (class, method, span).
_METHODS = (("EikonalPhase", "__init__", "EikonalPhase"),
            ("EikonalPhase", "phi", "phi"))


class Tracer:
    """Spans and counts of one traced process; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run = 0
        self._stack = []
        self._patches = Patches()

    def _callback(self, arg):
        """Trace a function argument in the layer of its own module."""
        if not inspect.isfunction(arg) or hasattr(arg, "__wrapped__"):
            return arg
        package, _, layer = arg.__module__.partition(".")
        if package != "arago" or layer not in LAYERS:
            return arg
        return self._wrap(layer, arg.__qualname__, arg)

    def _wrap(self, layer, name, fn, count=None):
        spans, stack = self.spans, self._stack
        callback = self._callback

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args = [callback(a) for a in args]
            kwargs = {k: callback(v) for k, v in kwargs.items()}
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(sid, name, layer, start, end, parent,
                                  self.run)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return traced

    def _wrap_annular(self, fn):
        """annular_average: count the evaluations of its radial function."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(u_grid, beta, radial_fn, *args, **kwargs):
            def radial(r):
                counts["poisson.annular_average.points"] += int(np.size(r))
                return radial_fn(r)
            return fn(u_grid, beta, radial, *args, **kwargs)
        return counted

    def _wrap_solver(self, fn):
        """The ODE solver as bound in `interaction`: solves and evaluations."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            counts["interaction.capture_eta.ode_solves"] += 1
            counts["interaction.capture_eta.ode_nfev"] += int(sol.nfev)
            return sol
        return counted

    def install(self):
        """Wrap every traced function wherever an arago module binds it."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"arago.{layer}")
            except ImportError:
                continue
        bindings = [m for n, m in sorted(sys.modules.items())
                    if n == "arago" or n.startswith("arago.")]

        replace = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = obj
                if (layer, name) == ("poisson", "annular_average"):
                    wrapped = self._wrap_annular(obj)
                replace[id(obj)] = self._wrap(
                    layer, name, wrapped, _COUNTERS.get((layer, name)))
        for mod in bindings:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._patches.set(mod, name, replace[id(obj)])

        interaction = modules.get("interaction")
        for cls_name, meth, span in _METHODS:
            cls = getattr(interaction, cls_name, None)
            fn = getattr(cls, meth, None)
            if inspect.isfunction(fn):
                self._patches.set(cls, meth, self._wrap(
                    "interaction", span, fn,
                    _COUNTERS.get(("interaction", span))))
        solver = getattr(interaction, "solve_ivp", None)
        if solver is not None:
            self._patches.set(interaction, "solve_ivp",
                              self._wrap_solver(solver))

    def uninstall(self):
        self._patches.restore()

    def take(self):
        """Spans and counts recorded since the last take, then reset."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.id: (sp.end - sp.start)
            - covered(children[sp.id], sp.start, sp.end) for sp in spans}


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass, by metric name."""
    own = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    calls, secs = Counter(), defaultdict(float)
    for sp in spans:
        out[f"{sp.layer}.self_s"] += own[sp.id]
        key = f"{sp.layer}.{sp.name}"
        calls[key] += 1
        secs[key] += sp.end - sp.start
    for key in calls:
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.s"] = secs[key]
    out.update(counts)
    n_quad = calls["numerics.integrate_adaptive"]
    out["numerics.integrate_adaptive.converged_frac"] = (
        counts["numerics.integrate_adaptive.converged"] / n_quad
        if n_quad else 0.0)
    return out
