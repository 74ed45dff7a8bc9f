"""Command-line front end.

    simulate <config> [--out DIR] [--preset NAME] [--sweep KEY=v1,v2,...]

Scenario files use the flat key=value grammar (see `config`); `--preset`
loads a packaged scenario by name instead. Far-field scenarios write a
constraint report (plain text and machine-readable key-value). Near-field
scenarios run one pipeline: a visibility report, the radial-profile CSVs
that _NEAR_FIELD_PROFILES lists for the mode, each from its engine's
averaged_pattern over the one node list of poisson.velocity_terms, which is
all that either engine reads, and a distinguishability report when compare
mode has both. Exit codes: 0 success, 2 configuration error, an --out that
cannot be created or written included, 3 numerical failure. A scenario
computes all its artifacts before it makes any file or directory, so a
failure while computing touches nothing, and a single run finds an --out
it cannot write only after it has computed. One writer makes every file
and directory, recording each path first; on any failure, an interrupt
included, one undo removes them newest first, a directory only if empty.
A sweep writes each scenario as it finishes; if a later one fails, the
sweep removes the earlier scenarios' files, any file they replaced
included, and every directory it made.

Output files are deterministic for a fixed config: rerunning a scenario
produces byte-identical artifacts.
"""

import argparse
import importlib.resources
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

from . import classical as cls
from . import poisson as psn
from .config import ConfigError, as_float, as_int, parse_kv, serialize_kv
from .farfield import FarFieldSetup, feasibility_report
# capture_eta is unused here: perfbench/test_perfbench.py::
# test_install_patches_every_binding_and_uninstall_restores_all asserts it
from .interaction import Obstacle, capture_eta  # noqa: F401
from .numerics import NumericsError, QuadratureSpec
from .particles import ParticleSpecies, species_preset

PRESET_NAMES = ("fig2a", "fig2b", "fig3-sphere", "fig3-disc",
                "farfield-30k", "farfield-au5000")

# the profiles each near-field mode writes; the first one gives the summary
# metrics, and two of them are compared
_NEAR_FIELD_PROFILES = {
    "poisson_ideal": ("ideal",),
    "poisson_quantum": ("quantum",),
    "poisson_classical": ("classical",),
    "poisson_compare": ("quantum", "classical"),
}

_MODES = ("farfield",) + tuple(_NEAR_FIELD_PROFILES)

# float-valued poisson.* keys, passed to PoissonSetup under the same names
_POISSON_LENGTHS = ("R0", "R", "L1", "L2")


def _names(table):
    return tuple(f.name for f in fields(table))


# the keys accepted per config section, as parse_config reads them
_SECTIONS = {
    "particle": ("preset",) + _names(ParticleSpecies),
    "poisson": _POISSON_LENGTHS + ("obstacle", "thickness"),
    "farfield": _names(FarFieldSetup),
    "numerics": _names(QuadratureSpec),
    "grid": ("n_u", "u_max"),
    "averaging": ("source", "velocity"),
}

_KNOWN_KEYS = {"mode"} | {f"{section}.{name}"
                          for section, names in _SECTIONS.items()
                          for name in names}


@dataclass
class ScenarioConfig:
    """A validated scenario: mode, particle, setup, numerics, output knobs."""

    mode: str
    particle: ParticleSpecies
    farfield: object        # FarFieldSetup or None
    poisson: object         # PoissonSetup or None
    quad: QuadratureSpec
    n_u: int
    u_max: float            # None = 3 ell default
    source_averaging: bool
    velocity_averaging: bool
    raw: dict               # canonical key -> value-string mapping


def _parse_particle(items):
    values = {}
    if "particle.preset" in items:
        try:
            values = asdict(species_preset(items["particle.preset"]))
        except KeyError as exc:
            raise ConfigError(f"particle: {exc.args[0]}") from None
    for short in _names(ParticleSpecies):
        key = f"particle.{short}"
        if key in items:
            values[short] = (items[key] if short == "name"
                             else as_float(items, key))
    missing = {"name", "mass", "alpha", "v_long"} - set(values)
    if missing:
        raise ConfigError(
            f"particle underspecified: missing {sorted(missing)} "
            f"(set particle.preset or the explicit fields)")
    try:
        return ParticleSpecies(**values)
    except ValueError as exc:
        raise ConfigError(f"particle: {exc}") from None


def _parse_flag(items, key, default):
    val = items.get(key)
    if val is None:
        return default
    if val not in ("on", "off"):
        raise ConfigError(f"key {key!r} must be 'on' or 'off', got {val!r}")
    return val == "on"


def parse_config(text):
    """Parse and validate scenario text into a ScenarioConfig."""
    items = parse_kv(text)
    unknown = set(items) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    mode = items.get("mode")
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")

    poisson_keys = {k for k in items if k.startswith("poisson.")}
    farfield_keys = {k for k in items if k.startswith("farfield.")}
    if mode == "farfield" and poisson_keys:
        raise ConfigError(f"farfield mode does not accept {sorted(poisson_keys)}")
    if mode != "farfield" and farfield_keys:
        raise ConfigError(f"{mode} mode does not accept {sorted(farfield_keys)}")

    particle = _parse_particle(items)

    ff = None
    ps = None
    if mode == "farfield":
        kwargs = {}
        for short in _SECTIONS["farfield"]:
            key = f"farfield.{short}"
            if key in items:
                kwargs[short] = as_float(items, key)
        try:
            ff = FarFieldSetup(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"farfield setup: {exc}") from None
    else:
        kind = items.get("poisson.obstacle")
        if kind not in ("sphere", "disc"):
            raise ConfigError("poisson.obstacle must be 'sphere' or 'disc'")
        if kind == "disc" and "poisson.thickness" not in items:
            raise ConfigError("disc obstacle requires poisson.thickness")
        if kind == "sphere" and "poisson.thickness" in items:
            raise ConfigError("poisson.thickness applies to disc obstacles only")
        try:
            obstacle = Obstacle(kind, as_float(items, "poisson.R"),
                                as_float(items, "poisson.thickness")
                                if kind == "disc" else None)
            ps = psn.PoissonSetup(
                obstacle=obstacle, particle=particle,
                **{n: as_float(items, f"poisson.{n}")
                   for n in _POISSON_LENGTHS})
        except ValueError as exc:
            raise ConfigError(f"poisson setup: {exc}") from None

    try:
        # each field's type (float or int) picks its reader
        quad = QuadratureSpec(**{
            f.name: (as_int if f.type is int else as_float)(
                items, f"numerics.{f.name}", default=f.default)
            for f in fields(QuadratureSpec)})
    except ValueError as exc:
        raise ConfigError(f"numerics: {exc}") from None

    n_u = as_int(items, "grid.n_u", default=600)
    if n_u < 8:
        raise ConfigError("grid.n_u must be at least 8")
    u_max = None
    if "grid.u_max" in items:
        u_max = as_float(items, "grid.u_max")
        if not u_max > 0:
            raise ConfigError("grid.u_max must be positive")

    source_avg = _parse_flag(items, "averaging.source", default=False)
    vel_avg = _parse_flag(items, "averaging.velocity", default=False)
    if vel_avg and particle.dv_rel == 0.0:
        raise ConfigError("averaging.velocity = on needs particle.dv_rel > 0")
    if mode != "farfield" and source_avg and ps.R0 == 0.0:
        raise ConfigError("averaging.source = on needs poisson.R0 > 0")
    if mode == "poisson_quantum" and particle.alpha == 0.0:
        raise ConfigError("poisson_quantum needs particle.alpha > 0")

    return ScenarioConfig(mode=mode, particle=particle, farfield=ff,
                          poisson=ps, quad=quad, n_u=n_u, u_max=u_max,
                          source_averaging=source_avg,
                          velocity_averaging=vel_avg, raw=dict(items))


def _fmt(x):
    return f"{x:.8e}"


def _profile_csv(profile):
    # "%.8e" writes the bytes of format(x, ".8e"), inf and nan included
    rows = "".join(map("%.8e,%.8e\n".__mod__,
                       zip(profile.u.tolist(), profile.w.tolist())))
    return ("# u = screen radius in units of the obstacle radius R; "
            "w = intensity normalized to the obstacle-free beam\n"
            "u,w\n" + rows)


def _report_kv(rows):
    lines = []
    for r in rows:
        note = " ".join(str(r.note).split())
        lines += [f"{r.name}.value = {_fmt(r.value)}\n",
                  f"{r.name}.bound = {_fmt(r.bound)}\n",
                  f"{r.name}.satisfied = {'true' if r.satisfied else 'false'}\n",
                  f"{r.name}.note = {note}\n"]
    return "".join(lines)


def _report_txt(rows, title):
    lines = [title + "\n", "-" * len(title) + "\n"]
    for r in rows:
        verdict = "ok  " if r.satisfied else "FAIL"
        lines.append(f"[{verdict}] {r.name}: value {_fmt(r.value)} vs bound "
                     f"{_fmt(r.bound)}\n       {r.note}\n")
    return "".join(lines)


def _first_minimum(profile):
    w, u = profile.w, profile.u
    for i in range(1, len(w) - 1):
        if w[i - 1] > w[i] <= w[i + 1]:
            return float(u[i])
    return math.nan


@dataclass
class ScenarioResult:
    paths: list
    w0: float
    spot_radius: float
    distinguishability: float


def _write(out_dir, files, made):
    """Make out_dir and its missing parents, as os.makedirs does, then write
    each (name, text) of files into it. Every path goes on made, with the
    call that removes it, before it is created. Returns the file paths."""
    missing = []
    head = os.path.normpath(out_dir)
    while head and not os.path.exists(head):
        missing.append(head)
        head = os.path.dirname(head)
    for d in reversed(missing):
        made.append((d, os.rmdir))
        os.mkdir(d)
    paths = []
    for name, text in files:
        path = os.path.join(out_dir, name)
        made.append((path, os.unlink))
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def _undo(made):
    """Remove what _write made, newest first: each file, and each directory
    if it is empty. What is gone, or was never made, is skipped."""
    for path, remove in reversed(made):
        try:
            remove(path)
        except OSError:
            pass


def _screen_grid(cfg):
    """The screen radii a near-field scenario computes on: the default grid,
    without its origin in the modes with a classical profile, which
    diverges there."""
    u = psn.default_grid(cfg.poisson.dimensionless(), cfg.n_u, cfg.u_max)
    return u[1:] if "classical" in _NEAR_FIELD_PROFILES[cfg.mode] else u


def run_scenario(cfg, out_dir, operators=None):
    """Execute one scenario, writing its artifacts into out_dir.

    Returns a ScenarioResult with the paths and summary metrics. Every
    artifact is computed before anything is made, so a failure while
    computing touches nothing, and an out_dir that cannot be written is
    found only after the computing. If writing fails, the files written and
    the directories made (out_dir and its missing parents) are removed,
    newest first and a directory only if empty, and the exception
    propagates. Both engines read only the velocity nodes built by
    poisson.velocity_terms, each with its params (beta zeroed without
    source averaging) and EikonalPhase. operators is the dict of
    source-average operators, quantum and classical, that a sweep's
    scenarios share, each keyed by what it depends on (see
    poisson.averaged_pattern and classical.classical_source_averaged); a
    single run passes none, and each profile builds its own and drops it.
    """
    if cfg.mode == "farfield":
        rows = feasibility_report(cfg.farfield, cfg.particle)
        files = [("farfield_report.txt", _report_txt(
                     rows, f"Far-field feasibility: {cfg.particle.name}")),
                 ("farfield_report.kv", _report_kv(rows))]
        metrics = (math.nan, math.nan, math.nan)
    else:
        names = _NEAR_FIELD_PROFILES[cfg.mode]
        u = _screen_grid(cfg)
        files = [("visibility.kv",
                  _report_kv(psn.visibility_checks(cfg.poisson)))]

        # alpha = 0 leaves the ideal obstacle and straight rays
        nodes = psn.velocity_terms(
            cfg.poisson, cfg.velocity_averaging,
            names != ("ideal",) and cfg.particle.alpha > 0,
            cfg.source_averaging)
        profiles = []
        for name in names:
            profiles.append(
                cls.averaged_pattern(u, nodes, operators)
                if name == "classical" else psn.averaged_pattern(
                    u, nodes, cfg.quad, operators))
            files.append((f"profile_{name}.csv", _profile_csv(profiles[-1])))

        dist = math.nan
        if len(profiles) == 2:
            rep = cls.distinguishability(*profiles, nodes[0][1].ell)
            files.append(("distinguishability.kv",
                          f"ratio = {_fmt(rep.ratio)}\n"
                          f"l1_shadow = {_fmt(rep.l1_shadow)}\n"
                          f"u_probe = {_fmt(rep.u_probe)}\n"))
            dist = rep.ratio
        metrics = (float(profiles[0].w[0]), _first_minimum(profiles[0]), dist)

    made = []
    try:
        paths = _write(out_dir, files, made)
    except BaseException:
        _undo(made)
        raise
    return ScenarioResult(paths, *metrics)


def load_preset(name):
    """Text of a packaged scenario preset."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(PRESET_NAMES)}")
    ref = importlib.resources.files("arago") / "presets" / f"{name}.cfg"
    return ref.read_text(encoding="utf-8")


def _apply_override(raw, key, value):
    items = dict(raw)
    items[key] = value
    return parse_config(serialize_kv(items))


def sweep(cfg, key, values, out_dir):
    """Run the scenario once per value of `key`, plus a summary CSV.

    The key must address a known scalar config field; every value is
    validated into a full ScenarioConfig before any computation starts.
    Each scenario is written as it finishes, into a directory the sweep
    makes before running it. If a scenario or the summary fails, or the
    sweep is interrupted, the earlier scenarios' files, any file they
    replaced included, and every directory the sweep made are removed,
    newest first and a directory only if empty; the exception propagates.

    Scenarios that share a source-average geometry, as a velocity sweep's
    do, share its operators through one dict, which each engine keys by
    what it depends on: one arc_average_operator per screen grid and beta
    (quantum), grown to the longest intensity series among them, and one
    polar_average_operator per grid, beta and ell (classical). Each profile
    applies its operator once, to the sum over its velocity nodes; the
    first scenario to need an operator builds it, the rest reuse it, and
    all are dropped when the sweep returns.
    """
    if key not in _KNOWN_KEYS or key == "mode":
        raise ConfigError(f"cannot sweep over {key!r}")
    configs = [(v, _apply_override(cfg.raw, key, v)) for v in values]
    operators = {}

    slug = key.replace(".", "_")
    made, rows = [], []
    try:
        for i, (val, c) in enumerate(configs):
            scenario_dir = os.path.join(out_dir, f"{slug}_{i:02d}")
            _write(scenario_dir, (), made)
            # a scenario that fails has undone its own files already
            res = run_scenario(c, scenario_dir, operators)
            made += [(path, os.unlink) for path in res.paths]
            rows.append(f"{val},{_fmt(res.w0)},{_fmt(res.spot_radius)},"
                        f"{_fmt(res.distinguishability)}\n")
        summary, = _write(out_dir, [("summary.csv", "".join(
            [f"# sweep over {key}; w0 = profile value at the first grid "
             "node, spot_radius = first local minimum (units of R)\n",
             "value,w0,spot_radius,distinguishability\n"] + rows))], made)
    except BaseException:
        _undo(made)
        raise
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Near-field Poisson-spot and far-field grating "
                    "feasibility simulations")
    parser.add_argument("config", nargs="?",
                        help="scenario config file (key = value lines)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
    parser.add_argument("--preset", metavar="NAME",
                        help=f"packaged scenario: {', '.join(PRESET_NAMES)}")
    parser.add_argument("--sweep", metavar="KEY=V1,V2,...",
                        help="run once per value of a config key")
    args = parser.parse_args(argv)

    try:
        if args.preset and args.config:
            raise ConfigError("give either a config file or --preset, not both")
        if args.preset:
            text = load_preset(args.preset)
        elif args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
        else:
            raise ConfigError("need a config file or --preset")
        cfg = parse_config(text)

        if args.sweep:
            if "=" not in args.sweep:
                raise ConfigError("--sweep wants KEY=V1,V2,...")
            key, _, rest = args.sweep.partition("=")
            values = [v.strip() for v in rest.split(",") if v.strip()]
            if not values:
                raise ConfigError("--sweep got an empty value list")
            # sweep validates every value before it computes anything
            print(sweep(cfg, key, values, args.out))
        else:
            for path in run_scenario(cfg, args.out).paths:
                print(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # --out, or a file in it, could not be made; the failed run has
        # undone what it made
        print(f"config error: cannot write the outputs: {exc}",
              file=sys.stderr)
        return 2
    except (NumericsError, ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
