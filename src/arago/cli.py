"""Command-line front end.

    simulate <config> [--out DIR] [--preset NAME] [--sweep KEY=v1,v2,...]

Scenario files use the flat key=value grammar (see `config`); `--preset`
loads a packaged scenario by name instead. Far-field scenarios write a
constraint report (plain text and machine-readable key-value); near-field
scenarios write radial-profile CSVs; compare mode writes both profiles plus
a distinguishability report. Exit codes: 0 success, 2 configuration error,
3 numerical failure (partial outputs are removed).

Output files are deterministic for a fixed config: rerunning a scenario
produces byte-identical artifacts.
"""

import argparse
import importlib.resources
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import classical as cls
from . import poisson as psn
from .config import ConfigError, as_float, parse_kv, serialize_kv
from .farfield import FarFieldSetup, feasibility_report
from .interaction import EikonalPhase, Obstacle, capture_eta
from .numerics import NumericsError, QuadratureSpec
from .particles import ParticleSpecies, species_preset

PRESET_NAMES = ("fig2a", "fig2b", "fig3-sphere", "fig3-disc",
                "farfield-30k", "farfield-au5000")

_MODES = ("farfield", "poisson_ideal", "poisson_quantum",
          "poisson_classical", "poisson_compare")

_KNOWN_KEYS = {
    "mode",
    "particle.preset", "particle.name", "particle.mass", "particle.alpha",
    "particle.v_long", "particle.dv_rel",
    "poisson.R0", "poisson.R", "poisson.L1", "poisson.L2",
    "poisson.obstacle", "poisson.thickness",
    "farfield.D", "farfield.Y", "farfield.L1", "farfield.L2",
    "farfield.d", "farfield.b", "farfield.Theta", "farfield.eps1",
    "farfield.eps2", "farfield.eps3", "farfield.latitude", "farfield.H",
    "farfield.T_source", "farfield.eta_trans", "farfield.tau",
    "farfield.N_target", "farfield.d_open",
    "numerics.rel_tol", "numerics.abs_tol", "numerics.max_subdivisions",
    "grid.n_u", "grid.u_max",
    "averaging.source", "averaging.velocity",
}


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
    fields = {}
    if "particle.preset" in items:
        base = species_preset(items["particle.preset"])
        fields = dict(name=base.name, mass=base.mass, alpha=base.alpha,
                      v_long=base.v_long, dv_rel=base.dv_rel)
    for short in ("mass", "alpha", "v_long", "dv_rel"):
        key = f"particle.{short}"
        if key in items:
            fields[short] = as_float(items, key)
    if "particle.name" in items:
        fields["name"] = items["particle.name"]
    missing = {"name", "mass", "alpha", "v_long"} - set(fields)
    if missing:
        raise ConfigError(
            f"particle underspecified: missing {sorted(missing)} "
            f"(set particle.preset or the explicit fields)")
    try:
        return ParticleSpecies(**fields)
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
        for short in ("D", "Y", "L1", "L2", "d", "b", "Theta", "eps1",
                      "eps2", "eps3", "latitude", "H", "T_source",
                      "eta_trans", "tau", "N_target", "d_open"):
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
                R0=as_float(items, "poisson.R0"),
                R=as_float(items, "poisson.R"),
                L1=as_float(items, "poisson.L1"),
                L2=as_float(items, "poisson.L2"),
                obstacle=obstacle,
                particle=particle)
        except ValueError as exc:
            raise ConfigError(f"poisson setup: {exc}") from None

    try:
        quad = QuadratureSpec(
            rel_tol=as_float(items, "numerics.rel_tol", default=1e-8),
            abs_tol=as_float(items, "numerics.abs_tol", default=1e-12),
            max_subdivisions=int(as_float(items, "numerics.max_subdivisions",
                                          default=2000)))
    except ValueError as exc:
        raise ConfigError(f"numerics: {exc}") from None

    n_u = int(as_float(items, "grid.n_u", default=600))
    if n_u < 8:
        raise ConfigError("grid.n_u must be at least 8")
    u_max = as_float(items, "grid.u_max", default=math.nan)
    u_max = None if math.isnan(u_max) else u_max

    source_avg = _parse_flag(items, "averaging.source", default=False)
    vel_avg = _parse_flag(items, "averaging.velocity", default=False)
    if vel_avg and particle.dv_rel == 0.0:
        raise ConfigError("averaging.velocity = on needs particle.dv_rel > 0")
    if mode != "farfield" and source_avg and ps.R0 == 0.0:
        raise ConfigError("averaging.source = on needs poisson.R0 > 0")

    return ScenarioConfig(mode=mode, particle=particle, farfield=ff,
                          poisson=ps, quad=quad, n_u=n_u, u_max=u_max,
                          source_averaging=source_avg,
                          velocity_averaging=vel_avg, raw=dict(items))


def serialize_config(cfg):
    """Canonical text form of a parsed scenario (sorted keys, LF)."""
    return serialize_kv(cfg.raw)


def _fmt(x):
    return f"{x:.8e}"


def _write_profile_csv(path, profile):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("# u = screen radius in units of the obstacle radius R; "
                 "w = intensity normalized to the obstacle-free beam\n")
        fh.write("u,w\n")
        for ui, wi in zip(profile.u, profile.w):
            fh.write(f"{_fmt(ui)},{_fmt(wi)}\n")


def _write_report_kv(path, rows):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        for r in rows:
            note = " ".join(str(r.note).split())
            fh.write(f"{r.name}.value = {_fmt(r.value)}\n")
            fh.write(f"{r.name}.bound = {_fmt(r.bound)}\n")
            fh.write(f"{r.name}.satisfied = {'true' if r.satisfied else 'false'}\n")
            fh.write(f"{r.name}.note = {note}\n")


def _write_report_txt(path, rows, title):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(title + "\n")
        fh.write("-" * len(title) + "\n")
        for r in rows:
            verdict = "ok  " if r.satisfied else "FAIL"
            fh.write(f"[{verdict}] {r.name}: value {_fmt(r.value)} vs bound "
                     f"{_fmt(r.bound)}\n       {r.note}\n")


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


def _quantum_bits(cfg):
    """Interaction phase and capture radius for the configured obstacle."""
    if cfg.particle.alpha <= 0:
        raise ConfigError(
            "interacting modes need a particle with alpha > 0")
    phase = EikonalPhase(cfg.poisson.obstacle, cfg.particle,
                         cfg.particle.v_long)
    eta = capture_eta(cfg.poisson.obstacle, cfg.particle, cfg.particle.v_long)
    return phase, eta


def _pattern(cfg, u, phase, eta):
    """Quantum/ideal pattern on grid u honoring the averaging flags."""
    if cfg.velocity_averaging:
        family = None
        if phase is not None:
            family = lambda v: EikonalPhase(cfg.poisson.obstacle,
                                            cfg.particle, v)
        return psn.wavelength_averaged_pattern(
            u, cfg.poisson, family, cfg.quad,
            source_averaging=cfg.source_averaging)
    if cfg.source_averaging:
        return psn.source_averaged_pattern(u, cfg.poisson, phase, cfg.quad,
                                           capture=eta)
    p = cfg.poisson.dimensionless()
    return psn.point_source_pattern(u, p, phase, cfg.quad, capture=eta)


def run_scenario(cfg, out_dir):
    """Execute one scenario, writing its artifacts into out_dir.

    Returns a ScenarioResult with the paths and summary metrics. On a
    numerical failure every partially written artifact is removed and the
    exception propagates.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def target(name):
        path = os.path.join(out_dir, name)
        written.append(path)
        return path

    try:
        if cfg.mode == "farfield":
            rows = feasibility_report(cfg.farfield, cfg.particle)
            _write_report_txt(target("farfield_report.txt"), rows,
                              f"Far-field feasibility: {cfg.particle.name}")
            _write_report_kv(target("farfield_report.kv"), rows)
            return ScenarioResult(list(written), math.nan, math.nan, math.nan)

        p = cfg.poisson.dimensionless()
        top = cfg.u_max if cfg.u_max is not None else 3.0 * p.ell
        grid_full = np.linspace(0.0, top, cfg.n_u)
        grid_pos = grid_full[1:]  # classical profiles exclude the origin

        vis = psn.visibility_checks(cfg.poisson)
        _write_report_kv(target("visibility.kv"), vis)

        w0 = spot = dist = math.nan
        if cfg.mode == "poisson_ideal":
            prof = _pattern(cfg, grid_full, None, 0.0)
            _write_profile_csv(target("profile_ideal.csv"), prof)
            w0, spot = float(prof.w[0]), _first_minimum(prof)
        elif cfg.mode == "poisson_quantum":
            phase, eta = _quantum_bits(cfg)
            prof = _pattern(cfg, grid_full, phase, eta)
            _write_profile_csv(target("profile_quantum.csv"), prof)
            w0, spot = float(prof.w[0]), _first_minimum(prof)
        elif cfg.mode == "poisson_classical":
            phase, eta = (None, 0.0) if cfg.particle.alpha == 0 \
                else _quantum_bits(cfg)
            rmap = cls.ray_map(p, phase, cfg.particle, cfg.particle.v_long,
                               eta, s_max=max(8.0, top / p.ell + 2.0))
            if cfg.source_averaging:
                prof = cls.classical_source_averaged(grid_pos, cfg.poisson,
                                                     rmap)
            else:
                prof = cls.classical_point_pattern(grid_pos, rmap)
            _write_profile_csv(target("profile_classical.csv"), prof)
            w0, spot = float(prof.w[0]), _first_minimum(prof)
        elif cfg.mode == "poisson_compare":
            phase, eta = (None, 0.0) if cfg.particle.alpha == 0 \
                else _quantum_bits(cfg)
            q_prof = _pattern(cfg, grid_pos, phase, eta)
            rmap = cls.ray_map(p, phase, cfg.particle, cfg.particle.v_long,
                               eta, s_max=max(8.0, top / p.ell + 2.0))
            if cfg.source_averaging:
                c_prof = cls.classical_source_averaged(grid_pos, cfg.poisson,
                                                       rmap)
            else:
                c_prof = cls.classical_point_pattern(grid_pos, rmap)
            _write_profile_csv(target("profile_quantum.csv"), q_prof)
            _write_profile_csv(target("profile_classical.csv"), c_prof)
            rep = cls.distinguishability(grid_pos, cfg.poisson, q_prof, c_prof)
            with open(target("distinguishability.kv"), "w", newline="\n",
                      encoding="utf-8") as fh:
                fh.write(f"ratio = {_fmt(rep.ratio)}\n")
                fh.write(f"l1_shadow = {_fmt(rep.l1_shadow)}\n")
                fh.write(f"u_probe = {_fmt(rep.u_probe)}\n")
            w0, spot = float(q_prof.w[0]), _first_minimum(q_prof)
            dist = rep.ratio
        return ScenarioResult(list(written), w0, spot, dist)
    except Exception:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise


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
    """
    if key not in _KNOWN_KEYS or key == "mode":
        raise ConfigError(f"cannot sweep over {key!r}")
    configs = [(v, _apply_override(cfg.raw, key, v)) for v in values]

    slug = key.replace(".", "_")
    results = [run_scenario(c, os.path.join(out_dir, f"{slug}_{i:02d}"))
               for i, (_, c) in enumerate(configs)]

    os.makedirs(out_dir, exist_ok=True)
    summary = os.path.join(out_dir, "summary.csv")
    with open(summary, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(f"# sweep over {key}; w0 = profile value at the first grid "
                 "node, spot_radius = first local minimum (units of R)\n")
        fh.write("value,w0,spot_radius,distinguishability\n")
        for (val, _), res in zip(configs, results):
            fh.write(f"{val},{_fmt(res.w0)},{_fmt(res.spot_radius)},"
                     f"{_fmt(res.distinguishability)}\n")
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

        sweep_key = sweep_values = None
        if args.sweep:
            if "=" not in args.sweep:
                raise ConfigError("--sweep wants KEY=V1,V2,...")
            sweep_key, _, rest = args.sweep.partition("=")
            sweep_values = [v.strip() for v in rest.split(",") if v.strip()]
            if not sweep_values:
                raise ConfigError("--sweep got an empty value list")
            # validate all overrides before any computation
            for v in sweep_values:
                _apply_override(cfg.raw, sweep_key, v)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if sweep_key is not None:
            summary = sweep(cfg, sweep_key, sweep_values, args.out)
            print(summary)
        else:
            result = run_scenario(cfg, args.out)
            for path in result.paths:
                print(path)
    except (NumericsError, ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
